"""Exact combinatorial algebra of surjections under substitution.

The package carries five layers, importable on their own:

* :mod:`permutads.surjections`, :mod:`permutads.shuffles` and
  :mod:`permutads.trees` hold the raw combinatorics: surjections with
  their substitution product, block shuffle and unshuffle words, and the
  leveled-tree and left-comb renders;
* :mod:`permutads.linalg` does exact linear algebra over the rationals
  and over polynomials in the parameter q;
* :mod:`permutads.permutad` builds free algebras over the substitution
  monad, their relation ideals, quotient dimensions and normal forms;
* :mod:`permutads.chains` and :mod:`permutads.bruhat` cover the geometry:
  permutohedron chain complexes with their grafting, and the weak order
  on words with its two kinds of cover;
* :mod:`permutads.derivations` realizes the composition calculus on
  noncommutative polynomials where one generator acts as a derivation.

:mod:`permutads.verify` bundles the exhaustive consistency checks behind
the ``permutads verify all`` command.
"""

from .surjections import (
    Surjection,
    UNIT,
    corolla,
    enumerate_surjections,
    substitute,
)
from .shuffles import Shuffle, shuffle_of, sigma_of, surjection_of_shuffle
from .trees import (
    LeveledTree,
    ShuffleLeftComb,
    comb_from_surjection,
    tree_from_surjection,
    validate_shuffle_tree,
)
from .linalg import LinComb, QPoly, SpanBasis, csv_triples, span_rank
from .permutad import (
    DecoratedSurjection,
    GeneratorSet,
    PRESETS,
    binary_normal_form,
    circ_i,
    circ_t,
    diamond_check,
    free_basis,
    gamma,
    generator_element,
    qpermas_normalize,
    qpermas_relation,
    quotient_dim,
)
from .chains import (
    boundary_of_cell,
    boundary_of_top,
    cells,
    chain_boundary,
    dg_leibniz_check,
    f_vector,
    homology_ranks,
    skeleton_dot,
)
from .bruhat import Cover, admissible_path, bruhat_dot, cover_graph, type1_connected
from .derivations import (
    DERIVATION,
    MU,
    NCPoly,
    asder_circ,
    asder_compose,
    asder_diamond_check,
    asder_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "Cover",
    "DERIVATION",
    "DecoratedSurjection",
    "GeneratorSet",
    "LeveledTree",
    "LinComb",
    "MU",
    "NCPoly",
    "PRESETS",
    "QPoly",
    "Shuffle",
    "ShuffleLeftComb",
    "SpanBasis",
    "Surjection",
    "UNIT",
    "admissible_path",
    "asder_circ",
    "asder_compose",
    "asder_diamond_check",
    "asder_monomial",
    "binary_normal_form",
    "boundary_of_cell",
    "boundary_of_top",
    "bruhat_dot",
    "cells",
    "chain_boundary",
    "circ_i",
    "circ_t",
    "comb_from_surjection",
    "corolla",
    "cover_graph",
    "csv_triples",
    "dg_leibniz_check",
    "diamond_check",
    "enumerate_surjections",
    "f_vector",
    "free_basis",
    "gamma",
    "generator_element",
    "homology_ranks",
    "qpermas_normalize",
    "qpermas_relation",
    "quotient_dim",
    "shuffle_of",
    "sigma_of",
    "skeleton_dot",
    "span_rank",
    "substitute",
    "surjection_of_shuffle",
    "tree_from_surjection",
    "type1_connected",
    "validate_shuffle_tree",
]
