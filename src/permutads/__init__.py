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
