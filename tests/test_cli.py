import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import permutads
from permutads import bruhat, cli, verify
from permutads.cli import build_parser, main
from permutads.verify import CHECKS, Check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdin(text: str) -> io.TextIOWrapper:
    """Stand-in stdin that, like the real one, reads bytes through ``.buffer``."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="\n")


def test_enum_surjections_pin(capsys):
    code, out, err = run(capsys, "enum", "surjections", "--n", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 13
    assert lines[0] == '{"n": 3, "k": 1, "values": [1, 1, 1]}'
    assert json.loads(lines[-1]) == {"n": 3, "k": 3, "values": [3, 2, 1]}


def test_enum_restricts_target_size(capsys):
    code, out, _ = run(capsys, "enum", "surjections", "--n", "3", "--k", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 6
    assert all(row["k"] == 2 for row in rows)


@pytest.mark.parametrize(
    "kind, n, k",
    [("surjections", 3, -1), ("cells", 3, 9), ("shuffles", 3, 0), ("trees", 0, 1)],
)
def test_enum_refuses_a_level_count_no_surjection_reaches(capsys, kind, n, k):
    code, out, err = run(capsys, "enum", kind, "--n", str(n), "--k", str(k))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": f"no surjection of {n} inputs onto {k} levels", "k": k,
    }


def test_enum_cells_sorted_by_dimension(capsys):
    code, out, _ = run(capsys, "enum", "cells", "--n", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    dims = [row["dim"] for row in rows]
    assert dims == sorted(dims)
    assert dims.count(0) == 6 and dims.count(2) == 1


def test_enum_streams_its_rows(monkeypatch):
    # Holding the 47,293 rows of n = 7 in a list before writing took about
    # 22 MB under tracemalloc; streaming holds the enumeration alone (~8 MB).
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            assert main(["enum", "surjections", "--n", "7"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 14_000_000


def test_convert_streams_its_input(monkeypatch, tmp_path):
    # Reading the 2.4 MB input whole before converting it held all of it
    # (2.8 MB at peak under tracemalloc); line by line, about 0.4 MB.
    # Blank padding, which JSON allows, makes each row long, so that few
    # rows fill the file and tracemalloc, slowing each allocation, stays quick.
    row = json.dumps({"n": 7, "k": 4, "values": [3, 1, 2, 1, 4, 2, 3]})
    path = tmp_path / "padded.jsonl"
    path.write_text((row.ljust(999) + "\n") * 2400, encoding="utf-8")
    argv = ["convert", "--from", "surjection", "--to", "tree", "--input", str(path)]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000


def test_convert_roundtrip_through_trees(capsys, monkeypatch):
    code, surjections, _ = run(capsys, "enum", "surjections", "--n", "3")
    assert code == 0
    code, trees, _ = run(capsys, "enum", "trees", "--n", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", _stdin(trees))
    code, back, err = run(capsys, "convert", "--from", "tree", "--to", "surjection")
    assert code == 0 and err == ""
    assert back == surjections


def test_convert_reports_malformed_json_position(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin('{"values": [1, 2]}\n{oops\n'))
    code, out, err = run(capsys, "convert", "--from", "surjection", "--to", "comb")
    assert code == 1
    payload = json.loads(err)
    assert payload["line"] == 2
    assert payload["column"] == 2
    assert payload["position"] == 1
    assert "malformed JSON" in payload["error"]


def test_convert_reports_deep_nesting_as_a_domain_error(capsys, monkeypatch):
    deep = '{"nested": ' + "[1, 0, " * 5000 + "1" + "]" * 5000 + "}"
    monkeypatch.setattr("sys.stdin", _stdin('{"nested": [1, 0, 1]}\n' + deep + "\n"))
    code, out, err = run(capsys, "convert", "--from", "tree", "--to", "surjection")
    assert code == 1
    assert out == '{"n": 1, "k": 1, "values": [1]}\n'
    rows = err.splitlines()
    assert len(rows) == 1
    assert json.loads(rows[0]) == {"error": "input line 2 is nested too deeply", "line": 2}


def test_convert_rejects_bad_items_with_line_numbers(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin('{"values": [1, 3]}\n'))
    code, out, err = run(capsys, "convert", "--from", "surjection", "--to", "tree")
    assert code == 1
    assert "input line 1" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "line, to",
    [
        pytest.param('{"values": [true, 1]}', "tree", id="value"),
        pytest.param('{"values": [1], "n": true, "k": 1.0}', "surjection", id="n-and-k"),
        pytest.param('{"values": [1], "n": 1.0}', "surjection", id="float-n"),
        pytest.param('{"values": [1], "k": true}', "surjection", id="bool-k"),
    ],
)
def test_convert_rejects_boolean_values(capsys, monkeypatch, line, to):
    monkeypatch.setattr("sys.stdin", _stdin(line + "\n"))
    code, out, err = run(capsys, "convert", "--from", "surjection", "--to", to)
    assert code == 1 and out == ""
    assert "input line 1" in json.loads(err)["error"]


def test_convert_rejects_negative_shuffle_block(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin('{"blocks": [-1, 3], "perm": [1, 2]}\n'))
    code, out, err = run(capsys, "convert", "--from", "shuffle", "--to", "surjection")
    assert code == 1 and out == ""
    assert "input line 1" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "kind, line",
    [("tree", '{"nested": [true, 0, 1]}'), ("comb", '{"nested": [[false, 1], 2]}')],
)
def test_convert_rejects_boolean_nested_renders(capsys, monkeypatch, kind, line):
    monkeypatch.setattr("sys.stdin", _stdin(line + "\n"))
    code, out, err = run(capsys, "convert", "--from", kind, "--to", "surjection")
    assert code == 1 and out == ""
    assert "input line 1" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "kind, line",
    [
        ("tree", '{"levels": [[1]], "nested": [true, 0, 1]}'),
        ("comb", '{"labels": [[1]], "nested": [false, 1]}'),
    ],
)
def test_convert_rejects_boolean_nested_beside_levels(capsys, monkeypatch, kind, line):
    monkeypatch.setattr("sys.stdin", _stdin(line + "\n"))
    code, out, err = run(capsys, "convert", "--from", kind, "--to", kind)
    assert code == 1 and out == ""
    assert "input line 1" in json.loads(err)["error"]


def test_convert_rejects_non_canonical_nested_tree(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin('{"nested": [1, 0, [1, 1, 2]]}\n'))
    code, out, err = run(capsys, "convert", "--from", "tree", "--to", "tree")
    assert code == 1 and out == ""
    assert "canonical" in json.loads(err)["error"]


NO_TREE = "a leveled tree needs at least one gap"
NO_COMB = "a left comb needs at least one label"


@pytest.mark.parametrize(
    "kind, line, refusal",
    [
        pytest.param("tree", '{"nested": 0}', NO_TREE, id="tree-nested"),
        pytest.param("tree", '{"levels": []}', NO_TREE, id="tree-levels"),
        pytest.param("comb", '{"labels": []}', NO_COMB, id="comb-labels"),
    ],
)
def test_convert_rejects_empty_trees_and_combs(capsys, monkeypatch, kind, line, refusal):
    # A tree or comb has at least one input; the unit surjection has none.
    monkeypatch.setattr("sys.stdin", _stdin(line + "\n"))
    code, out, err = run(capsys, "convert", "--from", kind, "--to", "surjection")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": f"bad {kind} on input line 1: {refusal}"}


@pytest.mark.parametrize(
    "argv, refusal",
    [
        pytest.param(["enum", "trees", "--n", "0"], NO_TREE, id="enum-trees"),
        pytest.param(["enum", "combs", "--n", "0"], NO_COMB, id="enum-combs"),
        pytest.param(["convert", "--from", "surjection", "--to", "tree"], NO_TREE, id="to-tree"),
        pytest.param(["convert", "--from", "surjection", "--to", "comb"], NO_COMB, id="to-comb"),
    ],
)
def test_the_unit_surjection_renders_no_tree_and_no_comb(capsys, monkeypatch, argv, refusal):
    monkeypatch.setattr("sys.stdin", _stdin('{"values": []}\n'))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == json.dumps({"error": refusal}) + "\n"


@pytest.mark.parametrize(
    "name, reason",
    [pytest.param("missing.jsonl", errno.ENOENT, id="missing"),
     pytest.param("", errno.EISDIR, id="directory")],
)
def test_convert_reports_an_unreadable_input(capsys, tmp_path, name, reason):
    path = str(tmp_path / name) if name else str(tmp_path)
    code, out, err = run(
        capsys, "convert", "--from", "surjection", "--to", "tree", "--input", path
    )
    assert code == 1 and out == ""
    rows = err.splitlines()
    assert len(rows) == 1
    assert json.loads(rows[0]) == {
        "error": f"cannot read input {path}: {os.strerror(reason)}",
        "path": path,
    }


@pytest.mark.parametrize(
    "source, end, position, rows",
    [
        pytest.param("file", "\n", 48000, 3000, id="file"),
        pytest.param("file", "\r\n", 51000, 3000, id="file-crlf"),
        pytest.param("file", "\r", 48000, 3000, id="file-cr"),
        pytest.param("stdin", "\n", 48000, 3000, id="stdin"),
        pytest.param("stdin", "\r\n", 51000, 3000, id="stdin-crlf"),
        pytest.param("stdin", "\r", 48000, 3000, id="stdin-cr"),
    ],
)
def test_convert_reports_a_byte_that_is_not_utf8_by_line_and_offset(
    capsys, monkeypatch, tmp_path, source, end, position, rows
):
    data = ('{"values": [1]}' + end).encode() * 3000 + b"\xff" + end.encode()
    argv = ["convert", "--from", "surjection", "--to", "surjection"]
    if source == "file":
        (tmp_path / "rows.jsonl").write_bytes(data)
        argv += ["--input", str(tmp_path / "rows.jsonl")]
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), newline="\n"))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == '{"n": 1, "k": 1, "values": [1]}\n' * rows
    assert json.loads(err) == {
        "error": "input line 3001 is not UTF-8: invalid start byte",
        "line": 3001,
        "position": position,
    }


@pytest.mark.parametrize("kind, field", [("surjection", "values"), ("shuffle", "blocks"),
                                         ("tree", "nested"), ("comb", "nested")])
@pytest.mark.parametrize("line, refusal", [
    pytest.param("[1]", "expected a JSON object, got list", id="list"),
    pytest.param("5", "expected a JSON object, got int", id="int"),
    pytest.param("null", "expected a JSON object, got NoneType", id="null"),
    pytest.param('"x"', "expected a JSON object, got str", id="str"),
    pytest.param("{}", "missing field '{field}'", id="empty"),
])
def test_convert_names_a_row_that_is_not_an_object_or_lacks_a_field(
    capsys, monkeypatch, kind, field, line, refusal
):
    monkeypatch.setattr("sys.stdin", _stdin(line + "\n"))
    code, out, err = run(capsys, "convert", "--from", kind, "--to", "surjection")
    assert code == 1 and out == ""
    assert err == json.dumps(
        {"error": f"bad {kind} on input line 1: " + refusal.format(field=field)}
    ) + "\n"


@pytest.mark.parametrize("kind, line, refusal", [
    ("surjection", '{"values": 5}', "expected a list for 'values', got int"),
    ("shuffle", '{"blocks": 5, "perm": []}', "expected a list for 'blocks', got int"),
    ("tree", '{"levels": 5}', "expected a list for 'levels', got int"),
    ("comb", '{"labels": [[1], 2]}', "expected a list for each of 'labels', got int"),
    ("tree", '{"levels": [[1, "a"]]}', "expected an int in each of 'levels', got str"),
    ("tree", '{"levels": [[1, null]]}', "expected an int in each of 'levels', got NoneType"),
])
def test_convert_names_a_nested_field_of_the_wrong_type(capsys, monkeypatch, kind, line, refusal):
    monkeypatch.setattr("sys.stdin", _stdin(line + "\n"))
    code, out, err = run(capsys, "convert", "--from", kind, "--to", "surjection")
    assert code == 1 and out == ""
    assert err == json.dumps({"error": f"bad {kind} on input line 1: {refusal}"}) + "\n"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_convert_splits_stdin_at_each_newline_of_text_mode(capsys, monkeypatch, end):
    data = f'{{"values": [1]}}{end}{{"values": [1, 1]}}{end}'.encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), newline="\n"))
    code, out, err = run(capsys, "convert", "--from", "surjection", "--to", "surjection")
    assert (code, err) == (0, "")
    assert out == '{"n": 1, "k": 1, "values": [1]}\n{"n": 2, "k": 1, "values": [1, 1]}\n'
    assert not sys.stdin.buffer.closed


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_convert_splits_a_file_at_each_newline_of_text_mode(capsys, tmp_path, end):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(f'{{"values": [1, 2]}}{end}{end}{{"values": {end}'.encode())
    code, out, err = run(
        capsys, "convert", "--from", "surjection", "--to", "surjection", "--input", str(path)
    )
    assert code == 1 and out == '{"n": 2, "k": 2, "values": [1, 2]}\n'
    assert json.loads(err) == {
        "error": "malformed JSON on input line 3: Expecting value",
        "line": 3,
        "column": 1,
        "position": 12,
    }


def test_convert_reads_the_env_cap_once_at_the_first_row(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTAD_MAX_N", "many")
    monkeypatch.setattr("sys.stdin", _stdin("\n\n"))
    assert run(capsys, "convert", "--from", "surjection", "--to", "tree") == (0, "", "")
    reads = []
    monkeypatch.setattr(cli, "_env_cap", functools.partial(reads.append, None))
    monkeypatch.setattr("sys.stdin", _stdin('{"values": [1]}\n' * 3))
    code, out, _ = run(capsys, "convert", "--from", "surjection", "--to", "surjection")
    assert code == 0 and out.count("\n") == 3
    assert reads == [None]


def test_boundary_csv_golden(capsys):
    code, out, _ = run(capsys, "boundary", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["row,key,coeff", "0,1-2,-1", "0,2-1,1"]


def test_boundary_json_rows_cover_requested_dimension(capsys):
    code, out, _ = run(capsys, "boundary", "--n", "3", "--dim", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert row["cell"]["dim"] == 1
        got = {term["cell"]["dim"] for term in row["boundary"]}
        assert got == {0}


def test_boundary_rejects_out_of_range_dimension(capsys):
    code, out, err = run(capsys, "boundary", "--n", "3", "--dim", "5")
    assert code == 1
    assert "out of range" in json.loads(err)["error"]


def test_homology_pin(capsys):
    code, out, _ = run(capsys, "homology", "--n", "3")
    assert code == 0
    assert out == '{"n": 3, "f_vector": [6, 6, 1], "betti": [1, 0, 0]}\n'


def test_homology_reaches_seven_letters_at_the_default_bound(capsys, monkeypatch):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    code, out, err = run(capsys, "homology", "--n", "7")
    assert code == 0 and err == ""
    row = json.loads(out)
    assert row["f_vector"] == [5040, 15120, 16800, 8400, 1806, 126, 1]
    assert row["betti"] == [1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("command", ["homology", "boundary"])
def test_complexes_stop_at_the_shared_bound(capsys, monkeypatch, command):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    code, out, err = run(capsys, command, "--n", "8")
    assert code == 1 and out == ""
    assert json.loads(err)["bound"] == 7


@pytest.mark.parametrize("n", ["0", "-3"])
def test_homology_needs_a_letter(capsys, n):
    code, out, err = run(capsys, "homology", "--n", n)
    assert code == 1 and out == ""
    assert "need at least one letter" in json.loads(err)["error"]


def test_enum_cells_needs_a_letter(capsys):
    code, out, err = run(capsys, "enum", "cells", "--n", "0")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "need at least one letter, got n=0"}


def test_bruhat_check_connected_pin(capsys):
    code, out, _ = run(
        capsys, "bruhat", "--n", "3", "--type1-only", "--check-connected"
    )
    assert code == 0
    assert out == '{"connected": true, "vertices": 6, "edges": 5}\n'


def test_bruhat_check_connected_searches_the_full_order(capsys, monkeypatch):
    code, out, _ = run(capsys, "bruhat", "--n", "3", "--check-connected")
    assert code == 0
    assert out == '{"connected": true, "vertices": 6, "edges": 6}\n'
    # With every cover into the top word gone, nothing reaches it.  The
    # search keeps the latest graph it read, so it gets a cache of its own.
    real = bruhat.cover_graph
    monkeypatch.setattr(
        bruhat, "cover_graph", lambda n: [c for c in real(n) if c.target != (3, 2, 1)]
    )
    fresh = functools.lru_cache(maxsize=1)(bruhat._adjacency.__wrapped__)
    monkeypatch.setattr(bruhat, "_adjacency", fresh)
    code, out, _ = run(capsys, "bruhat", "--n", "3", "--check-connected")
    assert code == 0
    assert out == '{"connected": false, "vertices": 6, "edges": 4}\n'
    code, out, _ = run(capsys, "bruhat", "--n", "3", "--type1-only", "--check-connected")
    assert out == '{"connected": false, "vertices": 6, "edges": 3}\n'


@pytest.mark.parametrize("flags, kinds", [((), (1, 2)), (("--type1-only",), (1,))])
def test_bruhat_check_connected_builds_one_cover_graph(capsys, monkeypatch, flags, kinds):
    real = bruhat.cover_graph
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(bruhat, "cover_graph", counted)
    for n in range(1, 6):
        bruhat._adjacency.cache_clear()
        calls.clear()
        code, out, _ = run(capsys, "bruhat", "--n", str(n), *flags, "--check-connected")
        assert code == 0 and len(calls) <= 1
        assert json.loads(out)["edges"] == sum(1 for c in real(n) if c.kind in kinds)


def test_bruhat_cover_stream(capsys):
    code, out, _ = run(capsys, "bruhat", "--n", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 6
    kind2 = [row for row in rows if row["kind"] == 2]
    assert kind2 == [{"source": [1, 3, 2], "i": 1, "target": [2, 3, 1], "kind": 2}]
    line = json.dumps(bruhat.Cover((1, 3, 2), 1, (2, 3, 1), 2).to_json())
    assert line == '{"source": [1, 3, 2], "i": 1, "target": [2, 3, 1], "kind": 2}'
    assert line in out.splitlines()


def test_bruhat_dot(capsys):
    code, out, _ = run(capsys, "bruhat", "--n", "3", "--dot")
    assert code == 0
    assert out.startswith("digraph bruhat3")
    assert out.count("dotted") == 1
    code, out, _ = run(capsys, "bruhat", "--n", "3", "--dot", "--type1-only")
    assert code == 0
    assert out.count("dotted") == 0


def test_bruhat_path_pin(capsys):
    code, out, _ = run(capsys, "bruhat", "--path", "1,3,2", "1")
    assert code == 0
    assert json.loads(out) == {
        "path": [[1, 3, 2], [1, 2, 3], [2, 1, 3], [3, 1, 2], [3, 2, 1], [2, 3, 1]]
    }


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "3", "--dot", "--check-connected"],
        ["--path", "1,3,2", "1", "--dot"],
        ["--path", "1,3,2", "1", "--check-connected"],
        ["--path", "1,3,2", "1", "--type1-only"],
        ["--path", "1,3,2", "1", "--dot", "--type1-only"],
    ],
)
def test_bruhat_runs_one_mode_per_call(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["bruhat", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_bruhat_path_checks_matching_n(capsys):
    code, out, err = run(capsys, "bruhat", "--n", "4", "--path", "1,3,2", "1")
    assert code == 1
    assert "does not match" in json.loads(err)["error"]


def test_qnormalize_pin(capsys):
    code, out, _ = run(capsys, "qnormalize", "--perm", "2,3,1")
    assert code == 0
    assert out == '{"q_exponent": 2}\n'


def test_qnormalize_rejects_non_permutations(capsys):
    code, out, err = run(capsys, "qnormalize", "--perm", "1,1,2")
    assert code == 1
    assert "permutation" in json.loads(err)["error"]


def test_asder_compose_pin(capsys):
    code, out, _ = run(
        capsys,
        "asder",
        "compose",
        "--outer",
        '{"vars":1,"terms":[{"word":[1],"coeff":"1"}]}',
        "--inner",
        '{"vars":2,"terms":[{"word":[],"coeff":"1"}]}',
        "--shape",
        "1,1",
    )
    assert code == 0
    assert json.loads(out) == {
        "vars": 2,
        "terms": [{"word": [1], "coeff": "1"}, {"word": [2], "coeff": "1"}],
    }


def test_asder_compose_rejects_malformed_polynomial(capsys):
    code, out, err = run(
        capsys, "asder", "compose", "--outer", "{oops", "--inner", "{}", "--block", "1"
    )
    assert code == 1
    payload = json.loads(err)
    assert "--outer" in payload["error"]
    assert payload["column"] == 2


@pytest.mark.parametrize(
    "outer, inner, refusal",
    [
        pytest.param("[]", "{}", "bad polynomial for --outer: expected a JSON object, got list",
                     id="list"),
        pytest.param("null", "{}",
                     "bad polynomial for --outer: expected a JSON object, got NoneType",
                     id="null"),
        pytest.param('{"vars": 1, "terms": []}', "{}",
                     "bad polynomial for --inner: missing field 'vars'", id="missing"),
        pytest.param('{"vars": 1, "terms": [5]}', "{}", "bad polynomial for --outer:"
                     " expected a JSON object for each of 'terms', got int", id="term-int"),
        pytest.param('{"vars": 1, "terms": [{"word": 3, "coeff": 1}]}', "{}",
                     "bad polynomial for --outer: expected a list for 'word', got int",
                     id="word-int"),
    ],
)
def test_asder_compose_names_an_argument_that_is_not_an_object_or_lacks_a_field(
    capsys, outer, inner, refusal
):
    code, out, err = run(
        capsys, "asder", "compose", "--outer", outer, "--inner", inner, "--block", "1"
    )
    assert code == 1 and out == ""
    assert err == json.dumps({"error": refusal}) + "\n"


@pytest.mark.parametrize("outer", ['{"vars": 1}', "[1]"])
def test_asder_compose_rejects_misshapen_polynomial(capsys, outer):
    code, out, err = run(
        capsys, "asder", "compose", "--outer", outer, "--inner", "{}", "--block", "1"
    )
    assert code == 1 and out == ""
    assert "--outer" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "outer",
    [
        '{"vars": 1.5, "terms": []}',
        '{"vars": true, "terms": []}',
        '{"vars": 1, "terms": [{"word": [true], "coeff": "1"}]}',
        '{"vars": 1, "terms": [{"word": [], "coeff": Infinity}]}',
        '{"vars": 1, "terms": [{"word": [], "coeff": 0.5}]}',
        '{"vars": 1, "terms": [{"word": [], "coeff": "0/0"}]}',
        '{"vars": 1, "terms": [{"word": [], "coeff": "1e9999999"}]}',
    ],
)
def test_asder_compose_rejects_inexact_polynomials(capsys, outer):
    inner = '{"vars": 1, "terms": [{"word": [], "coeff": 1}]}'
    code, out, err = run(
        capsys, "asder", "compose", "--outer", outer, "--inner", inner, "--block", "1"
    )
    assert code == 1 and out == ""
    assert "--outer" in json.loads(err)["error"]


def test_asder_monomial_pin(capsys):
    code, out, _ = run(capsys, "asder", "monomial", "--letters", "1,2,2", "--n", "2")
    assert code == 0
    assert json.loads(out) == {
        "vars": 2,
        "terms": [{"word": [1, 2, 2], "coeff": "1"}],
    }


def test_permutad_dim_pin(capsys):
    code, out, _ = run(capsys, "permutad", "dim", "--preset", "qPermAs", "--n", "4")
    assert code == 0
    assert json.loads(out) == {
        "preset": "qPermAs",
        "arity": 4,
        "free_dimension": 6,
        "dimension": 1,
    }


def test_permutad_dim_reaches_arity_six(capsys):
    code, out, err = run(capsys, "permutad", "dim", "--preset", "qPermAs", "--n", "6")
    assert code == 0 and err == ""
    row = json.loads(out)
    assert (row["free_dimension"], row["dimension"]) == (120, 1)


def test_permutad_dim_reaches_qpermas_arity_seven(capsys, monkeypatch):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    code, out, err = run(capsys, "permutad", "dim", "--preset", "qPermAs", "--n", "7")
    assert code == 0 and err == ""
    row = json.loads(out)
    assert (row["free_dimension"], row["dimension"]) == (720, 1)


def test_permutad_dim_reaches_permassh_at_arity_seven(capsys, monkeypatch):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    code, out, _ = run(capsys, "permutad", "dim", "--preset", "permAsSh", "--n", "7")
    assert code == 0
    assert json.loads(out) == {
        "preset": "permAsSh", "arity": 7, "free_dimension": 46080, "dimension": 5040,
    }
    code, out, err = run(capsys, "permutad", "dim", "--preset", "permAsSh", "--n", "8")
    assert code == 1 and out == ""
    assert json.loads(err)["bound"] == 7


def test_verify_all_small_bound(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == len(CHECKS)
    assert all(row["ok"] for row in rows)


@pytest.mark.parametrize("bound", [0, -2])
def test_verify_refuses_bounds_below_one(capsys, bound):
    code, out, err = run(capsys, "verify", "all", "--max-n", str(bound))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["bound"] == bound


def test_verify_refuses_an_env_ceiling_below_one(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTAD_MAX_N", "0")
    code, out, err = run(capsys, "verify", "all", "--max-n", "3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["bound"] == 0


# stdout of ``verify all`` with PERMUTAD_MAX_N=3: every sized check at 3.
ENV_THREE_DIGEST = "3ca6f23155fb2851835e15e05a0d020cefa27b7c28f5698d118449ab07e61c95"


@pytest.mark.parametrize("flags", [[], ["--max-n", "99"]], ids=["default", "max-n-99"])
def test_verify_all_lowers_every_bound_to_the_env_bound(capsys, monkeypatch, flags):
    monkeypatch.setenv("PERMUTAD_MAX_N", "3")
    code, out, err = run(capsys, "verify", "all", *flags)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ENV_THREE_DIGEST
    bounds = {json.loads(line)["max_n"] for line in out.splitlines()}
    assert bounds == {None, 3}


def test_verify_all_keeps_a_request_below_the_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTAD_MAX_N", "3")
    code, out, _ = run(capsys, "verify", "all", "--max-n", "2")
    assert code == 0
    assert {json.loads(line)["max_n"] for line in out.splitlines()} == {None, 2}


def test_verify_all_stops_at_the_first_failure(capsys, monkeypatch):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    ran = []

    def boom(n):
        verify._fail(n=n)

    def later(n):
        ran.append(n)

    monkeypatch.setattr(cli, "CHECKS", (Check("boom", boom, 3), Check("later", later, 3)))
    code, out, err = run(capsys, "verify", "all")
    assert code == 1 and err == ""
    assert [json.loads(line) for line in out.splitlines()] == [
        {"check": "boom", "max_n": 3, "ok": False, "witness": {"check": "boom", "n": 3}}
    ]
    assert ran == []


def test_size_bound_error_payload(capsys, monkeypatch):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    code, out, err = run(capsys, "homology", "--n", "99")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["n"] == 99
    assert payload["bound"] == 7
    assert "PERMUTAD_MAX_N" in payload["error"]


def test_env_cap_replaces_the_bound_both_ways(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTAD_MAX_N", "8")
    word = ",".join(str(i) for i in range(1, 9))
    code, out, _ = run(capsys, "qnormalize", "--perm", word)
    assert code == 0 and json.loads(out) == {"q_exponent": 0}
    monkeypatch.setenv("PERMUTAD_MAX_N", "4")
    code, out, err = run(capsys, "homology", "--n", "5")
    assert code == 1
    assert json.loads(err)["bound"] == 4


def test_env_cap_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("PERMUTAD_MAX_N", "many")
    code, out, err = run(capsys, "homology", "--n", "3")
    assert code == 1
    assert "integer" in json.loads(err)["error"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enum", "surjections"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bruhat"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cached_parser_survives_usage_errors(capsys):
    argv = ["permutad", "dim", "--preset", "permMag", "--n", "4"]
    build_parser.cache_clear()
    _, fresh, _ = run(capsys, *argv)
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(argv[:-1])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, fresh, "")


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "enum", "cells", "--n", "4")
    _, second, _ = run(capsys, "enum", "cells", "--n", "4")
    assert first == second


def test_closed_pipe_exits_quietly():
    # The stream (about 200 kB) outgrows the pipe buffer, so writes fail
    # once the reader has closed its end after the first line.
    src = str(Path(permutads.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "permutads", "enum", "surjections", "--n", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
    assert json.loads(first)["values"] == [1] * 6


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
)
_keys = st.sampled_from(
    ["values", "n", "k", "blocks", "perm", "levels", "labels", "nested"]
) | st.text(max_size=3)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=16,
)
_lines = _json.map(json.dumps) | st.text(max_size=12)


def _holds_the_exit_contract(argv, stdin_text=""):
    """Exit 0 with an empty stderr, 1 with one JSON object on stderr, or 2."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", _stdin(stdin_text)), mock.patch.dict(
        os.environ
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("PERMUTAD_MAX_N", None)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
    else:
        rows = err.getvalue().splitlines()
        assert len(rows) == 1
        assert isinstance(json.loads(rows[0]), dict)


@given(
    kind=st.sampled_from(["surjection", "shuffle", "tree", "comb"]),
    lines=st.lists(_lines, min_size=1, max_size=3),
)
def test_convert_fuzz_keeps_the_exit_contract(kind, lines):
    _holds_the_exit_contract(
        ["convert", "--from", kind, "--to", "surjection"], "\n".join(lines) + "\n"
    )


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


_non_numeric = st.text(max_size=4).filter(lambda text: not _is_int(text))
# Sizes run in range only up to 4, so every example stays inside the
# default deadline; larger ones lie past every size bound.
_sizes = (
    st.integers(-3, 4) | st.integers(8, 10**12) | st.integers(max_value=-4)
).map(str) | _non_numeric
_words = st.lists(
    st.integers(-2, 5) | st.integers(8, 10**12), max_size=4
).map(lambda xs: ",".join(map(str, xs))) | st.text(max_size=6)
_terms = st.fixed_dictionaries(
    {
        "word": st.lists(st.integers(0, 3), max_size=3) | _json,
        "coeff": st.integers(-3, 3) | st.fractions().map(str) | _scalars,
    }
)
_polynomials = st.fixed_dictionaries(
    {
        "vars": st.integers(0, 3) | st.integers(8, 10**12) | _scalars,
        "terms": st.lists(_terms, max_size=3) | _json,
    }
).map(json.dumps) | _lines


def _optional(flag, values):
    return st.just([]) | values.map(lambda v: [flag, v])


_argvs = st.one_of(
    st.tuples(
        st.sampled_from(["surjections", "shuffles", "trees", "combs", "cells"]),
        _sizes,
        _optional("--k", _sizes),
    ).map(lambda a: ["enum", a[0], "--n", a[1], *a[2]]),
    st.tuples(_sizes, _optional("--dim", _sizes)).map(
        lambda a: ["boundary", "--n", a[0], *a[1]]
    ),
    _sizes.map(lambda n: ["homology", "--n", n]),
    _sizes.map(lambda n: ["bruhat", "--n", n]),
    _words.map(lambda w: ["qnormalize", "--perm", w]),
    st.tuples(_words, _sizes).map(
        lambda a: ["asder", "monomial", "--letters", a[0], "--n", a[1]]
    ),
    st.tuples(st.sampled_from(["permMag", "qPermAs", "permAsSh"]), _sizes).map(
        lambda a: ["permutad", "dim", "--preset", a[0], "--n", a[1]]
    ),
    # An accepted --max-n runs every check (half a second even at 1), so
    # only refused values are drawn; test_golden covers --max-n 4.
    (st.integers(max_value=0).map(str) | _non_numeric).map(
        lambda m: ["verify", "all", "--max-n", m]
    ),
)


@given(_argvs)
def test_argument_fuzz_keeps_the_exit_contract(argv):
    _holds_the_exit_contract(argv)


@given(_polynomials, _polynomials, st.sampled_from(["--shape", "--block"]), _words)
def test_polynomial_fuzz_keeps_the_exit_contract(outer, inner, flag, shape):
    _holds_the_exit_contract(
        ["asder", "compose", "--outer", outer, "--inner", inner, flag, shape]
    )
