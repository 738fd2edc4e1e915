"""Fuzzed input through the CLI and the file readers.

Whatever the stdio protocol or a metric file holds, the CLI must end in
a result or in {"error": ...} with exit 1, never in another exception.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medianlab.cli import main
from medianlab.fileio import read_edge_list

FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# integers near the interesting edges: 0/1-based points and int64
INT_TOKENS = st.one_of(
    st.integers(min_value=-2, max_value=20),
    st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**30]),
).map(str)
# "9" * 5000 passes the interpreter's 4300-digit int parsing limit
JUNK_TOKENS = st.sampled_from(["x", "1.5", "0x10", "1e3", "nan", "#", "QUERY", "OUTPUT", "٣", "9" * 5000])
TOKENS = st.one_of(INT_TOKENS, JUNK_TOKENS)


def _lines(first_tokens):
    line = st.lists(TOKENS, max_size=4).map(" ".join)
    return st.lists(st.one_of(line, st.text(max_size=12), first_tokens), max_size=8).map("\n".join)


@st.composite
def _square_tables(draw):
    """Small symmetric integer tables, metrics or not, as nested lists."""
    n = draw(st.integers(min_value=0, max_value=4))
    units = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            units[i][j] = units[j][i] = draw(st.integers(min_value=0, max_value=3))
    return units


def _run(argv, stdin_text=""):
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _assert_result_or_error(code, payload, result_key):
    if "error" in payload:
        assert code == 1 and list(payload) == ["error"], payload
    else:
        assert result_key in payload and code in (0, 1), payload


PROTOCOL_LINES = st.one_of(
    st.tuples(st.just("QUERY"), TOKENS, TOKENS).map(" ".join),
    st.tuples(st.just("OUTPUT"), TOKENS).map(" ".join),
)
POINTS = st.integers(min_value=1, max_value=16)
WELL_FORMED_SCRIPTS = st.tuples(
    st.lists(st.tuples(POINTS, POINTS).map(lambda ab: "QUERY %d %d" % ab), max_size=5),
    POINTS.map("OUTPUT {}".format),
).map(lambda parts: "\n".join(parts[0] + [parts[1]]))


@FUZZ
@given(st.one_of(WELL_FORMED_SCRIPTS, _lines(PROTOCOL_LINES)))
def test_stream_player_input_ends_in_result_or_json_error(script):
    code, out = _run(["adversary", "--n", "16", "--q", "4", "--d", "4", "--algo", "extern"], script)
    lines = out.splitlines()
    answers = [line for line in lines if line.startswith("ANSWER ")]
    assert len(answers) <= 4
    payload = json.loads("\n".join(lines[len(answers):]))
    _assert_result_or_error(code, payload, "checks")
    if "checks" in payload:
        assert code == (0 if all(payload["checks"].values()) else 1)


def _verify_file(path, content):
    with open(path, "wb") as fh:
        fh.write(content)
    code, out = _run(["verify", "--metric", str(path)])
    payload = json.loads(out)
    _assert_result_or_error(code, payload, "valid")
    if "valid" in payload:
        assert code == (0 if payload["valid"] else 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


TEXT_TABLES = _square_tables().map(
    lambda units: "\n".join([str(len(units))] + [" ".join(map(str, row[: i + 1])) for i, row in enumerate(units)])
)


@FUZZ
@given(st.one_of(st.one_of(TEXT_TABLES, _lines(INT_TOKENS)).map(str.encode), st.binary(max_size=40)))
def test_text_metric_input_ends_in_result_or_json_error(fuzz_dir, content):
    _verify_file(fuzz_dir / "metric.txt", content)


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.integers(min_value=-2, max_value=4), st.sampled_from([2**63, -(2**63) - 1]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
CELLS = st.one_of(
    st.fixed_dictionaries({"units": JSON_VALUES, "eps_count": JSON_VALUES}),
    st.fixed_dictionaries({"units": st.integers(0, 3), "eps_count": st.integers(0, 3)}),
    JSON_VALUES,
)
WELL_FORMED_BLOBS = _square_tables().map(
    lambda units: {"n": len(units), "dist": [[{"units": u, "eps_count": 0} for u in row] for row in units]}
)
METRIC_BLOBS = st.fixed_dictionaries({
    "n": st.one_of(st.integers(-1, 3), JSON_VALUES),
    "dist": st.one_of(st.lists(st.lists(CELLS, max_size=3), max_size=3), JSON_VALUES),
})


@FUZZ
@given(st.one_of(
    st.one_of(WELL_FORMED_BLOBS, METRIC_BLOBS, JSON_VALUES).map(lambda blob: json.dumps(blob).encode()),
    st.binary(max_size=40),
))
def test_json_metric_input_ends_in_result_or_json_error(fuzz_dir, content):
    _verify_file(fuzz_dir / "metric.json", content)


@FUZZ
@given(st.one_of(_lines(st.sampled_from(["# note", "1 2 # tail", "  "])).map(str.encode), st.binary(max_size=40)))
def test_edge_list_reader_raises_only_value_error(fuzz_dir, content):
    path = fuzz_dir / "graph.edges"
    path.write_bytes(content)
    try:
        n, edges = read_edge_list(str(path))
    except ValueError:
        return
    assert all(0 <= u < n and 0 <= v < n for u, v in edges)
