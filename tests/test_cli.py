import argparse
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medianlab import adversary, expander
from medianlab.cli import build_parser, main
from medianlab.fileio import write_metric_file, write_metric_json
from medianlab.harness import generate_instance
from medianlab.metric import MetricTable
from medianlab.players import PLAYERS
from medianlab.solvers import INNERS


@pytest.fixture()
def star_file(tmp_path):
    path = str(tmp_path / "star12.txt")
    write_metric_file(path, generate_instance("star-path", 12, 0))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_solve_json(capsys, star_file):
    code, out = run_cli(capsys, "solve", "--metric", star_file, "--inner", "exact", "--f-of-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12
    assert payload["subset_size"] == 6
    assert payload["queries"] == 15
    assert 1 <= payload["output"] <= 12
    assert payload["checks"] == {"budget_respected": True, "within_bound": True}
    assert payload["ratio"] <= payload["bound"]


def test_solve_pivot_and_sampling(capsys, star_file):
    for inner in ("pivot", "sampling"):
        code, out = run_cli(capsys, "solve", "--metric", star_file, "--inner", inner, "--f-of-n", "9")
        payload = json.loads(out)
        assert code == 0
        assert payload["checks"]["budget_respected"]


def test_solve_deterministic_output(capsys, star_file):
    _, a = run_cli(capsys, "--seed", "7", "solve", "--metric", star_file, "--inner", "sampling", "--f-of-n", "1")
    _, b = run_cli(capsys, "--seed", "7", "solve", "--metric", star_file, "--inner", "sampling", "--f-of-n", "1")
    assert a == b


def test_verify_clean_and_broken(capsys, tmp_path, star_file):
    code, out = run_cli(capsys, "verify", "--metric", star_file)
    assert code == 0
    assert json.loads(out)["valid"]

    t = generate_instance("star-path", 6, 0)
    units = t.units.copy()
    units[0, 5] = units[5, 0] = 50  # far beyond any path through point 0
    broken = str(tmp_path / "broken.json")
    write_metric_json(broken, MetricTable(units))
    code, out = run_cli(capsys, "verify", "--metric", broken)
    payload = json.loads(out)
    assert code == 1
    assert not payload["valid"]
    assert payload["violation_count"] > 0
    kinds = {v["kind"] for v in payload["violations"]}
    assert kinds == {"triangle"}


def test_adversary_json(capsys):
    code, out = run_cli(capsys, "adversary", "--n", "24", "--q", "12", "--d", "4", "--algo", "pivot")
    payload = json.loads(out)
    assert code == 0
    assert payload["rounds"] == 36
    assert all(payload["checks"].values())
    assert payload["ratio"] >= 1.0


def test_adversary_payload_counts_perm_degrees_once(capsys, monkeypatch):
    # finalize, the audit and the payload all read the certificate's one count
    calls = []
    real = adversary.Certificate.perm_degree.func

    def counted(cert):
        calls.append(cert.n)
        return real(cert)

    once = functools.cached_property(counted)
    once.__set_name__(adversary.Certificate, "perm_degree")
    monkeypatch.setattr(adversary.Certificate, "perm_degree", once)
    code, out = run_cli(capsys, "adversary", "--n", "64", "--q", "64", "--d", "4", "--algo", "exact")
    payload = json.loads(out)
    assert code == 0 and all(payload["checks"].values())
    assert payload["bad_count"] > 0
    assert calls == [64]


def test_adversary_rejects_bad_cap(capsys):
    code, out = run_cli(capsys, "adversary", "--n", "24", "--q", "12", "--d", "4", "--C", "3")
    assert code == 1
    assert json.loads(out)["error"].startswith("BadConstantError: cap 3 must exceed")


WIDE_ERROR = (
    f"ValueError: wide.txt: entry (1, 0) must lie within +-{(2**63 - 1) // 3} = (2**63 - 1) // 3 "
    f"so that exact sums fit in 64 bits, got {2**63 - 1}"
)


@pytest.mark.parametrize(
    "argv, error",
    [
        (("expander", "--n", "9", "--d", "3"),
         "InfeasibleError: no 3-regular graph exists on 9 vertices (odd stub count)"),
        (("adversary", "--n", "17", "--q", "4", "--d", "3"),
         "InfeasibleError: no 3-regular graph exists on 17 vertices (odd stub count)"),
        (("adversary", "--n", "16", "--q", "-3", "--d", "4", "--algo", "pivot"),
         "ValueError: query budget must be nonnegative, got -3"),
        (("verify", "--metric", "no-such-metric.txt"),
         "FileNotFoundError: [Errno 2] No such file or directory: 'no-such-metric.txt'"),
        (("lowerbound", "--n", "100", "--q", "10", "--d", "3"),
         "InfeasibleError: degree 3 is odd and the arena's 2q+1 = 21 points are odd, "
         "so no 3-regular anchor exists; pick an even degree"),
        (("lowerbound", "--n", "1"),
         "ValueError: the lower-bound game needs n >= 2, got 1"),
        (("lowerbound", "--sweep", "1,64"),
         "ValueError: the lower-bound game needs n >= 2, got 1"),
        (("verify", "--metric", "overflow.txt"),
         "ValueError: overflow.txt: entry (1, 0) must be a 64-bit integer, got 99999999999999999999"),
        (("solve", "--metric", "nested.json", "--f-of-n", "4"),
         "ValueError: nested.json: JSON nested too deeply to read"),
        (("verify", "--metric", "wide.txt"), WIDE_ERROR),
        (("solve", "--metric", "wide.txt", "--f-of-n", "1"), WIDE_ERROR),
        (("solve", "--metric", "zero-opt.txt", "--f-of-n", "4"),
         "ValueError: output cost 1 against an optimum cost of 0: the table is not a metric"),
        (("lowerbound", "--sweep", ","),
         "ValueError: --sweep needs at least one comma-separated value, got ','"),
        (("sweep", "--sizes", ","),
         "ValueError: --sizes needs at least one comma-separated value, got ','"),
        (("sweep", "--kinds", ","),
         "ValueError: --kinds needs at least one comma-separated value, got ','"),
        (("sweep", "--factors", ","),
         "ValueError: --factors needs at least one comma-separated value, got ','"),
        (("sweep", "--inners", ","),
         "ValueError: --inners needs at least one comma-separated value, got ','"),
        # sizes past any machine's memory are refused before anything is allocated
        (("expander", "--n", "10000000000", "--d", "4"),
         "ValueError: a 4-regular graph on 10000000000 vertices needs about 10300000000000 bytes, "
         "more than this machine's physical memory"),
        (("adversary", "--n", "10000000", "--q", "0", "--d", "4"),
         "ValueError: the dense 10000000 x 10000000 perm matrix of the arena needs about "
         "100000000000000 bytes, more than this machine's physical memory"),
        (("lowerbound", "--n", "1000000000000", "--q", "10", "--d", "4"),
         "ValueError: a glued space of 1000000000000 points needs about 62000000000000 bytes, "
         "more than this machine's physical memory"),
    ],
    ids=["expander-odd-stubs", "adversary-odd-stubs", "negative-budget", "missing-file",
         "lowerbound-odd-degree", "lowerbound-one-point", "lowerbound-sweep-one-point",
         "metric-entry-overflow", "metric-json-nested-too-deep", "verify-sum-could-wrap",
         "solve-sum-could-wrap", "solve-zero-optimum-positive-output", "lowerbound-empty-sweep",
         "sweep-empty-sizes", "sweep-empty-kinds", "sweep-empty-factors", "sweep-empty-inners",
         "expander-oversize", "adversary-oversize", "lowerbound-oversize"],
)
def test_bad_input_reports_json_error(capsys, tmp_path, monkeypatch, argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "overflow.txt").write_text("2\n0\n99999999999999999999 0\n", encoding="utf-8")
    (tmp_path / "nested.json").write_text('{"n": 1, "dist": ' + "[" * 3000 + "]" * 3000 + "}", encoding="utf-8")
    # a valid metric whose int64 row and pair sums would wrap
    (tmp_path / "wide.txt").write_text(f"3\n0\n{2**63 - 1} 0\n{2**62} {2**62} 0\n", encoding="utf-8")
    # point 2 costs 0, but the subset {1, 2} picks point 1, which costs 1
    (tmp_path / "zero-opt.txt").write_text("3\n0\n0 0\n1 0 0\n", encoding="utf-8")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": error}


def test_zero_budget_adversary_game(capsys, monkeypatch):
    # q = 0 leaves exactly the n rounds the padding needs: the sampling player asks nothing
    argv = ("adversary", "--n", "16", "--q", "0", "--d", "4", "--algo", "sampling")
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 0
    assert all(payload["checks"].values())
    assert payload["output"] == 1

    class Overspender:
        name = "overspender"

        def run(self, oracle, n):
            oracle.query(0, 1)
            return 0

    monkeypatch.setattr("medianlab.cli.make_player", lambda *args, **kwargs: Overspender())
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "PadOverflowError: 15 rounds left, padding needs 16; configure rounds >= queries + n"
    }


@pytest.mark.parametrize("rows", [["0"], ["0", "0 0"]], ids=["one-point", "two-points-all-zero"])
def test_solve_zero_optimum_has_ratio_one(capsys, tmp_path, rows):
    path = tmp_path / "flat.txt"
    path.write_text("\n".join([str(len(rows))] + rows) + "\n", encoding="utf-8")
    code, out = run_cli(capsys, "solve", "--metric", str(path), "--f-of-n", "1")
    payload = json.loads(out)
    assert code == 0
    assert (payload["opt_cost"], payload["output_cost"]) == (0, 0)
    assert (payload["ratio"], payload["ratio_exact"]) == (1.0, "1/1")


def test_metric_at_the_sum_bound_is_exact(capsys, tmp_path):
    b = (2**63 - 1) // 3
    path = tmp_path / "at-bound.txt"
    path.write_text(f"3\n0\n{b} 0\n{b} {b - 1} 0\n", encoding="utf-8")
    code, out = run_cli(capsys, "verify", "--metric", str(path))
    assert code == 0
    assert json.loads(out)["violation_count"] == 0
    code, out = run_cli(capsys, "solve", "--metric", str(path), "--f-of-n", "1")
    payload = json.loads(out)
    assert code == 0
    # row sums of about 2**62.4, exact to the unit: no int64 sum wrapped
    assert (payload["output"], payload["output_cost"]) == (2, 2 * b - 1)
    assert payload["opt_cost"] == 2 * b - 1


def test_invariant_failures_still_raise(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("anchor edge removed")

    monkeypatch.setattr("medianlab.cli.build_regular", broken)
    with pytest.raises(AssertionError):
        run_cli(capsys, "expander", "--n", "16", "--d", "4")


def test_lowerbound_single_json(capsys):
    code, out = run_cli(capsys, "lowerbound", "--n", "100", "--q", "10", "--d", "4", "--algo", "exact")
    payload = json.loads(out)
    assert code == 0
    assert payload["m"] == 21
    assert all(payload["checks"].values())
    assert payload["ratio"] >= 1.0


def test_lowerbound_sweep_csv(capsys):
    code, out = run_cli(capsys, "--seed", "1", "lowerbound", "--sweep", "128,64", "--d", "4", "--q", "10", "--algo", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,q,ratio,log2_n,f_hat,checks_ok"
    assert len(lines) == 3
    assert lines[1].startswith("64,10,")  # sizes are sorted ascending
    assert lines[2].startswith("128,10,")


def test_expander_json_and_edge_export(capsys, tmp_path):
    edges_out = str(tmp_path / "g.edges")
    code, out = run_cli(
        capsys, "expander", "--n", "16", "--d", "4", "--certify", "exhaustive", "--edges-out", edges_out
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["edges"] == 32
    assert payload["method"] == "exhaustive"
    assert payload["alpha_proven"] is True
    assert payload["alpha_lower"] > 0
    edges = np.loadtxt(edges_out, dtype=np.int64, ndmin=2)  # 1-based "u v" pairs after a '#' header
    assert edges.shape == (32, 2)
    assert edges.min() == 1 and edges.max() == 16


def test_expander_solves_lambda2_once(capsys, monkeypatch):
    # the payload reads the spectral report build_regular already made; a cold build certifies once
    monkeypatch.setattr(expander, "_last_anchor", None)
    true_lambda2 = expander._lambda2
    solves = []
    monkeypatch.setattr(expander, "_lambda2", lambda g: solves.append(g.n) or true_lambda2(g))
    code, out = run_cli(capsys, "expander", "--n", "64", "--d", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "spectral"
    assert payload["alpha_proven"] is False  # an ARPACK estimate, not a proof
    assert solves == [64]


def test_sweep_csv(capsys):
    code, out = run_cli(
        capsys, "sweep", "--sizes", "9,12", "--factors", "4", "--kinds", "grid,table", "--inners", "exact", "--out", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,n,f_of_n,inner,seed,")
    assert len(lines) == 5
    assert all(line.endswith("True") for line in lines[1:])


# sha256 over the exit codes and stdout of the calls below, recorded
# before the CLI's output paths were folded into one
CLI_STDOUT_GOLDEN = "accfcdbf34ad38258683418fdf454759257e591d7fc94c509dea7a7769772dd9"


def test_cli_stdout_golden(capsys, tmp_path):
    t = generate_instance("table", 7, 3)
    units, eps = t.units.copy(), t.eps.copy()
    units[2, 2] = 1  # identity
    units[0, 1] = units[1, 0] = 0  # positivity
    units[3, 4] = -1  # positivity and symmetry
    eps[1, 5] = 1  # symmetry, eps only
    units[5, 6] = units[6, 5] = 40  # triangle
    broken = str(tmp_path / "broken.json")
    write_metric_json(broken, MetricTable(units, eps))
    calls = [
        ("verify", "--metric", broken),  # pins the violation order
        ("lowerbound", "--sweep", "64,128", "--q", "10", "--d", "4"),
        ("lowerbound", "--sweep", "64,128", "--q", "10", "--d", "4", "--out", "json"),
        ("sweep", "--sizes", "16", "--factors", "1,4", "--kinds", "grid,table"),
        ("adversary", "--n", "24", "--q", "12", "--out", "csv"),
        ("lowerbound", "--n", "100", "--q", "10", "--d", "4", "--out", "csv"),
    ]
    digest = hashlib.sha256()
    for argv in calls:
        code, out = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CLI_STDOUT_GOLDEN


def _choices(command, dest):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_routine_choices_are_the_registry_keys():
    assert list(_choices("solve", "inner")) == list(INNERS) == ["exact", "pivot", "sampling"]
    assert list(_choices("lowerbound", "algo")) == list(PLAYERS) == ["exact", "pivot", "sampling", "random"]
    assert list(_choices("adversary", "algo")) == [*PLAYERS, "extern"]


def test_global_flags_accepted_on_either_side(capsys, star_file):
    _, a = run_cli(capsys, "--seed", "3", "solve", "--metric", star_file, "--inner", "exact", "--f-of-n", "1")
    _, b = run_cli(capsys, "solve", "--metric", star_file, "--inner", "exact", "--f-of-n", "1", "--seed", "3")
    assert a == b


def test_console_entry_point(star_file):
    proc = subprocess.run(
        [sys.executable, "-m", "medianlab", "solve", "--metric", star_file, "--inner", "exact", "--f-of-n", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 12


def test_expander_output_ignores_the_blas_thread_count():
    # lambda2 must not depend on how many threads OpenBLAS runs.  OpenBLAS
    # runs no more threads than there are CPUs, so on a 1-CPU machine both
    # runs use one thread and this passes whatever the solver.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "medianlab", "expander", "--n", "256", "--d", "8"],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_extern_protocol_over_pipes():
    with subprocess.Popen(
        [sys.executable, "-m", "medianlab", "adversary", "--n", "16", "--q", "4", "--d", "4", "--algo", "extern"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        answers = []
        for a, b in ((1, 5), (2, 9), (3, 16), (1, 2)):
            proc.stdin.write(f"QUERY {a} {b}\n")
            proc.stdin.flush()
            answers.append(proc.stdout.readline().strip())
        proc.stdin.write("OUTPUT 7\n")
        proc.stdin.flush()
        proc.stdin.close()
        report = json.loads(proc.stdout.read())
        proc.wait(timeout=60)
    assert answers == ["ANSWER 1"] * 4  # a fresh arena answers 1 to distinct pairs
    assert report["output"] == 7
    assert all(report["checks"].values())
    assert proc.returncode == 0


def run_extern(capsys, monkeypatch, script, q=4):
    monkeypatch.setattr(sys, "stdin", io.StringIO(script))
    code, out = run_cli(capsys, "adversary", "--n", "16", "--q", str(q), "--d", "4", "--algo", "extern")
    lines = out.splitlines()
    answers = [line for line in lines if line.startswith("ANSWER ")]
    return code, answers, json.loads("\n".join(lines[len(answers):]))


def test_extern_rejects_zero_based_point(capsys, monkeypatch):
    code, answers, payload = run_extern(capsys, monkeypatch, "QUERY 1 2\nQUERY 0 2\nOUTPUT 1\n")
    assert code == 1
    assert answers == ["ANSWER 1"]
    assert payload == {"error": "ProtocolError: point 0 outside 1..16 in protocol line: 'QUERY 0 2'"}
    code, _, payload = run_extern(capsys, monkeypatch, "OUTPUT 17\n")
    assert code == 1
    assert payload == {"error": "ProtocolError: point 17 outside 1..16 in protocol line: 'OUTPUT 17'"}


def test_extern_rejects_non_integer_token(capsys, monkeypatch):
    code, answers, payload = run_extern(capsys, monkeypatch, "QUERY 1 x\nOUTPUT 1\n")
    assert code == 1
    assert answers == []
    assert payload == {"error": "ProtocolError: non-integer point in protocol line: 'QUERY 1 x'"}


def test_extern_enforces_query_budget(capsys, monkeypatch):
    script = "".join(f"QUERY 1 {b}\n" for b in range(2, 12)) + "OUTPUT 1\n"
    code, answers, payload = run_extern(capsys, monkeypatch, script, q=4)
    assert code == 1
    assert len(answers) == 4
    assert payload == {"error": "ProtocolError: query 5 exceeds the budget of 4"}

