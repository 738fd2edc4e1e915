"""Self-test of the benchmark, at toy sizes, through run.py itself.

    python3 perfbench/selftest.py

For every workload it records toy golden digests, then checks that an
untraced and a traced run each print exactly the metrics BENCHMARK.json
names, with their units, and grade every item correct; that a wrong
golden digest turns into failed items; and that a directory holding
only the benchmark (no medianlab sources) makes run.py fail without a
result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out", "selftest")
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# figures that may legitimately read 0 or below in a toy run
MAY_BE_ZERO = ("expander.build_regular.reuse", "harness.generate_instance.reuse",
               "trace.overhead_s", "trace.overhead_frac")


def run(*args: str, root: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: dict, spec: list[dict], positive: bool) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    assert set(got) == set(want), sorted(set(got) ^ set(want))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, (name, got[name])
        value = got[name]["value"]
        assert isinstance(value, (int, float)), (name, value)
        if positive and name not in MAY_BE_ZERO:
            assert value > 0, f"{name} reads {value}: its layer was never called"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    golden = os.path.join(OUT, "golden-toy.json")
    if os.path.exists(golden):
        os.remove(golden)
    toy = ["--scale", "toy", "--seed", "0", "--seconds", "2"]

    for workload in WORKLOADS:
        rc, _ = run("--workload", workload, *toy, "--golden", golden, "--record-golden", "2")
        assert rc == 0, f"{workload}: recording golden digests failed"
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            rc, lines = run("--workload", workload, *toy, "--golden", golden, "--trace", trace)
            assert rc == 0, f"{workload} trace {trace}: exit status {rc}"
            result = result_of(lines)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            check_metrics(result, metrics, positive=trace == "1")
        print(f"ok   {workload}: every metric present, every item correct")

    with open(golden, encoding="utf-8") as fh:
        table = json.load(fh)
    for workload in WORKLOADS:
        label = sorted(table[workload])[0]
        table[workload][label] = "0" * 64
    wrong = os.path.join(OUT, "golden-wrong.json")
    with open(wrong, "w", encoding="utf-8") as fh:
        json.dump(table, fh)
    for workload in WORKLOADS:
        rc, lines = run("--workload", workload, *toy, "--golden", wrong)
        result = result_of(lines)
        assert rc == 0 and not result["correct"] and result["failed"] > 0, (workload, result)
        print(f"ok   {workload}: a wrong golden digest fails {result['failed']}/{result['attempted']} items")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, lines = run("--workload", WORKLOADS[0], *toy, root=bare)
    assert rc != 0 and not lines, (rc, lines)
    shutil.rmtree(bare)
    print("ok   without medianlab sources run.py exits", rc, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
