"""medianlab benchmark: end-to-end and per-layer figures for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adversary-grid --seed 0 --seconds 20 --trace 0

It writes its generated inputs, spans and a result set under
``.perfbench-out/``, and prints as its last stdout line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, here and in every worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench-out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_PROBES = 5  # extra processes that only set up; setup_s is the median
DEADLINE_S = 170.0  # the whole run, including set-up probes

UNITS_E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def machine() -> dict:
    import numpy
    import scipy

    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion; return its last stdout line as JSON."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--t0", repr(t0), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(record: dict, setups: list[dict]) -> dict:
    """Every time at reference speed (see calibrate.py).

    An item's latency is its median over the run's passes (every pass
    holds the same item positions, with fresh seeds); wall_s is the pass
    those medians add up to, which a burst of noise in one pass cannot
    move.
    """
    passes = [calibrate.scaled_items(p["latencies"], p["kernel"]) for p in record["passes"]]
    per_item = [statistics.median(col) for col in zip(*passes)]
    return {
        "setup_s": statistics.median(calibrate.scale(r["setup_s"], r["setup_kernel"]) for r in setups),
        "wall_s": sum(per_item),
        "item_p50_s": quantile(per_item, 50),
        "item_p90_s": quantile(per_item, 90),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="medianlab benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                   help="toy sizes exercise the same code paths in seconds")
    p.add_argument("--golden", default=GOLDEN, help="golden digests to check stdout against")
    p.add_argument("--record-golden", type=int, default=None, metavar="PASSES",
                   help="run exactly PASSES passes and store their digests in --golden")
    args = p.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "medianlab", "cli.py")):
        print(f"no medianlab sources under {ROOT}/src; nothing to benchmark", file=sys.stderr)
        return 2
    # generated inputs are rebuilt for every run, so they never pile up
    inputs_dir = os.path.join(OUT_DIR, "inputs")
    shutil.rmtree(inputs_dir, ignore_errors=True)
    os.makedirs(inputs_dir)
    inputs = workloads.make_inputs(args.workload, args.seed, args.scale, inputs_dir)
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    inputs_path = os.path.join(inputs_dir, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    common = ["--inputs", inputs_path, "--scale", args.scale]

    setups = []
    if not args.trace and args.record_golden is None:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(["--probe", *common], 60.0))
    wargs = [*common, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record_golden is not None:
        wargs += ["--passes", str(args.record_golden)]
    else:
        wargs += ["--golden", args.golden]
    if args.trace:
        wargs += ["--spans-out", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.scale}.tsv")]
    record = spawn(wargs, DEADLINE_S - (time.monotonic() - started))

    if args.record_golden is not None:
        table = {}
        if os.path.isfile(args.golden):
            with open(args.golden, encoding="utf-8") as fh:
                table = json.load(fh)
        table.setdefault(args.workload, {}).update(record["digests"])
        with open(args.golden, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(record['digests'])} digests, {record['failed']} failed", file=sys.stderr)
        return 0 if record["failed"] == 0 else 1

    if args.trace:
        values = dict(record["layers"])
        values["trace.overhead_s"] = record["traced_wall_s"] - record["untraced_wall_s"]
        values["trace.overhead_frac"] = values["trace.overhead_s"] / record["untraced_wall_s"]
        units = _layer_units()
        missing = set(units) ^ set(values)
        if missing:
            raise SystemExit(f"per-layer metrics out of step with BENCHMARK.json: {sorted(missing)}")
    else:
        setups.append(record)
        values = end_to_end(record, setups)
        units = UNITS_E2E
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    info = {
        "machine": machine(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "items_per_pass": len(workloads.pass_items(args.workload, args.seed, 0, args.scale, inputs)),
        "reference_kernel_s": calibrate.REFERENCE_S,
        "setup_raw_s": [r["setup_s"] for r in setups],
        "pass_walls_raw_s": [p["wall"] for p in record.get("passes", [])],
        "traced_wall_s": record.get("traced_wall_s"),
        "untraced_wall_s": record.get("untraced_wall_s"),
        "overhead_pairs": record.get("overhead_pairs"),
    }
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**info, **result, "passes": record.get("passes")}, fh, indent=1)
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
