"""One workload run inside a fresh process, so peak RSS is the workload's own.

Started by ``run.py``; not meant to be run by hand.  The worker imports
medianlab from the checkout's ``src``, runs the warm-up items, reports
its set-up time, then calls ``medianlab.cli.main`` once per item in a
closed loop: one caller, no threads, the next item only after the last
one returned.  The last stdout line is a JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; run.py sets them too

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402
import workloads  # noqa: E402


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import medianlab.cli

    where = os.path.dirname(os.path.abspath(medianlab.cli.__file__))
    if os.path.commonpath([where, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"medianlab was imported from {where}, not from {src}")
    return medianlab.cli.main


class Runner:
    """Calls the CLI per item, captures stdout, and grades the outputs."""

    def __init__(self, main, tables: dict, golden: dict, tracer=None):
        self.main = main
        self.tables = tables
        self.golden = golden
        self.tracer = tracer
        self.seen: dict[str, str] = {}
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def call(self, item: workloads.Item) -> tuple[int, str, float]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                if self.tracer is not None:
                    rc = self.tracer.call_cli(self.main, list(item.argv))
                else:
                    rc = self.main(list(item.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an item that raises is a failed item, not a dead run
                traceback.print_exc(file=sys.stderr)
                rc = -1
        return rc, buf.getvalue(), time.perf_counter() - t0

    def grade(self, item: workloads.Item, rc: int, out: str) -> bool:
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        self.recorded[item.label] = digest
        if rc != 0:
            problem = f"exit status {rc}"
        elif item.label in self.golden and self.golden[item.label] != digest:
            problem = "stdout differs from the golden digest"
        elif self.seen.setdefault(item.label, digest) != digest:
            problem = "stdout differs from an earlier call with the same input"
        else:
            problem = workloads.check_output(item, out, self.tables)
        if problem is not None:
            print(f"FAILED [{item.label}]: {problem}", file=sys.stderr)
        return problem is None

    def run_pass(self, items: list[workloads.Item], calibrated: bool = False) -> dict:
        """Time one pass; outputs are graded after the clock stops.

        With ``calibrated``, the reference kernel runs before every item
        and after the last, outside the items' own timings.
        """
        results, kernel = [], []
        t0 = time.perf_counter()
        for item in items:
            if calibrated:
                kernel.append(calibrate.measure())
            results.append(self.call(item))
        if calibrated:
            kernel.append(calibrate.measure())
        wall = time.perf_counter() - t0
        for item, (rc, out, _) in zip(items, results):
            self.attempted += 1
            self.failed += not self.grade(item, rc, out)
        return {"wall": wall, "latencies": [dt for _, _, dt in results], "kernel": kernel}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC reading taken before the spawn")
    p.add_argument("--inputs", required=True, help="JSON map of generated input paths")
    p.add_argument("--probe", action="store_true", help="stop after set-up; report only setup_s")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    p.add_argument("--golden", default=None, help="JSON map label -> sha256 of stdout")
    p.add_argument("--passes", type=int, default=None, help="run exactly this many passes")
    p.add_argument("--spans-out", default=None, help="write the traced spans here")
    args = p.parse_args(argv)

    main_fn = _import_program(args.root)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    golden = {}
    if args.golden:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh).get(args.workload, {})

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(main_fn, workloads.load_tables(inputs), golden, tracer)
    for item in workloads.warmup_items(inputs):
        rc, out, _ = runner.call(item)
        if not runner.grade(item, rc, out):
            raise SystemExit(f"warm-up item failed: {item.label}")
    runner.recorded.clear()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    record: dict = {"setup_s": setup_s, "setup_kernel": [calibrate.measure() for _ in range(3)]}
    if args.probe:
        print(json.dumps(record))
        return 0

    if tracer is not None:
        # The per-layer figures come from set-up plus the first traced
        # pass.  Then pass 0 repeats in traced/untraced pairs, order
        # alternating, for as long as the measuring time allows; the
        # overhead is the difference of the two medians, each pass at
        # reference speed.
        items = workloads.pass_items(args.workload, args.seed, 0, args.scale, inputs)

        def timed_pass() -> float:
            done = runner.run_pass(items, calibrated=True)
            return sum(calibrate.scaled_items(done["latencies"], done["kernel"]))

        tracer.mark_pass()
        traced, plain = [timed_pass()], []
        tracer.uninstall()
        runner.tracer = None
        record["layers"] = tracer.summarize()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        start = time.perf_counter()
        while not plain or time.perf_counter() - start + traced[-1] + plain[-1] <= args.seconds:
            for traced_turn in ((False, True) if len(plain) % 2 == 0 else (True, False)):
                if traced_turn:
                    runner.tracer = Tracer()
                    runner.tracer.install()
                    traced.append(timed_pass())
                    runner.tracer.uninstall()
                    runner.tracer = None
                else:
                    plain.append(timed_pass())
        record["traced_wall_s"] = statistics.median(traced)
        record["untraced_wall_s"] = statistics.median(plain)
        record["overhead_pairs"] = len(plain)
    else:
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            if args.passes is not None:
                if len(passes) >= args.passes:
                    break
            elif len(passes) >= 2 and time.perf_counter() - start + statistics.median(
                p["wall"] for p in passes
            ) > args.seconds:
                break  # the next pass would overrun the measuring time
            items = workloads.pass_items(args.workload, args.seed, len(passes), args.scale, inputs)
            passes.append(runner.run_pass(items, calibrated=True))
        record["passes"] = passes
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["digests"] = runner.recorded
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
