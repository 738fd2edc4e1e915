"""Span recorder wrapped around medianlab's public functions.

Nothing here edits the program: ``Tracer.install`` swaps module and
class attributes for timing wrappers, on every name a caller looks up
(``medianlab.lowerbound.build_regular`` and
``medianlab.harness.build_regular`` are separate bindings of one
function), and ``uninstall`` puts the originals back.

Spans live in flat arrays (name, parent, start, end, nested flag) and
are turned into per-layer figures by ``summarize``.  A layer's
inclusive time counts only its outermost spans; its self time is the
span duration minus the time of its directly wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from collections import Counter

# layer name -> (module or "module:Class", attribute names bound there)
LAYERS: dict[str, list[tuple[str, str]]] = {
    "expander.build_regular": [
        ("medianlab.expander", "build_regular"),
        ("medianlab.lowerbound", "build_regular"),
        ("medianlab.harness", "build_regular"),
        ("medianlab.cli", "build_regular"),
    ],
    "expander.certify_expansion": [
        ("medianlab.expander", "certify_expansion"),
        ("medianlab.cli", "certify_expansion"),
    ],
    "adversary.answer": [("medianlab.adversary:Adversary", "answer")],
    "adversary.finalize": [("medianlab.adversary:Adversary", "finalize")],
    "adversary.verify_certificate": [
        ("medianlab.adversary", "verify_certificate"),
        ("medianlab.lowerbound", "verify_certificate"),
        ("medianlab.harness", "verify_certificate"),
    ],
    "metric.bfs_hop_row": [
        ("medianlab.metric", "bfs_hop_row"),
        ("medianlab.expander", "bfs_hop_row"),
    ],
    "metric.cheapest": [("medianlab.metric:HopMetric", "cheapest")],
    "metric.query": [("medianlab.metric:CountingOracle", "query")],
    "metric.brute_force_median": [
        ("medianlab.metric", "brute_force_median"),
        ("medianlab.cli", "brute_force_median"),
        ("medianlab.harness", "brute_force_median"),
    ],
    "metric.graph_metric": [
        ("medianlab.metric", "graph_metric"),
        ("medianlab.harness", "graph_metric"),
    ],
    "lowerbound.hard_instance_game": [
        ("medianlab.lowerbound", "hard_instance_game"),
        ("medianlab.cli", "hard_instance_game"),
    ],
    "lowerbound.run_renamed": [("medianlab.lowerbound", "run_renamed")],
    "lowerbound.renaming_proxy": [("medianlab.lowerbound:_RenamingProxy", "query")],
    "lowerbound.glue": [
        ("medianlab.lowerbound", "glue_metric"),
        ("medianlab.lowerbound:GluedMetric", "cost_of"),
        ("medianlab.lowerbound:GluedMetric", "distance"),
    ],
    "players.run": [
        ("medianlab.players:ExactOnPrefix", "run"),
        ("medianlab.players:PivotOnPrefix", "run"),
        ("medianlab.players:SamplingPlayer", "run"),
        ("medianlab.players:RandomFuzzer", "run"),
    ],
    "solvers.restrict_and_solve": [
        ("medianlab.solvers", "restrict_and_solve"),
        ("medianlab.cli", "restrict_and_solve"),
        ("medianlab.harness", "restrict_and_solve"),
    ],
    "fileio.load_metric_any": [
        ("medianlab.fileio", "load_metric_any"),
        ("medianlab.cli", "load_metric_any"),
    ],
    "harness.generate_instance": [("medianlab.harness", "generate_instance")],
    "harness.play_adversary_game": [
        ("medianlab.harness", "play_adversary_game"),
        ("medianlab.cli", "play_adversary_game"),
    ],
    "harness.sweep_upper_bound": [
        ("medianlab.harness", "sweep_upper_bound"),
        ("medianlab.cli", "sweep_upper_bound"),
    ],
}

# layers whose calls also record an input key, for the reuse ratio
_KEYS = {
    "expander.build_regular": lambda a, kw: (a[0], a[1], a[2] if len(a) > 2 else kw["seed"]),
    "harness.generate_instance": lambda a, kw: (a[0], a[1], a[2] if len(a) > 2 else kw.get("seed", 0)),
}

# the span around each call of the CLI entry point, made by the item runner
CLI = "cli"


def _resolve(target: str):
    mod_name, _, cls_name = target.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.keys: dict[str, list] = {layer: [] for layer in _KEYS}
        self.counts: Counter = Counter()
        self.pass_start = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, layer: str) -> int:
        nid = self._name_ids.get(layer)
        if nid is None:
            nid = self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        return nid

    def wrap(self, layer: str, fn, note=None):
        nid = self._name_id(layer)
        key_fn = _KEYS.get(layer)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(1 if depth[nid] else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[nid] -= 1
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if key_fn is not None:
                self.keys[layer].append((idx, key_fn(args, kwargs)))
            if note is not None:
                note(self.counts, args, result)
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper

    def call_cli(self, main, argv: list[str]) -> int:
        """Run the CLI entry point under a span of its own."""
        return self.wrap(CLI, main)(argv)

    def mark_pass(self) -> None:
        """Spans from here on belong to the traced pass, not to set-up."""
        self.pass_start = len(self.start)

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding in LAYERS; refuse to wrap a binding twice."""
        notes = {
            "lowerbound.run_renamed": _note_names_used,
            "fileio.load_metric_any": _note_file_bytes,
        }
        wrapped: dict[int, object] = {}
        for layer, bindings in LAYERS.items():
            for target, attr in bindings:
                owner = _resolve(target)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if getattr(original, "__wrapped_layer__", None) is not None:
                    raise RuntimeError(f"{target}.{attr} is already wrapped")
                wrapper = wrapped.get(id(original))
                if wrapper is None:
                    wrapper = wrapped[id(original)] = self.wrap(layer, original, notes.get(layer))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        distance_cls = _resolve("medianlab.distances:ExactDistance")
        post_init = distance_cls.__dict__["__post_init__"]
        counts = self.counts

        def counted_post_init(obj):
            counts["distances.created"] += 1
            post_init(obj)

        self._saved.append((distance_cls, "__post_init__", post_init))
        distance_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def summarize(self) -> dict[str, float]:
        """Per-layer figures over every recorded span.

        ``reuse`` ratios count only the calls made after ``mark_pass``,
        because they describe the workload's inputs, not the set-up.
        """
        n = len(self.start)
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        selft = [0.0] * len(self.names)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            selft[nid] += dur[i] - child[i]
            if not self.nested[i]:
                incl[nid] += dur[i]
        by = {name: (calls[i], incl[i], selft[i]) for i, name in enumerate(self.names)}

        def get(layer):
            return by.get(layer, (0, 0.0, 0.0))

        cheapest_id = self._name_ids.get("metric.cheapest")
        bfs_id = self._name_ids.get("metric.bfs_hop_row")
        cheapest_rows = 0
        for i in range(n):
            if self.name[i] != bfs_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != cheapest_id:
                p = self.parent[p]
            cheapest_rows += p >= 0

        def reuse(layer):
            keys = [k for idx, k in self.keys[layer] if idx >= self.pass_start]
            return len(keys) / len(set(keys)) if keys else 0.0

        out: dict[str, float] = {}
        c, s, sf = get("expander.build_regular")
        out.update({
            "expander.build_regular.calls": c,
            "expander.build_regular.s": s,
            "expander.build_regular.self_s": sf,
            "expander.build_regular.reuse": reuse("expander.build_regular"),
            "expander.certify_expansion.s": get("expander.certify_expansion")[1],
        })
        c, s, _ = get("adversary.answer")
        out.update({
            "adversary.answer.calls": c,
            "adversary.answer.s": s,
            "adversary.answer.us_per_round": 1e6 * s / c if c else 0.0,
            "adversary.finalize.self_s": get("adversary.finalize")[2],
            "adversary.verify_certificate.s": get("adversary.verify_certificate")[1],
        })
        c, s, _ = get("metric.bfs_hop_row")
        cc, cs, _ = get("metric.cheapest")
        out.update({
            "metric.bfs_hop_row.calls": c,
            "metric.bfs_hop_row.s": s,
            "metric.cheapest.s": cs,
            "metric.cheapest.rows": cheapest_rows / cc if cc else 0.0,
        })
        out.update({
            "lowerbound.hard_instance_game.self_s": get("lowerbound.hard_instance_game")[2],
            "lowerbound.run_renamed.s": get("lowerbound.run_renamed")[1],
            "lowerbound.renaming_proxy.self_s": get("lowerbound.renaming_proxy")[2],
            "lowerbound.glue.s": get("lowerbound.glue")[1],
            "lowerbound.names_used": self.counts["lowerbound.names_used"],
            "players.run.self_s": get("players.run")[2],
        })
        c, s, _ = get("metric.query")
        _, rs, rsf = get("solvers.restrict_and_solve")
        out.update({
            "metric.query.calls": c,
            "metric.query.per_s": c / s if s else 0.0,
            "solvers.restrict_and_solve.s": rs,
            "solvers.restrict_and_solve.self_s": rsf,
            "distances.created": self.counts["distances.created"],
            "metric.brute_force_median.s": get("metric.brute_force_median")[1],
        })
        _, s, _ = get("fileio.load_metric_any")
        out.update({
            "fileio.load_metric_any.s": s,
            "fileio.load_metric_any.bytes_per_s": self.counts["fileio.bytes"] / s if s else 0.0,
        })
        c, s, _ = get("harness.generate_instance")
        out.update({
            "metric.graph_metric.s": get("metric.graph_metric")[1],
            "harness.generate_instance.calls": c,
            "harness.generate_instance.s": s,
            "harness.generate_instance.reuse": reuse("harness.generate_instance"),
            "harness.play_adversary_game.self_s": get("harness.play_adversary_game")[2],
            "harness.sweep_upper_bound.self_s": get("harness.sweep_upper_bound")[2],
            "cli.calls": get(CLI)[0],
            "cli.s": get(CLI)[1],
            "cli.self_s": get(CLI)[2],
        })
        return out

    def write_spans(self, path: str) -> None:
        """Line 1 is a JSON list of layer names; then one tab-separated
        line per span: id, parent id (-1 for none), layer index, start
        and duration in nanoseconds from the first span's start."""
        base = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.names) + "\n")
            for i in range(len(self.start)):
                t0 = self.start[i]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.name[i]}\t"
                    f"{round((t0 - base) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n"
                )


def _note_names_used(counts: Counter, args, result) -> None:
    counts["lowerbound.names_used"] += result.renaming.count


def _note_file_bytes(counts: Counter, args, result) -> None:
    counts["fileio.bytes"] += os.path.getsize(args[0])
