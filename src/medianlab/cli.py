"""Command-line front end.

Subcommands:
  solve       pick an approximate median of a metric file under a query budget
  verify      check a metric file against the four metric axioms
  adversary   pit a query algorithm against the pruning adversary
  lowerbound  play the renamed game on a huge glued space, or sweep a size range
  expander    build a certified constant-degree expander
  sweep       grid of budgeted-median runs scored against their bounds

All output goes to stdout as JSON (default) or CSV where tabular.  Runs
are deterministic for a fixed --seed; timings never enter the payload.
Exit status is 0 only when every reported check passed.  Bad input
(a ValueError or OSError) and a game its player overspent too far to
pad (a PadOverflowError) print {"error": "<Type>: <message>"} and exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .adversary import PadOverflowError, _perm_degree, _went_bad
from .distances import ExactDistance, eps_value
from .expander import certify_expansion, build_regular
from .fileio import load_metric_any, write_edge_list
from .harness import (
    INSTANCE_KINDS,
    SweepConfig,
    play_adversary_game,
    rows_to_csv_text,
    sweep_upper_bound,
)
from .lowerbound import _fraction_text, hard_instance_game
from .metric import CountingOracle, brute_force_cost, brute_force_median, validate_metric
from .players import PLAYERS, StreamPlayer, make_player
from .solvers import INNERS, cost_ratio, make_inner, restrict_and_solve, subset_size, transfer_bound

__all__ = ["main", "build_parser"]


def _fraction_fields(name: str, value: Fraction) -> dict:
    return {name: float(value), f"{name}_exact": _fraction_text(value)}


def _distance_fields(name: str, value: ExactDistance) -> dict:
    out = {name: value.units}
    if value.eps_count:
        out[f"{name}_eps_count"] = value.eps_count
    return out


def _emit(args, payload) -> None:
    # --out wins; otherwise tabular (list) payloads are CSV and the rest JSON
    if (args.out or ("csv" if isinstance(payload, list) else "json")) == "csv":
        rows = payload if isinstance(payload, list) else [_flatten(payload)]
        sys.stdout.write(rows_to_csv_text(rows))
        return
    print(json.dumps(payload, sort_keys=True, indent=2))


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{key}."))
        else:
            flat[key] = v
    return flat


def _split_list(option: str, text: str, convert=str) -> list:
    """The items of a comma-separated option value; empty items are skipped."""
    items = [convert(tok) for tok in text.split(",") if tok]
    if not items:
        raise ValueError(f"{option} needs at least one comma-separated value, got {text!r}")
    return items


def _cmd_solve(args) -> int:
    table = load_metric_any(args.metric)
    n = table.n
    oracle = CountingOracle(table, record_transcript=False)
    inner = make_inner(args.inner, rng_seed=args.seed, sample_size=args.sample_size)
    result = restrict_and_solve(oracle, n, args.f_of_n, inner)
    s = subset_size(n, args.f_of_n)
    query_bound = inner.query_bound(s)
    output_cost = brute_force_cost(table, result.output)

    payload: dict = {
        "n": n,
        "f_of_n": args.f_of_n,
        "inner": args.inner,
        "subset_size": s,
        "output": result.output + 1,
        "queries": result.queries_used,
        "query_bound": query_bound,
    }
    payload.update(_distance_fields("output_cost", output_cost))
    checks = {"budget_respected": result.queries_used <= query_bound}

    if n <= args.brute_force_cap:
        opt_point, opt_cost = brute_force_median(table)
        eps = eps_value(n)
        ratio = cost_ratio(output_cost, opt_cost, eps)
        payload["opt"] = opt_point + 1
        payload.update(_distance_fields("opt_cost", opt_cost))
        payload.update(_fraction_fields("ratio", ratio))
        if result.claimed_beta is not None:
            bound = transfer_bound(result.claimed_beta, n, s)
            payload.update(_fraction_fields("bound", bound))
            checks["within_bound"] = ratio <= bound
    payload["checks"] = checks
    _emit(args, payload)
    return 0 if all(checks.values()) else 1


def _cmd_verify(args) -> int:
    table = load_metric_any(args.metric)
    violations = validate_metric(table)
    payload = {
        "n": table.n,
        "valid": not violations,
        "violations": [
            {"kind": v.kind, "points": [p + 1 for p in v.points]} for v in violations[:200]
        ],
        "violation_count": len(violations),
    }
    _emit(args, payload)
    return 0 if not violations else 1


def _axioms_cap(args) -> int:
    # The triangle pass costs n^2 entry checks per row holding an entry
    # above twice the smallest one, so n^3 at worst: a much steeper scale
    # than the n^2 reference computations --brute-force-cap is sized for,
    # so clamp it separately.  The table it checks comes from one
    # all-sources BFS pass, 2n^3 flops per level, which beats one BFS per
    # point up to the clamp and loses past about n = 1024.  Raising the
    # clamp would add metric_axioms to the payloads of larger games.
    return min(args.brute_force_cap, 512)


def _cmd_adversary(args) -> int:
    if args.algo == "extern":
        player = StreamPlayer(sys.stdin, sys.stdout, budget=args.q)
    else:
        player = make_player(args.algo, budget=args.q, seed=args.seed)
    cert, checks = play_adversary_game(
        args.n,
        args.q,
        args.d,
        player,
        seed=args.seed,
        cap=args.C,
        metric_axioms_cap=_axioms_cap(args),
    )
    y, y_cost = cert.best_good
    degree = _perm_degree(cert.perm)  # one count for both fields; the audit made its own
    payload = {
        "n": cert.n,
        "q": args.q,
        "rounds": cert.rounds,
        "degree": cert.degree,
        "cap": cert.cap,
        "algo": args.algo,
        "output": cert.z_star + 1,
        "output_cost": cert.z_star_cost,
        "best_good": y + 1,
        "best_good_cost": y_cost,
        "bad_count": int(_went_bad(degree, cert.cap).sum()),
        "max_perm_degree": int(degree.max()),
        "checks": checks,
    }
    payload.update(_fraction_fields("ratio", cert.ratio))
    _emit(args, payload)
    return 0 if all(checks.values()) else 1


def _sweep_budget(n: int) -> int:
    if n < 2:
        raise ValueError(f"the lower-bound game needs n >= 2, got {n}")
    return max(1, int(n / math.log2(n)))


def _cmd_lowerbound(args) -> int:
    sweep = args.sweep is not None
    sizes = sorted(_split_list("--sweep", args.sweep, int)) if sweep else [args.n]
    rows = []
    ok = True
    for n in sizes:
        q = args.q if args.q is not None else _sweep_budget(n)
        algorithm = make_player(args.algo, budget=q, seed=args.seed)
        report = hard_instance_game(
            algorithm, n, q, degree=args.d, seed=args.seed,
            metric_axioms_cap=_axioms_cap(args),
        )
        ok = ok and report.all_ok
        rows.append(
            {
                "n": n,
                "q": q,
                "ratio": report.ratio_float,
                "log2_n": round(math.log2(n), 6),
                "f_hat": report.f_hat,
                "checks_ok": report.all_ok,
            }
            if sweep
            else report.to_json_dict()
        )
    _emit(args, rows if sweep else rows[0])
    return 0 if ok else 1


def _cmd_expander(args) -> int:
    g = build_regular(args.n, args.d, seed=args.seed)
    # build_regular certified g spectrally already
    report = g.expansion if args.certify == "spectral" else certify_expansion(g, method=args.certify)
    if args.edges_out:
        write_edge_list(args.edges_out, g.edges, header=f"{g.d}-regular on {g.n} vertices")
    payload = {
        "n": g.n,
        "degree": g.d,
        "edges": len(g.edges),
        "build_attempts": g.build_attempts,
        "connected": g.is_connected(),
        "method": report.method,
        "alpha_proven": report.method == "exhaustive",
        "lambda2": report.lambda2,
    }
    payload.update(_fraction_fields("alpha_lower", report.alpha_lower))
    checks = {"connected": payload["connected"], "positive_expansion": report.alpha_lower > 0}
    payload["checks"] = checks
    _emit(args, payload)
    return 0 if all(checks.values()) else 1


def _cmd_sweep(args) -> int:
    sizes = _split_list("--sizes", args.sizes, int)
    factors = _split_list("--factors", args.factors, int)
    kinds = _split_list("--kinds", args.kinds)
    inners = _split_list("--inners", args.inners)
    configs = [
        SweepConfig(kind=k, n=n, f_of_n=f, inner=inner, seed=args.seed)
        for k in kinds
        for n in sizes
        for f in factors
        for inner in inners
    ]
    rows = sweep_upper_bound(configs, brute_force_cap=args.brute_force_cap)
    _emit(args, rows)
    return 0 if all(r["bound_satisfied"] for r in rows) else 1


def _global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same options hang off the main parser (with real defaults) and
    # off every subparser (defaulting to SUPPRESS), so they are accepted
    # on either side of the subcommand and the later mention wins
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--seed", type=int, help="seed for every randomized component", **kw)
    parser.add_argument("--out", choices=("json", "csv"), help="output format", **kw)
    parser.add_argument(
        "--brute-force-cap",
        type=int,
        help="largest n for exhaustive reference computations",
        **kw,
    )
    if not suppress:
        parser.set_defaults(seed=0, out=None, brute_force_cap=4096)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main`` call; do not change it."""
    parser = argparse.ArgumentParser(
        prog="medianlab",
        description="Budgeted metric 1-median selection, adversarial lower-bound games, and their audits.",
    )
    _global_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="approximate a median under a query budget", parents=[common])
    p.add_argument("--metric", required=True, help="metric file (triangular text or .json)")
    p.add_argument("--inner", choices=tuple(INNERS), default="exact")
    p.add_argument("--f-of-n", type=int, required=True, help="budget divisor f; subset size is ceil(n/sqrt(f))")
    p.add_argument("--sample-size", type=int, default=None, help="candidate count for the sampling inner")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a metric file for axiom violations", parents=[common])
    p.add_argument("--metric", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("adversary", help="play the pruning adversary against an algorithm", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="player's query budget (the game runs q+n rounds)")
    p.add_argument("--d", type=int, default=8, help="anchor expander degree")
    p.add_argument("--C", type=int, default=None, help="pruning threshold (default: smallest valid)")
    p.add_argument(
        "--algo",
        choices=(*PLAYERS, "extern"),
        default="exact",
        help="extern speaks QUERY/ANSWER/OUTPUT lines on stdio",
    )
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("lowerbound", help="renamed adversary game on a glued n-point space", parents=[common])
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--q", type=int, default=None, help="query budget (default: n/log2 n)")
    p.add_argument("--d", type=int, default=8, help="anchor expander degree (must be even)")
    p.add_argument("--algo", choices=tuple(PLAYERS), default="exact")
    p.add_argument("--sweep", default=None, help="comma-separated sizes; emits one row per size")
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("expander", help="build and certify a d-regular expander", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--certify", choices=("spectral", "exhaustive"), default="spectral")
    p.add_argument("--edges-out", default=None, help="write the edge list to this file")
    p.set_defaults(func=_cmd_expander)

    p = sub.add_parser("sweep", help="budgeted-median grid scored against the transfer bound", parents=[common])
    p.add_argument("--kinds", default=",".join(INSTANCE_KINDS))
    p.add_argument("--sizes", default="16,64,256")
    p.add_argument("--factors", default="1,4,16", help="budget divisors f to sweep")
    p.add_argument("--inners", default="exact,pivot")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, PadOverflowError) as exc:
        # bad input (infeasible sizes, invalid constants, missing or
        # malformed files, protocol lines, a player whose overspend leaves
        # too few rounds to pad the game) is reported, not traced back;
        # broken invariants raise AssertionError and still propagate
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
