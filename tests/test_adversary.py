import ast
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medianlab.adversary import (
    Adversary,
    BadConstantError,
    BudgetExhaustedError,
    PadOverflowError,
    ball_growth_ok,
    good_point_bound,
    minimal_cap,
    verify_certificate,
    verify_consistency,
    verify_path_discipline,
)
from medianlab.expander import RegularGraph, build_regular
from medianlab.metric import CountingOracle, HopMetric, TranscriptEntry
from medianlab.players import make_player

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def small_game(n=8, degree=3, rounds=20, cap=None, seed=4):
    anchor = build_regular(n, degree, seed)
    if cap is None:
        cap = minimal_cap(n, rounds, degree)
    return Adversary(anchor, rounds, cap)


def finished_game(n=32, degree=4, q=8, seed=4, algo="exact"):
    anchor = build_regular(n, degree, seed)
    rounds = q + n
    cap = minimal_cap(n, rounds, degree)
    adv = Adversary(anchor, rounds, cap)
    oracle = CountingOracle(adv)
    player = make_player(algo, budget=q, seed=seed)
    output = player.run(oracle, n)
    return adv.finalize(output), oracle


def test_minimal_cap_frozen():
    assert minimal_cap(4, 4, 3) == 11
    assert minimal_cap(32, 40, 4) == 14
    assert minimal_cap(8, 16, 3) == 15


def test_cap_validation_is_strict():
    anchor = RegularGraph(4, 3, K4_EDGES)
    # cap*n must strictly exceed 2*d*n + 4*rounds = 40 here
    Adversary(anchor, 4, 11)
    with pytest.raises(BadConstantError):
        Adversary(anchor, 4, 10)


def test_first_answers_and_self_query():
    adv = small_game()
    assert adv.answer(0, 5) == 1  # the arena starts complete
    assert adv.answer(3, 3) == 0  # legal, and it costs a round
    assert adv.rounds_served == 2
    with pytest.raises(IndexError):
        adv.answer(0, 99)


def test_round_budget_enforced():
    adv = small_game(rounds=3)
    for _ in range(3):
        adv.answer(0, 1)
    with pytest.raises(BudgetExhaustedError):
        adv.answer(0, 1)


def test_pad_overflow():
    adv = small_game(n=8, rounds=8)
    adv.answer(0, 1)  # 7 rounds left < n
    with pytest.raises(PadOverflowError):
        adv.finalize(0)


def test_finalize_serves_every_round():
    n, q = 16, 4
    adv = small_game(n=n, degree=4, rounds=q + n, cap=minimal_cap(n, q + n, 4))
    for i in range(q):
        adv.answer(i, i + 1)
    cert = adv.finalize(9)
    assert len(cert.transcript) == cert.rounds == q + n
    # the pad covers (z, x) for every point of the space, in order
    tail = cert.transcript[q:]
    assert [(e.a, e.b) for e in tail] == [(9, x) for x in range(n)]


def test_zero_pruning_game_is_flat():
    # cap exceeds n-1, so no vertex can ever be pruned: the space stays a
    # clique and every point costs n-1
    n = 8
    adv = small_game(n=n, degree=3, rounds=2 * n, cap=20)
    for i in range(n):
        adv.answer(0, i)
    cert = adv.finalize(5)
    assert cert.bad == ()
    assert cert.z_star_cost == n - 1
    assert cert.best_good == (0, n - 1)
    assert cert.ratio == 1
    assert all(verify_certificate(cert, metric_axioms_cap=64).values())


def test_two_point_game():
    anchor = RegularGraph(2, 1, [(0, 1)])
    adv = Adversary(anchor, 6, 15)
    adv.answer(0, 1)
    cert = adv.finalize(1)
    assert cert.best_good[1] == 1
    assert cert.ratio == 1


def test_padding_marks_output_bad_in_real_games():
    cert, _ = finished_game(n=32, degree=4, q=8)
    assert cert.z_star in cert.bad
    assert cert.ratio > 1
    assert len(cert.bad) <= 16


def test_certificate_checks_pass_across_algorithms():
    for algo in ("exact", "pivot", "sampling", "random"):
        for q in (4, 16, 48):
            cert, oracle = finished_game(n=24, degree=4, q=q, algo=algo)
            checks = verify_certificate(cert, metric_axioms_cap=64)
            assert all(checks.values()), (algo, q, checks)
            # replaying the player's own transcript against the final metric
            assert verify_consistency(cert, oracle.transcript)


def test_max_perm_degree_within_cap_plus_two():
    cert, _ = finished_game(n=32, degree=4, q=24)
    assert cert.max_perm_degree <= cert.cap + 2


def test_anchor_survives_every_round():
    cert, _ = finished_game(n=24, degree=4, q=16)
    for i in range(cert.rounds + 1):
        adj = cert.snapshot_adjacency(i)
        for u, v in cert.anchor_edges:
            assert adj[u, v] and adj[v, u], (i, u, v)


def test_snapshots_only_lose_edges():
    cert, _ = finished_game(n=24, degree=4, q=16)
    prev = cert.snapshot_adjacency(0)
    assert prev.sum() == 24 * 23  # complete arena before round one
    for i in range(1, cert.rounds + 1):
        cur = cert.snapshot_adjacency(i)
        assert not (cur & ~prev).any(), f"round {i} grew an edge"
        prev = cur
    assert (prev == cert.final_metric.adjacency).all()


def test_good_point_bound_matches_certificate():
    cert, _ = finished_game(n=24, degree=4, q=16)
    assert good_point_bound(cert) == cert.best_good


def test_ball_growth_bound():
    cert, _ = finished_game(n=32, degree=4, q=24)
    assert ball_growth_ok(cert)


def test_consistency_detects_tampered_answer():
    cert, _ = finished_game(n=16, degree=4, q=4)
    e = cert.transcript[0]
    cert.transcript[0] = TranscriptEntry(e.a, e.b, e.answer + e.answer.__class__(5))
    assert not verify_consistency(cert)


def test_path_discipline_detects_tampering():
    cert, _ = finished_game(n=16, degree=4, q=4)
    assert verify_path_discipline(cert)
    # a non-simple walk can never be an answer path
    bad_paths = cert.paths[:-1] + ((0, 1, 0),)
    tampered = dataclasses.replace(cert, paths=bad_paths)
    assert not verify_path_discipline(tampered)
    # and the recorded permanent matrix must match the replayed timeline
    wiped = dataclasses.replace(cert, perm=np.zeros_like(cert.perm))
    assert not verify_path_discipline(wiped)

    # pruning must follow the cap rule round by round; this game prunes
    # two vertices, each of which loses some flexible edges
    cert, _ = finished_game(n=32, degree=4, q=8)
    assert verify_path_discipline(cert)
    log = list(cert.pruned_log)
    r = next(i for i, pruned in enumerate(log) if pruned)
    assert r + 1 < len(log)
    v = log[r][0]

    def relogged(changes):
        return dataclasses.replace(cert, pruned_log=tuple(changes.get(i, p) for i, p in enumerate(log)))

    # one pruned vertex dropped, then the same vertex pruned a round late
    assert not verify_path_discipline(relogged({r: log[r][1:]}))
    assert not verify_path_discipline(relogged({r: log[r][1:], r + 1: tuple(sorted(log[r + 1] + (v,)))}))
    # a vertex that never reached the cap, pruned in round one
    pruned_ever = {u for pruned in log for u in pruned}
    never_due = min(set(range(cert.n)) - pruned_ever)
    assert not verify_path_discipline(relogged({0: tuple(sorted(log[0] + (never_due,)))}))

    # the final graph must keep every flexible edge between unpruned vertices
    adj = cert.final_metric.adjacency.copy()
    flexible = np.argwhere(np.triu(adj & ~cert.perm))
    a, b = next((int(a), int(b)) for a, b in flexible if a not in pruned_ever and b not in pruned_ever)
    adj[a, b] = adj[b, a] = False
    thinned = dataclasses.replace(cert, final_metric=HopMetric(adj))
    assert not verify_path_discipline(thinned)

    # an extra round may not reopen an edge that pruning cut, even with
    # the permanent set, the log and the final graph forged to match
    w = next(
        u for u in range(cert.n)
        if u != v and not cert.perm[v, u] and u not in pruned_ever and cert.perm[u].sum() < cert.cap
    )
    perm = cert.perm.copy()
    perm[v, w] = perm[w, v] = True
    reopened = dataclasses.replace(
        cert,
        paths=cert.paths + ((v, w),),
        pruned_log=cert.pruned_log + ((v,),),
        perm=perm,
        final_metric=HopMetric(cert.final_metric.adjacency | perm),
    )
    assert not verify_path_discipline(reopened)


def test_answers_are_deterministic():
    runs = []
    for _ in range(2):
        cert, _ = finished_game(n=24, degree=4, q=16, algo="random")
        runs.append(
            (
                [(e.a, e.b, e.answer.units) for e in cert.transcript],
                cert.ratio,
                cert.pruned_log,
            )
        )
    assert runs[0] == runs[1]


def test_live_backing_counts_rounds():
    adv = small_game(n=8, rounds=20)
    oracle = CountingOracle(adv)
    oracle.query(0, 1)
    oracle.query(0, 1)
    assert adv.rounds_served == 2
    assert oracle.queries_made == 2


def test_answers_never_shrink_per_pair():
    # distances can only grow as edges disappear; spot-check one pair by
    # interleaving many other queries between repeats
    rng = random.Random(1)
    adv = small_game(n=16, degree=4, rounds=80, cap=minimal_cap(16, 80, 4))
    seen = []
    for i in range(60):
        if i % 10 == 0:
            seen.append(adv.answer(2, 11))
        else:
            adv.answer(rng.randrange(16), rng.randrange(16))
    assert seen == sorted(seen)


def test_invariants_raise_under_optimize_flag():
    # the invariant checks are real raises, so python -O keeps them
    script = """
from medianlab.adversary import Adversary, minimal_cap
from medianlab.expander import build_regular
anchor = build_regular(8, 3, 4)
adv = Adversary(anchor, 20, minimal_cap(8, 20, 3))
u, v = anchor.edges[0]
adv._adj[u, v] = adv._adj[v, u] = False
try:
    adv.answer(0, 1)
except AssertionError as exc:
    print(exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "anchor edge lost"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so invariants and input checks
    # in the library must raise explicitly
    src = Path(__file__).resolve().parents[1] / "src" / "medianlab"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
