import ast
import copy
import dataclasses
import functools
import os
import random
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

import medianlab.adversary as adversary_module
import medianlab.metric as metric_module
from medianlab.adversary import (
    Adversary,
    BadConstantError,
    BudgetExhaustedError,
    Certificate,
    PadOverflowError,
    ball_growth_ok,
    minimal_cap,
    verify_certificate,
    verify_consistency,
    verify_path_discipline,
)
from medianlab.distances import ExactDistance
from medianlab.expander import RegularGraph, build_regular
from medianlab.harness import play_adversary_game
from medianlab.metric import CountingOracle, HopMetric, TranscriptEntry, bfs_hop_row, is_metric, replay_verify
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
    # the constructor refuses exactly the caps below minimal_cap
    for rounds in range(1, 41):
        cap = minimal_cap(4, rounds, 3)
        Adversary(anchor, rounds, cap)
        with pytest.raises(BadConstantError, match=f"^cap {cap - 1} must exceed 2\\*3 \\+ 4\\*{rounds}/4 = "):
            Adversary(anchor, rounds, cap - 1)


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
            assert replay_verify(oracle.transcript, cert.final_metric)


def test_max_perm_degree_within_cap_plus_two():
    cert, _ = finished_game(n=32, degree=4, q=24)
    assert cert.max_perm_degree <= cert.cap + 2


def test_degree_list_stays_in_step_with_perm():
    for algo in ("exact", "random"):
        cert, oracle = finished_game(n=32, degree=4, q=24, algo=algo)
        adv = oracle.backing
        assert any(cert.pruned_log)
        assert adv._degree == np.count_nonzero(cert.perm, axis=1).tolist() == cert.perm_degree.tolist(), algo


def test_hardening_a_permanent_edge_raises():
    adv = small_game()
    with pytest.raises(AssertionError, match="fresh edge already permanent"):
        adv._harden(*adv.anchor.edges[0])


def test_anchor_survives_every_round():
    # the graph after any round is perm plus a clique, so a permanent
    # anchor edge lies in every one of them
    cert, _ = finished_game(n=24, degree=4, q=16)
    assert any(cert.pruned_log)
    for u, v in cert.anchor_edges:
        assert cert.perm[u, v] and cert.perm[v, u], (u, v)


def test_final_metric_walks_perm_with_the_alive_mask():
    # the record rebuilds the adversary's own graph: its perm and its alive mask
    n, q = 32, 8
    adv = Adversary(build_regular(n, 4, 4), q + n, minimal_cap(n, q + n, 4))
    output = make_player("exact", budget=q, seed=4).run(CountingOracle(adv), n)
    perm, alive = adv._perm, adv._alive  # the padding fills them in place
    cert = adv.finalize(output)
    assert cert.final_metric.adjacency is cert.perm
    assert not (np.shares_memory(cert.perm, perm) or np.shares_memory(cert.final_metric.clique, alive))
    assert np.array_equal(cert.perm, perm)
    assert np.array_equal(cert.final_metric.clique, alive)
    assert np.array_equal(cert.final_metric.clique, cert.alive_after(cert.rounds))
    assert not cert.final_metric.clique.all()


def test_anchor_preserved_sees_one_lost_edge():
    # perm is built from the anchor, so it loses no anchor edge; an edge
    # lost from the record itself breaks the anchor's regularity, even one
    # that no reply path walks and no other check reads
    cert, _ = finished_game(n=24, degree=4, q=16)
    assert verify_certificate(cert)["anchor_preserved"]
    walked = {_norm_edge(u, w) for path in cert.paths for u, w in zip(path, path[1:])}
    unwalked = [k for k, edge in enumerate(cert.anchor_edges) if edge not in walked]
    for k in (0, len(cert.anchor_edges) - 1, unwalked[0]):
        thinned = dataclasses.replace(cert, anchor_edges=cert.anchor_edges[:k] + cert.anchor_edges[k + 1 :])
        assert not verify_certificate(thinned)["anchor_preserved"], k
    assert _failed(verify_certificate(thinned)) == {"anchor_preserved"}  # the unwalked edge: no other check reads it


def test_certificate_shares_no_array_with_the_adversary():
    n, q = 64, 64
    adv = Adversary(build_regular(n, 4, 1), q + n, minimal_cap(n, q + n, 4))
    output = make_player("exact", budget=q, seed=1).run(CountingOracle(adv), n)
    own = [adv._perm, adv._alive, adv._anchor_flat]
    cert = adv.finalize(output)
    assert adv._perm is adv._alive is adv._hop_row is None  # let go before the certificate built its graph
    assert adv.distances([], [])[0].shape == (0,)  # a spent adversary still serves an empty batch
    with pytest.raises(BudgetExhaustedError):
        adv.answer(0, 1)
    assert all(verify_certificate(cert).values())
    final = cert.final_metric
    views = [cert.perm, cert.perm_edges, cert.perm_degree, cert.transcript_arrays, final.adjacency, final.clique]
    assert cert.z_star in final._rows  # finalize's row, which the certificate keeps
    for view in views + list(final._rows.values()):
        assert not any(np.shares_memory(view, array) for array in own)
    # no field holds an array or a metric: the record and the claims are plain values
    for f in dataclasses.fields(cert):
        assert not any(name in str(f.type) for name in ("ndarray", "HopMetric")), f.name
        assert not isinstance(getattr(cert, f.name), (np.ndarray, HopMetric)), f.name


def test_snapshots_only_lose_edges():
    # the graph after round i is perm plus a clique on alive_after(i), so
    # it only loses edges when that mask only shrinks
    cert, _ = finished_game(n=24, degree=4, q=16)
    prev = cert.alive_after(0)
    assert prev.all()  # complete arena before round one
    for i in range(1, cert.rounds + 1):
        cur = cert.alive_after(i)
        assert not (cur & ~prev).any(), f"round {i} grew an edge"
        assert np.flatnonzero(prev & ~cur).tolist() == list(cert.pruned_log[i - 1]), i
        prev = cur
    assert not prev.all()
    assert np.array_equal(prev, cert.final_metric.clique)
    with pytest.raises(IndexError):
        cert.alive_after(cert.rounds + 1)


def test_best_good_is_the_cheapest_good_point():
    cert, _ = finished_game(n=24, degree=4, q=16)
    costs = {v: cert.final_metric.cost_of(v) for v in range(cert.n) if v not in cert.bad}
    y = min(costs, key=lambda v: (costs[v], v))
    assert cert.best_good == (y, costs[y])
    # a claim moved to the next-cheapest good point, with its true cost
    runner_up = min((c, v) for v, c in costs.items() if v != y)
    checks = verify_certificate(dataclasses.replace(cert, best_good=runner_up[::-1]))
    assert not checks["best_good_matches"]
    assert checks["ratio_exact"]


def test_ball_growth_bound():
    cert, _ = finished_game(n=32, degree=4, q=24)
    assert ball_growth_ok(cert)


def test_consistency_detects_tampered_answer():
    cert, _ = finished_game(n=16, degree=4, q=4)
    e = cert.transcript[0]
    cert.transcript[0] = TranscriptEntry(e.a, e.b, e.answer + e.answer.__class__(5))
    assert not verify_consistency(cert)


def _norm_edge(u, v):
    return (u, v) if u < v else (v, u)


def _per_round_path_discipline(cert):
    """``verify_path_discipline`` as a per-round walk, as it stood; kept as the reference."""
    if not len(cert.pruned_log) == len(cert.paths) == len(cert.transcript):
        return False
    if len(set(cert.anchor_edges)) < len(cert.anchor_edges) or not all(0 <= u < v < cert.n for u, v in cert.anchor_edges):
        return False  # the anchor's form: each edge once, as (u, v) with u < v
    perm = set(cert.anchor_edges)
    degree = [0] * cert.n
    for u, v in perm:
        degree[u] += 1
        degree[v] += 1
    pruned_so_far = set()
    for path, pruned, (a, b, answer) in zip(cert.paths, cert.pruned_log, cert.transcript):
        if answer.eps_count or len(path) != answer.units + 1 or path[0] != a or path[-1] != b:
            return False  # the path answers its round: a to b, one vertex per hop
        if not all(0 <= x < cert.n for x in path):
            return False
        edges = [_norm_edge(u, v) for u, v in zip(path, path[1:])]
        if any(u == v for u, v in edges) or len(edges) != len(set(edges)):
            return False  # reply paths are simple
        fresh = [e for e in edges if e not in perm]
        if len(fresh) > 1:
            return False
        per_vertex = {}
        for u, v in edges:
            per_vertex[u] = per_vertex.get(u, 0) + 1
            per_vertex[v] = per_vertex.get(v, 0) + 1
        if per_vertex and max(per_vertex.values()) > 2:
            return False
        for u, v in fresh:
            if u in pruned_so_far or v in pruned_so_far:
                return False  # pruning cut every flexible edge at a pruned vertex
            degree[u] += 1
            degree[v] += 1
        due = sorted({v for e in fresh for v in e if degree[v] > cert.cap})
        if list(pruned) != due:
            return False
        pruned_so_far.update(due)
        perm.update(edges)
    # the log matches the cap rule in every round; the final graph is the
    # certificate's own, built from these paths and this log
    return True


def _round_of(path):
    """The transcript entry a reply path answers: from its first vertex to its last, one hop per edge."""
    return TranscriptEntry(path[0], path[-1], ExactDistance(len(path) - 1))


def _discipline(cert):
    """The library's verdict, required to equal the per-round reference's."""
    got = verify_path_discipline(cert)
    assert got == _per_round_path_discipline(cert)
    return got


def test_path_discipline_detects_tampering():
    cert, _ = finished_game(n=16, degree=4, q=4)
    assert _discipline(cert)
    # a non-simple walk can never be an answer path, even one its round's entry claims
    bad_paths = cert.paths[:-1] + ((0, 1, 0),)
    tampered = dataclasses.replace(cert, paths=bad_paths, transcript=cert.transcript[:-1] + [_round_of((0, 1, 0))])
    assert not _discipline(tampered)

    # pruning must follow the cap rule round by round; this game prunes
    # two vertices, each of which loses some flexible edges
    cert, _ = finished_game(n=32, degree=4, q=8)
    assert _discipline(cert)
    log = list(cert.pruned_log)
    r = next(i for i, pruned in enumerate(log) if pruned)
    assert r + 1 < len(log)
    v = log[r][0]

    def relogged(changes):
        return dataclasses.replace(cert, pruned_log=tuple(changes.get(i, p) for i, p in enumerate(log)))

    # one pruned vertex dropped, then the same vertex pruned a round late
    assert not _discipline(relogged({r: log[r][1:]}))
    assert not _discipline(relogged({r: log[r][1:], r + 1: tuple(sorted(log[r + 1] + (v,)))}))
    # a vertex that never reached the cap, pruned in round one
    pruned_ever = {u for pruned in log for u in pruned}
    never_due = min(set(range(cert.n)) - pruned_ever)
    assert not _discipline(relogged({0: tuple(sorted(log[0] + (never_due,)))}))

    # the anchor's pairs are read as given: (w, u) for (u, w) is no anchor
    # edge, even one that no reply path walks
    walked = {_norm_edge(u, w) for path in cert.paths for u, w in zip(path, path[1:])}
    k = next(k for k, edge in enumerate(cert.anchor_edges) if edge not in walked)
    u, w = cert.anchor_edges[k]
    flipped = cert.anchor_edges[:k] + ((w, u),) + cert.anchor_edges[k + 1 :]
    assert not _discipline(dataclasses.replace(cert, anchor_edges=flipped))

    # an extra round may not reopen an edge that pruning cut, even with
    # the log forged to match
    w = next(
        u for u in range(cert.n)
        if u != v and not cert.perm[v, u] and u not in pruned_ever and cert.perm[u].sum() < cert.cap
    )
    reopened = dataclasses.replace(
        cert,
        paths=cert.paths + ((v, w),),
        pruned_log=cert.pruned_log + ((v,),),
        transcript=cert.transcript + [_round_of((v, w))],
    )
    assert not _discipline(reopened)

    # a pruned vertex swapped for another keeps every round's count, and
    # logged vertices trading rounds keep the final mask too
    assert not _discipline(relogged({r: tuple(sorted(set(log[r]) - {v} | {never_due}))}))
    reversed_log = iter([u for pruned in log for u in pruned][::-1])
    traded = tuple(tuple(next(reversed_log) for _ in pruned) for pruned in log)
    assert traded != cert.pruned_log
    assert not _discipline(dataclasses.replace(cert, pruned_log=traded))

    # an extra round over permanent edges alone may still not touch one
    # vertex with three of its edges: a -> x -> b, around x to c, then x
    x = never_due
    a, b, c = np.flatnonzero(cert.perm[x])[:3].tolist()
    around = cert.perm.copy()
    around[x] = around[:, x] = False
    hops = bfs_hop_row(around, c)
    detour = [b]
    while detour[-1] != c:
        detour.append(int(np.flatnonzero(around[detour[-1]] & (hops == hops[detour[-1]] - 1))[0]))
    path = (a, x, *detour, x)
    three = dataclasses.replace(
        cert,
        paths=cert.paths + (path,),
        pruned_log=cert.pruned_log + ((),),
        transcript=cert.transcript + [_round_of(path)],
    )
    assert not _discipline(three)

    # an extra round with two fresh edges, forged into the rest of the record
    low = [u for u in range(cert.n) if u not in pruned_ever and cert.perm[u].sum() + 2 <= cert.cap]
    p, s, t = next(
        (p, s, t) for s in low for p in low for t in low
        if len({p, s, t}) == 3 and not (cert.perm[p, s] or cert.perm[s, t])
    )
    two_fresh = dataclasses.replace(
        cert,
        paths=cert.paths + ((p, s, t),),
        pruned_log=cert.pruned_log + ((),),
        transcript=cert.transcript + [_round_of((p, s, t))],
    )
    assert not _discipline(two_fresh)

    # points outside the space are never part of a valid timeline
    for forged_path in ((0, cert.n), (-1, 0)):
        assert not verify_path_discipline(dataclasses.replace(cert, paths=cert.paths[:-1] + (forged_path,)))
    assert not verify_path_discipline(dataclasses.replace(cert, anchor_edges=cert.anchor_edges + ((-1, 5),)))
    # nor is a step that stays at its vertex, or an anchor edge given twice
    looped = dataclasses.replace(
        cert,
        paths=cert.paths + ((x, x),),
        pruned_log=cert.pruned_log + ((),),
        transcript=cert.transcript + [_round_of((x, x))],
    )
    assert not _discipline(looped)
    assert not _discipline(dataclasses.replace(cert, anchor_edges=cert.anchor_edges + cert.anchor_edges[-1:]))


def test_path_discipline_ties_each_path_to_its_round():
    # two forgeries that keep every edge, degree and prune of the timeline:
    # two one-hop rounds that pruned nothing trade paths, and a two-hop path
    # is walked backwards; each path then answers some other pair
    cert, checks = play_adversary_game(64, 64, 4, make_player("exact", 64, 0), seed=0)
    assert all(checks.values())
    i, j = (
        next(r for r, e in enumerate(cert.transcript) if (e.a, e.b) == pair and e.answer.units == 1)
        for pair in ((0, 1), (0, 6))
    )
    assert not (cert.pruned_log[i] or cert.pruned_log[j])
    paths = list(cert.paths)
    paths[i], paths[j] = paths[j], paths[i]
    swapped = dataclasses.replace(cert, paths=tuple(paths))
    k = cert.paths.index((0, 1, 15))
    walked_back = dataclasses.replace(cert, paths=cert.paths[:k] + ((15, 1, 0),) + cert.paths[k + 1 :])
    for forged in (swapped, walked_back):
        audit = verify_certificate(forged)
        assert audit.pop("path_discipline") is False
        assert all(audit.values())  # no other audit reads the paths against the transcript
        assert not _discipline(forged)
    # the two-hop path under an answer of another length or with eps, and a path for a round never asked
    for answer in (ExactDistance(1), ExactDistance(3), ExactDistance(2, 1)):
        transcript = cert.transcript[:k] + [cert.transcript[k]._replace(answer=answer)] + cert.transcript[k + 1 :]
        assert not _discipline(dataclasses.replace(cert, transcript=transcript))
    assert not _discipline(dataclasses.replace(cert, paths=cert.paths + ((0,),), pruned_log=cert.pruned_log + ((),)))


def test_path_discipline_matches_per_round_reference_on_finished_games():
    for n, q, algo, seed in ((16, 4, "exact", 4), (32, 48, "random", 1), (64, 96, "pivot", 2), (256, 512, "random", 3)):
        cert, _ = finished_game(n=n, degree=4, q=q, seed=seed, algo=algo)
        assert any(cert.pruned_log)
        assert _discipline(cert), (n, q, algo)


@functools.cache
def _edit_base(index):
    n, q, algo, seed = ((32, 48, "random", 1), (24, 16, "exact", 4))[index]
    return finished_game(n=n, degree=4, q=q, seed=seed, algo=algo)[0]


@st.composite
def _one_edit(draw):
    """A finished certificate with one random edit to its paths or its pruning log.

    A path loses, repeats or swaps one vertex, or is walked backwards,
    and its round's transcript entry may be rewritten to match it; a
    round's log gains a vertex, or one logged vertex is dropped, moved
    to another round or swapped for another vertex.
    """
    cert = _edit_base(draw(st.integers(0, 1)))
    r = draw(st.integers(0, len(cert.paths) - 1))
    vertex = st.integers(0, cert.n - 1)
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "swap", "reverse", "add pruned", "drop pruned", "move pruned", "swap pruned"]
    ))
    if kind in ("drop", "duplicate", "swap", "reverse"):
        path = list(cert.paths[r])
        i = draw(st.integers(0, len(path) - 1))
        if kind == "drop":
            del path[i]
        elif kind == "duplicate":
            path.insert(i, path[i])
        elif kind == "swap":
            path[i] = draw(vertex)
        else:
            path.reverse()
        transcript = cert.transcript
        if path and draw(st.booleans()):
            transcript = transcript[:r] + [_round_of(path)] + transcript[r + 1 :]
        paths = cert.paths[:r] + (tuple(path),) + cert.paths[r + 1 :]
        return dataclasses.replace(cert, paths=paths, transcript=transcript)
    log = [list(pruned) for pruned in cert.pruned_log]
    pruned_rounds = [i for i, pruned in enumerate(log) if pruned]
    if kind == "add pruned" or not pruned_rounds:
        log[r].insert(draw(st.integers(0, len(log[r]))), draw(vertex))
    else:
        src = draw(st.sampled_from(pruned_rounds))
        moved = log[src].pop(draw(st.integers(0, len(log[src]) - 1)))
        if kind == "swap pruned":
            log[src] = sorted(log[src] + [draw(vertex)])
        elif kind == "move pruned":
            log[r] = sorted(log[r] + [moved]) if draw(st.booleans()) else log[r] + [moved]
    return dataclasses.replace(cert, pruned_log=tuple(tuple(pruned) for pruned in log))


@settings(max_examples=300, deadline=None)
@given(_one_edit())
def test_path_discipline_matches_per_round_reference_after_one_edit(cert):
    _discipline(cert)


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


def _tampered_row(adv, levels):
    """Stand a hop row for source levels[0] in for the BFS: levels[k] at hop k."""
    dist = np.full(adv.n, -1, dtype=np.int64)
    for hop, v in enumerate(levels):
        dist[v] = hop
    adv._hop_row = (levels[0], dist, {})


def test_a_round_hardens_at_most_one_edge():
    adv = small_game()
    perm = adv._perm.copy()
    p, s = next((p, s) for p in range(adv.n) for s in range(p) if not perm[p, s])
    assert adv.answer(p, s) == 1 and adv.paths[-1] == (p, s)
    perm[p, s] = perm[s, p] = True
    assert np.array_equal(adv._perm, perm)

    # a row that walks b -> s -> t -> a takes the clique hop (s, t) and
    # then the clique hop (t, a): two fresh edges
    adv = small_game()
    perm = adv._perm
    n = range(adv.n)
    a, t, s, b = next(
        (a, t, s, b) for a in n for t in n for s in n for b in n
        if len({a, t, s, b}) == 4 and perm[b, s] and not (perm[s, t] or perm[t, a] or perm[a, b])
    )
    adv._alive[b] = False
    _tampered_row(adv, [a, t, s, b])
    with pytest.raises(AssertionError, match="two fresh edges"):
        adv.answer(a, b)

    # a row that walks b -> s -> a ends in a clique hop into a pruned a
    adv = small_game()
    perm = adv._perm
    a, s, b = next(
        (a, s, b) for a in n for s in n for b in n
        if len({a, s, b}) == 3 and perm[b, s] and not (perm[s, a] or perm[a, b])
    )
    adv._alive[a] = False
    _tampered_row(adv, [a, s, b])
    with pytest.raises(AssertionError, match="missing edge"):
        adv.answer(a, b)

    # and one whose pruned b has no live edge into the level below
    adv = small_game()
    perm = adv._perm
    a, s, b = next(
        (a, s, b) for a in n for s in n for b in n
        if len({a, s, b}) == 3 and not (perm[b, s] or perm[a, b])
    )
    adv._alive[b] = False
    _tampered_row(adv, [a, s, b])
    with pytest.raises(AssertionError, match="missing edge"):
        adv.answer(a, b)


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


class _DenseReference:
    """The adversary as it stood with a dense live graph, kept as the reference.

    It stores the live graph as an n x n matrix, masks a pruned vertex's
    row and column by hand, and caches the permanent degrees.  The
    library's adversary keeps only the permanent edges and an alive mask
    and must agree with this one answer for answer.
    """

    def __init__(self, anchor, rounds, cap):
        self.n, self.rounds, self.cap = anchor.n, rounds, cap
        self.adj = ~np.eye(anchor.n, dtype=bool)
        self.perm = anchor.csr.toarray().astype(bool)
        self.perm_deg = np.full(anchor.n, anchor.d, dtype=np.int64)
        self.answers, self.paths, self.pruned_log = [], [], []

    def answer(self, a, b):
        dist, path = self._distance_and_path(a, b)
        touched = set()
        for u, v in zip(path, path[1:]):
            assert self.adj[u, v]
            if not self.perm[u, v]:
                self.perm[u, v] = self.perm[v, u] = True
                self.perm_deg[u] += 1
                self.perm_deg[v] += 1
                touched |= {u, v}
        pruned = tuple(v for v in sorted(touched) if self.perm_deg[v] > self.cap)
        if pruned:
            idx = list(pruned)
            self.adj[idx] &= self.perm[idx]
            self.adj[:, idx] &= self.perm[:, idx]
        self.answers.append(dist)
        self.paths.append(tuple(path))
        self.pruned_log.append(pruned)
        return dist

    def _distance_and_path(self, a, b):
        if a == b:
            return 0, [a]
        if self.adj[a, b]:
            return 1, [a, b]
        dist = bfs_hop_row(self.adj, a)
        path = [b]
        cur = b
        while cur != a:
            cur = int(np.nonzero(self.adj[:, cur] & (dist == dist[cur] - 1))[0][0])
            path.append(cur)
        return int(dist[b]), path[::-1]

    def finalize(self, output):
        for x in range(self.n):
            self.answer(output, x)
        while len(self.answers) < self.rounds:
            self.answer(output, (output + 1) % self.n)
        final = HopMetric(self.adj, np.zeros(self.n, dtype=bool))
        bad = tuple(int(v) for v in np.nonzero(self.perm_deg >= self.cap)[0])
        good = sorted(set(range(self.n)) - set(bad))
        return final, bad, final.cost_of(output), final.cheapest(good)


def _random_queries(rng, n, q):
    """A query stream aimed at two hot points, with repeats and self-queries."""
    hot = rng.sample(range(n), 2)
    queries = []
    for _ in range(q):
        roll = rng.random()
        if roll < 0.1 and queries:
            queries.append(rng.choice(queries))
        elif roll < 0.2:
            queries.append((rng.randrange(n),) * 2)
        elif roll < 0.6:
            queries.append((rng.choice(hot), rng.randrange(n)))
        else:
            queries.append((rng.randrange(n), rng.randrange(n)))
    return queries, hot


def _dense_regime(game):
    """Anchor, rounds, cap, query stream and output of one reference game."""
    rng = random.Random(game)
    d = rng.choice((3, 4))
    n = rng.choice(range(8, 65, 2))
    q = rng.randrange(n // 2, 4 * n)
    rounds = q + n
    cap = minimal_cap(n, rounds, d) + rng.choice((0, 0, 1, 3))
    queries, hot = _random_queries(rng, n, q)
    output = rng.choice(hot + [rng.randrange(n)])
    return build_regular(n, d, game), rounds, cap, queries, output


def test_matches_dense_reference():
    pruned_in_play = long_answers = 0
    for game in range(40):
        anchor, rounds, cap, queries, output = _dense_regime(game)
        adv, ref = Adversary(anchor, rounds, cap), _DenseReference(anchor, rounds, cap)
        for a, b in queries:
            assert adv.answer(a, b) == ref.answer(a, b), (game, a, b)
            assert (adv.paths[-1], adv.pruned_log[-1]) == (ref.paths[-1], ref.pruned_log[-1]), (game, a, b)
        pruned_in_play += any(ref.pruned_log)
        assert np.array_equal(adv._perm, ref.perm), game  # the audit reads the record, never this matrix
        cert = adv.finalize(output)
        final, bad, z_cost, best_good = ref.finalize(output)
        long_answers += sum(dist >= 2 for dist in ref.answers)
        assert [e.answer.units for e in cert.transcript] == ref.answers, game
        assert list(cert.paths) == ref.paths, game
        assert list(cert.pruned_log) == ref.pruned_log, game
        assert np.array_equal(cert.perm, ref.perm), game
        clique = cert.final_metric.clique
        live = cert.final_metric.adjacency | (clique[:, None] & clique[None, :])
        np.fill_diagonal(live, False)
        assert np.array_equal(live, final.adjacency), game
        assert (cert.bad, cert.z_star_cost, cert.best_good) == (bad, z_cost, best_good), game
    # the streams reach the cases the two representations handle differently
    assert pruned_in_play >= 10
    assert long_answers >= 500


def test_dense_reference_catches_a_hardened_edge_left_out_of_perm(monkeypatch):
    # the audit reads the certificate's record, never the adversary's own
    # matrix, so an adversary that drops the first edge it hardens from that
    # matrix is the reference's to catch
    real = Adversary._harden

    def forgetful(self, u, v):
        pruned = real(self, u, v)
        if not getattr(self, "_forgot", False):
            self._perm[u, v] = self._perm[v, u] = False
            self._forgot = True
        return pruned

    monkeypatch.setattr(Adversary, "_harden", forgetful)
    caught = diverged = 0
    for game in range(40):
        anchor, rounds, cap, queries, _ = _dense_regime(game)
        adv, ref = Adversary(anchor, rounds, cap), _DenseReference(anchor, rounds, cap)
        try:
            same_play = all(
                adv.answer(a, b) == ref.answer(a, b)
                and (adv.paths[-1], adv.pruned_log[-1]) == (ref.paths[-1], ref.pruned_log[-1])
                for a, b in queries
            )
        except AssertionError:
            same_play = False
        diverged += not same_play
        caught += same_play and not np.array_equal(adv._perm, ref.perm)
    # 15 games harden the dropped edge again before play ends, which hides it
    assert (caught, diverged) == (20, 5)


def _source_sweeps(rng, n, q):
    """Sweeps (s, x) over every other x, one source s at a time.

    Each sweep opens with the previous source, which its own sweep has
    most likely pruned, so s asks for a BFS while it is still alive.  The
    sweep then prunes s through its own reply paths, and s keeps asking
    long questions after the prune.
    """
    queries, last = [], None
    while len(queries) < q:
        s = rng.randrange(n)
        others = [x for x in range(n) if x not in (s, last)]
        rng.shuffle(others)
        queries += [(s, x) for x in ([last] if last not in (None, s) else []) + others]
        last = s
    return queries[:q]


def _sweep_regime(game):
    """Anchor, rounds, cap and source-sweep stream of one reference game."""
    rng = random.Random(game)
    d = rng.choice((3, 4))
    n = rng.choice(range(8, 65, 2))
    q = rng.randrange(2 * n, 4 * n)
    rounds = q + n
    cap = minimal_cap(n, rounds, d) + rng.choice((0, 1))
    return build_regular(n, d, game), rounds, cap, _source_sweeps(rng, n, q)


def test_matches_dense_reference_across_a_prune_in_play():
    # a row cached from a source must not answer for it after a prune;
    # the padding is never reached, so only play rounds are compared
    reasked = 0
    for game in range(20):
        anchor, rounds, cap, queries = _sweep_regime(game)
        adv, ref = Adversary(anchor, rounds, cap), _DenseReference(anchor, rounds, cap)
        bfs_source, pruned_since = None, False
        for a, b in queries:
            assert adv.answer(a, b) == ref.answer(a, b), (game, a, b)
            assert (adv.paths[-1], adv.pruned_log[-1]) == (ref.paths[-1], ref.pruned_log[-1]), (game, a, b)
            if ref.answers[-1] >= 2:
                if a == bfs_source and pruned_since:
                    reasked += 1
                bfs_source, pruned_since = a, False
            pruned_since = pruned_since or bool(ref.pruned_log[-1])
        assert np.array_equal(adv._perm, ref.perm), game
    # long answers from the last BFS source with a prune since its BFS
    assert reasked >= 20


def _ask_in_batches(adv, queries, rng):
    """Ask the stream through a CountingOracle in random batch sizes 1..3n.

    Returns the number of batches with a prune before their last round,
    whose later rounds must miss the cached hop row.
    """
    oracle = CountingOracle(adv)
    early_prunes = k = 0
    while k < len(queries):
        batch = queries[k : k + rng.randint(1, 3 * adv.n)]
        before = len(adv.pruned_log)
        units, eps = oracle.query_many([a for a, _ in batch], [b for _, b in batch])
        assert units.dtype == eps.dtype == np.int64 and not eps.any()
        assert units.tolist() == [e.answer.units for e in adv.transcript[before:]]
        early_prunes += any(adv.pruned_log[before:-1])
        k += len(batch)
    assert oracle.queries_made == adv.rounds_served == len(queries)
    assert oracle.transcript == adv.transcript
    return early_prunes


def _same_game(adv, other):
    return (
        adv.transcript == other.transcript
        and adv.paths == other.paths
        and adv.pruned_log == other.pruned_log
        and np.array_equal(adv._perm, other._perm)
        and np.array_equal(adv._alive, other._alive)
    )


def test_batches_match_pair_by_pair_and_dense_reference():
    # a batch is its pairs served in order as consecutive rounds, a
    # prune inside it included
    early_prunes = 0
    for game in range(60):
        if game < 40:
            anchor, rounds, cap, queries, output = _dense_regime(game)
        else:
            (anchor, rounds, cap, queries), output = _sweep_regime(game - 40), None
        pairwise, batched = Adversary(anchor, rounds, cap), Adversary(anchor, rounds, cap)
        ref = _DenseReference(anchor, rounds, cap)
        for a, b in queries:
            pairwise.answer(a, b)
            ref.answer(a, b)
        early_prunes += _ask_in_batches(batched, queries, random.Random(1000 + game))
        assert _same_game(batched, pairwise), game
        assert np.array_equal(batched._perm, ref.perm), game
        if output is not None:
            cert = pairwise.finalize(output)
            assert batched.finalize(output) == cert, game
            ref.finalize(output)
            assert np.array_equal(cert.perm, ref.perm), game
        assert [e.answer.units for e in batched.transcript] == ref.answers, game
        assert batched.paths == ref.paths, game
        assert batched.pruned_log == ref.pruned_log, game
    assert early_prunes >= 30


def test_failing_batch_serves_nothing():
    adv = small_game(n=8, rounds=20)
    oracle = CountingOracle(adv)
    oracle.query_many([0, 1, 2], [3, 4, 5])

    def state():
        return (
            adv.rounds_served, list(adv.transcript), list(adv.paths), list(adv.pruned_log),
            adv._perm.tobytes(), oracle.queries_made, list(oracle.transcript),
        )

    before = state()
    failing = [
        ([0, 8], [1, 2], IndexError),
        ([0, 1], [1, -1], IndexError),
        ([0] * 18, [1] * 18, BudgetExhaustedError),  # 17 rounds are left
    ]
    for a, b, error in failing:
        with pytest.raises(error):
            oracle.query_many(a, b)
        with pytest.raises(error):
            adv.distances(a, b)
        assert state() == before, (a, b)
    units, _ = adv.distances([0] * 17, [1] * 17)
    assert units.tolist() == [1] * 17 and adv.rounds_served == 20
    with pytest.raises(BudgetExhaustedError):
        adv.distances([0], [1])
    assert adv.distances([], [])[0].shape == (0,)


def test_replay_runs_one_row_per_long_source(monkeypatch):
    # answers 0 and 1 come from the final adjacency; only sources with a
    # longer answer, and the connectivity check, run a BFS row
    cert, _ = finished_game(n=64, degree=4, q=48, algo="random")
    calls = []
    real = metric_module.bfs_hop_row

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(metric_module, "bfs_hop_row", counted)
    assert replay_verify(cert.transcript, HopMetric(cert.perm, cert.final_metric.clique))
    long_sources = {e.a for e in cert.transcript if e.answer.units >= 2}
    assert len(calls) <= len(long_sources) + 1
    assert len({e.a for e in cert.transcript}) > len(long_sources) + 1  # one row per source breaks it


def test_hub_graph_costs_match_the_final_metric():
    for algo in ("exact", "random"):
        for q in (8, 48):
            cert, _ = finished_game(n=32, degree=4, q=q, algo=algo)
            assert any(cert.pruned_log)
            good = np.flatnonzero(~np.isin(np.arange(cert.n), cert.bad))
            z_cost, y_cost, good_costs = adversary_module._hub_costs(cert, good)
            cost_of = cert.final_metric.cost_of
            assert (z_cost, y_cost) == (cost_of(cert.z_star), cost_of(cert.best_good[0])), (algo, q)
            assert good_costs.tolist() == [cost_of(v) for v in good.tolist()], (algo, q)


def test_verdicts_when_the_cap_marks_every_vertex_bad():
    cert, _ = finished_game(n=32, degree=4, q=8)
    checks = verify_certificate(dataclasses.replace(cert, cap=0))
    assert isinstance(checks, dict)
    assert not checks["bad_at_most_half"] and not checks["best_good_matches"]


def test_ratio_exact_recomputes_both_costs():
    cert, _ = finished_game(n=32, degree=4, q=8)
    assert verify_certificate(cert)["ratio_exact"]
    z, (y, y_cost) = cert.z_star_cost, cert.best_good
    forged = [
        dataclasses.replace(cert, z_star_cost=z + 1),
        dataclasses.replace(cert, best_good=(y, y_cost - 1)),
    ]
    for tampered in forged:
        checks = verify_certificate(tampered)
        assert not checks["ratio_exact"]
        assert checks["best_good_matches"] == (tampered.best_good == cert.best_good)


def _failed(checks):
    return {name for name, ok in checks.items() if not ok}


@pytest.mark.parametrize("algo", ["exact", "pivot", "random"])
def test_each_forged_cost_claim_fails_its_own_check(monkeypatch, algo):
    n = q = 64
    adv = Adversary(build_regular(n, 4, 1), q + n, minimal_cap(n, q + n, 4))
    output = make_player(algo, budget=q, seed=1).run(CountingOracle(adv), n)
    real = HopMetric.cheapest

    def runner_up(self, candidates):
        y, _ = real(self, candidates)
        return real(self, [v for v in candidates if v != y])

    # a finalize that reports the second-cheapest good point, with its true cost
    monkeypatch.setattr(HopMetric, "cheapest", runner_up)
    second = adv.finalize(output)
    monkeypatch.undo()
    assert any(second.pruned_log)
    good = [v for v in range(n) if v not in second.bad]
    honest = dataclasses.replace(second, best_good=real(HopMetric(second.perm, second.final_metric.clique), good))
    assert honest.best_good != second.best_good
    assert _failed(verify_certificate(honest)) == set()
    assert _failed(verify_certificate(second)) == {"best_good_matches"}
    y, y_cost = honest.best_good
    off_by_one = dataclasses.replace(honest, best_good=(y, y_cost - 1))
    assert _failed(verify_certificate(off_by_one)) == {"best_good_matches", "ratio_exact"}
    z_off = dataclasses.replace(honest, z_star_cost=honest.z_star_cost + 1)
    assert _failed(verify_certificate(z_off)) == {"ratio_exact"}
    # a cap over every degree counts each pruned vertex as good, and a good vertex outside U fails
    raised = verify_certificate(dataclasses.replace(honest, cap=honest.max_perm_degree + 1))
    assert not raised["best_good_matches"] and raised["ratio_exact"]


def test_audit_runs_no_cheapest(monkeypatch):
    certs = [finished_game(n=n, q=n, seed=n, algo=algo)[0] for n in (32, 256) for algo in ("exact", "random")]
    calls = []
    real = HopMetric.cheapest

    def counted(self, candidates):
        calls.append(candidates)
        return real(self, candidates)

    monkeypatch.setattr(HopMetric, "cheapest", counted)
    for cert in certs:
        assert all(verify_certificate(cert).values())
    assert calls == []


def test_audit_reads_the_hub_row_of_a_vertex_two_hops_from_the_clique(monkeypatch):
    # adversary --n 1024 --q 256 --algo exact --seed 0, where z* sits two hops from U
    cert, checks = play_adversary_game(1024, 256, 8, make_player("exact", 256, 0), seed=0, metric_axioms_cap=0)
    assert all(checks.values())
    clique = cert.alive_after(len(cert.pruned_log))
    hops = bfs_hop_row(cert.perm, np.flatnonzero(clique))
    assert np.flatnonzero(hops > 1).tolist() == [cert.z_star] and hops[cert.z_star] == 2
    sources = []
    real = scipy.sparse.csgraph.dijkstra

    def counted(*args, indices, **kwargs):
        sources.append(np.asarray(indices).tolist())
        return real(*args, indices=indices, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", counted)
    assert all(verify_certificate(cert).values())
    assert sources == [[cert.n, cert.z_star, cert.best_good[0]], [cert.z_star]]
    monkeypatch.undo()
    # the clique rule's costs are every good vertex's BFS row sum
    good = np.flatnonzero(~np.isin(np.arange(cert.n), cert.bad))
    fresh = HopMetric(cert.perm, clique)
    assert adversary_module._hub_costs(cert, good)[2].tolist() == [fresh.cost_of(v) for v in good.tolist()]


def test_invariants_raise_under_optimize_flag():
    # the invariant checks are real raises, so python -O keeps them
    script = """
from medianlab.adversary import Adversary, minimal_cap
from medianlab.expander import build_regular
anchor = build_regular(8, 3, 4)
u, v = anchor.edges[0]  # (0, 2)
calls = [
    lambda adv: adv.answer(0, 1),
    lambda adv: adv.distances([0, 1, 3], [1, 3, 4]),
    lambda adv: adv.distances([1, 0], [3, 2]),  # its second round hardens (0, 2) again
    lambda adv: adv.finalize(5),
]
for call in calls:
    adv = Adversary(anchor, 20, minimal_cap(8, 20, 3))
    adv._perm[u, v] = adv._perm[v, u] = False
    try:
        call(adv)
    except AssertionError as exc:
        print(exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split("\n") == ["anchor edge lost"] * 4 + [""]


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


def test_padding_reuses_one_hop_row(monkeypatch):
    # the live graph changes only at a prune, so the padding's (z, x)
    # rounds share one BFS row from z until the next round that prunes
    calls = []
    real = adversary_module.bfs_hop_row

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(adversary_module, "bfs_hop_row", counted)
    n, q = 32, 8
    adv = Adversary(build_regular(n, 4, 4), q + n, minimal_cap(n, q + n, 4))
    output = make_player("exact", budget=q, seed=4).run(CountingOracle(adv), n)
    before = len(calls)
    cert = adv.finalize(output)
    padding = range(q, cert.rounds)
    assert any(output in cert.pruned_log[i] for i in padding)
    prunes = sum(1 for i in padding if cert.pruned_log[i])
    long_answers = sum(cert.transcript[i].answer.units >= 2 for i in padding)
    assert long_answers > 1 + prunes  # one BFS per long answer would break the bound
    assert len(calls) - before <= 1 + prunes


def test_hop_row_dropped_at_prune():
    # game 1096 of the dense-reference regime: the padding caches a row
    # from the output z = 13 at (13, 10), prunes z at (13, 18), and must
    # then route (13, 20) around z's lost clique edges
    rng = random.Random(1096)
    d = rng.choice((3, 4))
    n = rng.choice(range(8, 65, 2))
    q = rng.randrange(n // 2, 4 * n)
    rounds = q + n
    cap = minimal_cap(n, rounds, d) + rng.choice((0, 0, 1, 3))
    assert (n, d, q, cap) == (64, 4, 63, 19)
    adv = Adversary(build_regular(n, d, 1096), rounds, cap)
    queries, hot = _random_queries(rng, n, q)
    output = rng.choice(hot + [rng.randrange(n)])
    assert output == 13
    for a, b in queries:
        adv.answer(a, b)
    for x in range(20):
        adv.answer(output, x)
    assert adv.paths[q + 10] == (13, 2, 10)
    assert adv.pruned_log[q + 18] == (13,)
    assert adv.answer(13, 20) == 2
    assert adv.paths[-1] == (13, 0, 20)


def test_anchor_preserved_rejects_endpoints_outside_the_space():
    # a negative end must not wrap to row n - 1, and an end at n must not raise
    cert, checks = play_adversary_game(64, 16, 4, make_player("exact", 16, 0), seed=0)
    assert all(checks.values())
    for edge in ((-1, 6), (0, 64)):
        forged = dataclasses.replace(cert, anchor_edges=cert.anchor_edges + (edge,))
        audit = verify_certificate(forged)
        assert audit["anchor_preserved"] is False, edge
        assert audit["path_discipline"] is False, edge


def test_prune_log_vertices_outside_the_space_get_a_verdict():
    # a pruned -1 must not wrap to n - 1, and a pruned n must not raise numpy's IndexError
    cert, checks = play_adversary_game(64, 16, 4, make_player("exact", 16, 0), seed=0)
    assert all(checks.values())
    log = cert.pruned_log
    r = next(i for i, pruned in enumerate(log) if pruned)
    for x in (-1, 64):
        forged = dataclasses.replace(cert, pruned_log=log[:r] + (log[r] + (x,),) + log[r + 1 :])
        assert np.array_equal(forged.alive_after(r), cert.alive_after(r))
        with pytest.raises(ValueError, match=f"^pruned vertex {x} outside space of size 64$"):
            forged.alive_after(r + 1)
        audit = verify_certificate(forged)
        assert audit["path_discipline"] is False, x
        assert audit == {**dict.fromkeys(audit, False), "anchor_preserved": True}  # the log fixes no graph


def test_certificate_rebuilt_from_deep_copies_of_its_fields():
    for algo in ("exact", "random"):
        cert, checks = play_adversary_game(256, 256, 4, make_player(algo, 256, 0), seed=0)
        assert all(checks.values())
        copied = Certificate(**{f.name: copy.deepcopy(getattr(cert, f.name)) for f in dataclasses.fields(cert)})
        assert copied == cert
        assert copied.perm.tobytes() == cert.perm.tobytes()
        assert verify_certificate(copied, metric_axioms_cap=512) == checks


def test_finalize_grades_on_the_certificate_degree_count():
    # finalize's good set is the one cert.bad leaves: both read the count
    # of the certificate's edges, which equals the adversary's degree list
    anchor = build_regular(32, 4, 4)
    adv = Adversary(anchor, 24 + 32, minimal_cap(32, 24 + 32, 4))
    output = make_player("exact", budget=24, seed=4).run(CountingOracle(adv), 32)
    cert = adv.finalize(output)
    assert any(cert.pruned_log)
    assert cert.perm_degree.tolist() == adv._degree
    good = [v for v in range(cert.n) if v not in cert.bad]
    assert cert.best_good == HopMetric(cert.perm.copy(), cert.alive_after(cert.rounds)).cheapest(good)


def _perm_from_record(cert):
    """The anchor plus every reply-path edge, set pair by pair; None if the record fixes no graph.

    A vertex outside the space, in the anchor, a path or the prune log,
    or an edge from a vertex to itself fixes no graph.
    """
    n = cert.n
    edges = [*cert.anchor_edges, *(step for path in cert.paths for step in zip(path, path[1:]))]
    pruned = [x for log in cert.pruned_log for x in log]
    if not all(0 <= x < n for x in [*chain.from_iterable(edges), *pruned]) or any(u == v for u, v in edges):
        return None
    perm = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        perm[u, v] = perm[v, u] = True
    return perm


def _checks_one_by_one(cert, metric_axioms_cap=0):
    """verify_certificate's checks, each run on its own through the public functions.

    The final graph is rebuilt pair by pair from the record and must
    equal the certificate's.  The perm degrees are its row counts, the
    anchor check reads the edge tuples, and both costs come from BFS rows
    of a fresh HopMetric on it and the clique ``pruned_log`` leaves, so no
    count, row or hub-graph walk is shared with the audit.  A record that
    fixes no graph fails every check that reads one.
    """
    n = cert.n
    checks = {
        "path_discipline": verify_path_discipline(cert),
        "anchor_preserved": all(0 <= u < n and 0 <= v < n and u != v for u, v in cert.anchor_edges)
        and sorted(chain.from_iterable(cert.anchor_edges)) == [x for x in range(n) for _ in range(cert.degree)],
    }
    perm = _perm_from_record(cert)
    if perm is None:
        with pytest.raises(ValueError, match="outside space of size|to itself"):
            cert.final_metric
        graph_checks = ["consistency", "bad_at_most_half", "perm_degree_cap", "ball_growth", "best_good_matches",
                        "ratio_exact"] + ["metric_axioms"] * bool(metric_axioms_cap and n <= metric_axioms_cap)
        return checks | dict.fromkeys(graph_checks, False)
    assert np.array_equal(cert.perm, perm)
    degree = perm.sum(axis=1)
    good = [v for v in range(n) if degree[v] < cert.cap]
    fresh = HopMetric(perm, cert.alive_after(len(cert.pruned_log)))
    in_clique = bool(fresh.clique[good].all())
    checks |= {
        "consistency": verify_consistency(cert),
        "bad_at_most_half": 2 * (n - len(good)) <= n,
        "perm_degree_cap": degree.max() <= cert.cap + 2,
        "ball_growth": ball_growth_ok(cert),
        "best_good_matches": bool(good) and in_clique and fresh.cheapest(good) == cert.best_good,
        "ratio_exact": [fresh.cost_of(cert.z_star), fresh.cost_of(cert.best_good[0])]
        == [cert.z_star_cost, cert.best_good[1]],
    }
    if metric_axioms_cap and n <= metric_axioms_cap:
        checks["metric_axioms"] = is_metric(fresh.to_table(metric_axioms_cap))
    return checks


def _forgeries(cert):
    """The kinds of forged record or claim the tests above build, on any finished game."""
    n, log = cert.n, cert.pruned_log
    yield "answer", dataclasses.replace(
        cert, transcript=[cert.transcript[0]._replace(answer=cert.transcript[0].answer + ExactDistance(5))]
        + cert.transcript[1:],
    )
    r = next(i for i, pruned in enumerate(log) if pruned)
    yield "dropped prune", dataclasses.replace(cert, pruned_log=log[:r] + (log[r][1:],) + log[r + 1 :])
    for x in (-1, n):
        yield f"pruned {x}", dataclasses.replace(cert, pruned_log=log[:r] + (log[r] + (x,),) + log[r + 1 :])
    reversed_log = iter([u for pruned in log for u in pruned][::-1])
    traded = tuple(tuple(next(reversed_log) for _ in pruned) for pruned in log)
    if traded != log:
        yield "traded prunes", dataclasses.replace(cert, pruned_log=traded)
    u, v = cert.anchor_edges[-1]
    yield "flipped anchor", dataclasses.replace(cert, anchor_edges=((v, u),) + cert.anchor_edges[1:])
    yield "repeated anchor edge", dataclasses.replace(cert, anchor_edges=cert.anchor_edges + ((u, v),))
    walked = {_norm_edge(a, b) for path in cert.paths for a, b in zip(path, path[1:])}
    k = next(k for k, edge in enumerate(cert.anchor_edges) if edge not in walked)
    yield "lost anchor edge", dataclasses.replace(cert, anchor_edges=cert.anchor_edges[:k] + cert.anchor_edges[k + 1 :])
    extra = next((a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in walked | set(cert.anchor_edges))
    yield "extra anchor edge", dataclasses.replace(cert, anchor_edges=tuple(sorted(cert.anchor_edges + (extra,))))
    for edge in ((-1, 6), (0, n), (3, 3)):
        yield f"anchor {edge}", dataclasses.replace(cert, anchor_edges=cert.anchor_edges + (edge,))
    for path in ((0, n), (-1, 0), (0, 1, 0), (0, 0)):
        yield f"path {path}", dataclasses.replace(cert, paths=cert.paths[:-1] + (path,))
    yield "reversed path", dataclasses.replace(cert, paths=tuple(p[::-1] for p in cert.paths))
    yield "swapped paths", dataclasses.replace(cert, paths=cert.paths[1:2] + cert.paths[:1] + cert.paths[2:])
    yield "extra round", dataclasses.replace(cert, paths=cert.paths + ((0,),), pruned_log=log + ((),))
    z, (y, y_cost) = cert.z_star_cost, cert.best_good
    yield "z* cost", dataclasses.replace(cert, z_star_cost=z + 1)
    yield "best good cost", dataclasses.replace(cert, best_good=(y, y_cost - 1))
    yield "best good point", dataclasses.replace(cert, best_good=((y + 1) % n, y_cost))
    yield "cap 0", dataclasses.replace(cert, cap=0)
    yield "cap 1", dataclasses.replace(cert, cap=1)


def test_audit_verdicts_equal_the_checks_one_by_one(monkeypatch):
    reads = []
    read = metric_module._transcript_arrays

    def counted(transcript):
        reads.append(len(transcript))
        return read(transcript)

    monkeypatch.setattr(adversary_module, "_transcript_arrays", counted)
    monkeypatch.setattr(metric_module, "_transcript_arrays", counted)
    audited = 0
    for n in (24, 64, 256):
        for algo in ("exact", "pivot", "random"):
            cert, _ = finished_game(n=n, degree=4, q=n, seed=n, algo=algo)
            assert any(cert.pruned_log), (n, algo)
            for name, forged in (("honest", cert), *_forgeries(cert)):
                cap = 64 if name == "honest" else 0
                reads.clear()
                audit = verify_certificate(forged, metric_axioms_cap=cap)
                assert reads == [len(forged.transcript)], (n, algo, name)
                assert audit == _checks_one_by_one(forged, cap), (n, algo, name)
                assert all(audit.values()) == (name == "honest"), (n, algo, name)
                audited += 1
    assert audited > 9 * 20
