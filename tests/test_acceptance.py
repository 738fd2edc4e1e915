"""End-to-end acceptance suite.

Nine criteria, one test each, covering the full surface of the package:
the prefix-selection transfer bound, the two averaging lemmas, adversary
self-consistency and structural invariants, expander certification, the
glued-instance construction, the growth of the lower-bound ratio, the
renaming wrapper, and the query budgets of the subset solvers.

Every numeric claim is checked exactly (integer or Fraction arithmetic)
unless the criterion is inherently about floating-point trend estimation,
in which case the tolerance is stated inline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from medianlab.adversary import verify_certificate, verify_consistency
from medianlab.expander import (
    build_regular,
    certify_expansion,
    verify_level_decay,
)
from medianlab.harness import (
    INSTANCE_KINDS,
    generate_instance,
    play_adversary_game,
    replay_verify,
)
from medianlab.lowerbound import hard_instance_game, run_renamed
from medianlab.metric import (
    CountingOracle,
    _single,
    brute_force_median,
    validate_metric,
)
from medianlab.players import RandomFuzzer, make_player
from medianlab.solvers import (
    ExactInner,
    PivotInner,
    restrict_and_solve,
    solve_on_subset,
)

from conftest import LineMetric, median_cost


# ---------------------------------------------------------------------------
# shared corpora (built once, reused by the criteria that need them)
# ---------------------------------------------------------------------------

CORPUS_SIZES = (4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64)
CORPUS_SEEDS = tuple(range(9))


def _subset_sizes(n: int) -> list[int]:
    """A spread of subset sizes from singleton to the whole space."""
    grid = {1, math.isqrt(n - 1) + 1, (n + 1) // 2, n}
    return sorted(grid)


@pytest.fixture(scope="module")
def metric_corpus():
    """540 shortest-path metrics spanning four generators, 4 <= n <= 64."""
    corpus = []
    for kind in INSTANCE_KINDS:
        for n in CORPUS_SIZES:
            for seed in CORPUS_SEEDS:
                corpus.append((kind, n, seed, generate_instance(kind, n, seed)))
    assert len(corpus) >= 500
    return corpus


def _game_grid():
    grid = []
    for n in (64, 256, 1024):
        for q in (n // 4, n, 4 * n):
            for algo in ("exact", "pivot", "random"):
                for seed in (0, 1, 2, 3):
                    grid.append((n, q, algo, seed))
    return grid


GAME_GRID = _game_grid()


@pytest.fixture(scope="module")
def adversary_games():
    """108 finished adversary games across sizes, budgets, and players."""
    games = []
    for n, q, algo, seed in GAME_GRID:
        player = make_player(algo, budget=q, seed=seed)
        cert, checks = play_adversary_game(
            n, q, degree=8, player=player, seed=seed, metric_axioms_cap=0
        )
        games.append(((n, q, algo, seed), cert, checks))
    return games


# ---------------------------------------------------------------------------
# criterion 1: the prefix transfer bound holds exactly on a broad corpus
# ---------------------------------------------------------------------------


def test_criterion_1_transfer_bound_exact(metric_corpus):
    start = time.perf_counter()
    checked = 0
    for kind, n, seed, table in metric_corpus:
        opt = brute_force_median(table)[1]
        for s in _subset_sizes(n):
            subset = list(range(s))
            oracle = CountingOracle(table)
            result = solve_on_subset(oracle, subset, ExactInner())
            out_cost = median_cost(CountingOracle(table), result.output, range(n))
            # exact integer form of cost <= (4n/s + 1) * opt
            assert out_cost.units * s <= (4 * n + s) * opt.units, (
                kind,
                n,
                seed,
                s,
            )
            assert result.queries_used <= s * s
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 2000
    assert elapsed < 60.0, f"corpus sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: both averaging lemmas hold exactly on the same corpus
# ---------------------------------------------------------------------------


def test_criterion_2_center_lemmas_exact(metric_corpus):
    for kind, n, seed, table in metric_corpus:
        units = table.units
        global_median = brute_force_median(table)[0]
        for s in _subset_sizes(n):
            block = units[:s, :s]
            total = int(block.sum())  # s^2 * average pairwise distance
            # the global median is within half the average radius of S
            lhs_global = int(units[global_median, :s].sum())
            assert 2 * s * lhs_global >= total, (kind, n, seed, s)
            # the best point of S itself is within the average radius
            sub_costs = block.sum(axis=1)
            lhs_local = int(sub_costs.min())
            assert s * lhs_local <= total, (kind, n, seed, s)


# ---------------------------------------------------------------------------
# criterion 3: every adversary transcript replays against the final metric
# ---------------------------------------------------------------------------


def test_criterion_3_adversary_consistency(adversary_games):
    assert len(adversary_games) >= 100
    for params, cert, checks in adversary_games:
        assert replay_verify(cert.transcript, cert.final_metric), params
        assert verify_consistency(cert), params
        assert checks["consistency"], params


# sha256 over every certificate of the adversary_games grid; any change to
# a reply path, a pruning decision or the graded output moves it
GOLDEN_GAME_CERTIFICATES = "90b20545c7e7f396674076d6ae3efe2d7d8d0cf93e765c9843b3eaa3430a2960"


def _removal_tuples(cert):
    """Each round's removed edges, rebuilt from pruned_log and perm.

    Pruning v cuts the non-permanent edges from v to every vertex still
    unpruned, listed in vertex order; this is the per-edge log the
    certificate used to store, so the digest below is unchanged.
    """
    alive = np.ones(cert.n, dtype=bool)
    log = []
    for pruned in cert.pruned_log:
        removed = []
        for v in pruned:
            alive[v] = False
            removed.extend((min(v, int(u)), max(v, int(u))) for u in np.flatnonzero(alive & ~cert.perm[v]))
        log.append(tuple(removed))
    return tuple(log)


def test_golden_game_certificates(adversary_games):
    digest = hashlib.sha256()
    for params, cert, _ in adversary_games:
        transcript = [(e.a, e.b, e.answer.units, e.answer.eps_count) for e in cert.transcript]
        digest.update(repr((params, transcript, cert.paths, _removal_tuples(cert))).encode())
        digest.update(cert.perm.tobytes())
        digest.update(repr((cert.bad, cert.z_star, cert.best_good, cert.ratio)).encode())
    assert digest.hexdigest() == GOLDEN_GAME_CERTIFICATES


def test_certificate_derives_bad_and_rounds(adversary_games):
    # the bad set is a view of the audited permanent edges, never a claim
    with pytest.raises(TypeError):
        dataclasses.replace(adversary_games[0][1], bad=())
    for params, cert, _ in adversary_games:
        degree = cert.perm.sum(axis=1)
        assert cert.bad == tuple(v for v in range(cert.n) if degree[v] >= cert.cap), params
        assert cert.rounds == len(cert.transcript), params


# ---------------------------------------------------------------------------
# criterion 4: structural invariants of every finished game
# ---------------------------------------------------------------------------


def test_criterion_4_structural_invariants(adversary_games):
    for params, cert, checks in adversary_games:
        n, q, algo, seed = params
        assert all(checks.values()), (params, checks)
        fresh = verify_certificate(cert)
        assert all(fresh.values()), (params, fresh)
        assert cert.max_perm_degree <= cert.cap + 2, params
        assert 2 * len(cert.bad) <= n, params
    # on the small games, additionally replay the per-round alive masks
    # and confirm the anchor expander survives every intermediate graph:
    # the graph after round i is perm plus a clique on alive_after(i)
    for params, cert, checks in adversary_games:
        n, q, algo, seed = params
        if n != 64 or seed != 0:
            continue
        for a, b in cert.anchor_edges:
            assert cert.perm[a, b] and cert.perm[b, a], params
        previous = None
        rounds_served = len(cert.pruned_log)
        for i in list(range(0, rounds_served, 17)) + [rounds_served]:
            alive = cert.alive_after(i)
            if previous is not None:
                assert not (alive & ~previous).any(), (params, i)
            previous = alive


# ---------------------------------------------------------------------------
# criterion 5: expander certificates are sound and level decay holds
# ---------------------------------------------------------------------------


def test_criterion_5_expander_level_decay():
    rng = random.Random(20260816)
    trials = 0
    for n in (64, 256, 1024):
        g = build_regular(n, 8, seed=1)
        report = g.expansion
        assert report is not None and report.alpha_lower > 0
        for _ in range(70):
            size = rng.randint(1, n // 2)
            subset = rng.sample(range(n), size)
            assert verify_level_decay(g, subset, report.alpha_lower), (n, size)
            trials += 1
    assert trials >= 200
    # spectral certificates never overstate the exhaustive constant
    for n in (8, 10, 12, 14, 16):
        for d in (3, 4):
            if (n * d) % 2:
                continue
            g = build_regular(n, d, seed=0)
            spectral = certify_expansion(g, method="spectral")
            exhaustive = certify_expansion(g, method="exhaustive")
            assert 0 < spectral.alpha_lower <= exhaustive.alpha_lower, (n, d)


# ---------------------------------------------------------------------------
# criterion 6: glued hard instances are genuine metrics and replay cleanly
# ---------------------------------------------------------------------------


def test_criterion_6_glued_metric_validity():
    configs = [
        (n, q, algo)
        for n in (64, 128, 256)
        for q in (5, 15)
        for algo in ("exact", "pivot")
    ]
    configs.append((400, 20, "random"))
    for n, q, algo in configs:
        player = make_player(algo, budget=q, seed=3)
        report = hard_instance_game(player, n=n, q=q, seed=3,
                                    metric_axioms_cap=512)
        assert report.checks["glued_metric_axioms"], (n, q, algo)
        assert report.checks["replay_glued"], (n, q, algo)
        assert report.checks["cost_split_z"], (n, q, algo)
        assert report.checks["cost_split_y"], (n, q, algo)
    # direct check on a fresh table, not just the report's own flag
    player = make_player("pivot", budget=8, seed=5)
    report = hard_instance_game(player, n=128, q=8, seed=5,
                                metric_axioms_cap=0)
    from medianlab.lowerbound import glue_metric

    glued = glue_metric(report.certificate.final_metric, report.certificate.best_good[0], 128)
    assert validate_metric(glued.to_table()) == []


# ---------------------------------------------------------------------------
# criterion 7: the lower-bound ratio grows with n at budget n / log n
# ---------------------------------------------------------------------------


def test_criterion_7_lower_bound_trend():
    start = time.perf_counter()
    sizes = [2**8, 2**10, 2**12, 2**14]
    ratios = []
    for n in sizes:
        q = int(n / math.log2(n))
        player = make_player("exact", budget=q, seed=0)
        report = hard_instance_game(
            player, n=n, q=q, degree=8, seed=2, metric_axioms_cap=0
        )
        assert report.all_ok, (n, report.checks)
        digit_limit = sys.get_int_max_str_digits()
        payload = json.loads(json.dumps(report.to_json_dict()))
        # Decimal reads digit strings past the interpreter's int limit
        num, den = (int(Decimal(part)) for part in payload["ratio_exact"].split("/"))
        assert Fraction(num, den) == report.ratio, n
        assert sys.get_int_max_str_digits() == digit_limit
        ratios.append(report.ratio)
    # strictly increasing as exact rationals
    for lo, hi in zip(ratios, ratios[1:]):
        assert lo < hi, [str(r) for r in ratios]
    slope = np.polyfit(
        [math.log2(n) for n in sizes], [float(r) for r in ratios], 1
    )[0]
    assert slope > 0.5, f"ratio-vs-log2(n) slope {slope:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"trend sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 8: the renaming wrapper is sound under heavy fuzzing
# ---------------------------------------------------------------------------


def test_criterion_8_renaming_wrapper_fuzz():
    runs = 0
    big_n = 10**6
    for seed in range(1000):
        rng = random.Random(seed)
        q = rng.randint(1, 6)
        m = 2 * q + 1
        table = generate_instance("table", max(m, 4), seed)
        player = RandomFuzzer(budget=q, seed=seed + 1)
        oracle = CountingOracle(table)
        run = run_renamed(player, oracle, big_n, q)
        fwd = run.renaming.mapping
        assert len(set(fwd.values())) == len(fwd)  # injective
        assert run.renaming.count <= 2 * q + 1
        assert all(0 <= v < max(m, 4) for v in fwd.values())
        assert run.queries_used == q
        assert len(run.inner_transcript) == len(oracle.transcript) == q
        for (a, b, ans), e in zip(run.inner_transcript, oracle.transcript):
            assert fwd[a] == e.a and fwd[b] == e.b
            assert ans == e.answer == _single(table.distances([e.a], [e.b]))
        assert run.output_name == fwd[run.output]
        runs += 1
    # a slice of structured players on top of the fuzzers
    for seed in range(40):
        q = 6 + seed % 5
        table = generate_instance("random-graph", 2 * q + 2, seed)
        for algo in ("exact", "pivot"):
            player = make_player(algo, budget=q, seed=seed)
            run = run_renamed(player, CountingOracle(table), big_n, q)
            assert run.queries_used <= q
            assert run.renaming.count <= 2 * q + 1
            runs += 1
    assert runs >= 1000


# ---------------------------------------------------------------------------
# criterion 9: solver query counts obey the advertised budgets exactly
# ---------------------------------------------------------------------------


def _ceil_n_over_sqrt(n: int, f: int) -> int:
    """Smallest integer k with k * k * f >= n * n."""
    k = math.isqrt(n * n // f)
    while k * k * f < n * n:
        k += 1
    return k


def test_criterion_9_query_budgets():
    fractions_of_n = []
    for exp in range(8, 17):
        n = 2**exp
        f = n.bit_length() - 1  # floor(log2 n)
        oracle = CountingOracle(LineMetric(n))
        result = restrict_and_solve(oracle, n, f, PivotInner())
        cap = 5 * _ceil_n_over_sqrt(n, f)
        assert result.queries_used <= cap, (n, result.queries_used, cap)
        fractions_of_n.append((n, Fraction(result.queries_used, n)))
    # queries per point never increase as n grows, and drop overall
    for (n1, a), (n2, b) in zip(fractions_of_n, fractions_of_n[1:]):
        assert b <= a, fractions_of_n
    assert fractions_of_n[-1][1] < fractions_of_n[0][1]
