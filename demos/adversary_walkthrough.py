"""Step through one adversary game at a size small enough to eyeball.

The adversary starts from the complete graph on n points, keeps a
d-regular expander permanently intact, and answers every query with the
current hop distance.  Whenever a vertex accumulates too many permanent
edges it is pruned: all its non-permanent edges disappear at once.  The
final metric is whatever graph survives, and the queried algorithm's
answer is judged against the best point that never went bad.
"""

from medianlab.adversary import verify_certificate
from medianlab.harness import play_adversary_game
from medianlab.players import make_player


def main() -> None:
    n, q, degree, seed = 32, 24, 4, 7
    player = make_player("random", budget=q, seed=seed)
    cert, checks = play_adversary_game(n, q, degree, player, seed=seed)

    print(f"arena: complete graph on {n} points, {degree}-regular anchor")
    print(f"budget: {q} algorithm queries, {cert.rounds} adversary rounds")
    print(f"pruning threshold: {cert.cap} permanent edges per vertex")
    print()

    print("first answers (algorithm coordinates, hop distances):")
    for entry in cert.transcript.entries[:6]:
        print(f"  d({entry.a:>2}, {entry.b:>2}) = {entry.answer}")
    print(f"  ... {len(cert.transcript.entries) - 6} more rounds")
    print()

    pruning_events = [(i, pruned) for i, pruned in enumerate(cert.pruned_log) if pruned]
    print(f"pruning events: {len(pruning_events)}")
    for i, pruned in pruning_events:
        print(f"  round {i:>3}: pruned {list(pruned)}")
    print()

    print(f"bad vertices (hit the cap): {len(cert.bad)} of {n}")
    print(f"max permanent degree seen: {cert.max_perm_degree}"
          f" (allowed: {cert.cap + 2})")
    y, y_cost = cert.best_good
    print(f"algorithm answered {cert.z_star}, cost {cert.z_star_cost}")
    print(f"best never-bad point is {y}, cost {y_cost}")
    print(f"cost ratio: {cert.ratio} = {float(cert.ratio):.3f}")
    print()

    audit = verify_certificate(cert, metric_axioms_cap=64)
    width = max(len(k) for k in audit)
    for name, ok in sorted(audit.items()):
        print(f"  {name:<{width}}  {'ok' if ok else 'FAILED'}")
    assert all(audit.values()) and all(checks.values())


if __name__ == "__main__":
    main()
