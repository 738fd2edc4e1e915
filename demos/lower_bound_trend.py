"""Show the approximation ratio forced on a budget of n / log2(n) queries.

The renaming wrapper confines any algorithm with q queries to at most
2q+1 distinct points, so the adversary only ever plays on a small arena
regardless of how large n is.  Gluing the unseen points onto the best
surviving arena point then makes the algorithm's answer pay for the
whole space.  At budget q = n / log2(n) the resulting cost ratio keeps
climbing with n.
"""

import math

from medianlab.lowerbound import hard_instance_game
from medianlab.players import make_player


def main() -> None:
    print(f"{'n':>6} {'q':>5} {'arena':>6} {'queries':>8} {'ratio':>8} {'f_hat':>6}")
    previous = None
    for exponent in (8, 9, 10, 11, 12):
        n = 2**exponent
        q = int(n / math.log2(n))
        player = make_player("exact", budget=q, seed=0)
        report = hard_instance_game(player, n=n, q=q, degree=8, seed=2)
        assert report.all_ok
        print(
            f"{n:>6} {q:>5} {report.certificate.n:>6} {report.queries_used:>8}"
            f" {report.ratio_float:>8.3f} {report.f_hat:>6.3f}"
        )
        if previous is not None:
            assert report.ratio > previous, "ratio must grow with n"
        previous = report.ratio

    print()
    print("same budget in a larger space costs strictly more accuracy:")
    print("the ratio column grows like a constant times log2(n).")


if __name__ == "__main__":
    main()
