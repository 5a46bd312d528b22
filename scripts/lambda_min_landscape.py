#!/usr/bin/env python3
"""Chart the witness-onset parameter across the facet plane patch.

For every PPT start on an (epsilon, gamma) grid of the patch, finds the
smallest mixing parameter at which the interpolated operator becomes a
feasible witness, then reports the grid minimum against the closed-form
optimum and checks the gamma -> -gamma mirror symmetry of the landscape.
"""

import argparse
import math
import sys

from magicsimplex.family import is_ppt, plane_point
from magicsimplex.planes import OPTIMAL_EPSILON, OPTIMAL_GAMMA, OPTIMAL_LAMBDA
from magicsimplex.regions import parse_grid
from magicsimplex.witness import lambda_min


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", default="-0.05:0.3:0.01", help="grid spec lo:hi:step")
    ap.add_argument("--gamma", default="0.05:0.6:0.01", help="grid spec lo:hi:step")
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    def onset(eps: float, gam: float) -> float | None:
        """lambda_min at the patch point, or None off the PPT cone."""
        start = plane_point(eps, gam)
        try:
            if not is_ppt(start).is_ppt:
                return None
        except ValueError:  # not even a state at this grid point
            return None
        return lambda_min(start)

    rows = []
    best = (math.inf, None)
    mirror_dev = 0.0
    skipped = 0
    for eps in parse_grid(args.epsilon):
        for gam in parse_grid(args.gamma):
            lam = onset(eps, gam)
            if lam is None:
                skipped += 1
                continue
            rows.append((eps, gam, lam))
            if lam < best[0]:
                best = (lam, (eps, gam))
            lam_m = onset(eps, -gam)
            if lam_m is not None:
                mirror_dev = max(mirror_dev, abs(lam - lam_m))

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        print("epsilon,gamma,lambda_min", file=out)
        for eps, gam, lam in rows:
            print(f"{eps:.12g},{gam:.12g},{lam:.12g}", file=out)
    finally:
        if args.out:
            out.close()

    lam0, argmin = best
    print(f"{len(rows)} PPT starts evaluated, {skipped} grid points NPT",
          file=sys.stderr)
    if argmin is not None:
        print(
            f"grid minimum lambda = {lam0:.9f} at (epsilon, gamma) = "
            f"({argmin[0]:.4f}, {argmin[1]:.4f})",
            file=sys.stderr,
        )
        print(
            f"closed-form optimum {OPTIMAL_LAMBDA:.9f} at "
            f"({OPTIMAL_EPSILON:.6f}, {OPTIMAL_GAMMA:.6f}); "
            f"grid excess {lam0 - OPTIMAL_LAMBDA:+.3e}",
            file=sys.stderr,
        )
    print(f"gamma-mirror deviation across the grid: {mirror_dev:.3e}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
