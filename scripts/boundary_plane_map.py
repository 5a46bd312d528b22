#!/usr/bin/env python3
"""Map the entanglement classes across the boundary facet plane.

Sweeps a (gamma, beta) grid on the facet ``alpha = 7 beta / 2 + 1 - gamma``
(the plane where the lowest Bell weight hits zero), classifies every point,
and writes the rows as CSV.  A summary on stderr reports the class tally
and the two analytic boundary curves at a few sample columns so the map
can be sanity-checked at a glance:

* ``l_a``: the line below which the certified separable polytope ends,
* ``l_b``: the curve above which the partial transpose goes negative.

The bound-entangled band lives strictly between the two.
"""

import argparse
import math
import sys

from magicsimplex.regions import l_a, l_b, parse_grid, plane_grid_points, scan

CURVE_DOMAIN = 2.0 / math.sqrt(3.0)  # where l_b stops being real


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", default="0:1:0.02", help="grid spec lo:hi:step")
    ap.add_argument("--beta", default="-0.35:0.05:0.01", help="grid spec lo:hi:step")
    ap.add_argument("--out", default="boundary_plane_map.csv")
    args = ap.parse_args(argv)

    points = plane_grid_points(args.gamma, args.beta)
    result = scan(points)

    with open(args.out, "w", encoding="utf-8") as fh:
        for line in result.csv_lines():
            fh.write(line + "\n")

    counts = result.counts()
    print(f"wrote {len(result.rows)} rows to {args.out}", file=sys.stderr)
    print("class tally: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
          file=sys.stderr)

    gammas = [g for g in parse_grid(args.gamma) if abs(g) <= CURVE_DOMAIN]
    stride = max(1, len(gammas) // 6)
    print("boundary curves (gamma, l_a, l_b):", file=sys.stderr)
    for g in gammas[::stride]:
        print(f"  {g:+.4f}  {l_a(g):+.6f}  {l_b(g):+.6f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
