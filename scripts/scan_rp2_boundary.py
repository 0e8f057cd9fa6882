#!/usr/bin/env python3
"""Scan the projective-plane admissibility surface and its symmetric points.

Tabulates stabilizer labels along slices of the variety
(c1^2+3)(c2^2+3)(c3^2+3) = 32 (c1 c2 c3 + 1) inside the cube.

Usage: python scripts/scan_rp2_boundary.py [n_grid]
"""

import sys
from collections import Counter

import numpy as np

from spinorminimal.moduli import rp2_boundary_point, rp2_slice, rp2_symmetry_group, rp2_variety


def main(n=41):
    n = int(n)
    points = rp2_slice(n)
    labels = Counter(rp2_symmetry_group(points))
    print(f"{len(points)} variety points on a {n}x{n} slice grid")
    for label, count in labels.most_common():
        print(f"  {label:10s} {count}")
    for kind in ("Z2xZ2", "D3"):
        c = rp2_boundary_point(kind)
        print(f"special point {kind}: c = {np.round(c, 6)}, "
              f"variety = {rp2_variety(c):.2e}, stabilizer = {rp2_symmetry_group(c)}")


if __name__ == "__main__":
    main(*sys.argv[1:])
