#!/usr/bin/env python3
"""Non-existence evidence for three-ended tori: degeneracy scan.

For each lattice, draws admissible end pairs (wp'(a1) + wp'(a2) = 0),
evaluates the period-degeneracy expression and the |a| > 1 obstruction,
and reports that the existence conjunction (degeneracy = 0 AND |a| > 1)
never holds.  The degeneracy expression depends only on the conformal
type, so the per-lattice values are constant across pairs.

Usage: python scripts/torus3_scan.py [n_pairs_per_lattice]
"""

import sys

import numpy as np

from spinorminimal.acceptance import ACCEPTANCE_LATTICES
from spinorminimal.elliptic import build_context
from spinorminimal.moduli import torus3_admissible_pair, torus3_degeneracy


def main(n_pairs=50):
    n_pairs = int(n_pairs)
    rng = np.random.default_rng(0)
    any_existence = False
    for name, (o1, o3) in ACCEPTANCE_LATTICES:
        ctx = build_context(o1, o3)
        degs, abs_as, tried = [], [], 0
        while len(degs) < n_pairs and tried < 4 * n_pairs:
            tried += 1
            a1 = complex(rng.uniform(0.12, 0.88)) * ctx.omega1 \
                + complex(rng.uniform(0.12, 0.88)) * ctx.omega3
            try:
                a2 = torus3_admissible_pair(ctx, a1)
                rep = torus3_degeneracy(ctx, a1, a2)
            except (ValueError, RuntimeError):
                continue
            assert abs(rep.g2_condition) < 1e-6 * abs(ctx.g2)
            degs.append(abs(rep.degeneracy))
            abs_as.append(rep.abs_a)
            if abs(rep.degeneracy) < 1e-8 and rep.abs_a > 1.0:
                any_existence = True
        print(f"{name:10s}: {len(degs)} admissible pairs, "
              f"|degeneracy| = {min(degs):.3e}..{max(degs):.3e}, "
              f"|a| = {np.mean(abs_as):.3f}")
    print("existence conjunction (degeneracy = 0 and |a| > 1) hit:",
          any_existence)


if __name__ == "__main__":
    main(*sys.argv[1:])
