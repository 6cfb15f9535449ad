"""Full-grid reference for residue_norm_profile.

Counts Q(x, y) mod b over every pair (x, y) in [0, b)^2, where Q is the
ideal's norm form, a block of rows at a time.  It reads nothing from the
library but `ideal.prim.form()`, so the tests can hold the library's
prime-power split and square completion to plain enumeration.
"""

from __future__ import annotations

import numpy as np

from quadrep.ideals import FracIdeal


def reference_profile(ideal: FracIdeal, b: int) -> tuple[int, ...]:
    """Entry r is the number of (x, y) in [0, b)^2 with Q(x, y) = r (mod b)."""
    A, B, C = (c % b for c in ideal.prim.form())
    ys = np.arange(b, dtype=np.int64)
    by = B * ys
    cy2 = C * ys * ys % b
    counts = np.zeros(b, dtype=np.int64)
    rows = max(1, 2**18 // b)
    block = np.empty((rows, b), dtype=np.int64)
    for lo in range(0, b, rows):
        xs = ys[lo : lo + rows, None]
        vals = block[: len(xs)]
        # (A x + B y) x + C y^2 stays below 3 b^3, inside int64 for b <= 10^5
        np.add(A * xs, by, out=vals)
        vals *= xs
        vals += cy2
        vals %= b
        counts += np.bincount(vals.ravel(), minlength=b)
    return tuple(counts.tolist())
