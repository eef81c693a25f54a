"""Extended time values: {-inf} union [0, inf).

A value is an ordinary float; NEG_INF marks causally unrelated pairs.
Conventions baked in:

  NEG_INF + x = NEG_INF                       (float + absorbs; left side of the reverse triangle inequality)
  |NEG_INF - NEG_INF| = 0                     (distortion of matched unrelated pairs)
  |NEG_INF - finite| = INF_GAP                (mixed gaps are absorbing in distortions)

+inf is not a legal time value (covered spaces have finite tau); INF_GAP
re-uses float inf purely as the distortion sentinel.

`gap_matrix` is the one encoding of the comparison convention, and `gap` is
its scalar form: two values match within tol iff their gap is <= tol, so
NEG_INF matches only NEG_INF and finite values match within tol. At tol 0
that is exact equality: on {-inf} union [0, inf), gap(a, b) == 0 iff a == b.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")
INF_GAP = float("inf")


def gap(a: float, b: float) -> float:
    """|a - b| under the distortion conventions (0 for two NEG_INFs, INF_GAP for mixed)."""
    return float(gap_matrix(a, b))


def gap_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise `gap` for equal-shape arrays (broadcasting)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_inf = a == NEG_INF
    b_inf = b == NEG_INF
    if not a_inf.any() and not b_inf.any():
        return np.abs(a - b)
    with np.errstate(invalid="ignore"):
        out = np.abs(a - b)
    both = a_inf & b_inf
    out = np.where(both, 0.0, out)
    out = np.where(a_inf ^ b_inf, INF_GAP, out)
    return out
