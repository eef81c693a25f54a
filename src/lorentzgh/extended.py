"""Extended time values: {-inf} union [0, inf).

A value is an ordinary float; NEG_INF marks causally unrelated pairs.
Conventions baked in:

  NEG_INF + x = NEG_INF                       (float + absorbs; left side of the reverse triangle inequality)
  |NEG_INF - NEG_INF| = 0                     (distortion of matched unrelated pairs)
  |NEG_INF - finite| = INF_GAP                (mixed gaps are absorbing in distortions)

+inf is not a legal time value (covered spaces have finite tau); INF_GAP
re-uses float inf purely as the distortion sentinel.

`gap_matrix` is the one encoding of the comparison convention, one masked
subtraction: equal entries keep a gap of 0, which covers two NEG_INFs, and
every other pair is |a - b|, which is INF_GAP for a mixed pair. `gap` is
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
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a, b, out=out, where=a != b)  # equal entries, two NEG_INFs among them, keep 0
    return np.abs(out, out=out)  # a mixed pair reads |NEG_INF - x| = INF_GAP
