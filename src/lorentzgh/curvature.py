"""Constant-curvature model planes and the timelike four-point condition.

L2(K) is the plane whose TIMELIKE sectional curvature is K (the sign
convention TSec = -Sec on timelike planes, so the classical sectional
curvature is -K). Model charts (universal covers):

  K = 0   Minkowski (t, x)
  K > 0   refocusing cover (timelike geodesics reconverge), chart (T, rho)
          with ds^2 = r^2 (-cosh^2(rho) dT^2 + drho^2),  r = 1/sqrt(K);
          produced tau never exceeds D_K = pi * r
  K < 0   expanding cover, chart (t, theta) with
          ds^2 = -dt^2 + r^2 cosh^2(t/r) dtheta^2,  r = 1/sqrt(-K)

For K != 0 the plane is a quadric in R^{2,1} (anti-de Sitter for K > 0, de
Sitter for K < 0). Causality is flat in conformal coordinates (time vs
gudermannian of the other coordinate); time separations come from the
quadric bilinear form in cancellation-free form, and comparison points are
placed on the quadric by one closed form for every K (at K = 0 its sh is
the identity), with bands relative to the sides, so that the units of tau
decide nothing. Both are cross-validated against geodesic shooting in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DEFAULT_TOL, FiniteLorentzSpace, check_seed, check_tol, point_indices
from .errors import ChartDomain, ShapeMismatch, SolverDiverged, Unrealizable
from .extended import NEG_INF


def diameter_bound(K: float) -> float:
    """D_K: pi/sqrt(K) for the refocusing models K > 0, infinite otherwise."""
    if K > 0:
        return math.pi / math.sqrt(K)
    return math.inf


@dataclass(frozen=True)
class ModelPoint:
    K: float
    coords: tuple[float, float]


def model_point(K: float, a: float, b: float) -> ModelPoint:
    return ModelPoint(K=float(K), coords=(float(a), float(b)))


def _gd(x: float) -> float:
    """Gudermannian, the conformal compression of the hyperbolic coordinate."""
    return math.atan(math.sinh(x))


def _ell(K: float, t1: float, x1: float, t2: float, x2: float) -> float:
    """Extended time separation from chart point (t1, x1) to (t2, x2) in L2(K)."""
    if K == 0:
        dt, dx = t2 - t1, x2 - x1
        if dt < 0 or dt < abs(dx):
            return NEG_INF
        return math.sqrt(max(dt * dt - dx * dx, 0.0))
    if K < 0:
        # expanding cover: chart (t, theta), conformal time gd(t/r)
        r = 1.0 / math.sqrt(-K)
        a1, a2 = t1 / r, t2 / r
        deta = _gd(a2) - _gd(a1)
        if deta < 0 or deta < abs(x2 - x1):
            return NEG_INF
        # cosh(a1)cosh(a2)cos(dx) - sinh(a1)sinh(a2) = 1 + x, cancellation-free
        x = 2.0 * math.sinh((a2 - a1) / 2.0) ** 2 \
            - 2.0 * math.cosh(a1) * math.cosh(a2) * math.sin((x2 - x1) / 2.0) ** 2
        x = max(x, 0.0)
        return r * math.asinh(math.sqrt(x * (x + 2.0)))
    # refocusing cover: chart (T, rho), conformal space gd(rho)
    r = 1.0 / math.sqrt(K)
    dT = t2 - t1
    if dT < 0 or dT < abs(_gd(x2) - _gd(x1)):
        return NEG_INF
    if dT > math.pi:
        raise ChartDomain("causal pair beyond the first conjugate regime (dT > pi)")
    # cosh(x1)cosh(x2)cos(dT) - sinh(x1)sinh(x2) = 1 - y, cancellation-free
    y = 2.0 * math.cosh(x1) * math.cosh(x2) * math.sin(dT / 2.0) ** 2 \
        - 2.0 * math.sinh((x2 - x1) / 2.0) ** 2
    y = min(2.0, max(y, 0.0))
    return r * 2.0 * math.asin(math.sqrt(y / 2.0))


# ---------------------------------------------------------------------------
# comparison configurations
# ---------------------------------------------------------------------------


def _check_K(K: float) -> None:
    if not math.isfinite(K):
        raise ShapeMismatch("K must be finite")


def _axis(K: float, tau: float) -> tuple[float, float]:
    """Chart coordinates at proper time `tau` up the time axis from the origin."""
    if K <= 0:
        return tau, 0.0  # proper time = chart time on the axis
    r = 1.0 / math.sqrt(K)
    return tau / r, 0.0


def _solve_z(K: float, t_yx: float, t_yz: float, t_xz: float) -> tuple[float, float]:
    """Chart coordinates of z with tau(y,z) = t_yz, tau(x,z) = t_xz, positive side.

    One formula for every K. y is the chart origin, x is at chart time a = t_yx/r
    on the axis, s = t_yz/r, w = t_xz/r; sh, ch are sinh, cosh for K < 0 and
    sin, cos for K > 0. On the unit quadric, (t, theta) is (sinh(t/r), cosh(t/r)
    cos(theta), cosh(t/r) sin(theta)) and (T, rho) is (cosh(rho) cos(T),
    cosh(rho) sin(T), sinh(rho)). tau(y,z) fixes the coordinate paired with y to
    ch(s), tau(x,z) the other time-like one to u = sh(s) + lo, and the third
    coordinate is v = sqrt(lo (lo + 2 sh(s))), where lo = (ch(s - a) - ch(w)) /
    sh(a) >= 0 by the reverse triangle, kept in product form so small t_xz does
    not cancel. K = 0 is the same formula with r = 1 and sh the identity, so
    lo = (s-a+w)(s-a-w)/(2a) and (u, v) is z's Minkowski (t, x). Otherwise atan2
    reads the angle back on the branch with dT <= pi for K > 0, the regime
    `_ell` measures. The collinear and reverse-triangle bands are relative to t_yz.
    """
    if abs(t_yz - (t_yx + t_xz)) <= 1e-12 * t_yz:  # collinear
        return _axis(K, t_yz)
    if t_yz < t_yx + t_xz - 1e-12 * t_yz:
        raise Unrealizable("tau_yz < tau_yx + tau_xz",
                           "reverse triangle fails in the model")
    r = 1.0 / math.sqrt(abs(K)) if K else 1.0
    a, s, w = t_yx / r, t_yz / r, t_xz / r
    sh = math.sinh if K < 0 else math.sin if K > 0 else (lambda v: v)
    lo = 2.0 * sh((s - a + w) / 2.0) * sh((s - a - w) / 2.0) / sh(a)
    sh_s = sh(s)
    u, v = sh_s + lo, math.sqrt(max(lo * (lo + 2.0 * sh_s), 0.0))  # (t, x) at K = 0
    if K < 0:
        u, v = r * math.asinh(u), math.atan2(v, math.cosh(s))
    elif K > 0:
        u, v = math.atan2(u, math.cos(s)), math.asinh(v)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ChartDomain(f"comparison placement overflows the chart for K={K}")
    return u, v


@dataclass(frozen=True)
class ComparisonConfig:
    y: ModelPoint
    x: ModelPoint
    z1: ModelPoint
    z2: ModelPoint
    residual: float


def _placement(K: float, t_yx: float, t_yz1: float, t_yz2: float, t_xz1: float,
               t_xz2: float):
    """Chart coordinates of x, z1 and z2 in `comparison_config`'s gauge, and
    the residual of the re-measured sides."""
    if not (t_yx > 0):
        raise Unrealizable("tau_yx <= 0", "y and x must be chronologically related")
    dk = diameter_bound(K)
    for name, val in (("tau_yx", t_yx), ("tau_yz1", t_yz1), ("tau_yz2", t_yz2),
                      ("tau_xz1", t_xz1), ("tau_xz2", t_xz2)):
        if val < 0:
            raise Unrealizable(f"{name} < 0")
        if val >= dk:
            raise Unrealizable(f"{name} >= D_K")
    for i, t_yz in ((1, t_yz1), (2, t_yz2)):
        if t_yz < t_yx:
            raise Unrealizable(f"tau_yz{i} < tau_yx")

    x = _axis(K, t_yx)
    try:
        z1 = _solve_z(K, t_yx, t_yz1, t_xz1)
        u, v = _solve_z(K, t_yx, t_yz2, t_xz2)
        z2 = (u, -v)  # mirror to the opposite side
        residual = max(
            abs(max(0.0, _ell(K, 0.0, 0.0, *x)) - t_yx),
            abs(max(0.0, _ell(K, 0.0, 0.0, *z1)) - t_yz1),
            abs(max(0.0, _ell(K, 0.0, 0.0, *z2)) - t_yz2),
            abs(max(0.0, _ell(K, *x, *z1)) - t_xz1),
            abs(max(0.0, _ell(K, *x, *z2)) - t_xz2),
        )
    except OverflowError:
        raise ChartDomain(f"comparison placement overflows the chart for K={K}") from None
    if residual > 1e-10 * max(t_yx, t_yz1, t_yz2, t_xz1, t_xz2):
        raise SolverDiverged(f"comparison residual {residual:.3e} exceeds 1e-10 * max side")
    return x, z1, z2, residual


def comparison_config(K: float, sides: Sequence[float]) -> ComparisonConfig:
    """Realize the five sides (t_yx, t_yz1, t_yz2, t_xz1, t_xz2) in L2(K).

    Gauge: y at the chart origin, x up the positive time axis; z1 on the
    positive side of that axis, z2 on the negative (opposite sides). The
    realized sides are re-measured and must match within 1e-10 times the
    largest side.
    """
    _check_K(K)
    x, z1, z2, residual = _placement(K, *(float(s) for s in sides))
    return ComparisonConfig(y=model_point(K, 0.0, 0.0), x=model_point(K, *x),
                            z1=model_point(K, *z1), z2=model_point(K, *z2),
                            residual=residual)


def _slack(K: float, t_yx: float, t_yz1: float, t_yz2: float, t_xz1: float,
           t_xz2: float, t_z: float) -> tuple[float, float, float]:
    """tau(z1, z2) minus its model value, the model value and the residual."""
    _, z1, z2, residual = _placement(K, t_yx, t_yz1, t_yz2, t_xz1, t_xz2)
    model_val = max(0.0, _ell(K, *z1, *z2), _ell(K, *z2, *z1))
    return t_z - model_val, model_val, residual


# ---------------------------------------------------------------------------
# four-point condition on finite spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourPointConfig:
    kind: str                       # "future" | "past"
    points: tuple[int, int, int, int]  # (y, x, z1, z2)


def _sides(item, y: int, x: int, z1: int, z2: int) -> list[float]:
    """tau = max(0, ell) of (y, x), (y, z1), (y, z2), (x, z1), (x, z2) and (z1, z2),
    read as Python floats through `item`, an ell matrix's `item` method."""
    return [v if v > 0.0 else 0.0
            for v in (item(y, x), item(y, z1), item(y, z2), item(x, z1), item(x, z2),
                      item(z1, z2))]


def four_point_check(space: FiniteLorentzSpace, cfg: FourPointConfig, K: float,
                     tol: float = DEFAULT_TOL) -> dict:
    """Compare tau(z1, z2) against the model value; holds iff slack >= -tol.

    Sides the model cannot realize, a side >= D_K among them, raise
    Unrealizable from the placement.
    """
    _check_K(K)
    check_tol(tol)
    if len(cfg.points) != 4:
        raise ShapeMismatch(f"a four-point configuration needs 4 points, got {len(cfg.points)}")
    point_indices(space.n, cfg.points, "configuration points")
    y, x, z1, z2 = cfg.points
    ell, chron, causal = space.ell, space.chron, space.causal
    if cfg.kind == "past":
        # past configurations are future ones of the time-reversed space
        ell, chron, causal = ell.T, chron.T, causal.T
    elif cfg.kind != "future":
        raise ShapeMismatch(f"unknown configuration kind {cfg.kind!r}")
    if not (chron[y, x] and chron[x, z1] and causal[z1, z2]):
        raise ShapeMismatch(f"points {cfg.points} do not form a {cfg.kind} four-point configuration")
    slack, model_val, residual = _slack(K, *_sides(ell.item, y, x, z1, z2))
    return {"holds": bool(slack >= -tol), "slack": float(slack),
            "model_tau": float(model_val), "residual": residual}


def curvature_bound_scan(space: FiniteLorentzSpace, K: float, budget: int,
                         seed: int, tol: float = DEFAULT_TOL) -> dict:
    """Sample admissible four-point configurations and report violations.

    Stagewise uniform drawing (y, then x in I+(y), then z1 in I+(x), then z2
    in J+(z1)), seeded; each stage draws a[rng.integers(a.size)], the stream
    of rng.choice(a). `tested` counts evaluated configurations. `budget`
    follows the seed rule (`check_seed`): an integer >= 0.
    """
    _check_K(K)
    check_tol(tol)
    check_seed(budget, "budget")
    draw = np.random.default_rng(check_seed(seed)).integers
    item, chron, causal = space.ell.item, space.chron, space.causal
    has_future = chron.any(axis=1)
    ys = has_future.nonzero()[0]
    tested = 0
    violations = []
    attempts = 0
    max_attempts = max(budget * 20, 100)
    while tested < budget and attempts < max_attempts and ys.size:
        attempts += 1
        y = int(ys[draw(ys.size)])
        xs = (chron[y] & has_future).nonzero()[0]
        if xs.size == 0:
            continue
        x = int(xs[draw(xs.size)])
        z1s = chron[x].nonzero()[0]  # never empty: x has a future
        z1 = int(z1s[draw(z1s.size)])
        z2s = causal[z1].nonzero()[0]  # never empty: build_space keeps ell[z1, z1] finite
        z2 = int(z2s[draw(z2s.size)])
        try:
            slack = _slack(K, *_sides(item, y, x, z1, z2))[0]
        except (Unrealizable, SolverDiverged, ChartDomain):  # a side >= D_K is Unrealizable
            continue
        tested += 1
        if not slack >= -tol:
            violations.append({"points": (y, x, z1, z2), "slack": slack})
    return {"violations": violations, "tested": tested}
