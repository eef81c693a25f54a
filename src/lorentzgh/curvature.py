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
placed on the quadric in closed form. Both are cross-validated against
geodesic shooting in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FiniteLorentzSpace, point_indices
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


def _flat_z(a: float, t_yz: float, t_xz: float) -> tuple[float, float]:
    """Closed-form Minkowski placement (positive-side branch)."""
    t = (a * a + t_yz * t_yz - t_xz * t_xz) / (2 * a)
    under = t * t - t_yz * t_yz
    if under < 0:
        if under > -1e-12:  # collinear within roundoff
            under = 0.0
        else:
            raise Unrealizable("tau_yz < tau_yx + tau_xz",
                               "sides admit no model placement")
    return t, math.sqrt(under)


def _solve_z(K: float, t_yx: float, t_yz: float, t_xz: float) -> tuple[float, float]:
    """Chart coordinates of z with tau(y,z) = t_yz, tau(x,z) = t_xz, positive side.

    y is the chart origin, x is at chart time a = t_yx/r on the axis, and
    s = t_yz/r, w = t_xz/r; sh, ch are sinh, cosh for K < 0 and sin, cos for
    K > 0. On the unit quadric, (t, theta) is the point (sinh(t/r),
    cosh(t/r) cos(theta), cosh(t/r) sin(theta)) and (T, rho) is the point
    (cosh(rho) cos(T), cosh(rho) sin(T), sinh(rho)). tau(y,z) fixes the
    coordinate paired with y to ch(s), tau(x,z) the other time-like one to
    sh(s) + lo with lo = (ch(s - a) - ch(w)) / sh(a), kept in product form
    so small t_xz does not cancel; the reverse triangle makes lo >= 0. The
    quadric leaves the third coordinate +-sqrt(lo (lo + 2 sh(s))): the
    positive root is z, the negative its mirror. atan2 reads the angle back
    on the branch with dT <= pi for K > 0, the regime `_ell` measures.
    """
    collinear = abs(t_yz - (t_yx + t_xz)) <= 1e-12 * max(1.0, t_yz)
    if collinear:
        return _axis(K, t_yz)
    if t_yz < t_yx + t_xz - 1e-12:
        raise Unrealizable("tau_yz < tau_yx + tau_xz",
                           "reverse triangle fails in the model")
    if K == 0:
        return _flat_z(t_yx, t_yz, t_xz)
    r = 1.0 / math.sqrt(abs(K))
    a, s, w = t_yx / r, t_yz / r, t_xz / r
    sh = math.sinh if K < 0 else math.sin
    lo = 2.0 * sh((s - a + w) / 2.0) * sh((s - a - w) / 2.0) / sh(a)
    sh_s = sh(s)
    z2 = math.sqrt(max(lo * (lo + 2.0 * sh_s), 0.0))
    if K < 0:
        u, v = r * math.asinh(sh_s + lo), math.atan2(z2, math.cosh(s))
    else:
        u, v = math.atan2(sh_s + lo, math.cos(s)), math.asinh(z2)
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
    if residual > 1e-10:
        raise SolverDiverged(f"comparison residual {residual:.3e} exceeds 1.0e-10")
    return x, z1, z2, residual


def comparison_config(K: float, sides: Sequence[float]) -> ComparisonConfig:
    """Realize the five sides (t_yx, t_yz1, t_yz2, t_xz1, t_xz2) in L2(K).

    Gauge: y at the chart origin, x up the positive time axis; z1 on the
    positive side of that axis, z2 on the negative (opposite sides). The
    realized sides are re-measured and must match within 1e-10.
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


def _config_sides(space: FiniteLorentzSpace, cfg: FourPointConfig):
    y, x, z1, z2 = cfg.points
    if cfg.kind == "future":
        ok = space.chron[y, x] and space.chron[x, z1] and space.causal[z1, z2]
        tau = space.tau
        pattern = (tau(y, x), tau(y, z1), tau(y, z2), tau(x, z1), tau(x, z2),
                   tau(z1, z2), tau(y, z2))
    elif cfg.kind == "past":
        # past configurations are future ones of the time-reversed space
        ok = space.chron[x, y] and space.chron[z1, x] and space.causal[z2, z1]
        tau = space.tau
        pattern = (tau(x, y), tau(z1, y), tau(z2, y), tau(z1, x), tau(z2, x),
                   tau(z2, z1), tau(z2, y))
    else:
        raise ShapeMismatch(f"unknown configuration kind {cfg.kind!r}")
    if not ok:
        raise ShapeMismatch(f"points {cfg.points} do not form a {cfg.kind} four-point configuration")
    return pattern


def four_point_check(space: FiniteLorentzSpace, cfg: FourPointConfig, K: float,
                     tol: float = 1e-9) -> dict:
    """Compare tau(z1, z2) against the model value; holds iff slack >= -tol."""
    _check_K(K)
    point_indices(space.n, cfg.points, "configuration points")
    t_yx, t_yz1, t_yz2, t_xz1, t_xz2, t_z, t_guard = map(float, _config_sides(space, cfg))
    if t_guard >= diameter_bound(K):
        raise Unrealizable("tau(y, z2) >= D_K")
    slack, model_val, residual = _slack(K, t_yx, t_yz1, t_yz2, t_xz1, t_xz2, t_z)
    return {"holds": bool(slack >= -tol), "slack": float(slack),
            "model_tau": float(model_val), "residual": residual}


def curvature_bound_scan(space: FiniteLorentzSpace, K: float, budget: int,
                         seed: int, tol: float = 1e-9) -> dict:
    """Sample admissible four-point configurations and report violations.

    Stagewise uniform drawing (y, then x in I+(y), then z1 in I+(x), then z2
    in J+(z1)), seeded; each stage draws a[rng.integers(a.size)], the stream
    of rng.choice(a). `tested` counts evaluated configurations.
    """
    _check_K(K)
    if budget < 0:
        raise ShapeMismatch(f"budget must be >= 0, got {budget}")
    draw = np.random.default_rng(seed).integers
    dk = diameter_bound(K)
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
        z1s = chron[x].nonzero()[0]
        if z1s.size == 0:
            continue
        z1 = int(z1s[draw(z1s.size)])
        z2s = causal[z1].nonzero()[0]
        if z2s.size == 0:
            continue
        z2 = int(z2s[draw(z2s.size)])
        # tau = max(0, ell), read as Python floats
        t_yx, t_yz1, t_yz2, t_xz1, t_xz2, t_z = [
            v if v > 0.0 else 0.0
            for v in (item(y, x), item(y, z1), item(y, z2), item(x, z1), item(x, z2),
                      item(z1, z2))]
        if t_yz2 >= dk:
            continue
        try:
            slack = _slack(K, t_yx, t_yz1, t_yz2, t_xz1, t_xz2, t_z)[0]
        except (Unrealizable, SolverDiverged, ChartDomain):
            continue
        tested += 1
        if not slack >= -tol:
            violations.append({"points": (y, x, z1, z2), "slack": slack})
    return {"violations": violations, "tested": tested}
