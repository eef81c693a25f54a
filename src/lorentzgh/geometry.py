"""Continuous generators: Lorentzian products over finite metric fibers.

The closed-form time separation of the scaled product  -C^2 dt^2 + h  over a
finite fiber drives sampling, explicit grid nets, and the nested-cone family
(cone scale 1 + 1/n). Warped metrics -beta dt^2 + omega^2 h0 with constant
beta and omega exist only for the cone-domination check, which is their
analytic certificate; their tau is never computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import (_DENSE_CHUNK, DEFAULT_TOL, FiniteLorentzSpace, _checked_space,
                   _dense_witness, _float_matrix, check_labels, check_seed, integer_values,
                   point_indices)
from .errors import (AxiomViolation, EmptyPlan, EpsilonTooLarge, NotAFiberNet,
                     ShapeMismatch, UnsupportedMetricFamily)
from .extended import NEG_INF
from .nets import DiamondNet


@dataclass(frozen=True)
class FiniteMetricFiber:
    """Point labels plus a distance matrix `d`, which the constructor takes and freezes.

    `triangle_slack` is a sigma with every d >= 0 and d[a, c] <= d[a, b] +
    d[b, c] + sigma in exact arithmetic on the stored floats, or inf where no
    such bound is known. `build_fiber` and the closed forms set it, so a
    product sample's triangle certificate (`_triangle_bound`) reads it in O(1);
    the constructor's default is inf, and samples over such a fiber are swept.
    """

    labels: tuple[str, ...]
    d: np.ndarray
    triangle_slack: float = field(default=math.inf, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        self.d.flags.writeable = False

    def __eq__(self, other):
        """Value equality: the same labels and an equal distance matrix."""
        if not isinstance(other, FiniteMetricFiber):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.d, other.d)

    def __hash__(self):
        # equal fibers have equal labels; np.array_equal ignores the sign of zero,
        # so d's bytes cannot take part
        return hash(self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def scaled(self, factor: float) -> "FiniteMetricFiber":
        return build_fiber(self.labels, self.d * factor)


def build_fiber(labels: Sequence[str], d) -> FiniteMetricFiber:
    """Validate the metric axioms exhaustively, within DEFAULT_TOL, and freeze the matrix.

    The triangle inequality of d is the reverse triangle inequality of -d, so
    it shares `core.validate_matrix`'s dense triangle scan over the whole
    (i, j, k) cube, in chunks: -d is finite everywhere, so a sweep over causal
    spans would visit the same cube. A second chunked pass over the cube
    measures the fiber's `triangle_slack`.
    """
    check_labels(labels)
    d = _float_matrix(d, "d")
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] != len(labels):
        raise ShapeMismatch(f"need a square matrix matching {len(labels)} labels")
    _check_fiber_pointwise(d)
    witness = _dense_witness(-d, DEFAULT_TOL)
    if witness is not None:
        raise AxiomViolation("triangle", witness, "fiber triangle inequality violated")
    return FiniteMetricFiber(labels, d, _measured_slack(d))


def _check_fiber_pointwise(d: np.ndarray) -> None:
    """Check codomain, diagonal and symmetry of d, O(n^2).

    The triangle inequality is left to the caller: `build_fiber` scans for
    it, the closed forms below hold it by construction.
    """
    tol = DEFAULT_TOL
    if (d < -tol).any() or np.isnan(d).any() or np.isinf(d).any():
        raise AxiomViolation("codomain", None, "fiber distances must be finite and nonnegative")
    if (np.abs(np.diagonal(d)) > tol).any():
        i = int(np.argmax(np.abs(np.diagonal(d)) > tol))
        raise AxiomViolation("diagonal", i, "fiber metric must vanish on the diagonal")
    if (np.abs(d - d.T) > tol).any():
        i, j = (int(v) for v in np.argwhere(np.abs(d - d.T) > tol)[0])
        raise AxiomViolation("symmetry", (i, j), "fiber metric must be symmetric")


_U = np.finfo(float).eps / 2  # unit roundoff


def _slack_bound(d: np.ndarray, computed: float) -> float:
    """max(0, computed) + 6u max d: a `triangle_slack` for d, given a computed one.

    inf unless every d >= 0. `_measured_slack` passes the largest computed
    slack fl(d[a,c] - fl(d[a,b] + d[b,c])), at most max d, whose two
    roundings err by at most 4u (1 + u) max d. The closed forms pass 0: each
    of their entries is one rounding, |d - e| <= u e, of an exact metric e,
    so d[a,c] - d[a,b] - d[b,c] <= u (e[a,c] + e[a,b] + e[b,c]) <= 3u max d
    / (1 - u). The remaining 2u max d covers the rounding of the sum.
    """
    if not (d >= 0.0).all():
        return math.inf
    return max(computed, 0.0) + 6 * _U * float(d.max(initial=0.0))


def _measured_slack(d: np.ndarray) -> float:
    """`_slack_bound` of d from its computed slack: for each (a, c), d[a, c]
    less the least d[a, b] + d[b, c], by a scan of the cube in chunks."""
    block = max(1, _DENSE_CHUNK // max(d.size, 1))
    computed = max((float((d[a:a + block] - (d[a:a + block, :, None] + d).min(axis=1)).max())
                    for a in range(0, d.shape[0], block)), default=0.0)
    return _slack_bound(d, computed)


def _closed_form_fiber(n: int, d: np.ndarray) -> FiniteMetricFiber:
    _check_fiber_pointwise(d)
    return FiniteMetricFiber([f"s{i}" for i in range(n)], d, _slack_bound(d, 0.0))


def _check_fiber_points(n: int) -> None:
    if n < 1:
        raise ShapeMismatch(f"a fiber needs at least one point, got {n}")


def circle_fiber(n: int, radius: float = 1.0) -> FiniteMetricFiber:
    """n equally spaced points on a circle with the geodesic (arc) metric.

    Each entry is fl(k step) for the cycle metric k, one rounding of a metric.
    """
    _check_fiber_points(n)
    step = 2 * math.pi * radius / n
    idx = np.arange(n)
    k = np.abs(idx[:, None] - idx[None, :])
    k = np.minimum(k, n - k)
    return _closed_form_fiber(n, k * step)


def segment_fiber(n: int, length: float = 1.0) -> FiniteMetricFiber:
    """n equally spaced points on a geodesic segment of the given length.

    Each entry is fl(|x_a - x_b|), one rounding of the line metric on the xs.
    """
    _check_fiber_points(n)
    xs = np.linspace(0.0, length, n)
    return _closed_form_fiber(n, np.abs(xs[:, None] - xs[None, :]))


CONE_SCALE_LIMIT = "inf"


@dataclass(frozen=True)
class ProductGenerator:
    """Slab generator for ell((t,x),(t',x')) = sqrt(C^2 (t'-t)^2 - d(x,x')^2).

    Generators compare by (fiber, C, t_range); `product_family` alone knows
    the family's C = 1 + 1/n. The one generator rule: C is finite > 0,
    t_range exactly two finite numbers lo < hi, kept as a tuple of the values.
    """

    fiber: FiniteMetricFiber
    cone_scale: float
    t_range: tuple[float, float]

    def __post_init__(self):
        if not _finite_increasing((0, self.cone_scale)):
            raise ShapeMismatch(f"cone_scale must be a finite number > 0, got {self.cone_scale!r}")
        if not _finite_increasing(self.t_range):
            raise ShapeMismatch(f"t_range must be two finite numbers lo < hi, got {self.t_range!r}")
        object.__setattr__(self, "t_range", tuple(self.t_range))


def _finite_increasing(values) -> bool:
    """-inf < lo < hi < inf for exactly two numbers (lo, hi); False for anything else."""
    try:
        lo, hi = values
        return bool(-np.inf < lo < hi < np.inf)
    except (TypeError, ValueError):  # not two numbers, or arrays
        return False


def _in_range(gen: ProductGenerator, lo: float, hi: float) -> bool:
    """The one range rule for times: t0 - 1e-12 <= lo <= hi <= t1 + 1e-12 on gen.t_range."""
    return gen.t_range[0] - 1e-12 <= lo <= hi <= gen.t_range[1] + 1e-12


def product_family(fiber: FiniteMetricFiber, n: Union[int, str],
                   t_range: tuple[float, float] = (-1.0, 1.0)) -> ProductGenerator:
    """Member Y_n of the nested-cone family over a fixed fiber, cone scale 1 + 1/n
    (n = 'inf' -> 1)."""
    if isinstance(n, str) and n == CONE_SCALE_LIMIT:
        return ProductGenerator(fiber, 1.0, t_range)
    idx = integer_values(n, "family index")
    if idx.ndim or int(idx) < 1:
        raise ShapeMismatch(f"family index must be an integer >= 1 or 'inf', got {n!r}")
    return ProductGenerator(fiber, 1.0 + 1.0 / int(idx), t_range)


Point = tuple[float, int]  # (time, fiber site index)


_NULL_SNAP = 8 * np.finfo(float).eps


def product_ell(gen: ProductGenerator, p: Point, q: Point) -> float:
    """Extended time separation of the product; NEG_INF off the causal cone.

    Pairs within a few ulps of the null boundary snap to an exact 0: the
    sqrt otherwise amplifies 1-ulp input noise to ~1e-9 values that break
    downstream reverse-triangle checks on grid-aligned samples.
    """
    t, i = p
    s, j = q
    dt = s - t
    if dt < 0:
        return NEG_INF
    d = gen.fiber.d[i, j]
    c = gen.cone_scale
    margin = c * dt - d
    scale = _NULL_SNAP * max(c * dt, d)
    if margin < -scale:
        return NEG_INF
    if margin <= scale:
        return 0.0
    return math.sqrt(max(c * c * dt * dt - d * d, 0.0))


def _ell_matrix(gen: ProductGenerator, points: Sequence[Point]) -> np.ndarray:
    """The `product_ell` matrix of `points`, built in four n x n float buffers.

    The rounded steps are those of the scalar formula, in its order; only the
    buffers are shared. |margin| <= scale is read as -scale <= margin <= scale,
    and margin >= -scale as -margin <= scale, which exact negation makes equal.
    """
    ts = np.array([p[0] for p in points], dtype=float)
    sites = np.array([p[1] for p in points], dtype=int)
    c = gen.cone_scale
    dt = ts[None, :] - ts[:, None]
    d = gen.fiber.d[np.ix_(sites, sites)]
    out = np.multiply(dt, c)
    out -= d  # margin = c dt - d
    scale = np.abs(dt)
    scale *= c
    np.maximum(scale, d, out=scale)
    scale *= _NULL_SNAP
    null = out <= scale
    np.negative(out, out=out)
    causal = out <= scale
    causal &= dt >= 0
    null &= causal
    np.multiply(dt, c * c, out=out)
    out *= dt
    d *= d
    out -= d
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    out[null] = 0.0
    out[~causal] = NEG_INF
    return out


# entries of ell per block of rows in `_triangle_bound`'s pass over the pairs: its
# temporaries stay near 256 KB each, small next to the n x n matrices around it
# (made for the whole matrix at once, about 4 MB at n = 500, they raised the
# resident peak of the causal-set trials)
_PAIR_BLOCK = 2 ** 15


def _triangle_bound(gen: ProductGenerator, points: Sequence[Point], ell: np.ndarray) -> float:
    """A bound B such that `core._reverse_triangle_witness(ell, tol)` finds nothing
    when B <= tol, for `ell = _ell_matrix(gen, points)`; inf or NaN where a premise fails.

    It costs O(n^2) plus O(1) per pair, whatever the fiber's size: the fiber's
    triangle slack was bounded once, when the fiber was built.
    Write u = eps/2, v for a finite off-diagonal entry ell[i, j] (a pair), d
    for its fiber distance d[s_i, s_j], v_min for the least v, and span =
    max t - min t. Premises, each checked on the data, in this order:
      (a) every pair has v > 0: none is snapped null, so no two points
          coincide and no causal two-cycle exists (one needs dt = 0, whose
          margin -d is snapped to 0 or sent to -inf);
      (b) no rounding of `_ell_matrix` underflows on a pair: u times each of
          v_min^2, C^2 and C v_min / 2 (lower bounds of tau^2, C^2 and dt C^2
          below) is at least the smallest normal float;
      (c) E_max <= v_min / 2 for E below, so every tau >= v / 2;
      (d) the fiber's `triangle_slack` sigma is finite: every fiber distance
          is >= 0 and d[a,c] <= d[a,b] + d[b,c] + sigma (`FiniteMetricFiber`);
      (e) the margins beat sigma: 8 C span sigma <= v_min^2.

    Lemma. For a pair write T = C (t_j - t_i) and d as exact reals,
    tau = sqrt(T^2 - d^2), and gamma_k = ku / (1 - ku) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3).
      1. Rounding. The pair is not snapped, so its computed margin
         m = fl(fl(C dt) - d) exceeds the band s = 8 eps max(fl(C dt), d);
         m carries three roundings, |m - (T - d)| <= gamma_3 max(fl(C dt), d)
         < s / 5, so T - d > 0. `_ell_matrix` then rounds dt, C^2, dt C^2,
         its product with dt, d^2, their difference and the sqrt: the
         radicand r has |r - tau^2| <= gamma_6 T^2 + gamma_2 d^2, and solved
         for tau, |v - tau| <= gamma_9 v + gamma_10 d^2 / v <= E = 11u (v + d^2 / v).
      2. Transitivity. T - d = tau^2 / (T + d) >= (v_min / 2)^2 / (2 C span)
         by (c), so for pairs (i, j) and (j, k) (e) and (d) give T_ik - d_ik >=
         (T_ij - d_ij) + (T_jk - d_jk) - sigma > 0: the computed margin of
         (i, k) lies above -s_ik / 5, so ell[i, k] is finite, > 0 by (a), and i != k.
      3. Reverse Minkowski. With T >= d >= 0 on both legs,
         (T_ij + T_jk)^2 - (d_ij + d_jk)^2 >= (tau_ij + tau_jk)^2, and
         d_ik <= d_ij + d_jk + sigma by (d), so tau_ik >= tau_ij + tau_jk -
         sigma (2 (d_ij + d_jk) + sigma) / (tau_ij + tau_jk).
      4. By (c), 2 (d_ij + d_jk) / (tau_ij + tau_jk) <= 4 max d / v and
         tau_ij + tau_jk >= v_min, so ell[i, j] + ell[j, k] <= ell[i, k] + B with
         B = 3 E_max + sigma (4 max d / v + sigma / v_min).
    Rounding is monotone, so the sweep's two float additions keep
    fl(ell[i,j] + ell[j,k]) <= fl(ell[i,k] + tol) wherever the exact sums
    obey it, and cost nothing. A triple with a repeated index never fails:
    the diagonal is 0 (d[a, a] = 0) or -inf, and i = k needs a two-cycle.
    Each constant rounds its gamma_k up, and the factor 1 + 16u covers the
    roundings of evaluating B, a sum of products and quotients of
    nonnegative numbers. In exact arithmetic this is the reverse triangle
    inequality of Lorentzian products over a metric fiber
    (Alexander-Graf-Kunzinger-Saemann, *Generalized cones as Lorentzian
    length spaces*, 2019).
    """
    n, m = ell.shape[0], gen.fiber.n
    sites = np.array([p[1] for p in points], dtype=int)
    v_min, ratio_max, d2_v_max = math.inf, 0.0, 0.0  # least v, largest d / v and d^2 / v
    block = max(1, _PAIR_BLOCK // n)
    for a in range(0, n, block):
        rows = ell[a:a + block]
        off = np.isfinite(rows)
        np.fill_diagonal(off[:, a:], False)
        pairs = np.flatnonzero(off)  # flat indices of the pairs in these rows
        v = rows.ravel().take(pairs)
        if not (v > 0.0).all():  # (a)
            return math.inf
        i, j = np.divmod(pairs, n)
        ratio = gen.fiber.d.ravel().take(sites[a:a + block].take(i) * m + sites.take(j))  # d
        d2_v = ratio * ratio
        d2_v /= v
        ratio /= v
        v_min = min(v_min, float(v.min(initial=np.inf)))
        ratio_max = max(ratio_max, float(ratio.max(initial=0.0)))
        d2_v_max = max(d2_v_max, float(d2_v.max(initial=0.0)))
    c = gen.cone_scale
    # ell.max() is the largest v, or NaN or inf where ell holds one
    e_max = 11 * _U * (float(ell.max()) + d2_v_max)
    if not (_U * min(v_min * v_min, c * c, c * v_min / 2) >= np.finfo(float).tiny  # (b)
            and e_max <= v_min / 2):  # (c)
        return math.inf
    sigma = gen.fiber.triangle_slack  # (d): inf fails (e)
    times = [p[0] for p in points]
    if not 8 * c * (max(times) - min(times)) * sigma <= v_min * v_min:  # (e)
        return math.inf
    return (3 * e_max + sigma * (4 * ratio_max + sigma / v_min)) \
        * (1 + 16 * _U)


def _product_space(gen: ProductGenerator, points: Sequence[Point], labels: Sequence[str],
                   ell: np.ndarray) -> FiniteLorentzSpace:
    """`build_space(labels, ell)` for `ell = _ell_matrix(gen, points)`: the same
    space or the same AxiomViolation.

    `_triangle_bound` <= DEFAULT_TOL is the certificate that `core._checked_space`
    asks for where `build_space` would take the reverse-triangle sweep; there it
    skips the sweep and runs every other check of `build_space`.
    """
    return _checked_space(labels, ell, DEFAULT_TOL,
                          lambda: _triangle_bound(gen, points, ell) <= DEFAULT_TOL)


@dataclass(frozen=True)
class SamplePlan:
    """Discretization: a time grid plus a choice of fiber sites.

    A non-None seed jitters interior grid times uniformly within a fifth of
    the step (order preserving), for irregular-sample variants.
    """

    time_step: float
    fiber_sites: Union[str, tuple[int, ...]] = "all"
    seed: Optional[int] = None

    def __post_init__(self):
        if not _finite_increasing((0, self.time_step)):
            raise ShapeMismatch(f"time_step must be a finite number > 0, got {self.time_step!r}")
        if self.seed is not None:
            check_seed(self.seed)


@dataclass(frozen=True)
class SampledSpace:
    """A sampled product: the finite space plus its generating points."""

    space: FiniteLorentzSpace
    points: tuple[Point, ...]

    def index_of(self, point: Point) -> int:
        """Index of the sample point at `point` by `_find_point`; ShapeMismatch if none."""
        k = _find_point(self.points, point)
        if k is None:
            raise ShapeMismatch(f"no sample point at {point}")
        return k


def _find_point(points: Sequence[Point], point: Point) -> Optional[int]:
    """First index in `points` at `point`'s site whose time is within 1e-12.

    The one identity rule for product sample points: `index_of`, the
    extra-point merge of `sample_spacetime` and `embed_net` all use it.
    """
    for k, (t, i) in enumerate(points):
        if i == point[1] and abs(t - point[0]) <= 1e-12:
            return k
    return None


def point_label(gen: ProductGenerator, p: Point) -> str:
    return f"({p[0]!r},{gen.fiber.labels[p[1]]})"


def sample_spacetime(gen: ProductGenerator, plan: SamplePlan,
                     t_window: Optional[tuple[float, float]] = None,
                     extra_points: Sequence[Point] = ()) -> SampledSpace:
    """Sample the time grid x fiber sites and validate the resulting space.

    `t_window` restricts the grid inside the generator range; `extra_points`
    adjoins e.g. grid-net vertices so nets embed into the sample. The space is
    `build_space`'s, built by `_product_space`: its reverse-triangle sweep is
    skipped where `_triangle_bound` proves it would find nothing, so a grid
    whose pairs sit on the null cone is still swept.
    """
    lo, hi = t_window if t_window is not None else gen.t_range
    if not (lo < hi and _in_range(gen, lo, hi)):
        raise ShapeMismatch(f"window {(lo, hi)} outside generator range {gen.t_range}")
    m = int(math.floor((hi - lo) / plan.time_step + 1e-9)) + 1
    times = [lo + k * plan.time_step for k in range(m)]
    if plan.seed is not None and m > 2:
        rng = np.random.default_rng(plan.seed)
        jitter = rng.uniform(-plan.time_step / 5, plan.time_step / 5, size=m - 2)
        times = [times[0]] + [t + j for t, j in zip(times[1:-1], jitter)] + [times[-1]]
    sites = list(range(gen.fiber.n) if plan.fiber_sites == "all" else plan.fiber_sites)
    point_indices(gen.fiber.n, sites, "fiber sites")  # range check only; sites keep their order
    if not times or not sites:
        raise EmptyPlan("plan resolves to no sample points")
    points = [(t, s) for t in times for s in sites]
    for p in _product_points(gen, extra_points, "extra point"):
        if _find_point(points, p) is None:
            points.append(p)
    labels = [point_label(gen, p) for p in points]
    space = _product_space(gen, points, labels, _ell_matrix(gen, points))
    return SampledSpace(space=space, points=tuple(points))


def _product_points(gen: ProductGenerator, points: Sequence[Point], what: str) -> list[Point]:
    """The one product-point rule: `points` as (float, int) pairs, sites read by
    `integer_values` and `point_indices`, times by `_in_range` (NaN fails)."""
    if not len(points):
        return []
    pts = _float_matrix(list(points), f"{what}s")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeMismatch(f"{what}s must be (time, site) pairs, got shape {pts.shape}")
    sites = integer_values(pts[:, 1], f"{what} sites")
    point_indices(gen.fiber.n, sites, f"{what} sites")
    bad = [t for t in pts[:, 0].tolist() if not _in_range(gen, t, t)]
    if bad:
        raise ShapeMismatch(f"{what} times {bad} outside generator range {gen.t_range}")
    return list(zip(pts[:, 0].tolist(), sites.tolist()))


# ---------------------------------------------------------------------------
# explicit grid nets for the slab
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridNet:
    """Grid net as raw product points (pre-embedding)."""

    vertex_points: tuple[Point, ...]
    pairs: tuple[tuple[int, int], ...]  # indices into vertex_points
    epsilon: float                       # exact in-generator tau of each diamond
    columns: int                         # diamonds per fiber site


def _check_fiber_net(gen: ProductGenerator, fiber_net: Sequence[int], radius: float) -> None:
    net = point_indices(gen.fiber.n, fiber_net, "fiber net")
    if not net.size:
        raise NotAFiberNet(None, "empty fiber net")
    dmin = gen.fiber.d[:, net].min(axis=1)
    bad = np.flatnonzero(dmin >= radius)
    if bad.size:
        raise NotAFiberNet(int(bad[0]))


def grid_net_product(gen: ProductGenerator, t_minus: float, t_plus: float,
                     epsilon: float, fiber_net: Sequence[int]) -> GridNet:
    """Slab-covering net of axis-aligned diamonds on the epsilon/3 time grid.

    Vertices are (t_minus + i*eps/3, s_j) with diamonds J(x_{i-1,j}, x_{i+2,j});
    the fiber net must be a (C*eps/3)-net. Every diamond has in-generator
    tau = C*eps exactly (recorded as the net's epsilon).
    """
    if not (0 < epsilon <= t_minus):
        raise EpsilonTooLarge(f"need 0 < epsilon <= t_minus, got {epsilon} vs {t_minus}")
    return slab_net(gen, t_minus, t_plus, epsilon, fiber_net)


def slab_net(gen: ProductGenerator, t_lo: float, t_hi: float, epsilon: float,
             fiber_net: Sequence[int]) -> GridNet:
    """Grid net for an arbitrary slab inside t_range (vertices may dip below t_lo)."""
    if not (t_lo < t_hi):
        raise ShapeMismatch("need t_lo < t_hi")
    if not epsilon > 0:  # NaN fails too
        raise EpsilonTooLarge(f"epsilon must be positive, got {epsilon!r}")
    c = gen.cone_scale
    _check_fiber_net(gen, fiber_net, c * epsilon / 3.0)
    step = epsilon / 3.0
    # each diamond J(x_{i-1,j}, x_{i+2,j}) robustly covers the time window
    # [t_i, t_{i+1}] of width step, so spanning [t_lo, t_hi] takes
    # ceil((t_hi - t_lo)/step) columns
    columns = max(1, math.ceil((t_hi - t_lo) / step - 1e-12))
    net_sites = sorted(set(fiber_net))
    if not _in_range(gen, t_lo - step, t_lo + (columns + 1) * step):
        raise ShapeMismatch("grid vertices would leave the generator t_range")
    vertices: list[Point] = []
    index: dict[tuple[int, int], int] = {}
    for i in range(-1, columns + 2):
        for j, s in enumerate(net_sites):
            index[(i, j)] = len(vertices)
            vertices.append((t_lo + i * step, s))
    pairs = [(index[(i - 1, j)], index[(i + 2, j)])
             for i in range(columns) for j in range(len(net_sites))]
    return GridNet(vertex_points=tuple(vertices), pairs=tuple(pairs),
                   epsilon=c * epsilon, columns=columns)


def uncovered_samples(gen: ProductGenerator, net: GridNet,
                      points: Sequence[Point]) -> list[int]:
    """Indices of `points` (read by `_product_points`) not inside any net diamond."""
    pts = np.array(_product_points(gen, points, "sample"), dtype=float).reshape(-1, 2)
    ts, sites = pts[:, 0], pts[:, 1].astype(int)
    c = gen.cone_scale
    covered = np.zeros(len(points), dtype=bool)
    for a, b in net.pairs:
        t1, s1 = net.vertex_points[a]
        t2, s2 = net.vertex_points[b]
        d1 = gen.fiber.d[s1, sites]
        d2 = gen.fiber.d[s2, sites]
        inside = (ts >= t1) & (c * (ts - t1) >= d1) & (ts <= t2) & (c * (t2 - ts) >= d2)
        covered |= inside
    return [int(i) for i in np.flatnonzero(~covered)]


def embed_net(net: GridNet, sampled: SampledSpace) -> DiamondNet:
    """Resolve grid-net vertices to indices of a sample that contains them."""
    index = [_find_point(sampled.points, p) for p in net.vertex_points]
    pairs = tuple((index[a], index[b]) for a, b in net.pairs)
    if any(k is None for pair in pairs for k in pair):
        raise ShapeMismatch("sample does not contain a net vertex; pass extra_points")
    return DiamondNet(pairs=pairs, epsilon=net.epsilon)


def net_vertex_points(net: GridNet) -> tuple[Point, ...]:
    used = sorted({i for pair in net.pairs for i in pair})
    return tuple(net.vertex_points[i] for i in used)


# ---------------------------------------------------------------------------
# cone domination for constant warped metrics -beta dt^2 + omega^2 h0
# ---------------------------------------------------------------------------


def cone_dominates(cone_scale: float, beta: float, omega: float) -> dict:
    """Check that rho_C-causal directions are causal for -beta dt^2 + omega^2 h0.

    Constant beta and omega make this the analytic certificate beta / omega^2
    >= C^2 with C = cone_scale; a failure is witnessed by the extreme ray
    |v_x| = C at (t, site) = (0.0, 0).
    """
    b, w = float(beta), float(omega)
    if not (0 < b <= 1):
        raise UnsupportedMetricFamily(f"beta must lie in (0, 1], got {b}")
    if not (w > 0):
        raise UnsupportedMetricFamily(f"omega must be positive, got {w}")
    holds = b / (w * w) >= cone_scale * cone_scale
    return {"holds": bool(holds), "witness": None if holds else (0.0, 0, cone_scale),
            "certificate": "analytic"}
