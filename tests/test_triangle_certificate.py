"""The reverse-triangle certificate of product samples (`geometry._triangle_bound`).

Where the bound is <= tol, the triangle sweep must find nothing, and the space
or error record built without the sweep must be `build_space`'s. The rounding
lemma behind the bound is checked here in exact rational arithmetic, and the
null snap it rests on is pinned from both sides.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgh import (ProductGenerator, SamplePlan, build_fiber, build_space, circle_fiber,
                       product_ell, product_family, sample_spacetime, segment_fiber)
from lorentzgh import core, geometry
from lorentzgh.causet import _sprinkle
from lorentzgh.core import DEFAULT_TOL, _checked_space, _reverse_triangle_witness, _takes_sweep
from lorentzgh.errors import AxiomViolation
from lorentzgh.geometry import (FiniteMetricFiber, _ell_matrix, _measured_slack, _product_space,
                                _triangle_bound)

U = 2.0 ** -53  # unit roundoff of float64


def record(fn, *args):
    """("space", labels, tol, ell bytes) or the AxiomViolation record of fn(*args)."""
    try:
        space = fn(*args)
    except AxiomViolation as exc:
        return exc.record()
    return ("space", space.labels, space.tol, space.ell.tobytes())


def dyadic_fiber(fiber, scale):
    """fiber.d times a power of two: exact, so the fiber's slack bound scales with it."""
    return FiniteMetricFiber(fiber.labels, fiber.d * scale, fiber.triangle_slack * scale)


def certified_space(gen, points, labels, ell, tol):
    """`_product_space` at any tol: `_checked_space` with the certificate at that tol."""
    return _checked_space(labels, ell, tol, lambda: _triangle_bound(gen, points, ell) <= tol)


@st.composite
def certificate_inputs(draw):
    """A product sample past the sweep's size rule, with a tol scaled as its data.

    Fibers: circle, segment, either one `.scaled`, and `build_fiber` with one
    entry raised by up to DEFAULT_TOL (triangle slack the fiber check admits).
    C in [0.5, 2]; dyadic scales 2^k, k in [-30, 30], applied to the fiber, the
    times and tol. Points: grids whose step is a site spacing over C m (pairs on
    the null cone), the same grids jittered by up to a fifth of a step, and
    sprinkles.
    """
    k = draw(st.integers(2, 9))
    size = draw(st.floats(0.1, 2.0))
    fiber = draw(st.sampled_from([circle_fiber, segment_fiber]))(k, size)
    if draw(st.booleans()):
        fiber = fiber.scaled(draw(st.floats(0.3, 1.5)))
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        d = fiber.d.copy()
        d[a, b] = d[b, a] = d[a, b] + draw(st.floats(0.0, DEFAULT_TOL * (1 - 1e-4)))
        fiber = build_fiber(fiber.labels, d)
    c = draw(st.floats(0.5, 2.0))
    scale = 2.0 ** draw(st.sampled_from([0, 0, 0, -30, 30]) | st.integers(-30, 30))
    kind = draw(st.sampled_from(["grid", "jitter", "sprinkle"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "sprinkle":
        gen = ProductGenerator(fiber, c, (0.0, 2.0))
        points, _, _ = _sprinkle(gen, (0.0, 2.0), draw(st.integers(71, 140)), seed)
    else:
        step = fiber.d[0, 1] / (c * draw(st.integers(1, 3)))
        rows = max(2, math.ceil(72 / k))
        times = [i * step for i in range(rows)]
        if kind == "jitter":
            jitter = np.random.default_rng(seed).uniform(-step / 5, step / 5, size=rows)
            times = [t + j for t, j in zip(times, jitter.tolist())]
        points = [(t, s) for t in times for s in range(k)]
    gen = ProductGenerator(dyadic_fiber(fiber, scale), c, (-4.0 * scale, 4.0 * scale))
    points = [(t * scale, s) for t, s in points]
    return gen, points, DEFAULT_TOL * scale


@settings(max_examples=150)
@given(certificate_inputs())
def test_certified_samples_have_no_witness(inputs):
    gen, points, tol = inputs
    ell = _ell_matrix(gen, points)
    labels = [f"p{i}" for i in range(len(points))]
    assert _takes_sweep(ell.shape[0])
    bound = _triangle_bound(gen, points, ell)
    if bound <= tol:
        assert _reverse_triangle_witness(ell, tol) is None
    if math.isfinite(bound):  # the bound itself is a tol the sweep passes
        assert _reverse_triangle_witness(ell, bound) is None
    want = record(build_space, labels, ell, tol)
    assert record(certified_space, gen, points, labels, ell, tol) == want
    if tol == DEFAULT_TOL:
        assert record(_product_space, gen, points, labels, ell) == want


def trial_sample(count=200, fiber=None):
    gen = ProductGenerator(fiber or circle_fiber(8, 0.3), 1.0, (0.0, 2.0))
    points, ell, _ = _sprinkle(gen, (0.0, 2.0), count, 11)
    return gen, points, ell, [f"p{i}" for i in range(count)]


class TestProductSpace:
    @staticmethod
    def sweeps(monkeypatch):
        calls = []
        sweep = core.validate_matrix
        monkeypatch.setattr(core, "validate_matrix",
                            lambda ell, tol: calls.append(ell.shape[0]) or sweep(ell, tol))
        return calls

    def test_tol_comparison_from_both_sides(self, monkeypatch):
        # at tol = bound the sweep is skipped; one ulp below it, build_space runs
        # whole; both give build_space's space
        gen, points, ell, labels = trial_sample(fiber=circle_fiber(8, 0.3).scaled(1.1))
        bound = _triangle_bound(gen, points, ell)
        assert 0 < bound < DEFAULT_TOL / 100  # the trial's matrices certify with room
        calls = self.sweeps(monkeypatch)
        for tol, swept in ((bound, []), (math.nextafter(bound, 0), [len(points)])):
            calls.clear()
            got = certified_space(gen, points, labels, ell, tol)
            assert calls == swept
            assert got == build_space(labels, ell, tol)

    def test_product_space_certifies_at_default_tol(self, monkeypatch):
        # `_product_space` compares the bound with DEFAULT_TOL by <=: a bound
        # of exactly DEFAULT_TOL skips the sweep, one ulp above it does not
        gen, points, ell, labels = trial_sample()
        want = build_space(labels, ell)
        calls = self.sweeps(monkeypatch)
        for bound, swept in ((DEFAULT_TOL, []), (math.nextafter(DEFAULT_TOL, 1.0), [len(points)])):
            calls.clear()
            monkeypatch.setattr(geometry, "_triangle_bound", lambda *args: bound)
            assert _product_space(gen, points, labels, ell) == want
            assert calls == swept

    @pytest.mark.parametrize("n, certified", [(70, False), (71, True)])
    def test_size_rule_is_the_sweeps(self, n, certified, monkeypatch):
        # the certificate runs only where `_reverse_triangle_witness` would sweep
        gen, points, ell, labels = trial_sample(count=n)
        want = build_space(labels, ell)
        bounds = []
        monkeypatch.setattr(geometry, "_triangle_bound",
                            lambda *args: bounds.append(_triangle_bound(*args)) or bounds[-1])
        calls = self.sweeps(monkeypatch)
        assert _product_space(gen, points, labels, ell) == want
        assert (len(bounds), calls) == ((1, []) if certified else (0, [n]))

    def test_slab_sample_certifies(self, monkeypatch):
        # the README pipeline's sample (the `slab` benchmark workload) skips the sweep
        calls = self.sweeps(monkeypatch)
        slab = sample_spacetime(product_family(circle_fiber(8), 100, t_range=(-1.0, 1.0)),
                                SamplePlan(time_step=0.025), t_window=(-0.5, 0.5))
        assert slab.space.n == 328 and calls == []

    def test_item_13_grid_falls_back(self, monkeypatch):
        # segment_fiber(21, 1.0) sampled one site spacing apart: snapped null
        # pairs fail premise (a), and the sweep finds the near-null witness
        calls = self.sweeps(monkeypatch)
        gen = ProductGenerator(segment_fiber(21, 1.0), 1.0, (-1.0, 2.0))
        with pytest.raises(AxiomViolation) as exc:
            sample_spacetime(gen, SamplePlan(time_step=0.05), t_window=(0.0, 1.0))
        assert exc.value.record()["witness"] == (1, 243, 265)
        assert calls == [441]


def test_fiber_slack_enters_the_bound():
    # sites a, b, c with d(a, c) = d(a, b) + d(b, c) + 0.9e-9, which build_fiber
    # admits, and three points on one straight line: tau(x, z) falls short of
    # tau(x, y) + tau(y, z) by 0.75 of that, which only the fiber-slack term of
    # the bound covers
    delta = 0.9e-9
    d = [[0.0, 0.3, 0.6 + delta], [0.3, 0.0, 0.3], [0.6 + delta, 0.3, 0.0]]
    fiber = build_fiber(["a", "b", "c"], d)
    assert delta < fiber.triangle_slack < 1.01 * delta
    gen = ProductGenerator(fiber, 1.0, (0.0, 1.0))
    points = [(0.0, 0), (0.5, 1), (1.0, 2)]
    ell = _ell_matrix(gen, points)
    excess = ell[0, 1] + ell[1, 2] - ell[0, 2]
    bound = _triangle_bound(gen, points, ell)
    assert 0.7 * delta < excess < bound < 4 * delta
    assert _reverse_triangle_witness(ell, excess / 2) == (0, 1, 2)
    assert _reverse_triangle_witness(ell, bound) is None


class TestPremises:
    """Each premise of `_triangle_bound` fails on data built to break it."""

    def test_snapped_null_pair(self):
        gen = ProductGenerator(segment_fiber(9, 1.0), 1.0, (0.0, 2.0))
        points = [(k / 8, s) for k in range(9) for s in range(9)]
        assert _triangle_bound(gen, points, _ell_matrix(gen, points)) == math.inf

    def test_negative_fiber_distance(self):
        # build_fiber admits d(a, b) = -1e-12 (within DEFAULT_TOL of a metric),
        # and a fiber distance below 0 leaves no slack bound
        d = [[0.0, -1e-12, 0.3], [-1e-12, 0.0, 0.3], [0.3, 0.3, 0.0]]
        fiber = build_fiber(["a", "b", "c"], d)
        assert fiber.triangle_slack == math.inf
        gen = ProductGenerator(fiber, 1.0, (0.0, 2.0))
        points, ell, _ = _sprinkle(gen, (0.0, 2.0), 80, 3)
        assert _triangle_bound(gen, points, ell) == math.inf

    def test_fiber_without_a_slack_bound(self):
        # the constructor alone records no bound: the same sample certifies
        # over the closed form and is swept over the bare fiber
        gen, points, ell, _ = trial_sample(count=80)
        bare = ProductGenerator(FiniteMetricFiber(gen.fiber.labels, gen.fiber.d), 1.0, (0.0, 2.0))
        assert _triangle_bound(gen, points, ell) < DEFAULT_TOL
        assert _triangle_bound(bare, points, ell) == math.inf

    def test_margins_must_beat_the_fiber_slack(self):
        # one distance well past the triangle inequality: the slack exceeds
        # every margin, and the sweep finds the violation the bound refuses
        d = segment_fiber(3, 0.2).d.copy()
        d[0, 2] = d[2, 0] = 0.5
        fiber = FiniteMetricFiber(segment_fiber(3).labels, d, _measured_slack(d))
        assert 0.3 < fiber.triangle_slack < 0.31
        gen = ProductGenerator(fiber, 1.0, (0.0, 2.0))
        points, ell, _ = _sprinkle(gen, (0.0, 2.0), 90, 4)
        assert _triangle_bound(gen, points, ell) == math.inf
        assert _reverse_triangle_witness(ell, DEFAULT_TOL) is not None

    def test_no_underflow(self):
        # the same sample at 2^-600: its squares leave the normal range
        gen, points, ell, _ = trial_sample(count=80)
        tiny = 2.0 ** -600
        small = ProductGenerator(dyadic_fiber(gen.fiber, tiny), 1.0, (0.0, 2.0 * tiny))
        small_points = [(t * tiny, s) for t, s in points]
        assert _triangle_bound(gen, points, ell) < DEFAULT_TOL
        assert _triangle_bound(small, small_points, _ell_matrix(small, small_points)) == math.inf

    def test_non_finite_entry_is_not_certified(self):
        gen, points, ell, _ = trial_sample(count=80)
        ell[0, 1] = np.inf
        assert not _triangle_bound(gen, points, ell) <= DEFAULT_TOL


def exact_slack(d):
    """max over (a, b, c) of d[a,c] - d[a,b] - d[b,c] in rational arithmetic."""
    q = [[Fraction(x) for x in row] for row in d.tolist()]
    m = len(q)
    return max(q[a][c] - q[a][b] - q[b][c] for a in range(m) for b in range(m) for c in range(m))


@settings(max_examples=150)
@given(st.sampled_from(["circle", "segment", "scaled", "built"]), st.integers(1, 9),
       st.floats(1e-3, 1e3), st.floats(0.0, DEFAULT_TOL * (1 - 1e-4)))
def test_fiber_slack_bounds_the_exact_slack(kind, k, size, raise_by):
    """`triangle_slack` bounds the triangle slack of the stored floats exactly,
    for the closed forms (one rounding of a metric per entry), `.scaled` and
    `build_fiber` with an entry raised within DEFAULT_TOL."""
    fiber = (segment_fiber if kind == "segment" else circle_fiber)(k, size)
    if kind == "scaled":
        fiber = fiber.scaled(1.1)
    if kind == "built" and k > 1:
        d = fiber.d.copy()
        d[0, k - 1] = d[k - 1, 0] = d[0, k - 1] + raise_by
        fiber = build_fiber(fiber.labels, d)
    assert math.isfinite(fiber.triangle_slack)
    assert exact_slack(fiber.d) <= Fraction(fiber.triangle_slack)
    if kind in ("circle", "segment"):  # the closed forms' bound: 6u max d
        assert fiber.triangle_slack == 6 * U * fiber.d.max()


def test_certificate_reads_the_fiber_slack(monkeypatch):
    # the certificate costs the same over any fiber: it reads the slack bound
    # made with the fiber and never scans the fiber's (a, b, c) cube itself
    gen, points, ell, labels = trial_sample(count=200, fiber=circle_fiber(8, 0.3).scaled(1.1))
    monkeypatch.setattr(geometry, "_measured_slack", None)
    assert _triangle_bound(gen, points, ell) < DEFAULT_TOL


@st.composite
def product_pairs(draw):
    """C, two times and a fiber distance, near the null cone half the time."""
    c = draw(st.floats(0.5, 2.0) | st.sampled_from([1.0, 1.1, 1.0 + 1.0 / 3]))
    t0 = draw(st.floats(-4.0, 4.0))
    dt = draw(st.floats(1e-6, 4.0))
    t1 = t0 + dt
    d = draw(st.floats(0.0, 1.0).map(lambda x: x * c * (t1 - t0))
             | st.floats(1e-16, 1e-6).map(lambda eta: c * (t1 - t0) * (1 - eta)))
    return c, t0, t1, d


@settings(max_examples=400)
@given(product_pairs())
def test_rounding_lemma_in_exact_arithmetic(pair):
    """Step 1 of the lemma: an unsnapped entry v > 0 has exact margin T - d > 0
    and |v - tau| <= 11u (v + d^2/v), tau from the exact T = C (t1 - t0) and d."""
    c, t0, t1, d = pair
    gen = ProductGenerator(FiniteMetricFiber(("a", "b"), [[0.0, d], [d, 0.0]]), c, (-5.0, 9.0))
    v = _ell_matrix(gen, [(t0, 0), (t1, 1)])[0, 1]
    if not v > 0:
        return
    big_t = Fraction(c) * (Fraction(t1) - Fraction(t0))
    assert big_t > Fraction(d)
    tau_sq = big_t * big_t - Fraction(d) * Fraction(d)
    e = Fraction(11 * U) * (Fraction(v) + Fraction(d) ** 2 / Fraction(v))
    lo = max(Fraction(v) - e, Fraction(0))
    assert lo * lo <= tau_sq <= (Fraction(v) + e) ** 2


class TestNullSnapFromBothSides:
    """`_ell_matrix` and `product_ell` snap a pair to 0 when its margin C dt - d
    lies within 8 eps of its scale max(C dt, d), and not one step outside."""

    SNAP = 8 * 2.0 ** -52  # 8 eps, written out: the rule, not the library's constant

    @staticmethod
    def pair(t1, d):
        gen = ProductGenerator(build_fiber(["a", "b"], [[0.0, d], [d, 0.0]]), 1.0, (0.0, 2.0))
        points = [(0.0, 0), (t1, 1)]
        return _ell_matrix(gen, points)[0, 1], product_ell(gen, *points)

    def test_timelike_edge(self):
        # dt = 1, d = 1 - 8 eps: margin = 8 eps = the band, snapped
        d = 1.0 - self.SNAP
        assert self.pair(1.0, d) == (0.0, 0.0)
        v, scalar = self.pair(1.0, math.nextafter(d, 0.0))
        assert v == scalar and 0.0 < v < 1e-6

    def test_spacelike_edge(self):
        # dt = 1 - 8 eps, d = 1: margin = -8 eps = minus the band, snapped
        t1 = 1.0 - self.SNAP
        assert self.pair(t1, 1.0) == (0.0, 0.0)
        assert self.pair(t1, math.nextafter(1.0, 2.0)) == (-math.inf, -math.inf)
