import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgh import (FourPointConfig, ProductGenerator, SamplePlan, circle_fiber,
                       comparison_config, curvature_bound_scan, diameter_bound,
                       four_point_check, model_point, product_family, sample_spacetime,
                       segment_fiber)
from lorentzgh.core import FiniteLorentzSpace
from lorentzgh.curvature import _ell
from lorentzgh.errors import (ChartDomain, DomainError, ShapeMismatch, SolverDiverged,
                              Unrealizable)
from lorentzgh.extended import NEG_INF as NI
from lorentzgh import build_space

from geodesic_oracle import geodesic_tau_oracle

# scans and slacks recorded with the damped-Newton placement the closed form replaced
PINS = json.loads((Path(__file__).parent / "data" / "curvature_pins.json").read_text())


def model_ell(K, p, q):
    """Extended time separation from model point p to q in L2(K), by the library's float core."""
    return _ell(K, *p.coords, *q.coords)


def model_tau_between(K, p, q):
    """Order-free tau: the positive direction wins (0 for spacelike pairs)."""
    return max(0.0, model_ell(K, p, q), model_ell(K, q, p))


def scale_point(K, p, lam):
    """Chart image of p under the rescaling L2(K) -> L2(lam^2 K)."""
    a, b = p.coords
    if K == 0:
        return model_point(0.0, a / lam, b / lam)
    if K < 0:
        return model_point(lam * lam * K, a / lam, b)  # (t, theta): t scales
    return model_point(lam * lam * K, a, b)            # (T, rho): dimensionless


def minkowski_sample(step=0.25, width=2.0, sites=12, height=2.5):
    gen = ProductGenerator(fiber=segment_fiber(sites, width), cone_scale=1.0,
                           t_range=(0.0, height + 0.5))
    return sample_spacetime(gen, SamplePlan(time_step=step), t_window=(0.0, height))


def planted_violation_space():
    """A 20-point flat sample with tau(z1, z2) cut to a tenth on its first future
    configuration (y, x, z1, z2), in index order; returns the space and that
    configuration. `tests/data/planted_space.json` is this space."""
    sp = minkowski_sample(step=0.5, sites=4, width=0.6, height=2.0).space
    y, x, z1, z2 = next((y, int(x), int(z1), int(z2)) for y in range(sp.n)
                        for x in np.flatnonzero(sp.chron[y])
                        for z1 in np.flatnonzero(sp.chron[x])
                        for z2 in np.flatnonzero(sp.chron[z1]))
    ell = sp.ell.copy()
    ell[z1, z2] = max(0.0, ell[z1, z2] - 0.9 * ell[z1, z2])
    # the edit may break the reverse triangle elsewhere; the constructor does not validate
    return FiniteLorentzSpace(sp.labels, ell, sp.tol), (y, x, z1, z2)


def reference_scan(space, K, budget, seed, tol=1e-9):
    """The scan as one `rng.choice` per stage and one `four_point_check` per draw."""
    rng = np.random.default_rng(seed)
    dk = diameter_bound(K)
    has_future = space.chron.any(axis=1)
    ys = np.flatnonzero(has_future)
    tested = 0
    violations = []
    attempts = 0
    max_attempts = max(budget * 20, 100)
    while tested < budget and attempts < max_attempts and ys.size:
        attempts += 1
        y = int(rng.choice(ys))
        xs = np.flatnonzero(space.chron[y, :])
        xs = xs[has_future[xs]]
        if xs.size == 0:
            continue
        x = int(rng.choice(xs))
        z1s = np.flatnonzero(space.chron[x, :])
        if z1s.size == 0:
            continue
        z1 = int(rng.choice(z1s))
        z2s = np.flatnonzero(space.causal[z1, :])
        if z2s.size == 0:
            continue
        z2 = int(rng.choice(z2s))
        if space.tau(y, z2) >= dk:
            continue
        cfg = FourPointConfig(kind="future", points=(y, x, z1, z2))
        try:
            result = four_point_check(space, cfg, K, tol)
        except (Unrealizable, SolverDiverged, ChartDomain):
            continue
        tested += 1
        if not result["holds"]:
            violations.append({"points": cfg.points, "slack": result["slack"]})
    return {"violations": violations, "tested": tested}


SCAN_SPACES = {
    "minkowski": lambda: minkowski_sample().space,
    "circle": lambda: sample_spacetime(
        product_family(circle_fiber(6, radius=0.4), 10, t_range=(0.0, 2.0)),
        SamplePlan(time_step=0.25), t_window=(0.0, 1.5)).space,
    "planted": lambda: planted_violation_space()[0],
}


@functools.cache
def scan_space(name):
    return SCAN_SPACES[name]()


class TestModelTau:
    def test_minkowski_unit(self):
        assert model_ell(0, model_point(0, 0, 0), model_point(0, 1, 0)) == 1.0

    def test_minkowski_spacelike(self):
        assert model_ell(0, model_point(0, 0, 0), model_point(0, 1, 2)) == NI

    def test_against_oracle_negative_K(self):
        # value agrees with geodesic integration to 1e-8 and stays below pi
        K = -1.0
        for c1, c2 in [((0.0, 0.0), (1.2, 0.3)), ((0.1, -0.4), (1.8, 0.2)),
                       ((-0.3, 0.5), (0.9, 0.9))]:
            p, q = model_point(K, *c1), model_point(K, *c2)
            v = model_ell(K, p, q)
            assert v != NI
            assert abs(v - geodesic_tau_oracle(K, p, q)) < 1e-8
            assert v < math.pi

    def test_against_oracle_positive_K(self):
        K = 1.0
        for c1, c2 in [((0.0, 0.0), (1.2, 0.3)), ((0.1, -0.4), (1.8, 0.2)),
                       ((0.0, 0.0), (2.5, 0.0))]:
            p, q = model_point(K, *c1), model_point(K, *c2)
            v = model_ell(K, p, q)
            assert v != NI
            assert abs(v - geodesic_tau_oracle(K, p, q)) < 1e-8
            assert v <= diameter_bound(K) + 1e-12

    def test_refocusing_tau_capped(self, rng):
        # K > 0: produced tau never exceeds D_K = pi/sqrt(K)
        K = 2.0
        for _ in range(200):
            p = model_point(K, float(rng.uniform(0, 1)), float(rng.uniform(-1, 1)))
            q = model_point(K, float(rng.uniform(1, 3.9)), float(rng.uniform(-1, 1)))
            try:
                v = model_ell(K, p, q)
            except ChartDomain:
                continue
            if v != NI:
                assert v <= diameter_bound(K) + 1e-12

    def test_chart_domain_beyond_conjugate(self):
        with pytest.raises(ChartDomain):
            model_ell(1.0, model_point(1.0, 0, 0), model_point(1.0, 3.5, 0))

    def test_reverse_triangle_flat_random(self, rng):
        for _ in range(300):
            pts = [model_point(0, float(rng.uniform(0, 3)), float(rng.uniform(-2, 2)))
                   for _ in range(3)]
            a = model_ell(0, pts[0], pts[1])
            b = model_ell(0, pts[1], pts[2])
            c = model_ell(0, pts[0], pts[2])
            lhs = NI if (a == NI or b == NI) else a + b
            assert lhs <= c + 1e-12 or c == NI and lhs == NI

    def test_scaling_consistency(self):
        # model_ell(K, p, q) = lam * model_ell(lam^2 K, scaled p, scaled q)
        for K in (1.0, -1.0):
            lam = 1.7
            p, q = model_point(K, 0.1, 0.2), model_point(K, 1.4, 0.5)
            v = model_ell(K, p, q)
            assert v != NI
            v2 = model_ell(lam * lam * K, scale_point(K, p, lam), scale_point(K, q, lam))
            assert v == pytest.approx(lam * v2, rel=1e-12)


class TestComparisonConfig:
    def test_collinear_chain(self):
        cc = comparison_config(0.0, (1, 2, 3, 1, 2))
        assert cc.z1.coords[1] == 0.0 and cc.z2.coords[1] == -0.0
        assert model_tau_between(0.0, cc.z1, cc.z2) == pytest.approx(1.0)

    def test_minkowski_reproduction(self):
        y, x, z1, z2 = (0, 0), (1, 0), (2, 0.5), (3, 0.2)

        def mt(p, q):
            return max(0.0, model_ell(0.0, model_point(0, *p), model_point(0, *q)))
        sides = (mt(y, x), mt(y, z1), mt(y, z2), mt(x, z1), mt(x, z2))
        cc = comparison_config(0.0, sides)
        assert cc.residual <= 1e-10

    def test_residuals_within_tolerance_all_K(self, rng):
        # each draw also runs near-collinear (slack 1e-9) and with a short
        # t_xz (1e-3), where a cancelling placement formula loses digits
        for K in (0.0, 0.5, -0.5, 1.5, -2.0):
            for _ in range(25):
                t_yx = float(rng.uniform(0.2, 0.8))
                t_xz1 = float(rng.uniform(0.1, 0.7))
                t_xz2 = float(rng.uniform(0.1, 0.7))
                slack1 = float(rng.uniform(0, 0.4))
                slack2 = float(rng.uniform(0, 0.4))
                for xz1, xz2, s1, s2 in ((t_xz1, t_xz2, slack1, slack2),
                                         (t_xz1, t_xz2, 1e-9, 1e-9),
                                         (1e-3, 1e-3, slack1, slack2)):
                    sides = (t_yx, t_yx + xz1 + s1, t_yx + xz2 + s2, xz1, xz2)
                    if K > 0 and max(sides) >= diameter_bound(K):
                        continue
                    cc = comparison_config(K, sides)
                    assert cc.residual <= 1e-10

    def test_placements_match_geodesic_oracle(self, rng):
        for K in (0.5, -0.5, 1.5, -2.0):
            for _ in range(2):
                t_yx, t_xz1, t_xz2 = (float(v) for v in rng.uniform(0.1, 0.5, size=3))
                slack1, slack2 = (float(v) for v in rng.uniform(0.01, 0.3, size=2))
                sides = (t_yx, t_yx + t_xz1 + slack1, t_yx + t_xz2 + slack2, t_xz1, t_xz2)
                cc = comparison_config(K, sides)
                for z, t_yz, t_xz in ((cc.z1, sides[1], t_xz1), (cc.z2, sides[2], t_xz2)):
                    assert abs(geodesic_tau_oracle(K, cc.y, z) - t_yz) < 1e-8
                    assert abs(geodesic_tau_oracle(K, cc.x, z) - t_xz) < 1e-8

    @pytest.mark.parametrize("K, sides", [
        # tiny t_yx: the flat-space seed of an iterative solver overflowed cosh
        (-0.5, (0.00012831354826313502, 0.00016240328795778875, 0.7314880254257841,
                3.369344693807339e-05, 0.0064418366255987935)),
        # collinear sides far beyond the chart's float range
        (-1.14, (2.3e-232, 6397.84, 1.5e-166, 6397.84, 1.8e-221)),
    ])
    def test_extreme_sides_fail_typed(self, K, sides):
        try:
            cc = comparison_config(K, sides)
        except DomainError:
            return
        assert cc.residual <= 1e-10

    def test_seeded_corpus_places_at_least_as_many_as_newton(self):
        # the damped-Newton solver placed 8550 of these 9000 side sets within tol
        rng = np.random.default_rng(27)

        def draw(lo=1e-3, hi=1.0):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        placed = 0
        for K in (0.01, -0.01, 0.1, -0.1, 0.5, -0.5, 1.5, -2.0, 3.0):
            count = 0
            while count < 1000:
                t_yx, t_xz1, t_xz2 = draw(), draw(), draw()
                sides = (t_yx, t_yx + t_xz1 + draw(1e-9), t_yx + t_xz2 + draw(1e-9),
                         t_xz1, t_xz2)
                if max(sides) > 1.0 or max(sides) >= diameter_bound(K):
                    continue
                count += 1
                try:
                    comparison_config(K, sides)
                except DomainError:
                    continue
                placed += 1
        assert placed >= 8550

    def test_unrealizable_short_side(self):
        with pytest.raises(Unrealizable):
            comparison_config(0.0, (1.0, 0.5, 2.0, 0.4, 1.0))  # tau_yz1 < tau_yx

    def test_unrealizable_triangle_violation(self):
        with pytest.raises(Unrealizable):
            comparison_config(0.0, (1.0, 1.2, 2.5, 1.0, 1.4))  # 1.2 < 1 + 1


def _outcome(call):
    """The result of `call`, or the record of the domain error it raises."""
    try:
        return call()
    except DomainError as exc:
        return exc.record()


def _last_inside(inside, lo, hi):
    """The last float from `lo` towards `hi` where `inside` holds, for an
    `inside` that holds at lo, fails at hi and switches once between them."""
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def near_collinear_sides(rng, count):
    """Side sets whose x-sides are null, or within a random gap of collinear,
    down to 1e-15, inside the 1e-12 bands; a tenth of the gaps are unrealizable."""
    corpus = []
    for _ in range(count):
        a = rng.uniform(0.1, 1.0)
        yz, xz = [], []
        for _ in range(2):
            d = rng.uniform(0.0, 1.0)
            gap = abs(rng.normal(0.0, 1e-3)) * 10.0 ** -rng.uniform(0, 12)
            u = rng.random()
            yz.append(a + d)
            xz.append(0.0 if u < 0.1 else max(d - gap, 0.0) if u < 0.9 else d + gap)
        corpus.append((a, *yz, *xz))
    return corpus


def _placed(K, sides):
    """("placed", residual) or (error code, None) for `comparison_config(K, sides)`."""
    try:
        return "placed", comparison_config(K, sides).residual
    except DomainError as exc:
        return exc.code, None


class TestScaleFree:
    """Scaling every side by 2^k and K by 4^-k maps L2(K) onto itself and is
    exact in floating point, so every outcome must be the same and every
    residual and slack exactly 2^k times the unit-scale one."""

    def test_comparison_config_is_dyadic(self):
        corpus = near_collinear_sides(np.random.default_rng(31), 400)
        for K in (0.0, -1.0, 0.25):
            for sides in corpus:
                kind, residual = _placed(K, sides)
                for k in (-30, -10, 10, 20, 30):
                    f = 2.0 ** k
                    scaled = _placed(K / 4.0 ** k, tuple(f * v for v in sides))
                    assert scaled == (kind, None if residual is None else f * residual), \
                        (K, k, sides)

    def test_scan_is_dyadic(self):
        gen = ProductGenerator(fiber=circle_fiber(8), cone_scale=1.0, t_range=(0.0, 2.0))
        sp = sample_spacetime(gen, SamplePlan(time_step=0.1, seed=4)).space
        assert sp.n == 168
        for K in (0.0, -1.0, 0.25):
            unit = curvature_bound_scan(sp, K, 2000, 0)
            for k in (-30, 20, 30):
                f = 2.0 ** k
                scaled = build_space(sp.labels, f * sp.ell, tol=f * sp.tol)
                out = curvature_bound_scan(scaled, K / 4.0 ** k, 2000, 0, tol=f * 1e-9)
                assert out == {"tested": unit["tested"],
                               "violations": [{"points": v["points"], "slack": f * v["slack"]}
                                              for v in unit["violations"]]}, (K, k)

    @pytest.mark.parametrize("K", [0.0, -1.0, 0.25])
    def test_collinear_band_from_both_sides(self, K):
        # |t_yz - (t_yx + t_xz)| <= 1e-12 t_yz places z on the axis; one ulp
        # beyond it z leaves the axis above, and the sides are unrealizable below
        a, w = 0.375, 0.125
        upper = _last_inside(lambda t: t - (a + w) <= 1e-12 * t, a + w, 1.0)
        lower = _last_inside(lambda t: (a + w) - t <= 1e-12 * t, a + w, a)

        def v(t_yz):
            return comparison_config(K, (a, t_yz, t_yz, w, w)).z1.coords[1]
        assert v(upper) == 0.0 and v(lower) == 0.0
        assert v(math.nextafter(upper, 1.0)) > 0.0
        with pytest.raises(Unrealizable, match="reverse triangle"):
            v(math.nextafter(lower, a))


@st.composite
def past_configurations(draw):
    """A jittered product sample and a past four-point configuration (y, x, z1, z2)
    of it: x << y, z1 << x and z2 <= z1."""
    fiber = draw(st.sampled_from([circle_fiber, segment_fiber]))(
        draw(st.integers(1, 4)), draw(st.floats(0.2, 2.0)))
    gen = ProductGenerator(fiber=fiber, cone_scale=draw(st.floats(0.5, 2.0)), t_range=(0.0, 3.0))
    space = sample_spacetime(gen, SamplePlan(time_step=0.5, seed=draw(st.integers(0, 999)))).space
    chron, causal = space.chron, space.causal
    has_past = chron.any(axis=0)
    ys = np.flatnonzero((chron & has_past[:, None]).any(axis=0))
    y = draw(st.sampled_from(ys.tolist()))
    x = draw(st.sampled_from(np.flatnonzero(chron[:, y] & has_past).tolist()))
    z1 = draw(st.sampled_from(np.flatnonzero(chron[:, x]).tolist()))
    z2 = draw(st.sampled_from(np.flatnonzero(causal[:, z1]).tolist()))
    return space, (y, x, z1, z2)


class TestFourPoint:
    def test_collinear_zero_slack(self):
        s = minkowski_sample()
        cfg = FourPointConfig(kind="future",
                              points=(s.index_of((0.0, 0)), s.index_of((0.25, 0)),
                                      s.index_of((0.5, 0)), s.index_of((0.75, 0))))
        out = four_point_check(s.space, cfg, 0.0)
        assert out["holds"] and abs(out["slack"]) <= 1e-10

    def test_past_kind_mirrors(self):
        s = minkowski_sample()
        cfg = FourPointConfig(kind="past",
                              points=(s.index_of((0.75, 0)), s.index_of((0.5, 0)),
                                      s.index_of((0.25, 0)), s.index_of((0.0, 0))))
        out = four_point_check(s.space, cfg, 0.0)
        assert out["holds"] and abs(out["slack"]) <= 1e-10

    @settings(max_examples=60)
    @given(st.data())
    def test_past_is_future_of_time_reversal(self, data):
        """A past configuration checks as the same points' future configuration
        in the space with ell transposed, error records included."""
        space, points = data.draw(past_configurations())
        K = data.draw(st.sampled_from([0.0, 0.5, -0.5, 3.0]) | st.floats(-4.0, 4.0))
        reversed_space = FiniteLorentzSpace(space.labels, space.ell.T, space.tol)
        assert _outcome(lambda: four_point_check(space, FourPointConfig("past", points), K)) == \
            _outcome(lambda: four_point_check(reversed_space, FourPointConfig("future", points), K))

    def test_relabel_invariance_when_both_orders_admissible(self):
        # z1 = z2 satisfies both orders; slack must agree
        s = minkowski_sample()
        y, x = s.index_of((0.0, 0)), s.index_of((0.5, 0))
        z = s.index_of((1.0, 0))
        a = four_point_check(s.space, FourPointConfig("future", (y, x, z, z)), 0.0)
        b = four_point_check(s.space, FourPointConfig("future", (y, x, z, z)), 0.0)
        assert a["slack"] == b["slack"]

    def test_minkowski_scan_holds_at_zero(self):
        s = minkowski_sample()
        out = curvature_bound_scan(s.space, 0.0, budget=400, seed=7)
        assert out["tested"] == 400 and out["violations"] == []

    def test_positive_bound_violated_by_flat(self):
        s = minkowski_sample()
        out = curvature_bound_scan(s.space, 0.5, budget=1500, seed=7)
        assert len(out["violations"]) >= 1
        assert min(v["slack"] for v in out["violations"]) < -1e-6  # genuinely negative

    def test_negative_bound_holds_for_flat(self):
        s = minkowski_sample()
        out = curvature_bound_scan(s.space, -0.5, budget=400, seed=7)
        assert out["violations"] == []

    @pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
    def test_non_finite_K_rejected(self, K):
        s = minkowski_sample()
        cfg = FourPointConfig("future", (s.index_of((0.0, 0)), s.index_of((0.25, 0)),
                                         s.index_of((0.5, 0)), s.index_of((0.75, 0))))
        for call in (lambda: curvature_bound_scan(s.space, K, budget=10, seed=0),
                     lambda: four_point_check(s.space, cfg, K),
                     lambda: comparison_config(K, (1, 2, 3, 1, 2))):
            with pytest.raises(ShapeMismatch, match="K must be finite"):
                call()

    def test_negative_budget_rejected(self):
        s = minkowski_sample()
        with pytest.raises(ShapeMismatch, match="budget"):
            curvature_bound_scan(s.space, 0.0, budget=-5, seed=0)
        assert curvature_bound_scan(s.space, 0.0, budget=0, seed=0) == \
            {"violations": [], "tested": 0}

    def test_no_timelike_pair_tested_zero(self):
        s = build_space(["a", "b"], [[0, NI], [NI, 0]])
        out = curvature_bound_scan(s, 0.0, budget=100, seed=1)
        assert out == {"violations": [], "tested": 0}

    def test_targeted_injection_detected(self):
        broken, cfg = planted_violation_space()
        out = four_point_check(broken, FourPointConfig("future", cfg), 0.0)
        assert not out["holds"]

    def test_integers_draw_the_choice_stream(self):
        # the scan draws a[rng.integers(a.size)], which must consume the same
        # stream and pick the same entries as rng.choice(a)
        sizes = np.random.default_rng(5).integers(1, 5000, size=2000)
        a_rng, b_rng = np.random.default_rng(11), np.random.default_rng(11)
        for size in sizes.tolist():
            a = np.arange(size) * 3
            assert int(a_rng.choice(a)) == int(a[b_rng.integers(a.size)])

    @settings(max_examples=60)
    @given(space=st.sampled_from(sorted(SCAN_SPACES)),
           K=st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0, 0.05]),
           budget=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_scan_matches_reference(self, space, K, budget, seed):
        # same tested count, same points, bit-identical slacks
        sp = scan_space(space)
        assert curvature_bound_scan(sp, K, budget, seed) == reference_scan(sp, K, budget, seed)

    def test_planted_space_file(self):
        broken, _ = planted_violation_space()
        data = json.loads((Path(__file__).parent / "data" / "planted_space.json").read_text())
        back = build_space(data["labels"], data["ell"])
        assert back.labels == broken.labels
        assert back.ell.tobytes() == broken.ell.tobytes()


class TestVerdictFromBothSides:
    """A configuration with slack s < 0 holds at tol = -s and fails one ulp
    below it, in `four_point_check` and in the scan's violation count."""

    def test_planted_configuration(self):
        broken, cfg = planted_violation_space()
        config = FourPointConfig("future", cfg)
        s = four_point_check(broken, config, 0.0, tol=0.0)["slack"]
        assert s < 0
        assert four_point_check(broken, config, 0.0, tol=-s)["holds"]
        assert not four_point_check(broken, config, 0.0, tol=math.nextafter(-s, 0.0))["holds"]

    def test_scan_count(self):
        broken, _ = planted_violation_space()
        worst = min(v["slack"] for v in curvature_bound_scan(broken, 0.0, 300, 5, tol=0.0)
                    ["violations"])
        assert worst < 0
        assert curvature_bound_scan(broken, 0.0, 300, 5, tol=-worst)["violations"] == []
        out = curvature_bound_scan(broken, 0.0, 300, 5, tol=math.nextafter(-worst, 0.0))
        assert out["violations"] and {v["slack"] for v in out["violations"]} == {worst}


class TestPinnedPlacement:
    """The closed-form placement reproduces the recorded Newton results."""

    def test_scans_match_recorded(self):
        s = minkowski_sample()
        for pin in PINS["scans"]:
            out = curvature_bound_scan(s.space, pin["K"], budget=1500, seed=pin["seed"],
                                       tol=1e-9)
            assert out["tested"] == pin["tested"]
            assert [list(v["points"]) for v in out["violations"]] == \
                [p for p, _ in pin["violations"]]
            for v, (_, slack) in zip(out["violations"], pin["violations"]):
                assert abs(v["slack"] - slack) <= 1e-9

    def test_slacks_match_recorded(self):
        s = minkowski_sample()
        for pin in PINS["configs"]:
            cfg = FourPointConfig("future", tuple(pin["points"]))
            for K in (0.5, -0.5):
                assert abs(four_point_check(s.space, cfg, K)["slack"] - pin[str(K)]) <= 1e-9


class TestStabilityExperiment:
    def test_family_stability_along_n(self):
        # Y_n products for n = 10, 100, inf all satisfy the K = 0 bound
        for n in (10, 100, "inf"):
            gen = product_family(circle_fiber(6, radius=0.4), n, t_range=(0.0, 2.0))
            s = sample_spacetime(gen, SamplePlan(time_step=0.25), t_window=(0.0, 1.5))
            out = curvature_bound_scan(s.space, 0.0, budget=250, seed=3)
            assert out["violations"] == []
