import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzgh import (ProductGenerator, SamplePlan, SampledSpace, build_fiber, circle_fiber,
                       cone_dominates, grid_net_product, product_ell, product_family,
                       sample_spacetime, segment_fiber, slab_net, uncovered_samples,
                       verify_net, embed_net)
from lorentzgh.errors import (AxiomViolation, EmptyPlan, EpsilonTooLarge,
                              NotAFiberNet, ShapeMismatch, UnsupportedMetricFamily)
from lorentzgh.extended import NEG_INF as NI
from lorentzgh.geometry import (_NULL_SNAP, FiniteMetricFiber, GridNet, _ell_matrix,
                                net_vertex_points)
from lorentzgh import build_space, causality_class


class TestFiber:
    def test_metric_axioms_enforced(self):
        with pytest.raises(AxiomViolation):
            build_fiber(["a", "b", "c"],
                        [[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle fails

    def test_symmetry_enforced(self):
        with pytest.raises(AxiomViolation):
            build_fiber(["a", "b"], [[0, 1], [2, 0]])

    @staticmethod
    def first_triangle_violation(d, tol=1e-9):
        """Reference: the single (n, n, n) broadcast build_fiber used before chunking."""
        tri = d[:, :, None] + d[None, :, :] < d[:, None, :] - tol
        return tuple(int(v) for v in np.argwhere(tri)[0]) if tri.any() else None

    @pytest.mark.parametrize("row", [0, 100, 158])
    def test_triangle_witness_matches_unchunked_scan(self, row):
        # 160 points scan in chunks of 9 rows; stretching one edge past twice
        # the spacing breaks the triangle first in `row`
        xs = np.linspace(0.0, 1.0, 160)
        d = np.abs(xs[:, None] - xs[None, :])
        d[row, row + 1] = d[row + 1, row] = 3.5 * xs[1]
        with pytest.raises(AxiomViolation) as exc:
            build_fiber([f"s{i}" for i in range(160)], d)
        assert exc.value.kind == "triangle"
        assert exc.value.witness == self.first_triangle_violation(d)
        assert exc.value.witness[0] == row

    def test_triangle_scan_is_chunked(self):
        import tracemalloc
        circle = circle_fiber(300)
        tracemalloc.start()
        try:
            build_fiber(circle.labels, circle.d)  # one (n, n, n) float broadcast is 206 MiB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # one chunk of 250k floats is 2 MiB

    def test_circle_distances(self):
        f = circle_fiber(8)
        assert f.d[0, 4] == pytest.approx(math.pi)
        assert f.d[0, 1] == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("make", [circle_fiber, segment_fiber])
    def test_closed_form_fiber_needs_a_point(self, make, n):
        with pytest.raises(ShapeMismatch, match="at least one point"):
            make(n)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("make, size", [(circle_fiber, 0.37), (segment_fiber, 2.5)])
    def test_closed_forms_pass_the_full_check(self, make, size, n):
        # the closed forms skip the triangle scan; it must still accept them
        f = make(n, size)
        checked = build_fiber(f.labels, f.d)
        assert checked.labels == f.labels
        assert checked.d.tobytes() == f.d.tobytes()
        assert not f.d.flags.writeable

    def test_closed_forms_skip_the_triangle_scan(self, monkeypatch):
        import lorentzgh.geometry as geometry

        def no_scan(*args):
            raise AssertionError("triangle scan ran")

        monkeypatch.setattr(geometry, "_dense_witness", no_scan)
        assert circle_fiber(64, 0.37).n == 64
        assert segment_fiber(64, 2.5).n == 64
        with pytest.raises(AssertionError, match="triangle scan ran"):
            circle_fiber(4).scaled(2.0)  # scaled fibers are still checked in full

    @pytest.mark.parametrize("make, size", [(circle_fiber, -1.0), (segment_fiber, math.nan)])
    def test_closed_forms_check_their_entries(self, make, size):
        with pytest.raises(AxiomViolation) as exc:
            make(5, size)
        assert exc.value.kind == "codomain"

    def test_constructor_freezes_d(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = FiniteMetricFiber(["a", "b"], d)
        assert f.d is d and not d.flags.writeable and f.labels == ("a", "b")
        with pytest.raises(ValueError):
            f.d[0, 1] = 2.0
        assert f == build_fiber(["a", "b"], [[0, 1], [1, 0]]) and hash(f) == hash(f.labels)

    def test_value_equality_and_hash(self):
        a, b = circle_fiber(6, 0.3), circle_fiber(6, 0.3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.scaled(1.1)
        assert a != build_fiber([f"t{i}" for i in range(6)], a.d)
        assert a != segment_fiber(6, 0.3) and a != "s0"
        gen = ProductGenerator(fiber=a, cone_scale=1.0, t_range=(0.0, 1.0))
        same = ProductGenerator(fiber=b, cone_scale=1.0, t_range=(0.0, 1.0))
        assert gen == same and hash(gen) == hash(same) and len({gen, same}) == 1
        for other in (ProductGenerator(fiber=a.scaled(1.1), cone_scale=1.0, t_range=(0.0, 1.0)),
                      ProductGenerator(fiber=a, cone_scale=2.0, t_range=(0.0, 1.0)),
                      ProductGenerator(fiber=a, cone_scale=1.0, t_range=(0.0, 2.0)),
                      product_family(a, 1, t_range=(0.0, 1.0))):
            assert gen != other
        member = product_family(a, 1, (0.0, 1.0))
        explicit = ProductGenerator(fiber=a, cone_scale=2.0, t_range=(0.0, 1.0))
        assert member == explicit and hash(member) == hash(explicit)  # a family member is plain


class TestProductTau:
    def setup_method(self):
        self.gen = ProductGenerator(fiber=segment_fiber(2, 3.0), cone_scale=1.0,
                                    t_range=(0.0, 6.0))

    def test_pure_time(self):
        assert product_ell(self.gen, (0.0, 0), (1.0, 0)) == 1.0
        g3 = ProductGenerator(fiber=segment_fiber(2, 3.0), cone_scale=2.5,
                              t_range=(0.0, 6.0))
        assert product_ell(g3, (0.0, 0), (1.0, 0)) == 2.5

    def test_null_boundary(self):
        g = ProductGenerator(fiber=segment_fiber(2, 2.0), cone_scale=1.0,
                             t_range=(0.0, 6.0))
        assert product_ell(g, (0.0, 0), (2.0, 1)) == 0.0  # causal, not chronological

    def test_timelike_value(self):
        assert product_ell(self.gen, (0.0, 0), (5.0, 1)) == pytest.approx(4.0)

    def test_spacelike_and_past(self):
        assert product_ell(self.gen, (0.0, 0), (1.0, 1)) == NI
        assert product_ell(self.gen, (1.0, 0), (0.0, 0)) == NI


def _ell_matrix_reference(gen, points):
    """`_ell_matrix` as a sequence of fresh temporaries: the bit-for-bit reference."""
    ts = np.array([p[0] for p in points])
    sites = np.array([p[1] for p in points], dtype=int)
    dt = ts[None, :] - ts[:, None]
    d = gen.fiber.d[np.ix_(sites, sites)]
    c = gen.cone_scale
    margin = c * dt - d
    scale = _NULL_SNAP * np.maximum(c * np.abs(dt), d)
    causal = (dt >= 0) & (margin >= -scale)
    val = np.sqrt(np.maximum(c * c * dt * dt - d * d, 0.0))
    val[(dt >= 0) & (np.abs(margin) <= scale)] = 0.0
    return np.where(causal, val, NI)


@st.composite
def ell_matrix_inputs(draw):
    """A product generator and sample points; grid times one fiber spacing over
    C apart put many pairs on the null boundary."""
    n = draw(st.integers(1, 6))
    size = draw(st.floats(0.1, 3.0))
    fiber = draw(st.sampled_from([circle_fiber, segment_fiber]))(n, size)
    c = draw(st.floats(0.2, 3.0) | st.integers(1, 12).map(lambda k: 1.0 + 1.0 / k)
             | st.just(1.0))
    gen = ProductGenerator(fiber=fiber, cone_scale=c, t_range=(-4.0, 4.0))
    step = (fiber.d[0, 1] if n > 1 else size) / c
    time = (st.integers(-6, 6).map(lambda k: k * step) | st.floats(-4.0, 4.0)
            | st.integers(-3, 3))
    points = draw(st.lists(st.tuples(time, st.integers(0, n - 1)), max_size=24))
    return gen, points


@settings(max_examples=200)
@given(ell_matrix_inputs())
def test_ell_matrix_matches_reference_bits(inputs):
    gen, points = inputs
    got, want = _ell_matrix(gen, points), _ell_matrix_reference(gen, points)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200)
@given(ell_matrix_inputs())
def test_ell_matrix_is_product_ell_bit_for_bit(inputs):
    # the matrix kernel and the scalar formula are one rule: a change to
    # either must be made to both
    gen, points = inputs
    scalar = np.array([[product_ell(gen, p, q) for q in points] for p in points],
                      dtype=float).reshape(len(points), len(points))
    assert _ell_matrix(gen, points).tobytes() == scalar.tobytes()


def test_one_home_per_value():
    # C lives in cone_scale alone, and a sample does not keep its generator
    assert [f.name for f in fields(ProductGenerator)] == ["fiber", "cone_scale", "t_range"]
    assert [f.name for f in fields(SampledSpace)] == ["space", "points"]
    with pytest.raises(TypeError, match="family_index"):
        ProductGenerator(circle_fiber(4), 2.0, (0.0, 1.0), family_index=3)


class TestSampling:
    def test_two_point_chain(self):
        gen = ProductGenerator(fiber=segment_fiber(1, 1.0), cone_scale=1.5,
                               t_range=(0.0, 1.0))
        s = sample_spacetime(gen, SamplePlan(time_step=1.0))
        assert s.space.n == 2
        assert s.space.ell[0, 1] == 1.5

    def test_slab_40_points_validates(self):
        gen = product_family(circle_fiber(8), "inf", t_range=(-1.0, 1.0))
        s = sample_spacetime(gen, SamplePlan(time_step=1 / 8), t_window=(0.0, 0.5))
        assert s.space.n == 40  # validation ran inside build_space

    def test_nested_grids_embed(self):
        gen = ProductGenerator(fiber=segment_fiber(2, 0.5), cone_scale=1.0,
                               t_range=(0.0, 1.0))
        coarse = sample_spacetime(gen, SamplePlan(time_step=0.5))
        fine = sample_spacetime(gen, SamplePlan(time_step=0.25))
        idx = [fine.index_of(p) for p in coarse.points]
        sub = fine.space.ell[np.ix_(idx, idx)]
        assert (sub == coarse.space.ell).all()

    @pytest.mark.parametrize("point", [(0.1, 0), (0.5, 5)])
    def test_index_of_missing_point_named(self, point):
        gen = ProductGenerator(fiber=segment_fiber(2, 0.5), cone_scale=1.0,
                               t_range=(0.0, 1.0))
        s = sample_spacetime(gen, SamplePlan(time_step=0.5))
        with pytest.raises(ShapeMismatch, match=re.escape(f"no sample point at {point}")):
            s.index_of(point)

    def test_empty_plan(self):
        gen = ProductGenerator(fiber=segment_fiber(1, 1.0), cone_scale=1.0,
                               t_range=(0.0, 1.0))
        with pytest.raises(EmptyPlan):
            sample_spacetime(gen, SamplePlan(time_step=0.5, fiber_sites=()))

    @pytest.mark.parametrize("sites", [(0, 8), (-1,)])
    def test_sites_outside_fiber(self, sites):
        gen = product_family(circle_fiber(8), "inf", t_range=(0.0, 1.0))
        bad = [v for v in sites if not 0 <= v < 8]
        with pytest.raises(ShapeMismatch, match=re.escape(f"fiber sites {bad} outside range(8)")):
            sample_spacetime(gen, SamplePlan(time_step=0.5, fiber_sites=sites))

    def test_sites_keep_given_order(self):
        gen = product_family(circle_fiber(8), "inf", t_range=(0.0, 1.0))
        s = sample_spacetime(gen, SamplePlan(time_step=1.0, fiber_sites=(5, 2)))
        assert [i for _, i in s.points] == [5, 2, 5, 2]

    def test_jitter_seeded_and_valid(self):
        gen = ProductGenerator(fiber=segment_fiber(2, 0.4), cone_scale=1.0,
                               t_range=(0.0, 2.0))
        a = sample_spacetime(gen, SamplePlan(time_step=0.25, seed=5))
        b = sample_spacetime(gen, SamplePlan(time_step=0.25, seed=5))
        assert a.points == b.points
        c = sample_spacetime(gen, SamplePlan(time_step=0.25, seed=6))
        assert a.points != c.points


class TestConeNesting:
    def test_family_monotone_in_n(self, rng):
        fiber = circle_fiber(5)
        pts = [(float(t), int(s)) for t in rng.uniform(-1, 1, 6)
               for s in rng.integers(0, 5, 1)]
        gens = [product_family(fiber, n, t_range=(-1.0, 1.0)) for n in (3, 7, "inf")]
        for p in pts:
            for q in pts:
                vals = [product_ell(g, p, q) for g in gens]
                # ell_{n+1} <= ell_n and ell_inf <= ell_n; causal sets nested
                assert vals[2] <= vals[1] + 1e-12 or (vals[2] == NI)
                if vals[1] != NI:
                    assert vals[1] <= vals[0] + 1e-12
                if vals[2] != NI:
                    assert vals[1] != NI and vals[0] != NI


class TestGridNet:
    def setup_method(self):
        self.gen = product_family(circle_fiber(8), "inf", t_range=(0.0, 3.0))

    def test_epsilon_too_large(self):
        with pytest.raises(EpsilonTooLarge):
            grid_net_product(self.gen, 1.0, 2.0, 1.5, range(8))

    def test_not_a_fiber_net(self):
        with pytest.raises(NotAFiberNet) as exc:
            grid_net_product(self.gen, 1.0, 2.0, 1.0, [0])  # lone site too sparse
        assert exc.value.witness is not None

    @pytest.mark.parametrize("fiber_net", [[0, 8], [-1]])
    def test_fiber_net_outside_fiber(self, fiber_net):
        bad = [v for v in fiber_net if not 0 <= v < 8]
        with pytest.raises(ShapeMismatch, match=re.escape(f"fiber net {bad} outside range(8)")):
            grid_net_product(self.gen, 1.0, 2.0, 1.0, fiber_net)

    def test_diamonds_have_exact_tau(self):
        grid = grid_net_product(self.gen, 1.0, 2.0, 1.0, range(8))
        for a, b in grid.pairs:
            tau = product_ell(self.gen, grid.vertex_points[a], grid.vertex_points[b])
            assert tau == pytest.approx(grid.epsilon, abs=1e-12)

    def test_covers_dense_sample(self):
        rng = np.random.default_rng(0)
        grid = grid_net_product(self.gen, 1.0, 2.0, 0.5, range(8))
        pts = [(float(t), int(s)) for t, s in zip(rng.uniform(1, 2, 2000),
                                                  rng.integers(0, 8, 2000))]
        assert uncovered_samples(self.gen, grid, pts) == []

    def test_cardinality_is_columns_times_sites(self):
        # the covering construction takes ceil(3 (t+ - t-) / eps) columns; the
        # source text's ceil((t+-t-)/(3 eps)) understates it (see ledger)
        for eps in (1.0, 0.5, 0.25):
            grid = grid_net_product(self.gen, 1.0, 2.0, eps, range(8))
            assert grid.columns == math.ceil(3 * 1.0 / eps)
            assert len(grid.pairs) == grid.columns * 8

    def test_scaled_cone_counts_against_scaled_radius(self):
        # C = 2 admits a (2 eps/3)-fiber net with the same column count
        gen2 = ProductGenerator(fiber=circle_fiber(8, radius=0.8), cone_scale=2.0,
                                t_range=(0.0, 3.0))
        eps = 1.0
        # alternating sites have covering radius 2*pi*0.8/8 = 0.628 < 2/3
        grid = grid_net_product(gen2, 1.0, 2.0, eps, [0, 2, 4, 6])
        assert grid.columns == math.ceil(3 * 1.0 / eps)
        assert grid.epsilon == pytest.approx(2.0)  # in-generator tau = C*eps
        rng = np.random.default_rng(1)
        pts = [(float(t), int(s)) for t, s in zip(rng.uniform(1, 2, 1500),
                                                  rng.integers(0, 8, 1500))]
        assert uncovered_samples(gen2, grid, pts) == []

    def test_embedded_net_verifies(self):
        grid = slab_net(self.gen, 0.5, 1.5, 0.5, range(8))
        sampled = sample_spacetime(self.gen, SamplePlan(time_step=0.25),
                                   t_window=(0.5, 1.5),
                                   extra_points=net_vertex_points(grid))
        net = embed_net(grid, sampled)
        subset = [k for k, p in enumerate(sampled.points) if 0.5 <= p[0] <= 1.5]
        assert verify_net(sampled.space, subset, net).ok

    def test_embed_net_resolves_a_merged_extra_point(self):
        # the extra vertex lies 6e-13 above t = 0.25: the sample merges it into
        # that grid point, and the net resolves it there as index_of does
        vertex = (0.2500000000006, 0)
        sampled = sample_spacetime(product_family(circle_fiber(4), "inf"), SamplePlan(0.25),
                                   t_window=(0, 0.5), extra_points=[vertex])
        assert len(sampled.points) == 12
        grid = GridNet(vertex_points=((0.0, 0), vertex), pairs=((0, 1),), epsilon=0.25,
                       columns=1)
        net = embed_net(grid, sampled)
        assert net.pairs == ((sampled.index_of((0.0, 0)), sampled.index_of((0.25, 0))),)
        assert sampled.index_of(vertex) == sampled.index_of((0.25, 0))


class TestConeDominates:
    def test_equality_family(self):
        out = cone_dominates(1.0, 1.0, 1.0)
        assert out["holds"] and out["certificate"] == "analytic"

    def test_narrow_fine_cones_witnessed(self):
        out = cone_dominates(1.0, 1.0, 2.0)
        assert not out["holds"] and out["witness"] == (0.0, 0, 1.0)

    def test_boundary_case_holds(self):
        out = cone_dominates(0.5, 0.25, 1.0)
        assert out["holds"] and out["certificate"] == "analytic"

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedMetricFamily):
            cone_dominates(1.0, 1.7, 1.0)


def test_sampled_spaces_always_validate(rng):
    # closed-form tau of a product satisfies the reverse triangle exhaustively
    for _ in range(10):
        c = float(rng.uniform(0.3, 2.5))
        fiber = circle_fiber(int(rng.integers(3, 7)), radius=float(rng.uniform(0.2, 1.5)))
        gen = ProductGenerator(fiber=fiber, cone_scale=c, t_range=(0.0, 2.0))
        s = sample_spacetime(gen, SamplePlan(time_step=0.4))
        assert causality_class(s.space) is not None
