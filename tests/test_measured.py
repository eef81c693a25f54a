import re

import pytest

from conftest import chain_space, random_causet_space
from lorentzgh import (DiamondNet, atomic_measure, dirac, greedy_net,
                       induce_net_measure, measured_limit_builder, pushforward,
                       uniform_measure, weak_gap)
from lorentzgh.errors import (NetDoesNotCover, ShapeMismatch, SupportMismatch,
                              UnboundedWeights, UnmappedAtom)
from lorentzgh.measured import extract_limit


class TestInduce:
    def test_two_diamond_partition(self):
        # residual masses 0.6 / 0.4 split evenly onto vertices
        s = chain_space([0, 1, 2, 3])
        m = atomic_measure({0: 0.3, 1: 0.3, 2: 0.2, 3: 0.2})
        net = DiamondNet(pairs=((0, 1), (0, 3)), epsilon=3.0)
        out = induce_net_measure(s, m, range(4), net)
        w = out.induced.as_dict()
        assert out.residual_masses == (0.6, 0.4)
        assert w[0] == pytest.approx(0.3 + 0.2)
        assert w[1] == pytest.approx(0.3)
        assert w[3] == pytest.approx(0.2)

    def test_single_diamond_half_half(self):
        s = chain_space([0, 1, 2])
        m = uniform_measure(s, total=1.0)
        net = DiamondNet(pairs=((0, 2),), epsilon=2.0)
        out = induce_net_measure(s, m, range(3), net)
        assert out.induced.as_dict() == {0: pytest.approx(0.5), 2: pytest.approx(0.5)}

    def test_mass_conserved_on_random_nets(self, rng):
        for _ in range(100):
            s = random_causet_space(rng)
            weights = {i: float(rng.uniform(0, 2)) for i in range(s.n)}
            m = atomic_measure(weights)
            net = greedy_net(s, range(s.n), float(rng.uniform(1, 4)))
            out = induce_net_measure(s, m, range(s.n), net)
            assert out.induced.total() == pytest.approx(m.total(), abs=1e-12)

    def test_reorder_changes_weights_not_total(self, rng):
        s = chain_space([0, 1, 2, 3])
        m = atomic_measure({i: 0.25 for i in range(4)})
        net = greedy_net(s, range(4), 2.0)
        for _ in range(5):
            perm = rng.permutation(len(net.pairs))
            reordered = DiamondNet(pairs=tuple(net.pairs[k] for k in perm),
                                   epsilon=net.epsilon)
            out = induce_net_measure(s, m, range(4), reordered)
            assert out.induced.total() == pytest.approx(1.0, abs=1e-12)

    def test_net_must_cover(self):
        s = chain_space([0, 1, 5])
        m = uniform_measure(s)
        with pytest.raises(NetDoesNotCover):
            induce_net_measure(s, m, range(3), DiamondNet(pairs=((0, 1),), epsilon=1.0))

    @pytest.mark.parametrize("pair", [(0, 3), (0, 7), (-1, 2), (-3, 0)])
    def test_vertex_outside_space_rejected(self, pair):
        s = chain_space([0, 1, 2])
        net = DiamondNet(pairs=((0, 2), pair), epsilon=2.0)
        bad = [v for v in pair if not 0 <= v < 3]
        with pytest.raises(ShapeMismatch, match=re.escape(f"net vertices {bad} outside range(3)")):
            induce_net_measure(s, uniform_measure(s), range(3), net)

    @pytest.mark.parametrize("subset", [[0, 3], [-1], [-1, 2]])
    def test_subset_outside_space_rejected(self, subset):
        s = chain_space([0, 1, 2])
        net = DiamondNet(pairs=((0, 2),), epsilon=2.0)
        bad = [v for v in subset if not 0 <= v < 3]
        with pytest.raises(ShapeMismatch, match=re.escape(f"subset {bad} outside range(3)")):
            induce_net_measure(s, uniform_measure(s), subset, net)

    def test_zero_atoms_dropped(self):
        s = chain_space([0, 1])
        m = dirac(0, 1.0)
        net = DiamondNet(pairs=((0, 0), (1, 1)), epsilon=1.0)
        out = induce_net_measure(s, m, range(2), net)
        assert 1 not in dict(out.induced.weights).keys() or out.induced.mass(1) > 0


class TestPushforward:
    def test_identity(self):
        m = atomic_measure({0: 0.5, 3: 0.5})
        assert pushforward({0: 0, 3: 3}, m).as_dict() == m.as_dict()

    def test_merging_atoms(self):
        m = atomic_measure({0: 0.5, 1: 0.25})
        out = pushforward({0: 2, 1: 2}, m)
        assert out.as_dict() == {2: pytest.approx(0.75)}

    def test_mass_exact(self, rng):
        for _ in range(50):
            weights = {i: float(rng.uniform(0, 1)) for i in range(6)}
            m = atomic_measure(weights)
            f = {i: int(rng.integers(0, 3)) for i in range(6)}
            assert pushforward(f, m).total() == pytest.approx(m.total(), abs=1e-12)

    def test_unmapped_atom(self):
        with pytest.raises(UnmappedAtom):
            pushforward({0: 1}, atomic_measure({0: 1.0, 2: 1.0}))


class TestWeakGap:
    def test_identical(self):
        m = atomic_measure({0: 1.0})
        assert weak_gap(m, m) == 0.0

    def test_single_atom_difference(self):
        a = atomic_measure({0: 1.0, 1: 0.5})
        b = atomic_measure({0: 1.0, 1: 0.6})
        assert weak_gap(a, b) == pytest.approx(0.1)

    def test_support_mismatch(self):
        a = atomic_measure({0: 1.0})
        b = atomic_measure({5: 1.0})
        with pytest.raises(SupportMismatch):
            weak_gap(a, b, support=[0, 1, 2])

    def test_gap_decreases_along_family(self):
        # pushforwards along finer family members approach the limit measure
        from lorentzgh import (SamplePlan, circle_fiber, product_family,
                               sample_spacetime, slab_net, embed_net)
        from lorentzgh.geometry import net_vertex_points
        fiber = circle_fiber(6)
        gaps = []
        for n in (10, 1000):
            gen = product_family(fiber, n, t_range=(-1.0, 1.0))
            grid = slab_net(gen, 0.0, 0.5, 0.5, range(6))
            sampled = sample_spacetime(gen, SamplePlan(time_step=0.25),
                                       t_window=(0.0, 0.5),
                                       extra_points=net_vertex_points(grid))
            net = embed_net(grid, sampled)
            m = uniform_measure(sampled.space)
            subset = range(sampled.space.n)
            mn = induce_net_measure(sampled.space, m, subset, net)
            geninf = product_family(fiber, "inf", t_range=(-1.0, 1.0))
            gridinf = slab_net(geninf, 0.0, 0.5, 0.5, range(6))
            sampledinf = sample_spacetime(geninf, SamplePlan(time_step=0.25),
                                          t_window=(0.0, 0.5),
                                          extra_points=net_vertex_points(gridinf))
            netinf = embed_net(gridinf, sampledinf)
            minf = induce_net_measure(sampledinf.space, uniform_measure(sampledinf.space),
                                      range(sampledinf.space.n), netinf)
            gaps.append(weak_gap(mn.induced, minf.induced))
        assert gaps[1] <= gaps[0]


class TestLimitBuilder:
    def test_constant_sequence(self):
        ms = [atomic_measure({0: 0.5, 1: 0.5}) for _ in range(6)]
        limit, log = measured_limit_builder({(0, 0): ms})
        assert limit.as_dict() == {0: 0.5, 1: 0.5}

    def test_alternating_extraction(self):
        # weights 1 + (-1)^n / n converge to 1 through a monotone subsequence
        ms = [atomic_measure({0: 1 + ((-1) ** n) / n}) for n in range(1, 40)]
        limit, log = measured_limit_builder({(0, 0): ms},
                                            member_indices=list(range(1, 40)))
        assert limit.mass(0) == pytest.approx(1.0, abs=1e-6)
        assert log["per_key"][(0, 0)][0]["kept"]

    def test_bound_check(self):
        ms = [atomic_measure({0: 10.0})]
        with pytest.raises(UnboundedWeights):
            measured_limit_builder({(1, 0): ms}, bounds={1: 2.0})

    def test_restriction_consistency_across_levels(self):
        # the level-k limit restricted to level-(k-1) atoms equals the
        # level-(k-1) extraction
        seq = {}
        ns = list(range(1, 30))
        seq[(0, 0)] = [atomic_measure({0: 1 + 1 / n}) for n in ns]
        seq[(1, 0)] = [atomic_measure({0: 1 + 1 / n, 1: 2 - 1 / n}) for n in ns]
        limit, log = measured_limit_builder(seq, member_indices=ns)
        assert limit.mass(0) == pytest.approx(1.0, abs=1e-9)
        assert limit.mass(1) == pytest.approx(2.0, abs=1e-9)

    def test_total_mass_within_bounds(self):
        ns = list(range(1, 20))
        ms = [atomic_measure({0: 0.6 + 0.1 / n, 1: 0.4 - 0.1 / n}) for n in ns]
        limit, _ = measured_limit_builder({(0, 0): ms}, bounds={0: 2.0},
                                          member_indices=ns)
        assert 0.5 <= limit.total() <= 2.0


def test_extract_limit_exact_on_constants():
    val, pos, spread = extract_limit([2.0] * 10, list(range(1, 11)))
    assert val == 2.0 and spread == 0.0
