import math
import re
import struct
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_space, random_causet_space
from lorentzgh import (DiamondNet, MeasuredNet, atomic_measure, greedy_net, induce_net_measure,
                       measured_limit_builder, pushforward, weak_gap)
from lorentzgh.errors import NetDoesNotCover, ShapeMismatch, UnboundedWeights, UnmappedAtom
from lorentzgh.extended import NEG_INF
from lorentzgh.measured import LIMIT_WINDOW, _refine, extract_limit


def uniform(space):
    """Unit mass spread evenly over the points of `space`."""
    return atomic_measure({i: 1.0 / space.n for i in range(space.n)})


class TestInduce:
    def test_result_keeps_only_what_the_net_induces(self):
        # the caller already holds the net it passed in
        assert [f.name for f in fields(MeasuredNet)] == ["induced", "residual_masses"]

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
        m = uniform(s)
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
        m = uniform(s)
        with pytest.raises(NetDoesNotCover):
            induce_net_measure(s, m, range(3), DiamondNet(pairs=((0, 1),), epsilon=1.0))

    @pytest.mark.parametrize("pair", [(0, 3), (0, 7), (-1, 2), (-3, 0)])
    def test_vertex_outside_space_rejected(self, pair):
        s = chain_space([0, 1, 2])
        net = DiamondNet(pairs=((0, 2), pair), epsilon=2.0)
        bad = [v for v in pair if not 0 <= v < 3]
        with pytest.raises(ShapeMismatch, match=re.escape(f"net vertices {bad} outside range(3)")):
            induce_net_measure(s, uniform(s), range(3), net)

    @pytest.mark.parametrize("subset", [[0, 3], [-1], [-1, 2]])
    def test_subset_outside_space_rejected(self, subset):
        s = chain_space([0, 1, 2])
        net = DiamondNet(pairs=((0, 2),), epsilon=2.0)
        bad = [v for v in subset if not 0 <= v < 3]
        with pytest.raises(ShapeMismatch, match=re.escape(f"subset {bad} outside range(3)")):
            induce_net_measure(s, uniform(s), subset, net)

    def test_zero_atoms_dropped(self):
        s = chain_space([0, 1])
        m = atomic_measure({0: 1.0})
        net = DiamondNet(pairs=((0, 0), (1, 1)), epsilon=1.0)
        out = induce_net_measure(s, m, range(2), net)
        assert 1 not in dict(out.induced.weights).keys() or out.induced.as_dict().get(1, 0.0) > 0


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
            m = uniform(sampled.space)
            subset = range(sampled.space.n)
            mn = induce_net_measure(sampled.space, m, subset, net)
            geninf = product_family(fiber, "inf", t_range=(-1.0, 1.0))
            gridinf = slab_net(geninf, 0.0, 0.5, 0.5, range(6))
            sampledinf = sample_spacetime(geninf, SamplePlan(time_step=0.25),
                                          t_window=(0.0, 0.5),
                                          extra_points=net_vertex_points(gridinf))
            netinf = embed_net(gridinf, sampledinf)
            minf = induce_net_measure(sampledinf.space, uniform(sampledinf.space),
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
        assert limit.as_dict().get(0, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert log["per_key"][(0, 0)][0]["kept"]

    def test_bound_check(self):
        ms = [atomic_measure({0: 10.0})]
        with pytest.raises(UnboundedWeights):
            measured_limit_builder({(1, 0): ms}, bounds={1: 2.0})

    def test_bounds_apply_only_to_their_levels(self):
        # C_0 = 2 bounds level 0; level 1, with mass 10 and no bound, is not checked
        seq = {(0, 0): [atomic_measure({0: 1.0})] * 3, (1, 0): [atomic_measure({0: 10.0})] * 3}
        limit, _ = measured_limit_builder(seq, bounds={0: 2.0})
        assert limit.as_dict() == {0: 1.0}
        with pytest.raises(UnboundedWeights):
            measured_limit_builder(seq, bounds={0: 2.0, 1: 2.0})

    def test_restriction_consistency_across_levels(self):
        # the level-k limit restricted to level-(k-1) atoms equals the
        # level-(k-1) extraction
        seq = {}
        ns = list(range(1, 30))
        seq[(0, 0)] = [atomic_measure({0: 1 + 1 / n}) for n in ns]
        seq[(1, 0)] = [atomic_measure({0: 1 + 1 / n, 1: 2 - 1 / n}) for n in ns]
        limit, log = measured_limit_builder(seq, member_indices=ns)
        assert limit.as_dict().get(0, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert limit.as_dict().get(1, 0.0) == pytest.approx(2.0, abs=1e-9)

    def test_total_mass_within_bounds(self):
        ns = list(range(1, 20))
        ms = [atomic_measure({0: 0.6 + 0.1 / n, 1: 0.4 - 0.1 / n}) for n in ns]
        limit, _ = measured_limit_builder({(0, 0): ms}, bounds={0: 2.0},
                                          member_indices=ns)
        assert 0.5 <= limit.total() <= 2.0


def test_extract_limit_exact_on_constants():
    val, pos, spread = extract_limit([2.0] * 10, list(range(1, 11)))
    assert val == 2.0 and spread == 0.0


def reference_entry_extraction(series, positions, member_indices):
    """The extraction `limits._entry_limit` ran before the diagonal step was
    shared, without its NonCauchy policy: refines `positions`, returns
    (value, spread)."""
    tail_vals = [series[p] for p in positions[-LIMIT_WINDOW:]]
    if all(v == NEG_INF for v in tail_vals):
        positions[:] = [p for p in positions if series[p] == NEG_INF]
        return NEG_INF, 0.0
    if all(v > NEG_INF for v in tail_vals):
        positions[:] = [p for p in positions if series[p] > NEG_INF]
        vals = [series[p] for p in positions]
        idx = [member_indices[p] for p in positions] if member_indices is not None else None
        value, kept_rel, spread = extract_limit(vals, idx)
        positions[:] = [positions[i] for i in kept_rel]
        return value, spread
    return tail_vals[-1], math.inf


def reference_measured_loop(sequence, member_indices):
    """The per-atom loop of `measured_limit_builder` before it ran the shared
    diagonal step (restart branch dropped: equal lengths never reach it)."""
    log = {"per_key": {}}
    limit_weights = {}
    current_positions = None
    for key in sorted(sequence):
        measures = list(sequence[key])
        if current_positions is None:
            current_positions = list(range(len(measures)))
        key_log = {}
        for atom in sorted({i for m in measures for i, _ in m.weights}):
            series = [measures[p].as_dict().get(atom, 0.0) for p in current_positions]
            idx = None if member_indices is None else [member_indices[p] for p in current_positions]
            limit, kept, spread = extract_limit(series, idx)
            current_positions = [current_positions[k] for k in kept]
            key_log[atom] = {"limit": limit, "kept": list(current_positions), "spread": spread}
            limit_weights.setdefault(atom, limit)
        log["per_key"][key] = key_log
    log["final_subsequence"] = (current_positions if member_indices is None
                                else [member_indices[p] for p in current_positions])
    return atomic_measure(limit_weights), log


def _bits(x):
    return struct.pack("<d", x)


FINITE = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 10.0)
VALUE = st.just(NEG_INF) | FINITE


@st.composite
def refine_inputs(draw):
    """A member series, a shared subsequence and optional member indices;
    the tail (last LIMIT_WINDOW positions) is all -inf, all finite or mixed."""
    n = draw(st.integers(1, 30))
    positions = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    series = [draw(VALUE) for _ in range(n)]
    tail = positions[-LIMIT_WINDOW:]
    kind = draw(st.sampled_from(["-inf", "finite", "mixed"]))
    for p in tail:
        series[p] = NEG_INF if kind == "-inf" else draw(FINITE) if kind == "finite" else series[p]
    if kind == "mixed" and len(tail) >= 2:
        series[tail[0]], series[tail[-1]] = draw(st.permutations([NEG_INF, draw(FINITE)]))
    member_indices = draw(st.none() | st.lists(st.integers(0, 50), min_size=n, max_size=n)
                          | st.just(list(range(1, n + 1))))
    return series, positions, member_indices


class TestDiagonalStep:
    @settings(max_examples=300)
    @given(refine_inputs())
    def test_matches_entry_extraction_bit_for_bit(self, case):
        series, positions, member_indices = case
        want_positions = list(positions)
        want = reference_entry_extraction(series, want_positions, member_indices)
        got = _refine(series, positions, member_indices)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        assert positions == want_positions

    def test_builder_matches_per_atom_loop(self):
        ns = list(range(1, 25))
        seq = {(0, 0): [atomic_measure({0: 1 + (-1) ** n / n, 2: 0.5}) for n in ns],
               (0, 1): [atomic_measure({1: 2 - 1 / n} if n % 3 else {0: 0.25}) for n in ns],
               (1, 0): [atomic_measure({0: 1 + 1 / n, 1: 2 - (-1) ** n / n ** 2, 3: n % 2})
                        for n in ns]}
        for member_indices in (ns, None):
            limit, log = measured_limit_builder(seq, member_indices=member_indices)
            want_limit, want_log = reference_measured_loop(seq, member_indices)
            assert limit == want_limit
            assert repr(log) == repr(want_log)
