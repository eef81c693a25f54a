import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import chain_space, random_causet_space
from lorentzgh import (DiamondNet, atomic_measure, doubling_constant, greedy_net,
                       induce_net_measure, verify_net)
from lorentzgh.errors import DomainError, ShapeMismatch, Uncoverable
from lorentzgh.extended import NEG_INF as NI
from lorentzgh.nets import exact_min_cover, default_candidates
from lorentzgh import FiniteLorentzSpace, build_space


class TestVerifyNet:
    def test_midpoint_covered(self):
        s = chain_space([0, 1, 2])
        check = verify_net(s, [1], DiamondNet(pairs=((0, 2),), epsilon=2.0))
        assert check.ok

    def test_oversized_reported(self):
        s = chain_space([0, 1, 2])
        check = verify_net(s, [1], DiamondNet(pairs=((0, 2),), epsilon=1.0))
        assert not check.ok and check.oversized == ((0, 2),)

    @pytest.mark.parametrize("pair", [(0, 3), (0, 7), (-1, 2), (-3, 0)])
    def test_vertex_outside_space_rejected(self, pair):
        s = chain_space([0, 1, 2])
        bad = [v for v in pair if not 0 <= v < 3]
        with pytest.raises(ShapeMismatch, match=re.escape(f"net vertices {bad} outside range(3)")):
            verify_net(s, [1], DiamondNet(pairs=((0, 2), pair), epsilon=2.0))

    def test_grid_net_covers_sampled_slab(self):
        from lorentzgh import (SamplePlan, circle_fiber, embed_net, grid_net_product,
                               product_family, sample_spacetime)
        from lorentzgh.geometry import net_vertex_points
        gen = product_family(circle_fiber(8), "inf", t_range=(0.0, 3.0))
        grid = grid_net_product(gen, 1.0, 2.0, 1.0, range(8))
        sampled = sample_spacetime(gen, SamplePlan(time_step=0.1), t_window=(1.0, 2.0),
                                   extra_points=net_vertex_points(grid))
        net = embed_net(grid, sampled)
        subset = [k for k, p in enumerate(sampled.points) if 1.0 <= p[0] <= 2.0]
        assert verify_net(sampled.space, subset, net).ok


class TestSubsetRange:
    """Subset indices outside range(space.n) are a domain error, not a numpy
    IndexError or a wrap-around to the last point."""

    OPS = {
        "verify_net": lambda s, sub: verify_net(s, sub, DiamondNet(pairs=((0, 2),), epsilon=2.0)),
        "greedy_net": lambda s, sub: greedy_net(s, sub, 2.0),
        "doubling_constant": doubling_constant,
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("subset, bad", [([0, 3], [3]), ([0, 7, 9], [7, 9]),
                                             ([-1], [-1]), ([-2, 1], [-2])])
    def test_outside_space_rejected(self, op, subset, bad):
        with pytest.raises(ShapeMismatch, match=re.escape(f"subset {bad} outside range(3)")):
            self.OPS[op](chain_space([0, 1, 2]), subset)


class TestGreedyNet:
    def test_three_chain_single_diamond(self):
        s = chain_space([0, 1, 2])
        net = greedy_net(s, [0, 1, 2], 2.0)
        assert net.pairs == ((0, 2),)
        # optimal by brute force
        cands = default_candidates(s, 2.0)
        masks = [s.causal[p, :] & s.causal[:, q] for p, q in cands]
        assert len(exact_min_cover(s.n, masks)) == 1

    def test_degenerate_diamond_for_isolated_point(self):
        s = build_space(["x"], [[0.0]])
        net = greedy_net(s, [0], 7.0)
        assert net.pairs == ((0, 0),)

    def test_every_greedy_net_verifies(self, rng):
        for _ in range(60):
            s = random_causet_space(rng)
            eps = float(rng.uniform(0.5, 3.0))
            net = greedy_net(s, range(s.n), eps)
            assert verify_net(s, range(s.n), net).ok

    def test_uncoverable(self):
        # two symmetric-zero points are in no admissible diamond of a
        # chronological-only candidate set
        s = build_space(["a", "b"], [[0, NI], [NI, 0]])
        with pytest.raises(Uncoverable):
            greedy_net(s, [0, 1], 1.0, candidate_mode="chronological")

    def test_ln_n_approximation_vs_exact(self, rng):
        # on instances <= 12 points: greedy <= (1 + ln n) * optimum
        for _ in range(25):
            s = random_causet_space(rng, n_min=5, n_max=9)
            eps = float(rng.uniform(1.0, 3.0))
            net = greedy_net(s, range(s.n), eps)
            cands = default_candidates(s, eps)
            masks = [s.causal[p, :] & s.causal[:, q] for p, q in cands]
            best = exact_min_cover(s.n, masks)
            assert best is not None
            assert len(net) <= (1 + math.log(s.n)) * len(best)

    def test_sampled_slab_within_4x_of_optimum(self, rng):
        from lorentzgh import SamplePlan, product_family, sample_spacetime, segment_fiber
        gen = product_family(segment_fiber(3, 0.4), "inf", t_range=(0.0, 1.0))
        s = sample_spacetime(gen, SamplePlan(time_step=0.3)).space  # 12 points
        eps = 0.25
        net = greedy_net(s, range(s.n), eps)
        cands = default_candidates(s, eps)
        masks = [s.causal[p, :] & s.causal[:, q] for p, q in cands]
        best = exact_min_cover(s.n, masks)
        assert best is not None
        assert len(net) <= 4 * len(best)


class TestDoubling:
    def test_chain_with_midpoint(self):
        s = chain_space([0, 1, 2])
        assert doubling_constant(s, [0, 1, 2]) == 2

    def test_singleton(self):
        s = build_space(["x"], [[0.0]])
        assert doubling_constant(s, [0]) == 1

    @pytest.mark.parametrize("exact_threshold", [0, 12])
    @pytest.mark.parametrize("ell,points", [
        # ell[a][a] = 1 breaks the diagonal axiom: J(a, a) = {a} has tau 1,
        # so no diamond of tau <= 1/2 covers a; the reachability check must
        # raise before either solver runs (the greedy loop would never end)
        ([[1.0]], [0]),
        # -inf diagonals: J(a, b) is empty and (a, b) has no half-size
        # candidate, but the empty family covers it; the floor keeps N at 1
        ([[NI, 1.0], [NI, NI]], []),
    ])
    def test_unvalidated_diamond_without_candidates(self, exact_threshold, ell, points):
        """`points` are the uncoverable points; with none, every diamond is covered."""
        s = FiniteLorentzSpace(["a", "b"][:len(ell)], ell)
        if not points:
            assert doubling_constant(s, range(s.n), exact_threshold=exact_threshold,
                                     return_details=True) == \
                (1, {"exact": True, "per_diamond": [((0, 1), 0)]})
            return
        with pytest.raises(Uncoverable) as err:
            doubling_constant(s, range(s.n), exact_threshold=exact_threshold)
        assert err.value.points == points

    def test_stable_across_sampling_density(self):
        from lorentzgh import SamplePlan, product_family, sample_spacetime, segment_fiber
        ns = []
        for step in (0.5, 0.25):
            gen = product_family(segment_fiber(3, 0.5), "inf", t_range=(0.0, 1.0))
            s = sample_spacetime(gen, SamplePlan(time_step=step)).space
            ns.append(doubling_constant(s, range(s.n), exact_threshold=8))
        assert abs(ns[0] - ns[1]) <= 1


def nested_nets(space, levels, epsilon):
    """Greedy nets of increasing levels, each seeded with the net of the level below."""
    nets, seed = [], ()
    for level in levels:
        nets.append(greedy_net(space, level, epsilon, seed_pairs=seed))
        seed = nets[-1].pairs
    return nets


class TestGrowthProfile:
    def test_nested_vertices_across_levels(self, rng):
        s = chain_space(np.sort(rng.uniform(0, 4, size=8)))
        for eps in (2.0, 1.0):
            prev = set()
            for net in nested_nets(s, [range(4), range(6), range(8)], eps):
                verts = set(net.vertices())
                assert prev <= verts
                prev = verts

    def test_halving_epsilon_non_decreasing(self):
        s = chain_space(np.linspace(0, 4, 9))
        cards = [len(greedy_net(s, range(9), e)) for e in (2.0, 1.0, 0.5)]
        assert cards[0] <= cards[1] <= cards[2]

    def test_product_slab_cardinality_vs_greedy_scaling(self):
        # the covering count for U_k = [-k, k] x Sigma grows with k and,
        # up to the source's mislabeled constant, tracks ceil(height/eps)*N
        from lorentzgh import SamplePlan, circle_fiber, product_family, sample_spacetime
        gen = product_family(circle_fiber(6), "inf", t_range=(-2.0, 2.0))
        sampled = sample_spacetime(gen, SamplePlan(time_step=0.25))
        pts = sampled.points
        levels = []
        for k in (1, 2):
            levels.append([i for i, p in enumerate(pts) if -k <= p[0] <= k])
        eps = 1.0
        c1, c2, _ = (len(net) for net in nested_nets(sampled.space,
                                                     levels + [range(len(pts))], eps))
        assert c1 <= c2
        # within factor 2 of ceil(2k/eps) * N(eps/2) for the 6-point circle
        for k, c in ((1, c1), (2, c2)):
            per_column = math.ceil(2 * k / eps)
            n_fiber = 3  # an (eps/2)-net of the unit 6-circle needs ~3 sites
            assert c <= 2 * per_column * n_fiber


def numpy_min_cover(universe_size, sets):
    """Reference: the exhaustive numpy-OR enumeration exact_min_cover replaced."""
    full = np.zeros(universe_size, dtype=bool)
    for m in sets:
        full |= m
    if not full.all():
        return None
    for k in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), k):
            acc = np.zeros(universe_size, dtype=bool)
            for i in combo:
                acc |= sets[i]
            if acc.all():
                return list(combo)
    return None


@st.composite
def mask_families(draw):
    """(universe_size, masks): random masks, masks inside and around others,
    and either a few repeats or long runs of repeats."""
    size = draw(st.integers(0, 10))
    mask = st.lists(st.booleans(), min_size=size, max_size=size).map(
        lambda r: np.array(r, dtype=bool).reshape(size))
    rows = draw(st.lists(mask, max_size=7))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        # a submask is contained in its base and a supermask contains it; it
        # lands before or after the base
        base, noise = draw(st.sampled_from(rows)), draw(mask)
        rows.insert(draw(st.integers(0, len(rows))),
                    base & noise if draw(st.booleans()) else base | noise)
    if rows and draw(st.booleans()):  # complete the union, so a cover exists
        rows.append(~np.logical_or.reduce(rows))
    if not rows or draw(st.booleans()):
        # repeated rows make equal-size covers tie
        return size, rows + draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    # long runs over at most 8 distinct masks, like the candidate diamonds of
    # `doubling_constant`; a mask and its complement keep the least cover at
    # most 2 masks, so the reference tries at most C(60, 2) pairs
    distinct = rows[:7] + [~rows[0]]
    runs = draw(st.lists(st.tuples(st.integers(0, len(distinct) - 1), st.integers(1, 7)),
                         max_size=8))
    family = [distinct[i] for i, repeat in runs for _ in range(repeat)]
    for m in (distinct[0], distinct[-1]):
        family.insert(draw(st.integers(0, len(family))), m)
    return size, family


class TestExactMinCover:
    @given(mask_families())
    def test_matches_numpy_enumeration(self, family):
        size, sets = family
        assert exact_min_cover(size, sets) == numpy_min_cover(size, sets)

    @pytest.mark.parametrize("size,sets,want", [
        (0, [], []), (4, [], None),
        (0, [np.zeros(0, dtype=bool)] * 3, []),
        # a repeat (2), a submask of an earlier mask (3), a supermask of one (4)
        (3, [np.array(m, dtype=bool) for m in
             ([1, 0, 0], [0, 1, 1], [1, 0, 0], [0, 1, 0], [1, 1, 0])], [0, 1]),
    ])
    def test_edge_families(self, size, sets, want):
        assert exact_min_cover(size, sets) == numpy_min_cover(size, sets) == want


COVER_PINS = json.loads((Path(__file__).parent / "data" / "cover_pins.json").read_text())


def _outcome(fn):
    try:
        return fn()
    except DomainError as exc:
        return {"error": exc.record()}


class TestPinnedCovers:
    """Cover-layer outputs recorded before the batched diamond kernel landed.

    The corpus holds four chains, five random causets (5 to 11 elements) and
    an 18-point sampled slab. Greedy nets run at three epsilons in both
    candidate modes, on the full point set and every other point, with and
    without seed pairs; each unseeded net is verified as is, without its
    first diamond and at a quarter of its epsilon, and induces a uniform and
    a random measure. Doubling runs at exact thresholds 0, 4 and 12.
    """

    spaces = [build_space(rec["labels"],
                          [[NI if v == "-inf" else v for v in row] for row in rec["ell"]],
                          tol=rec["tol"])
              for rec in COVER_PINS["spaces"]]

    @staticmethod
    def _net(rec, epsilon):
        return DiamondNet(pairs=tuple(tuple(p) for p in rec["pairs"]), epsilon=epsilon)

    def test_greedy_net(self):
        for rec in COVER_PINS["greedy_net"]:
            got = _outcome(lambda: [list(p) for p in greedy_net(
                self.spaces[rec["space"]], rec["subset"], rec["epsilon"],
                seed_pairs=[tuple(p) for p in rec["seed_pairs"]],
                candidate_mode=rec["mode"]).pairs])
            assert got == (rec["pairs"] if "pairs" in rec else {"error": rec["error"]}), rec

    def test_verify_net(self):
        for rec in COVER_PINS["verify_net"]:
            chk = verify_net(self.spaces[rec["space"]], rec["subset"],
                             self._net(rec, rec["epsilon"]))
            assert (chk.ok, list(chk.uncovered), [list(p) for p in chk.oversized]) == \
                (rec["ok"], rec["uncovered"], rec["oversized"]), rec

    def test_doubling_constant(self):
        for rec in COVER_PINS["doubling_constant"]:
            n, details = doubling_constant(self.spaces[rec["space"]], rec["subset"],
                                           exact_threshold=rec["exact_threshold"],
                                           return_details=True)
            assert (n, details["exact"]) == (rec["N"], rec["exact"]), rec
            assert [[list(xy), c] for xy, c in details["per_diamond"]] == rec["per_diamond"]

    def test_induce_net_measure(self):
        for rec in COVER_PINS["induce_net_measure"]:
            m = atomic_measure({i: w for i, w in rec["measure"]})
            got = _outcome(lambda: induce_net_measure(
                self.spaces[rec["space"]], m, rec["subset"], self._net(rec, 1.0)))
            if "error" in rec:
                assert got == {"error": rec["error"]}, rec
            else:
                assert [[i, w] for i, w in got.induced.weights] == rec["induced"], rec
                assert list(got.residual_masses) == rec["residual_masses"], rec
