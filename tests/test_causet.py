import itertools

import numpy as np
import pytest

from lorentzgh import (ProductGenerator, build_causet, chain_ell, circle_fiber,
                       faithful_embed_check, hauptvermutung_trial, segment_fiber,
                       sprinkle, build_space)
from lorentzgh.causet import _transitive_reduction, order_relation
from lorentzgh.core import validate_matrix
from lorentzgh.errors import CycleDetected, EmptyRegion, ShapeMismatch
from lorentzgh.extended import NEG_INF as NI


def brute_longest_chain(c, a, b):
    """All-chains enumeration oracle for small causets."""
    rel = order_relation(c)
    best = -1
    n = c.n

    def extend(path):
        nonlocal best
        last = path[-1]
        if last == b:
            best = max(best, len(path) - 1)
            return
        for nxt in range(n):
            if nxt != last and rel[last, nxt] and rel[nxt, b]:
                extend(path + [nxt])
    if rel[a, b]:
        extend([a])
    return best


class TestChainEll:
    def test_three_chain(self):
        c = build_causet(["a", "b", "c"], [(0, 1), (1, 2)])
        s = chain_ell(c)
        assert s.ell[0, 2] == 2 and s.ell[0, 1] == 1 and s.ell[1, 2] == 1
        assert brute_longest_chain(c, 0, 2) == 2

    def test_antichain(self):
        c = build_causet([f"e{i}" for i in range(4)], [])
        s = chain_ell(c)
        off = ~np.eye(4, dtype=bool)
        assert (s.ell[off] == NI).all()

    def test_diamond_poset(self):
        c = build_causet(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3)])
        s = chain_ell(c)
        assert s.ell[0, 3] == 2
        assert brute_longest_chain(c, 0, 3) == 2

    def test_linear_order_length(self):
        m = 7
        c = build_causet([f"e{i}" for i in range(m)], [(i, i + 1) for i in range(m - 1)])
        s = chain_ell(c)
        assert s.ell[0, m - 1] == m - 1

    def test_matches_brute_force_on_random_dags(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 7))
            covers = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5]
            c = build_causet([f"e{i}" for i in range(n)], covers)
            s = chain_ell(c)
            validate_matrix(s.ell, 0.0)  # built without the axiom check
            rel = order_relation(c)
            for a in range(n):
                for b in range(n):
                    if a != b and rel[a, b]:
                        assert s.ell[a, b] == brute_longest_chain(c, a, b)
                    elif a != b:
                        assert s.ell[a, b] == NI

    def test_reverse_triangle_by_concatenation(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 8))
            covers = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.4]
            s = chain_ell(build_causet([f"e{i}" for i in range(n)], covers))
            for i, j, k in itertools.product(range(n), repeat=3):
                assert s.ell[i, j] + s.ell[j, k] <= s.ell[i, k]

    def test_strict_order_iff_positive(self, rng):
        c = build_causet(["a", "b", "c"], [(0, 1), (1, 2)])
        s = chain_ell(c)
        rel = order_relation(c)
        for i in range(3):
            for j in range(3):
                assert (s.ell[i, j] >= 1) == (i != j and rel[i, j])

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_causet(["a", "b"], [(0, 1), (1, 0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ShapeMismatch):
            build_causet(["a", "b", "a"], [(0, 1)])


class TestSprinkle:
    def setup_method(self):
        self.gen = ProductGenerator(fiber=circle_fiber(6, radius=0.3),
                                    cone_scale=1.0, t_range=(0.0, 1.0))

    def test_single_point_antichain(self):
        c, site_map = sprinkle(self.gen, (0.0, 1.0), 1, seed=0)
        assert c.n == 1 and c.covers == ()

    def test_density_and_reproducibility(self):
        c1, m1 = sprinkle(self.gen, (0.0, 1.0), 200, seed=5)
        c2, m2 = sprinkle(self.gen, (0.0, 1.0), 200, seed=5)
        assert c1.covers == c2.covers and m1 == m2
        rel = order_relation(c1)
        density = (rel.sum() - c1.n) / (c1.n * (c1.n - 1))
        assert 0.0 < density < 1.0

    def test_different_seeds_differ(self):
        c1, _ = sprinkle(self.gen, (0.0, 1.0), 100, seed=1)
        c2, _ = sprinkle(self.gen, (0.0, 1.0), 100, seed=2)
        assert c1.n == c2.n == 100
        assert c1.covers != c2.covers

    def test_empty_region(self):
        with pytest.raises(EmptyRegion):
            sprinkle(self.gen, (0.0, 1.0), 0, seed=0)


class TestTransitiveReduction:
    def test_256_intermediates_not_a_cover(self):
        # 0 < k < 257 for k = 1..256: a uint8 path count wraps to 0 at (0, 257)
        n = 258
        strict = np.zeros((n, n), dtype=bool)
        strict[0, 1:] = True
        strict[1:-1, -1] = True
        covers = _transitive_reduction(strict)
        assert (0, n - 1) not in covers
        assert len(covers) == 2 * 256

    def test_matches_definition_on_random_orders(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            strict = np.triu(rng.random((n, n)) < 0.4, k=1)
            for k in range(n):  # transitive closure
                strict |= strict[:, [k]] & strict[[k], :]
            expected = [(a, b) for a in range(n) for b in range(n) if strict[a, b]
                        and not any(strict[a, c] and strict[c, b] for c in range(n))]
            assert _transitive_reduction(strict) == expected


class TestFaithfulEmbed:
    def test_own_site_map_faithful(self):
        gen = ProductGenerator(fiber=segment_fiber(4, 0.4), cone_scale=1.0,
                               t_range=(0.0, 1.0))
        c, site_map = sprinkle(gen, (0.0, 1.0), 30, seed=3)
        from lorentzgh.causet import _restriction_space
        space = _restriction_space(gen, [site_map[k] for k in range(30)])
        out = faithful_embed_check(c, space, {k: k for k in range(30)})
        assert out["faithful"]

    def test_collapse_reported_in_reverse_direction(self):
        # two incomparable elements mapped onto causally related points
        c = build_causet(["a", "b"], [])
        space = build_space(["x", "y"], [[0, 1], [NI, 0]])
        out = faithful_embed_check(c, space, {0: 0, 1: 1})
        assert not out["faithful"]
        assert out["witnesses"]["reverse"] == [(0, 1)]
        assert out["witnesses"]["forward"] == []
        # the literal one-directional reading accepts it
        out1 = faithful_embed_check(c, space, {0: 0, 1: 1}, one_directional=True)
        assert out1["faithful"]

    def test_antichain_into_antichain(self):
        c = build_causet(["a", "b", "c"], [])
        space = build_space(["x", "y", "z"], np.where(np.eye(3, dtype=bool), 0.0, NI))
        out = faithful_embed_check(c, space, {0: 0, 1: 1, 2: 2})
        assert out["faithful"]


class TestTrial:
    def test_single_count_single_row(self):
        fiber = circle_fiber(6, radius=0.3)
        gen = ProductGenerator(fiber=fiber, cone_scale=1.0, t_range=(0.0, 1.5))
        rep = hauptvermutung_trial(gen, gen, [50], seed=2)
        assert len(rep["rows"]) == 1
        assert rep["rows"][0]["tau_distortion"] <= 1e-12

    def test_deterministic_per_seed(self):
        fiber = circle_fiber(5, radius=0.25)
        gen = ProductGenerator(fiber=fiber, cone_scale=1.0, t_range=(0.0, 1.0))
        a = hauptvermutung_trial(gen, gen, [40], seed=9)
        b = hauptvermutung_trial(gen, gen, [40], seed=9)
        assert a == b
