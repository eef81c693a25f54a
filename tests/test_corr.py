import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import block_union, chain_space, random_causet_space, random_chain
from lorentzgh import (build_space, compose, distortion, isometry_search,
                       make_correspondence, min_distortion,
                       quotient_tau_indistinguishable)
from lorentzgh.corr import (EXACT_SIZE_CAP, Correspondence, _complete_and_eval,
                            _greedy_fmap, _sup_gap)
from lorentzgh.errors import CapExceeded, EmptySubset, MiddleMismatch, ShapeMismatch
from lorentzgh.extended import INF_GAP, NEG_INF as NI


MATCHER_PINS = json.loads((Path(__file__).parent / "data" / "matcher_pins.json").read_text())
EXACT_PINS = json.loads((Path(__file__).parent / "data" / "exact_pins.json").read_text())


def random_integer_space(rng, n):
    """Layered integer-valued chain with random dropout of whole layers."""
    t = np.sort(rng.integers(0, 7, size=n)).astype(float)
    ell = t[None, :] - t[:, None]
    ell[ell < 0] = NI
    np.fill_diagonal(ell, 0.0)
    for a in range(n):
        for b in range(n):
            if a != b and t[a] == t[b]:
                ell[a, b] = 0.0
    return build_space([f"p{i}" for i in range(n)], ell)


def random_corr(rng, n, m):
    pairs = {(i, int(rng.integers(0, m))) for i in range(n)}
    pairs |= {(int(rng.integers(0, n)), j) for j in range(m)}
    return make_correspondence(sorted(pairs), n, m)


def brute_force_min(a, b):
    """Literal enumeration over (f, g) selections; the independent oracle."""
    best = INF_GAP
    for f in itertools.product(range(b.n), repeat=a.n):
        for g in itertools.product(range(a.n), repeat=b.n):
            pairs = {(x, f[x]) for x in range(a.n)} | {(g[y], y) for y in range(b.n)}
            r = make_correspondence(sorted(pairs), a.n, b.n)
            d = distortion(r, a, b)
            if d < best:
                best = d
    return best


@st.composite
def matcher_spaces(draw, n_max):
    """A random chain or causal set, or a -inf block union of two, of 1 to n_max points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part(hi):
        if draw(st.booleans()):
            return random_chain(rng, 1, hi)
        return random_causet_space(rng, 1, hi)

    if draw(st.booleans()):
        return block_union(part(n_max // 2), part(n_max - n_max // 2))
    return part(n_max)


class TestDistortion:
    def test_identity_is_zero(self, rng):
        s = random_chain(rng)
        ident = make_correspondence([(i, i) for i in range(s.n)], s.n, s.n)
        assert distortion(ident, s, s) == 0.0

    def test_two_point_gap(self):
        a = build_space(["a", "b"], [[0, 1], [NI, 0]])
        b = build_space(["a", "b"], [[0, 1.2], [NI, 0]])
        ident = make_correspondence([(0, 0), (1, 1)], 2, 2)
        assert distortion(ident, a, b) == pytest.approx(0.2)

    def test_mixed_neg_inf_is_inf_gap(self):
        a = build_space(["a", "b"], [[0, 1], [NI, 0]])
        b = build_space(["a", "b"], [[0, NI], [NI, 0]])
        ident = make_correspondence([(0, 0), (1, 1)], 2, 2)
        assert distortion(ident, a, b) == INF_GAP

    def test_inverse_symmetric(self, rng):
        for _ in range(100):
            a = random_integer_space(rng, 4)
            b = random_integer_space(rng, 4)
            r = random_corr(rng, 4, 4)
            assert distortion(r, a, b) == distortion(r.inverse(), b, a)

    def test_totality_enforced(self):
        with pytest.raises(ShapeMismatch):
            Correspondence(pairs=((0, 0),), n_left=2, n_right=1)

    @pytest.mark.parametrize("pairs, n_left, n_right", [
        ([(0, 0), (1, 1)], 2, 2),
        ([(i, i) for i in range(4)], 4, 4),
        ([(0, 0), (1, 1), (2, 1)], 3, 2),
    ])
    def test_sizes_must_match_spaces(self, pairs, n_left, n_right):
        s = chain_space([0, 1, 2])
        with pytest.raises(ShapeMismatch):
            distortion(make_correspondence(pairs, n_left, n_right), s, s)


class TestCompose:
    def test_with_identity(self, rng):
        r = random_corr(rng, 4, 5)
        ident = make_correspondence([(i, i) for i in range(5)], 5, 5)
        assert compose(r, ident).pairs == r.pairs

    def test_middle_mismatch(self, rng):
        r = random_corr(rng, 3, 4)
        q = random_corr(rng, 5, 3)
        with pytest.raises(MiddleMismatch):
            compose(r, q)

    def test_subadditivity_exact_arithmetic(self, rng):
        # dis(Q o R) <= dis(Q) + dis(R) on integer-valued spaces
        for _ in range(300):
            x, y, z = (random_integer_space(rng, 4) for _ in range(3))
            r, q = random_corr(rng, 4, 4), random_corr(rng, 4, 4)
            dr, dq = distortion(r, x, y), distortion(q, y, z)
            assert distortion(compose(r, q), x, z) <= dr + dq

    def test_compose_with_inverse_contains_identity(self, rng):
        r = random_corr(rng, 4, 5)
        back = compose(r, r.inverse())
        assert {(i, i) for i in range(4)} <= set(back.pairs)


class TestMinDistortion:
    def test_identical_spaces_zero(self, rng):
        s = random_chain(rng, 4, 6)
        _, val = min_distortion(s, s, mode="exact") if s.n <= EXACT_SIZE_CAP else (None, 0.0)
        assert val == 0.0

    def test_order_preserving_two_point(self):
        a = build_space(["a", "b"], [[0, 1], [NI, 0]])
        b = build_space(["a", "b"], [[0, 1.2], [NI, 0]])
        corr, val = min_distortion(a, b, mode="exact")
        assert val == pytest.approx(0.2)
        assert (0, 0) in corr.pairs and (1, 1) in corr.pairs

    def test_exact_matches_brute_force(self, rng):
        for _ in range(30):
            a = random_integer_space(rng, 3)
            b = random_integer_space(rng, 3)
            _, val = min_distortion(a, b, mode="exact")
            assert val == brute_force_min(a, b)

    def test_heuristic_never_below_exact(self, rng):
        hits = 0
        for k in range(60):
            a = random_integer_space(rng, 4)
            b = random_integer_space(rng, 4)
            _, v_exact = min_distortion(a, b, mode="exact")
            _, v_heur = min_distortion(a, b, mode="heuristic", seed=k)
            assert v_heur >= v_exact - 1e-12
            hits += v_heur == v_exact
        assert hits >= 54  # >= 90%

    def test_oracle_dominance(self, rng):
        # exact result never exceeds any explicitly supplied correspondence
        for _ in range(40):
            a = random_integer_space(rng, 4)
            b = random_integer_space(rng, 4)
            _, val = min_distortion(a, b, mode="exact")
            for _ in range(5):
                r = random_corr(rng, 4, 4)
                assert val <= distortion(r, a, b) + 1e-12

    def test_cap(self):
        s = chain_space(np.arange(9.0))
        with pytest.raises(CapExceeded):
            min_distortion(s, s, mode="exact")

    def test_zero_exact_min_implies_isometry(self, rng):
        for _ in range(40):
            a = random_integer_space(rng, 4)
            qa, _ = quotient_tau_indistinguishable(a)
            perm = rng.permutation(qa.n)
            b = build_space([f"r{i}" for i in range(qa.n)], qa.ell[np.ix_(perm, perm)])
            _, val = min_distortion(qa, b, mode="exact")
            assert val == 0.0
            assert isometry_search(qa, b) is not None


class TestEmptySpaces:
    EMPTY = build_space([], np.zeros((0, 0)))

    @pytest.mark.parametrize("mode", ["heuristic", "exact"])
    def test_both_empty_match_at_zero(self, mode):
        r, val = min_distortion(self.EMPTY, self.EMPTY, mode=mode)
        assert r == Correspondence((), 0, 0)
        assert val == 0.0
        assert distortion(r, self.EMPTY, self.EMPTY) == 0.0

    @pytest.mark.parametrize("mode", ["heuristic", "exact"])
    def test_one_empty_side_has_no_correspondence(self, mode):
        s = chain_space([0.0, 1.0])
        for a, b in ((self.EMPTY, s), (s, self.EMPTY)):
            with pytest.raises(EmptySubset):
                min_distortion(a, b, mode=mode)


class TestSeedBound:
    """A bounded seed gives up exactly when its full value could not beat the bound."""

    @settings(max_examples=150)
    @given(matcher_spaces(12), matcher_spaces(12), st.integers(0, 2**32 - 1),
           st.floats(0.0, 8.0))
    def test_abandoned_iff_not_below_bound(self, a, b, draw_seed, free_bound):
        fmap = [int(y) for y in np.random.default_rng(draw_seed).integers(0, b.n, size=a.n)]
        full = _complete_and_eval(a, b, fmap)
        greedy = _greedy_fmap(a, b)
        greedy_sup = _sup_gap(a, b, np.arange(a.n), np.array(greedy, dtype=int))
        val = full[1]
        for bound in (val, np.nextafter(val, np.inf), val / 2, free_bound, greedy_sup, INF_GAP):
            found = _complete_and_eval(a, b, fmap, bound)
            assert (found is None) == (val >= bound)
            assert found is None or found == full
            bounded = _greedy_fmap(a, b, bound)
            assert (bounded is None) == (greedy_sup >= bound)
            assert bounded is None or bounded == greedy


class TestBestOfSeeds:
    """The heuristic returns the first best completion over its documented seeds."""

    @staticmethod
    def seed_maps(a, b, seed):
        """Identity, canonical label matching, greedy, then 8 seeded random maps."""
        maps = []
        if a.n == b.n:
            maps.append(list(range(a.n)))
        if set(a.labels) == set(b.labels) and a.labels != b.labels:
            maps.append([b.labels.index(lab) for lab in a.labels])
        maps.append(_greedy_fmap(a, b))
        rng = np.random.default_rng(seed)
        for _ in range(8):  # these spaces are below the 150-point cutoff
            maps.append(list(rng.permutation(a.n)) if a.n == b.n
                        else list(rng.integers(0, b.n, size=a.n)))
        return maps

    @settings(max_examples=100)
    @given(matcher_spaces(20), matcher_spaces(20), st.integers(0, 7),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_result_is_first_best_seed(self, a, b, seed, perm_seed, relabel):
        if relabel:  # a's points in another order, labels kept: the canonical seed fires
            perm = np.random.default_rng(perm_seed).permutation(a.n)
            b = build_space([a.labels[i] for i in perm], a.ell[np.ix_(perm, perm)])
        completed = [_complete_and_eval(a, b, fmap) for fmap in self.seed_maps(a, b, seed)]
        assert min_distortion(a, b, seed=seed) == min(completed, key=lambda c: c[1])


class TestSeedCount:
    """Seeds completed on a pair that no seed matches at 0: greedy, then 8
    random maps in heuristic mode, 4 ahead of exact branch and bound, and
    none above 150 points. Chains of different sizes sit at INF_GAP."""

    @pytest.mark.parametrize("sizes, mode, calls", [
        ((3, 4), "heuristic", 1 + 8),
        ((3, 4), "exact", 1 + 4),
        ((151, 152), "heuristic", 1),
    ])
    def test_completions(self, sizes, mode, calls, monkeypatch):
        from lorentzgh import corr
        seen = []

        def counting(*args, **kwargs):
            seen.append(1)
            return _complete_and_eval(*args, **kwargs)

        monkeypatch.setattr(corr, "_complete_and_eval", counting)
        a, b = (chain_space(np.arange(float(n))) for n in sizes)
        assert min_distortion(a, b, mode=mode)[1] == INF_GAP
        assert len(seen) == calls


class TestReturnedValueIsDistortion:
    """min_distortion's value is the distortion of the correspondence it returns."""

    @settings(max_examples=60)
    @given(matcher_spaces(30), matcher_spaces(30), st.integers(0, 7))
    def test_heuristic(self, a, b, seed):
        r, val = min_distortion(a, b, mode="heuristic", seed=seed)
        assert val == distortion(r, a, b)

    @settings(max_examples=60)
    @given(matcher_spaces(EXACT_SIZE_CAP), matcher_spaces(EXACT_SIZE_CAP), st.integers(0, 7))
    def test_exact(self, a, b, seed):
        r, val = min_distortion(a, b, mode="exact", seed=seed)
        assert val == distortion(r, a, b)


class TestCertificate:
    def _constant_member(self):
        from lorentzgh import CertificateMember, DiamondNet
        s = chain_space([0, 0.5, 1, 1.5, 2])
        nets = (DiamondNet(pairs=((0, 4),), epsilon=2.0),
                DiamondNet(pairs=((0, 2), (2, 4)), epsilon=1.0))
        return CertificateMember(space=s, nets=nets, subset=tuple(range(5)))

    def test_constant_sequence_strong(self):
        from lorentzgh import lgh_certificate, slot_matching
        limit = self._constant_member()
        members = [self._constant_member() for _ in range(3)]
        matchings = {(l, n): slot_matching(members[n].nets[l], limit.nets[l])
                     for n in range(3) for l in range(2)}
        report = lgh_certificate(members, limit, matchings=matchings)
        assert all(s["distortion"] == 0.0 for s in report.stages)
        assert report.strong and report.forward_density_ok and report.extension_ok

    def test_cardinality_mismatch(self):
        from lorentzgh import CertificateMember, DiamondNet, lgh_certificate
        from lorentzgh.errors import CardinalityMismatch
        limit = self._constant_member()
        bad = CertificateMember(space=limit.space,
                                nets=(DiamondNet(pairs=((0, 4), (1, 3)), epsilon=2.0),
                                      limit.nets[1]),
                                subset=limit.subset)
        with pytest.raises(CardinalityMismatch):
            lgh_certificate([bad], limit)

    def test_searched_matchings_report_distortion(self):
        from lorentzgh import CertificateMember, DiamondNet, lgh_certificate
        a = chain_space([0, 1, 2])
        b = chain_space([0, 1.1, 2.2])
        net_a = (DiamondNet(pairs=((0, 2),), epsilon=2.0),)
        net_b = (DiamondNet(pairs=((0, 2),), epsilon=2.2),)
        report = lgh_certificate([CertificateMember(space=a, nets=net_a)],
                                 CertificateMember(space=b, nets=net_b))
        assert report.stages[0]["distortion"] == pytest.approx(0.2)


class TestPinnedMatcher:
    """Heuristic min_distortion results recorded before the matcher kernels merged.

    The corpus mixes chains, layered spaces with duplicate points, unions with
    -inf blocks, causal sets and sprinkles (sizes 3 to 40, both a.n < b.n and
    a.n > b.n, finite and INF_GAP optima), each at seeds 0 and 3. Cases 52 to
    61 were recorded before seeds carried the incumbent as a bound, at 100 to
    152 points: chains and sampled slabs against point-permuted perturbed
    copies (finite optima, random restarts against a finite incumbent), a
    slab with repeated points against a perturbed copy (finite, a.n != b.n),
    and INF_GAP results with a.n != b.n, where greedy is the first seed.
    """

    @staticmethod
    def _space(rec):
        ell = [[NI if v == "-inf" else v for v in row] for row in rec["ell"]]
        return build_space(rec["labels"], ell, tol=rec["tol"])

    def test_reproduces_recorded_results(self):
        spaces = [self._space(rec) for rec in MATCHER_PINS["spaces"]]
        for case in MATCHER_PINS["cases"]:
            r, val = min_distortion(spaces[case["a"]], spaces[case["b"]], seed=case["seed"])
            expected = INF_GAP if case["distortion"] == "inf" else case["distortion"]
            assert [list(p) for p in r.pairs] == case["pairs"]
            assert val == expected


class TestPinnedExact:
    """Exact-search and isometry results recorded before the searches read one cost table.

    Every `exact` case is one where branch and bound beats its heuristic seed
    (`heuristic_seed` is that seed's value): six each of chains with repeated
    times, layered spaces with duplicate points, causal sets and -inf block
    unions of a chain and a causal set, 1 to 7 points. Most of these values
    came back as numpy.float64 from the scalar-gap search. The `isometry`
    cases are point-permuted copies of layered spaces, unions and causal sets,
    the last two rescaled so that no isometry exists.
    """

    SPACES = [TestPinnedMatcher._space(rec) for rec in EXACT_PINS["spaces"]]

    def test_exact_search_reproduces_recorded_results(self):
        for case in EXACT_PINS["exact"]:
            r, val = min_distortion(self.SPACES[case["a"]], self.SPACES[case["b"]],
                                    mode="exact", seed=case["seed"])
            assert [list(p) for p in r.pairs] == case["pairs"]
            assert val == case["distortion"] < float(case["heuristic_seed"])

    def test_exact_search_returns_python_float(self):
        for case in EXACT_PINS["exact"]:
            _, val = min_distortion(self.SPACES[case["a"]], self.SPACES[case["b"]],
                                    mode="exact", seed=case["seed"])
            assert type(val) is float

    def test_isometry_search_reproduces_recorded_images(self):
        for case in EXACT_PINS["isometry"]:
            a, b = self.SPACES[case["a"]], self.SPACES[case["b"]]
            image = isometry_search(a, b)
            assert (None if image is None else [image[i] for i in range(a.n)]) == case["image"]
