import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import block_union, chain_space, random_causet_space, random_chain
from lorentzgh import (CertificateMember, DiamondNet, build_space, compose, distortion,
                       isometry_search, lgh_certificate, make_correspondence,
                       min_distortion, quotient_tau_indistinguishable)
from lorentzgh.corr import EXACT_SIZE_CAP, Correspondence, _complete, _sup_gap
from lorentzgh.errors import (CapExceeded, DomainError, EmptySubset, MiddleMismatch,
                              ShapeMismatch)
from lorentzgh.extended import INF_GAP, NEG_INF as NI, gap_matrix
from lorentzgh.serialize import dumps


MATCHER_PINS = json.loads((Path(__file__).parent / "data" / "matcher_pins.json").read_text())
EXACT_PINS = json.loads((Path(__file__).parent / "data" / "exact_pins.json").read_text())
CERTIFICATE_PINS = json.loads(
    (Path(__file__).parent / "data" / "certificate_pins.json").read_text())


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


def inverse(r):
    """The correspondence read right to left."""
    return make_correspondence([(y, x) for x, y in r.pairs], r.n_right, r.n_left)


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
            assert distortion(r, a, b) == distortion(inverse(r), b, a)

    def test_totality_enforced(self):
        with pytest.raises(ShapeMismatch, match=r"left points \[1\] unmatched"):
            Correspondence(pairs=((0, 0),), n_left=2, n_right=1)
        with pytest.raises(ShapeMismatch, match=r"right points \[1, 2\] unmatched"):
            Correspondence(pairs=((0, 0), (1, 0), (2, 0)), n_left=3, n_right=3)

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
        back = compose(r, inverse(r))
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


def reference_candidate_scores(cand, fixed, cs, fs, f0):
    """Incremental sup for pairing every point c of `cand` with point f0 of `fixed`."""
    fwd = gap_matrix(cand.ell[:, cs], fixed.ell[f0, fs])
    bwd = gap_matrix(cand.ell[cs, :].T, fixed.ell[fs, f0])
    scores = np.maximum(fwd, bwd).max(axis=1, initial=0.0)
    return np.maximum(scores, gap_matrix(np.diagonal(cand.ell), fixed.ell[f0, f0]))


def reference_complete_and_eval(a, b, fmap, bound=None):
    """The right-side completion as it ran before the rule had one kernel."""
    covered = set(fmap)
    partners = {}
    xs, ys = list(range(len(fmap))), list(fmap)
    sup = _sup_gap(a, b, xs, ys)
    for y in range(b.n):
        if bound is not None and sup >= bound:
            return None
        if y in covered:
            continue
        scores = reference_candidate_scores(a, b, np.array(xs, dtype=int),
                                            np.array(ys, dtype=int), y)
        best_x = int(np.argmin(scores))
        sup = max(sup, float(scores[best_x]))
        partners[y] = best_x
        xs.append(best_x)
        ys.append(y)
    if bound is not None and sup >= bound:
        return None
    pairs = {(x, y) for x, y in enumerate(fmap)} | {(x, y) for y, x in partners.items()}
    return make_correspondence(sorted(pairs), a.n, b.n), sup


def reference_greedy_fmap(a, b, bound=None):
    """The greedy left map as it ran before the rule had one kernel."""
    fmap = []
    for x in range(a.n):
        scores = reference_candidate_scores(b, a, np.array(fmap, dtype=int), np.arange(x), x)
        y = int(np.argmin(scores))
        if bound is not None and scores[y] >= bound:
            return None
        fmap.append(y)
    return fmap


def seed_bounds(a, b, val, free_bound):
    """The value itself, just above it, half of it, a free bound, the greedy
    left map's sup and INF_GAP."""
    greedy = reference_greedy_fmap(a, b)
    greedy_sup = _sup_gap(a, b, np.arange(a.n), np.array(greedy, dtype=int))
    return (val, np.nextafter(val, np.inf), val / 2, free_bound, greedy_sup, INF_GAP)


class TestOneKernel:
    """`_complete` returns what the two copies of the greedy rule returned:
    the completion of a full left map, and the greedy map completed, for the
    empty map, None on both sides alike."""

    @settings(max_examples=150)
    @given(matcher_spaces(12), matcher_spaces(12), st.integers(0, 2**32 - 1),
           st.floats(0.0, 8.0))
    def test_matches_reference(self, a, b, draw_seed, free_bound):
        fmap = [int(y) for y in np.random.default_rng(draw_seed).integers(0, b.n, size=a.n)]
        val = reference_complete_and_eval(a, b, fmap)[1]
        for bound in (None,) + seed_bounds(a, b, val, free_bound):
            assert _complete(a, b, fmap, bound) == reference_complete_and_eval(a, b, fmap, bound)
            greedy = reference_greedy_fmap(a, b, bound)
            expected = None if greedy is None else reference_complete_and_eval(a, b, greedy, bound)
            assert _complete(a, b, [], bound) == expected


class TestSeedBound:
    """A bounded seed gives up exactly when its full value could not beat the bound."""

    @settings(max_examples=150)
    @given(matcher_spaces(12), matcher_spaces(12), st.integers(0, 2**32 - 1),
           st.floats(0.0, 8.0))
    def test_abandoned_iff_not_below_bound(self, a, b, draw_seed, free_bound):
        random_map = [int(y) for y in
                      np.random.default_rng(draw_seed).integers(0, b.n, size=a.n)]
        for fmap in (random_map, []):
            full = _complete(a, b, fmap)
            val = full[1]
            for bound in seed_bounds(a, b, val, free_bound):
                found = _complete(a, b, fmap, bound)
                assert (found is None) == (val >= bound)
                assert found is None or found == full


class TestBestOfSeeds:
    """The heuristic returns the first best completion over its documented seeds."""

    @staticmethod
    def seed_maps(a, b, seed):
        """Identity, canonical label matching, the empty map (greedy), then 8
        seeded random maps."""
        maps = []
        if a.n == b.n:
            maps.append(list(range(a.n)))
        if set(a.labels) == set(b.labels) and a.labels != b.labels:
            maps.append([b.labels.index(lab) for lab in a.labels])
        maps.append([])
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
        completed = [_complete(a, b, fmap) for fmap in self.seed_maps(a, b, seed)]
        assert min_distortion(a, b, seed=seed) == min(completed, key=lambda c: c[1])


class TestSeedCount:
    """Seeds completed on a pair that no seed matches at 0: greedy, then 8
    random maps, in heuristic mode and ahead of exact branch and bound alike,
    and none above 150 points. Chains of different sizes sit at INF_GAP."""

    @pytest.mark.parametrize("sizes, mode, calls", [
        ((3, 4), "heuristic", 1 + 8),
        ((3, 4), "exact", 1 + 8),
        ((151, 152), "heuristic", 1),
    ])
    def test_completions(self, sizes, mode, calls, monkeypatch):
        from lorentzgh import corr
        seen = []

        def counting(*args, **kwargs):
            seen.append(1)
            return _complete(*args, **kwargs)

        monkeypatch.setattr(corr, "_complete", counting)
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


class TestCertificateBandsFromBothSides:
    """lgh_certificate's two `+ tol` bands, at the limit's tol 0.25. Each
    member differs from the limit in one entry, d against 0, so a matching
    that keeps the points has distortion exactly d: at d = tol the band
    holds, one ulp past it fails."""

    TOL = 0.25
    PAST = math.nextafter(0.25, 1.0)

    def space(self, d):
        # a -> b at time 1; a -> c at time d (0 in the limit)
        return build_space(["a", "b", "c"], [[0.0, 1.0, d], [NI, 0.0, NI], [NI, NI, 0.0]],
                           tol=self.TOL)

    def settled_report(self, d):
        # one scale over a, c with stage distortions 0 then d: settled iff d <= 0 + tol
        nets = (DiamondNet(pairs=((0, 2),), epsilon=1.0),)
        members = [CertificateMember(space=self.space(v), nets=nets) for v in (0.0, d)]
        limit = CertificateMember(space=self.space(0.0), nets=nets)
        matchings = {(0, n): {0: 0, 2: 2} for n in range(2)}
        return lgh_certificate(members, limit, matchings=matchings)

    def test_settled_at_the_band(self):
        assert self.settled_report(self.TOL).strong

    def test_not_settled_one_ulp_past_the_band(self):
        assert not self.settled_report(self.PAST).strong

    def extension_records(self, d):
        # scale 0 maps a, b at distortion 0, scale 1 adds c: the union has
        # distortion d, which extends at n' = 0 iff d <= 0 + tol
        nets = (DiamondNet(pairs=((0, 1),), epsilon=1.0),
                DiamondNet(pairs=((0, 2),), epsilon=1.0))
        member = CertificateMember(space=self.space(d), nets=nets)
        limit = CertificateMember(space=self.space(0.0), nets=nets)
        matchings = {(0, 0): {0: 0, 1: 1}, (1, 0): {0: 0, 2: 2}}
        return lgh_certificate([member], limit, matchings=matchings).extension_records

    def test_extends_at_the_band(self):
        assert self.extension_records(self.TOL) == ({"l": 0, "n": 0, "n_prime": 0},)

    def test_extends_beyond_the_truncation_one_ulp_past_the_band(self):
        assert self.extension_records(self.PAST) == (
            {"l": 0, "n": 0, "n_prime": "beyond", "union_distortions": [self.PAST]},)


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


class TestPinnedCertificate:
    """lgh_certificate reports recorded before the certificate lost its hand-rolled memo.

    Every report field is pinned. The corpus: sequences of rescaled chains
    that converge, some with a finer scale that converges more slowly than
    the coarser one (so n' is found, "beyond" or None); stages searched in
    exact mode and, with more than 8 vertices, in heuristic mode; `slots`
    matchings, random dict matchings, partial ones with some stages searched,
    and fine/coarse maps that conflict on a shared vertex; random chains,
    causal sets and -inf block unions with INF_GAP stages; convergence_tol
    passed and failed; limit subsets that are unsorted and repeat points, on
    layered spaces whose non-vertex points have only null-related vertices
    below (strong density fails) or none (weak density fails); 1 to 3
    scales, member `index` None and set, empty member lists, and two
    CardinalityMismatch errors.
    """

    SPACES = [TestPinnedMatcher._space(rec) for rec in CERTIFICATE_PINS["spaces"]]

    @classmethod
    def _member(cls, rec):
        nets = tuple(DiamondNet(pairs=tuple(map(tuple, net["pairs"])), epsilon=net["epsilon"])
                     for net in rec["nets"])
        subset = None if rec["subset"] is None else tuple(rec["subset"])
        return CertificateMember(space=cls.SPACES[rec["space"]], nets=nets, subset=subset,
                                 index=rec["index"])

    @pytest.mark.parametrize("case", CERTIFICATE_PINS["cases"], ids=lambda c: c["name"])
    def test_reproduces_recorded_report(self, case):
        matchings = None if case["matchings"] is None else \
            {(m["l"], m["n"]): dict(map(tuple, m["map"])) for m in case["matchings"]}
        args = ([self._member(m) for m in case["members"]], self._member(case["limit"]),
                matchings, case["convergence_tol"])
        if "error" in case:
            with pytest.raises(DomainError) as exc:
                lgh_certificate(*args)
            assert json.loads(dumps(exc.value.record())) == case["error"]
        else:
            report = lgh_certificate(*args)
            assert json.loads(dumps(dataclasses.asdict(report))) == case["report"]
