import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_space, layered_space, random_chain, random_causet_space, union_space
from lorentzgh import (CertificateMember, DiamondNet, ProductGenerator, SamplePlan,
                       atomic_measure, build_fiber, build_space, causality_class, circle_fiber,
                       classify_special_points, covered, isometry_search, product_family,
                       quotient_tau_indistinguishable, sample_spacetime, segment_fiber,
                       timelike_diameter)
from lorentzgh import core
from lorentzgh.causet import build_causet, chain_ell, sprinkle
from lorentzgh.core import (DEFAULT_TOL, CoveredFiniteSpace, FiniteLorentzSpace,
                            _indistinguishable_pairs, _sweep_witness, validate_matrix)
from lorentzgh.errors import (AxiomViolation, CapExceeded, EmptySubset,
                              PrePDPRequired, ShapeMismatch, SizeMismatch)
from lorentzgh.extended import NEG_INF as NI, gap, INF_GAP
from lorentzgh.geometry import _ell_matrix
from lorentzgh import serialize as ser


def test_extended_conventions():
    assert NI + 3.0 == NI
    assert NI + NI == NI
    assert gap(NI, NI) == 0.0
    assert gap(NI, 2.0) == INF_GAP
    assert gap(1.0, 1.5) == 0.5


class TestBuildSpace:
    def test_saturated_chain(self):
        s = build_space(["a", "b", "c"], [[0, 1, 2], [NI, 0, 1], [NI, NI, 0]])
        assert s.tau(0, 2) == 2.0

    def test_reverse_triangle_rejected(self):
        with pytest.raises(AxiomViolation) as exc:
            build_space(["a", "b", "c"], [[0, 1, 1.5], [NI, 0, 1], [NI, NI, 0]])
        assert exc.value.kind == "reverse-triangle"
        assert exc.value.witness == (0, 1, 2)

    def test_neg_inf_absorbs_on_the_left(self):
        # ell(a,b) = -inf, ell(b,c) = 3, ell(a,c) = -inf is fine
        build_space(["a", "b", "c"], [[0, NI, NI], [NI, 0, 3], [NI, NI, 0]])

    def test_negative_diagonal_rejected(self):
        with pytest.raises(AxiomViolation) as exc:
            build_space(["a", "b"], [[-1, NI], [NI, 0]])
        assert exc.value.kind in ("diagonal", "codomain")

    def test_positive_diagonal_forced_out_by_triangle(self):
        # with +inf excluded, 2*ell(x,x) <= ell(x,x) forces a zero diagonal;
        # non-chronological spaces are represented by symmetric zero pairs
        with pytest.raises(AxiomViolation) as exc:
            build_space(["a"], [[2.0]])
        assert exc.value.kind == "reverse-triangle"
        s = build_space(["a", "b"], [[0, 0], [0, 0]])
        assert not causality_class(s).causal

    def test_plus_inf_rejected(self):
        with pytest.raises(AxiomViolation):
            build_space(["a", "b"], [[0, float("inf")], [NI, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            build_space(["a", "b"], [[0, 1, 2], [NI, 0, 1], [NI, NI, 0]])

    def test_randomized_families_validate(self, rng):
        for _ in range(200):
            random_chain(rng)
            random_causet_space(rng)
            union_space(rng)


def chunked_reverse_triangle_witness(ell, tol):
    """Reference: the chunked scan of the whole (i, j, k) cube that validated
    every matrix before the causal-support sweep."""
    n = ell.shape[0]
    block = max(1, int(2_000_000 // max(n * n, 1)) or 1)
    for start in range(0, n, block):
        stop = min(start + block, n)
        lhs = ell[start:stop, :, None] + ell[None, :, :]
        rhs = ell[start:stop, None, :]
        viol = lhs > rhs + tol
        if viol.any():
            i, j, k = (int(v) for v in np.argwhere(viol)[0])
            return start + i, j, k
    return None


# n on both sides of the small-n dense path (n * n <= 5000) and above one dense
# chunk (250k entries, fewer than n rows from n = 63)
triangle_sizes = st.one_of(st.integers(1, 12), st.integers(85, 150))


def _plant(rng, ell, size):
    """Break one triangle: raise a finite entry, or cut ell[i, k] to -inf under a finite i -> j -> k."""
    finite = np.isfinite(ell) & ~np.eye(len(ell), dtype=bool)
    if rng.random() < 0.5 and finite.any():
        a, b = np.argwhere(finite)[rng.integers(finite.sum())]
        ell[a, b] += size
        return
    j = rng.integers(len(ell))
    past, future = np.flatnonzero(finite[:, j]), np.flatnonzero(finite[j])
    pairs = [(i, k) for i in past for k in future if i != k]
    if pairs:
        ell[pairs[rng.integers(len(pairs))]] = NI


@st.composite
def triangle_inputs(draw):
    """(ell, tol): 1+1 Minkowski points in random time order (-inf-rich,
    valid up to rounding) or the zero matrix (fully finite), optionally with
    nonnegative noise around DEFAULT_TOL and planted violations."""
    n, seed = draw(triangle_sizes), draw(st.integers(0, 2**32 - 1))
    tol = draw(st.sampled_from([0.0, DEFAULT_TOL]))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from([16.0, 4.0, 0.5, None]))  # width of the x range
    if spread is not None:
        t, x = rng.uniform(0, 1, n), rng.uniform(0, spread, n)
        dt, dx = t[None, :] - t[:, None], np.abs(x[None, :] - x[:, None])
        ell = np.where(dt >= dx, np.sqrt(np.maximum(dt * dt - dx * dx, 0.0)), NI)
        np.fill_diagonal(ell, 0.0)
    else:
        ell = np.zeros((n, n))
    if draw(st.booleans()):
        finite = np.isfinite(ell)
        ell[finite] += rng.uniform(0, 2 * DEFAULT_TOL, int(finite.sum()))
    for _ in range(draw(st.integers(0, 3))):
        _plant(rng, ell, draw(st.sampled_from([DEFAULT_TOL / 2, 3 * DEFAULT_TOL, 0.25])))
    return ell, tol


@st.composite
def fiber_inputs(draw):
    """Euclidean distances of random points, optionally with one stretched edge."""
    n, seed = draw(triangle_sizes), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, draw(st.integers(1, 3))))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    if n >= 3 and draw(st.booleans()):
        a, b, c = rng.choice(n, size=3, replace=False)
        d[a, c] = d[c, a] = d[a, b] + d[b, c] + draw(
            st.sampled_from([DEFAULT_TOL / 2, 3 * DEFAULT_TOL, 0.25]))
    return d


@st.composite
def permuted_inputs(draw):
    """(ell, tol): a sprinkled causal set with its points permuted, optionally
    with planted violations. The index order is no linear extension, so the
    column span of J+(j) holds -inf columns outside J+(j)."""
    n, seed = draw(triangle_sizes), draw(st.integers(0, 2**32 - 1))
    gen = ProductGenerator(fiber=circle_fiber(8, 0.3), cone_scale=1.0, t_range=(0.0, 2.0))
    _, site_map = sprinkle(gen, (0.0, 2.0), n, seed=seed)
    rng = np.random.default_rng(seed)
    ell = _ell_matrix(gen, [site_map[k] for k in rng.permutation(n)])
    for _ in range(draw(st.integers(0, 3))):
        _plant(rng, ell, draw(st.sampled_from([DEFAULT_TOL / 2, 3 * DEFAULT_TOL, 0.25])))
    return ell, draw(st.sampled_from([0.0, DEFAULT_TOL]))


def _record(fn, *args):
    try:
        fn(*args)
    except AxiomViolation as exc:
        return exc.record()
    return None


class TestTriangleScan:
    """`validate_matrix` and `build_fiber` report what the dense reference scan finds."""

    @settings(max_examples=100)
    @given(triangle_inputs())
    def test_validate_matrix_matches_reference(self, case):
        ell, tol = case
        want = chunked_reverse_triangle_witness(ell, tol)
        assert _sweep_witness(ell, tol, np.isfinite(ell)) == want
        expected = None if want is None else {
            "error": "axiom-violation", "kind": "reverse-triangle", "witness": want,
            "message": "ell[{0}][{1}] + ell[{1}][{2}] > ell[{0}][{2}]".format(*want)}
        assert _record(validate_matrix, ell, tol) == expected

    @settings(max_examples=60)
    @given(permuted_inputs())
    def test_sweep_on_permuted_points_matches_reference(self, case):
        ell, tol = case
        causal = np.isfinite(ell)
        if len(ell) > 12:  # the spans do reach outside the futures
            first, stop = core._future_spans(causal)
            assert (stop - first > causal.sum(axis=1)).any()
        assert _sweep_witness(ell, tol, causal) == chunked_reverse_triangle_witness(ell, tol)

    @settings(max_examples=40)
    @given(fiber_inputs())
    def test_build_fiber_matches_reference(self, d):
        want = chunked_reverse_triangle_witness(-d, DEFAULT_TOL)
        expected = None if want is None else {
            "error": "axiom-violation", "kind": "triangle", "witness": want,
            "message": "fiber triangle inequality violated"}
        assert _record(build_fiber, [f"s{i}" for i in range(len(d))], d) == expected

    @staticmethod
    def causet_restriction(count=500):
        # the matrix `causet trial` validates: circle_fiber(8, 0.3), C = 1, t in (0, 2)
        gen = ProductGenerator(fiber=circle_fiber(8, 0.3), cone_scale=1.0, t_range=(0.0, 2.0))
        _, site_map = sprinkle(gen, (0.0, 2.0), count, seed=11)
        return _ell_matrix(gen, [site_map[k] for k in range(count)])

    def test_memory_bounded_on_causal_sets(self):
        import tracemalloc
        ell = self.causet_restriction()
        tracemalloc.start()
        try:
            validate_matrix(ell, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * ell.nbytes

    def test_sparse_support_skips_the_dense_scan(self, monkeypatch):
        ell = self.causet_restriction()

        def no_dense(*args):
            raise AssertionError("dense scan ran")

        monkeypatch.setattr(core, "_dense_witness", no_dense)
        validate_matrix(ell, DEFAULT_TOL)

    def test_planted_violations_skip_the_dense_scan(self, monkeypatch):
        ell = self.causet_restriction().copy()
        finite = np.isfinite(ell) & ~np.eye(len(ell), dtype=bool)
        # (i, j, k) with j the first middle point of a late causal pair (i, k)
        late = [(i, np.flatnonzero(finite[i] & finite[:, k])[0], k)
                for i in range(len(ell) - 100, len(ell)) for k in np.flatnonzero(finite[i])
                if (finite[i] & finite[:, k]).any()]
        # cutting ell[i, k] to -inf breaks the triangle through j; cut `least`,
        # and `first` with a larger i but an earlier j, so the least witness
        # is not the first one a sweep over j meets
        least = max(late, key=lambda c: c[1] - c[0])
        first = next(c for c in late if c[0] > least[0] and c[1] < least[1])
        for i, _, k in (least, first):
            ell[i, k] = NI
        want = chunked_reverse_triangle_witness(ell, DEFAULT_TOL)
        assert want == tuple(int(v) for v in least)

        def no_dense(*args):
            raise AssertionError("dense scan ran")

        monkeypatch.setattr(core, "_dense_witness", no_dense)
        assert _record(validate_matrix, ell, DEFAULT_TOL) == {
            "error": "axiom-violation", "kind": "reverse-triangle", "witness": want,
            "message": "ell[{0}][{1}] + ell[{1}][{2}] > ell[{0}][{2}]".format(*want)}

    def test_small_and_finite_inputs_skip_the_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(core, "_sweep_witness", no_sweep)
        build_space([f"p{i}" for i in range(8)], chain_space(range(8)).ell)
        circle = circle_fiber(300)
        build_fiber(circle.labels, circle.d)


def reference_validate_matrix(ell, tol):
    """Reference: `validate_matrix` as it was before its checks were counted
    with `count_nonzero`, on the chunked reference triangle scan."""
    below_inf = ell < np.inf
    if not below_inf.all():
        bad = np.argwhere(~below_inf)[0]
        raise AxiomViolation("codomain", tuple(int(v) for v in bad),
                             "entries must lie in {-inf} union [0, inf)")
    neg = (ell < -tol) & (ell > NI)
    if neg.any():
        bad = np.argwhere(neg)[0]
        raise AxiomViolation("codomain", tuple(int(v) for v in bad),
                             "negative finite entry")
    diag = np.diagonal(ell)
    bad_diag = ~np.isfinite(diag) | (diag < -tol)
    if bad_diag.any():
        i = int(np.argmax(bad_diag))
        raise AxiomViolation("diagonal", i, f"ell[{i}][{i}] must be >= 0")
    witness = chunked_reverse_triangle_witness(ell, tol)
    if witness is not None:
        i, j, k = witness
        raise AxiomViolation("reverse-triangle", witness,
                             f"ell[{i}][{j}] + ell[{j}][{k}] > ell[{i}][{k}]")


AXIOM_DEFECTS = ("codomain", "negative", "diagonal", "reverse-triangle")


@st.composite
def axiom_inputs(draw):
    """(ell, tol, defect): a matrix over the values {-inf, -2 tol, -tol, 0, tol,
    0.5, 1, nan, +inf}. Small ones may be drawn entrywise from a random part
    of that pool (defect None); the others are a valid chain, with one planted
    defect of a named kind or none, and sometimes a few more entries
    overwritten from the pool (defect None then)."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(68, 75), st.integers(95, 110)))
    tol = draw(st.sampled_from([0.0, DEFAULT_TOL, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([NI, -2 * tol, -tol, 0.0, tol, 0.5, 1.0, np.nan, np.inf])
    if n < 3 or (n <= 12 and draw(st.booleans())):
        part = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, unique=True))
        return pool[rng.choice(part, size=(n, n))], tol, None
    defect = draw(st.sampled_from((None,) + AXIOM_DEFECTS))
    t = np.sort(rng.uniform(0, 1, n))
    ell = t[None, :] - t[:, None]
    ell[ell < 0] = NI
    np.fill_diagonal(ell, 0.0)
    i, k = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
    if defect == "codomain":
        ell[i, k] = pool[draw(st.sampled_from([7, 8]))]
    elif defect == "negative" and tol > 0:
        ell[k, i] = -2 * tol
    elif defect == "diagonal":
        ell[k, k] = NI
    elif defect == "reverse-triangle":
        ell[0, n - 1] = NI  # 0 -> 1 -> n - 1 is finite
    else:
        defect = None
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            a, b = (int(v) for v in rng.integers(0, n, size=2))
            ell[a, b] = pool[int(rng.integers(len(pool)))]
        defect = None
    return ell, tol, defect


class TestAxiomRecords:
    """Every `validate_matrix` record, of every kind, is the reference's."""

    @settings(max_examples=150)
    @given(axiom_inputs())
    def test_every_record_matches_reference(self, case):
        ell, tol, defect = case
        got = _record(validate_matrix, ell, tol)
        assert repr(got) == repr(_record(reference_validate_matrix, ell, tol))
        if defect is not None:  # one planted defect: its kind is the record's
            kind = {"negative": "codomain"}.get(defect, defect)
            assert got is not None and got["kind"] == kind


class TestCausality:
    def test_chain_all_flags(self):
        s = chain_space([0, 1, 2])
        rep = causality_class(s)
        assert rep.chronological and rep.causal and rep.pdp
        assert not any(rep.witnesses.values())

    def test_symmetric_zero_pair_not_causal(self):
        s = build_space(["a", "b"], [[0, 0], [0, 0]])
        rep = causality_class(s)
        assert not rep.causal
        assert (0, 1) in rep.witnesses["causal"]

    def test_causal_witnesses_are_the_two_cycles(self, rng):
        # the pairs i < j related causally both ways, row-major
        for _ in range(30):
            s = layered_space(rng, layers=3, width=int(rng.integers(1, 4)))
            cycles = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)
                      if s.causal[i, j] and s.causal[j, i]]
            assert causality_class(s).witnesses["causal"] == cycles

    def test_quotient_removes_symmetric_pair(self):
        s = build_space(["a", "b"], [[0, 0], [0, 0]])
        assert causality_class(s).witnesses["causal"] == [(0, 1)]
        q, _ = quotient_tau_indistinguishable(s)
        assert causality_class(q).witnesses["causal"] == []

    def test_duplicate_rows_break_pdp(self):
        s = layered_space(np.random.default_rng(3), layers=2, width=2)
        rep = causality_class(s)
        assert not rep.pdp
        assert rep.witnesses["pdp"]


def brute_force_pairs(ell, tol):
    """Oracle: compare every (i, j) profile entry by broadcasting over (n, n, 2n);
    two entries match when they are equal or differ by at most tol."""
    prof = np.concatenate([ell, ell.T], axis=1)
    a, b = prof[:, None, :], prof[None, :, :]
    with np.errstate(invalid="ignore"):
        match = ((a == b) | (np.abs(a - b) <= tol)).all(axis=2)
    return [(int(i), int(j)) for i, j in np.argwhere(np.triu(match, 1))]


PDP_TOL = 1e-9
# 0 against PDP_TOL sits exactly on the "gap <= tol" boundary
PDP_POOL = np.array([NI, 0.0, PDP_TOL, 1.0, 1 + PDP_TOL / 2, 1 - PDP_TOL / 2,
                     1 + 2 * PDP_TOL, 1 - 2 * PDP_TOL])
# values outside the codomain: +inf matches only +inf, nan matches nothing
PDP_NON_FINITE_POOL = np.append(PDP_POOL, [np.inf, np.nan])


# up to n = 50 every candidate pair fits one chunk of the check (2 n^3 <=
# _DENSE_CHUNK); above it the candidates, the pairs whose 2 x 2 causal block is
# constant, can span several chunks
SMALL_PDP_N = 50


@st.composite
def raw_profiles(draw, pool=PDP_POOL):
    """Unvalidated matrices from a small value pool, with (near-)duplicated
    points, sized on both sides of one chunk of the check."""
    n = draw(st.one_of(st.integers(1, SMALL_PDP_N), st.integers(SMALL_PDP_N + 1, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ell = pool[rng.integers(0, len(pool), size=(n, n))]
    for _ in range(draw(st.integers(0, n))):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        ell[j, :] = ell[i, :]
        ell[:, j] = ell[:, i]
        # nudge a few finite entries of the copy to another pool value, never -inf
        for k in rng.integers(0, n, size=int(rng.integers(0, 3))):
            if k not in (i, j) and np.isfinite(ell[j, k]):
                ell[j, k] = pool[int(rng.integers(1, len(pool)))]
    return FiniteLorentzSpace([f"p{i}" for i in range(n)], ell, PDP_TOL)


def reference_quotient(space):
    """Reference: union-find over the brute-force pairs, the lowest index of a
    class as its representative, and a two-index `np.ix_` restriction."""
    parent = list(range(space.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in brute_force_pairs(space.ell, space.tol):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    roots = sorted({find(i) for i in range(space.n)})
    projection = np.array([roots.index(find(i)) for i in range(space.n)], dtype=int)
    restricted = FiniteLorentzSpace([space.labels[r] for r in roots],
                                    space.ell[np.ix_(roots, roots)], space.tol)
    return restricted, projection


def reference_witnesses(space):
    """Reference: `causality_class` witnesses by per-element loops over np.triu."""
    diag = np.diagonal(space.ell)
    return {"chronological": [int(i) for i in np.flatnonzero(diag > space.tol)],
            "causal": [(int(i), int(j)) for i, j in
                       np.argwhere(np.triu(space.causal & space.causal.T, 1))],
            "pdp": brute_force_pairs(space.ell, space.tol)}


class TestIndistinguishablePairs:
    @settings(max_examples=120)
    @given(raw_profiles())
    def test_matches_brute_force(self, space):
        assert _indistinguishable_pairs(space) == brute_force_pairs(space.ell, space.tol)

    @settings(max_examples=60)
    @given(raw_profiles(PDP_NON_FINITE_POOL))
    def test_non_finite_entries_match_only_equal_entries(self, space):
        assert _indistinguishable_pairs(space) == brute_force_pairs(space.ell, space.tol)

    def test_causal_space_compares_no_profiles(self):
        gen = product_family(circle_fiber(8), "inf", t_range=(-1.0, 1.0))
        slab = sample_spacetime(gen, SamplePlan(time_step=1 / 8), t_window=(0.0, 0.5)).space
        causet = chain_ell(build_causet([f"e{i}" for i in range(6)],
                                        [(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]))
        for space in (slab, causet):
            with mock.patch.object(core, "_profiles_match",
                                   wraps=core._profiles_match) as match:
                rep = causality_class(space)
            assert rep.causal and rep.pdp
            assert not match.called

    def test_candidates_checked_in_chunks(self):
        # 60 copies of each point of a 2-point chain: the copies of a point are
        # causal two-cycles, 3,540 candidates in four chunks of the check
        ell = np.kron(np.ones((60, 60)), [[0.0, 1.0], [NI, 0.0]])
        space = FiniteLorentzSpace([f"p{i}" for i in range(120)], ell)
        assert _indistinguishable_pairs(space) == brute_force_pairs(ell, space.tol)

    @settings(max_examples=80)
    @given(raw_profiles())
    def test_quotient_and_class_match_references(self, space):
        q, proj = quotient_tau_indistinguishable(space)
        want_q, want_proj = reference_quotient(space)
        assert q == want_q and q.ell.tobytes() == want_q.ell.tobytes()
        assert proj.dtype == want_proj.dtype and proj.tolist() == want_proj.tolist()
        assert repr(causality_class(space).witnesses) == repr(reference_witnesses(space))

    def test_restrict_gathers_in_one_step(self):
        import tracemalloc
        t = np.arange(600.0)
        ell = t[None, :] - t[:, None]
        ell[ell < 0] = NI
        space = FiniteLorentzSpace([f"p{i}" for i in range(600)], ell)
        keep = list(range(0, 600, 2))
        tracemalloc.start()
        try:
            sub = space.restrict(keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.ell.shape == (300, 300)
        # ell itself plus the two boolean tables; a row gather first would add
        # a 300 x 600 block
        assert peak < 1.5 * sub.ell.nbytes


class TestQuotient:
    def test_merges_duplicates(self):
        s = build_space(["a", "b", "b2", "c"],
                        [[0, 1, 1, 2], [NI, 0, 0, 1], [NI, 0, 0, 1], [NI, NI, NI, 0]])
        q, proj = quotient_tau_indistinguishable(s)
        assert q.n == 3
        assert proj[1] == proj[2]

    def test_identity_on_pdp_space(self):
        s = chain_space([0, 1, 3])
        q, proj = quotient_tau_indistinguishable(s)
        assert q.n == s.n
        assert (proj == np.arange(s.n)).all()

    def test_four_point_two_classes(self):
        # exactly two of four points share rows/cols; re-quotient is identity
        s = layered_space(np.random.default_rng(5), layers=3, width=1, span=3.0)
        arr = s.ell.copy()
        ell = np.full((4, 4), NI)
        ell[:3, :3] = arr
        ell[3, 3] = 0.0
        ell[3, :3] = arr[1, :]
        ell[:3, 3] = arr[:, 1]
        ell[3, 1] = 0.0
        ell[1, 3] = 0.0
        s4 = build_space(["x", "y", "z", "y2"], ell)
        q, proj = quotient_tau_indistinguishable(s4)
        assert q.n == 3
        q2, proj2 = quotient_tau_indistinguishable(q)
        assert q2.n == q.n and (proj2 == np.arange(q.n)).all()

    def test_within_tol_chain_is_one_class(self):
        # a~b and b~c within tol but |a - c| > tol: connected components merge
        # all three, represented by the lowest index (raw matrix: the chain
        # itself breaks the reverse triangle inequality by more than tol)
        tol = 1e-9
        ell = np.zeros((4, 4))
        ell[0, 1:] = [1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol]
        s = FiniteLorentzSpace(["r", "a", "b", "c"], ell, tol)
        assert _indistinguishable_pairs(s) == [(1, 2), (2, 3)]
        q, proj = quotient_tau_indistinguishable(s)
        assert q.labels == ("r", "a")
        assert proj.tolist() == [0, 1, 1, 1]

    def test_always_pdp_and_causal(self, rng):
        for _ in range(300):
            s = layered_space(rng, layers=int(rng.integers(2, 4)),
                              width=int(rng.integers(1, 3)))
            q, _ = quotient_tau_indistinguishable(s)
            rep = causality_class(q)
            assert rep.pdp and rep.causal


class TestSpecialPoints:
    def test_i0(self):
        s = build_space(["x", "y", "i0"], [[0, 1, NI], [NI, 0, NI], [NI, NI, 0]])
        assert classify_special_points(s)["i0"] == 2

    def test_n_plus(self):
        s = build_space(["x", "y", "np"], [[0, NI, 0], [NI, 0, 0], [NI, NI, 0]])
        out = classify_special_points(s)
        assert out["n_plus"] == 2 and out["i0"] is None

    def test_n_minus(self):
        s = build_space(["nm", "x", "y"], [[0, 0, 0], [NI, 0, NI], [NI, NI, 0]])
        assert classify_special_points(s)["n_minus"] == 0

    def test_absent_on_sampled_slab(self):
        from lorentzgh import ProductGenerator, SamplePlan, sample_spacetime, segment_fiber
        gen = ProductGenerator(fiber=segment_fiber(3, 1.0), cone_scale=1.0, t_range=(0.0, 1.0))
        s = sample_spacetime(gen, SamplePlan(time_step=0.5)).space
        out = classify_special_points(s)
        assert out == {"i0": None, "n_plus": None, "n_minus": None}

    def test_one_point_matches_no_pattern(self):
        out = classify_special_points(build_space(["a"], [[0.0]]))
        assert out == {"i0": None, "n_plus": None, "n_minus": None}

    def test_chronology_violating_point_matches_no_pattern(self):
        # unvalidated: z has ell(z, z) = 1 > tol, and the i0 pattern off the diagonal
        ell = [[0, 1, NI], [NI, 0, NI], [NI, NI, 1.0]]
        s = FiniteLorentzSpace(("x", "y", "z"), ell)
        assert classify_special_points(s) == {"i0": None, "n_plus": None, "n_minus": None}
        ell[2][2] = 0.0
        assert classify_special_points(FiniteLorentzSpace(("x", "y", "z"), ell))["i0"] == 2

    def test_requires_pdp(self, rng):
        s = layered_space(rng, layers=2, width=2)
        with pytest.raises(PrePDPRequired):
            classify_special_points(s)

    def test_at_most_one_each(self, rng):
        for _ in range(50):
            s = random_causet_space(rng)
            if causality_class(s).pdp:
                out = classify_special_points(s)
                assert all(v is None or isinstance(v, int) for v in out.values())


class TestDiameter:
    def test_chain(self):
        assert timelike_diameter(chain_space([0, 1, 2]), [0, 1, 2]) == 2.0

    def test_singleton(self):
        assert timelike_diameter(chain_space([0.0]), [0]) == 0.0

    def test_empty(self):
        with pytest.raises(EmptySubset):
            timelike_diameter(chain_space([0, 1]), [])

    def test_sampled_slab(self):
        from lorentzgh import SamplePlan, circle_fiber, product_family, sample_spacetime
        gen = product_family(circle_fiber(8), "inf", t_range=(-1.0, 1.0))
        s = sample_spacetime(gen, SamplePlan(time_step=1 / 8), t_window=(0.0, 0.5))
        d = timelike_diameter(s.space, range(s.space.n))
        assert 0.5 <= d <= 0.5 + 1e-12


class TestIsometry:
    def test_self_permutation(self, rng):
        for _ in range(20):
            s = random_chain(rng)
            perm = rng.permutation(s.n)
            ell = s.ell[np.ix_(perm, perm)]
            t = build_space([f"r{i}" for i in range(s.n)], ell)
            f = isometry_search(s, t)
            assert f is not None
            for i in range(s.n):
                for j in range(s.n):
                    assert t.ell[f[i], f[j]] == s.ell[i, j]

    def test_none_for_different_scale(self):
        a = build_space(["a", "b"], [[0, 1], [NI, 0]])
        b = build_space(["a", "b"], [[0, 2], [NI, 0]])
        assert isometry_search(a, b) is None

    def test_identical_samplings(self):
        from lorentzgh import ProductGenerator, SamplePlan, sample_spacetime, segment_fiber
        gen = ProductGenerator(fiber=segment_fiber(3, 1.0), cone_scale=1.0, t_range=(0.0, 2.0))
        s1 = sample_spacetime(gen, SamplePlan(time_step=0.5)).space
        s2 = sample_spacetime(gen, SamplePlan(time_step=0.5)).space
        f = isometry_search(s1, s2)
        assert f is not None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            isometry_search(chain_space([0, 1]), chain_space([0, 1, 2]))

    def test_cap(self):
        s = chain_space(np.arange(25.0))
        with pytest.raises(CapExceeded, match=r"\(25 > 24\)"):
            isometry_search(s, s)

    @staticmethod
    def crowns(*sizes):
        """chain_ell of disjoint crowns: in a k-crown, minimum i is covered by
        maxima i and i + 1 mod k."""
        covers, base = [], 0
        for k in sizes:
            covers += [(base + i, base + k + (i + d) % k) for i in range(k) for d in (0, 1)]
            base += 2 * k
        return chain_ell(build_causet([f"e{i}" for i in range(base)], covers))

    def test_crowns_backtrack_to_none(self):
        # every minimum, and every maximum, has the same sorted row and column
        # in both spaces, so only the search tells a 6-crown from two 3-crowns
        a, b = self.crowns(6), self.crowns(3, 3)
        assert a.n == b.n == 12 and isometry_search(a, a) is not None
        assert isometry_search(a, b) is None

    def test_isometric_spaces_share_causality_class(self, rng):
        for _ in range(30):
            a = random_causet_space(rng)
            perm = rng.permutation(a.n)
            b = build_space([f"r{i}" for i in range(a.n)], a.ell[np.ix_(perm, perm)])
            if isometry_search(a, b) is not None:
                flags = [(r.chronological, r.causal, r.pdp)
                         for r in (causality_class(a), causality_class(b))]
                assert flags[0] == flags[1]


class TestSpaceValue:
    """A space is its labels, ell and tol: the constructor derives the tables, == and
    hash read the values."""

    @staticmethod
    def chain_args():
        return ["a", "b", "c"], np.array([[0.0, 1.0, 2.0], [NI, 0.0, 1.0], [NI, NI, 0.0]])

    def test_equal_data_are_equal_and_hash_equal(self):
        a, b = chain_space([0, 1, 2]), chain_space([0, 1, 2])
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert {a: "x"}[b] == "x"
        assert a == FiniteLorentzSpace(a.labels, a.ell.copy(), a.tol)
        assert a.restrict([0, 2]) == b.restrict([0, 2]) and a != "a"

    def test_tol_label_and_entry_are_compared(self):
        labels, ell = self.chain_args()
        s = FiniteLorentzSpace(labels, ell)
        assert s != FiniteLorentzSpace(labels, ell, tol=1e-6)
        assert s != FiniteLorentzSpace(["a", "b", "d"], ell)
        other = ell.copy()
        other[0, 2] = 2.5
        assert s != FiniteLorentzSpace(labels, other)

    def test_signed_zero_is_equal(self):
        labels, ell = self.chain_args()
        neg = ell.copy()
        neg[1, 1] = -0.0
        a, b = FiniteLorentzSpace(labels, ell), FiniteLorentzSpace(labels, neg)
        assert a.ell.tobytes() != b.ell.tobytes()
        assert a == b and hash(a) == hash(b)

    def test_constructor_tables_match_build_space(self):
        labels, ell = self.chain_args()
        raw, built = FiniteLorentzSpace(labels, ell), build_space(labels, ell)
        assert raw.ell is ell and raw.labels == tuple(labels)
        for name in ("ell", "chron", "causal"):
            table = getattr(raw, name)
            assert np.array_equal(table, getattr(built, name))
            assert table.dtype == getattr(built, name).dtype
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = table[0, 1]
        assert raw.chron_diamond(0, 2).tolist() == [False, True, False]

    def test_constructor_takes_lists(self):
        s = FiniteLorentzSpace(("a", "b"), [[0, 1], [NI, 0]])
        assert s.ell.dtype == float and s.causal.tolist() == [[True, True], [False, True]]

    def test_holders_compare_by_value(self):
        a, b = chain_space([0, 1, 2]), chain_space([0, 1, 2])
        ca, cb = covered(a, 0, [[0, 1], [0, 1, 2]]), covered(b, 0, [[0, 1], [0, 1, 2]])
        assert ca == cb and hash(ca) == hash(cb)
        assert ca != covered(a, 1, [[0, 1], [0, 1, 2]])
        assert ca != covered(chain_space([0, 1, 3]), 0, [[0, 1], [0, 1, 2]])
        gen = ProductGenerator(fiber=segment_fiber(3, 0.2), cone_scale=1.0, t_range=(0.0, 0.5))
        sa, sb = (sample_spacetime(gen, SamplePlan(time_step=0.25)) for _ in range(2))
        assert sa == sb and hash(sa) == hash(sb) and len({sa, sb}) == 1
        assert sa != sample_spacetime(gen, SamplePlan(time_step=0.25, seed=1))
        nets = (DiamondNet(pairs=((0, 2),), epsilon=2.0),)
        ma, mb = CertificateMember(space=a, nets=nets), CertificateMember(space=b, nets=nets)
        assert ma == mb and hash(ma) == hash(mb)


class TestCovered:
    def test_validation(self):
        s = chain_space([0, 1, 2])
        cov = covered(s, 0, [[0, 1], [0, 1, 2]])
        assert cov.cover == ((0, 1), (0, 1, 2))
        with pytest.raises(ShapeMismatch):
            covered(s, 0, [[0, 1]])  # union misses point 2
        with pytest.raises(ShapeMismatch):
            covered(s, 2, [[0, 1], [0, 1, 2]])  # basepoint missing at level 0
        with pytest.raises(ShapeMismatch):
            CoveredFiniteSpace(space=s, basepoint=0, cover=((0, 1, 2), (0, 1)))


def _reload(to_dict, from_dict, x, *extra):
    return from_dict(json.loads(ser.dumps(to_dict(x, *extra))), *extra)


def _same_matrix(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # bit-exact incl. -inf


class TestJsonRoundTrip:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n_fiber=st.integers(1, 9),
           scale=st.floats(0.01, 100.0), epsilon=st.floats(0.0, 1e6) | st.just(math.inf),
           family_index=st.integers(1, 10**6) | st.just("inf"))
    def test_bit_exact(self, seed, n_fiber, scale, epsilon, family_index):
        # spaces with -inf blocks and duplicate points, covered spaces, fibers,
        # nets, measures and generators reload bit-exactly through dumps
        rng = np.random.default_rng(seed)
        spaces = [random_chain(rng), union_space(rng), layered_space(rng),
                  random_causet_space(rng)]
        for s in spaces:
            back = _reload(ser.space_to_dict, ser.space_from_dict, s)
            assert back.labels == s.labels and _same_matrix(back.ell, s.ell)
            cov = covered(s, 0, [[0], range(s.n)])
            back = _reload(ser.covered_to_dict, ser.covered_from_dict, cov)
            assert _same_matrix(back.space.ell, s.ell)
            assert (back.basepoint, back.cover) == (cov.basepoint, cov.cover)
            m = atomic_measure({int(i): float(rng.uniform(0, scale)) for i in range(s.n)})
            assert repr(_reload(ser.measure_to_dict, ser.measure_from_dict, m)) == repr(m)
            assert repr(_reload(ser.measure_to_dict, ser.measure_from_dict, m, s)) == repr(m)
        xs = rng.uniform(0, scale, size=n_fiber)
        fibers = [circle_fiber(n_fiber, scale), segment_fiber(n_fiber, scale),
                  build_fiber([f"x{i}" for i in range(n_fiber)],
                              np.abs(xs[:, None] - xs[None, :]))]
        for f in fibers:
            back = _reload(ser.fiber_to_dict, ser.fiber_from_dict, f)
            assert back.labels == f.labels and _same_matrix(back.d, f.d)
            t_range = tuple(sorted(float(v) for v in rng.uniform(-scale, scale, size=2)))
            for gen in (ProductGenerator(fiber=f, cone_scale=scale, t_range=t_range),
                        product_family(f, family_index, t_range)):
                back = _reload(ser.generator_to_dict, ser.generator_from_dict, gen)
                assert _same_matrix(back.fiber.d, f.d) and back == gen
                assert repr((back.cone_scale, back.t_range)) == repr((gen.cone_scale, gen.t_range))
        net = DiamondNet(pairs=((0, 1), (2, 0)), epsilon=epsilon)
        assert repr(_reload(ser.net_to_dict, ser.net_from_dict, net)) == repr(net)

    def test_neg_inf_as_string(self):
        s = chain_space([0, 1])
        text = ser.dumps(ser.space_to_dict(s))
        assert '"-inf"' in text


def sanitize_reference(obj):
    """Reference: `serialize._sanitize` before float items of a list were mapped inline."""
    if isinstance(obj, dict):
        return {str(k): sanitize_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_reference(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return x
    if isinstance(obj, np.ndarray):
        return sanitize_reference(obj.tolist())
    return obj


def dumps_reference(obj) -> str:
    return json.dumps(sanitize_reference(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


_floats = st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf, -0.0])
_ints = st.integers(-2**63, 2**63 - 1)
# rows of matrices and tables: all floats, or ints, floats and bools mixed
_rows = st.lists(_floats, max_size=6) | st.lists(_floats | _ints | st.booleans(), max_size=6)
_arrays = st.one_of(
    _rows.map(np.array),
    st.tuples(st.integers(1, 3), st.lists(_floats, max_size=3)).map(
        lambda c: np.array(c[1] * c[0]).reshape(c[0], len(c[1]))),
    st.lists(_ints, max_size=4).map(lambda r: np.array(r, dtype=np.int64)))
_leaves = st.one_of(_floats, _floats.map(np.float64), _ints.map(np.int64), _ints,
                    st.booleans(), st.text(max_size=3), st.just([]), _rows, _arrays)
dump_payloads = st.recursive(
    _leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3) | st.integers(0, 9), inner, max_size=4)),
    max_leaves=25)


class TestDumps:
    @given(dump_payloads)
    def test_matches_reference_encoder(self, obj):
        assert ser.dumps(obj) == dumps_reference(obj)

    @given(dump_payloads, st.sampled_from([math.nan, np.float64("nan"), [1.0, math.nan],
                                           (0, -math.nan), np.array([[1.0], [math.nan]])]))
    def test_nan_raises(self, obj, bad):
        payload = {"obj": obj, "bad": [bad]}
        for encode in (ser.dumps, dumps_reference):
            with pytest.raises(ValueError):
                encode(payload)


def test_reverse_triangle_invariant_exhaustive(rng):
    # for every valid space and ordered triple: ell(x,y) + ell(y,z) <= ell(x,z)
    for _ in range(50):
        s = random_causet_space(rng)
        n = s.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert s.ell[i, j] + s.ell[j, k] <= s.ell[i, k] + 1e-12
