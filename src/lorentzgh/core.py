"""Finite Lorentzian pre-length spaces.

A space is a labeled point set with an extended-time matrix `ell` whose
entries live in {-inf} union [0, inf). Construction validates the reverse
triangle inequality and the nonnegative diagonal; the constructor derives
the relation tables eagerly, so downstream operations are table lookups.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (AxiomViolation, CapExceeded, EmptySubset, PrePDPRequired,
                     ShapeMismatch, SizeMismatch)
from .extended import NEG_INF, gap_matrix

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FiniteLorentzSpace:
    """Point labels plus the extended time separation matrix.

    The constructor makes an unvalidated space: it takes ownership of `ell`,
    frozen in place as a float array, and derives the `chron` and `causal`
    tables; `build_space` validates. Equality is by labels, tol and ell.
    `tol` is the equality tolerance for finite entries; constructed
    (exact) matrices work with any tol, float-sampled ones need slack. The
    PDP scan needs a finite tol, which `build_space` checks and this
    constructor does not.
    """

    labels: tuple[str, ...]
    ell: np.ndarray
    tol: float = DEFAULT_TOL
    chron: np.ndarray = field(init=False, repr=False)
    causal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=float)
        object.__setattr__(self, "labels", tuple(self.labels))
        for name, table in (("ell", ell), ("chron", ell > 0.0), ("causal", np.isfinite(ell))):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def __eq__(self, other):
        if not isinstance(other, FiniteLorentzSpace):
            return NotImplemented
        return (self.labels == other.labels and self.tol == other.tol
                and np.array_equal(self.ell, other.ell))

    def __hash__(self):
        # np.array_equal ignores the sign of zero, so ell's bytes cannot take part
        return hash((self.labels, self.tol))

    @property
    def n(self) -> int:
        return len(self.labels)

    def tau(self, i: int, j: int) -> float:
        return max(0.0, self.ell[i, j])

    def tau_matrix(self) -> np.ndarray:
        return np.maximum(0.0, self.ell)

    def chron_diamond(self, p: int, q: int) -> np.ndarray:
        """I(p, q) as a boolean mask."""
        return self.chron[p, :] & self.chron[:, q]

    def restrict(self, indices: Sequence[int]) -> "FiniteLorentzSpace":
        """Subspace on `indices` (order preserved); revalidation is unnecessary."""
        idx = np.asarray(indices, dtype=np.intp)
        return FiniteLorentzSpace([self.labels[i] for i in idx.tolist()],
                                  self.ell[idx[:, None], idx], self.tol)  # one gather


def validate_matrix(ell: np.ndarray, tol: float) -> None:
    """Raise AxiomViolation on codomain, diagonal or reverse-triangle failures.

    Each check reports its first failure in row-major order; the triangle
    check costs sum_j |J-(j)| span(J+(j)) entries, span being the column
    range from the first to the last point of J+(j), where that is cheaper
    than n^3 (see `_reverse_triangle_witness`). Each check is one whole-matrix
    test, counted with `count_nonzero`; only a failure locates its entry.
    """
    below_inf = ell < np.inf  # False exactly at nan and +inf
    if np.count_nonzero(below_inf) != below_inf.size:
        bad = np.argwhere(~below_inf)[0].tolist()
        raise AxiomViolation("codomain", tuple(bad), "entries must lie in {-inf} union [0, inf)")
    neg = (ell < -tol) & (ell > NEG_INF)
    if np.count_nonzero(neg):
        bad = np.argwhere(neg)[0].tolist()
        raise AxiomViolation("codomain", tuple(bad), "negative finite entry")
    bad_diag = ell.diagonal() < -tol  # the codomain checks leave -inf as the one bad value
    if np.count_nonzero(bad_diag):
        i = int(bad_diag.argmax())
        raise AxiomViolation("diagonal", i, f"ell[{i}][{i}] must be >= 0")
    witness = _reverse_triangle_witness(ell, tol)
    if witness is not None:
        i, j, k = witness
        raise AxiomViolation("reverse-triangle", witness,
                             f"ell[{i}][{j}] + ell[{j}][{k}] > ell[{i}][{k}]")


# The triangle scan's size rule: one step of the sweep over middle points (a
# Python loop turn) costs about _SWEEP_STEP_COST entries of the dense (i, j, k)
# cube, so the sweep is taken once its n steps cost less than n^3, n^2 above
# that value. Timed on sprinkled, permuted and sampled-slab matrices with n
# from 100 to 800, on a 2-vCPU x86-64 VM.
_SWEEP_STEP_COST = 5_000
# entries of one broadcast step: (rows, n, n) in the dense triangle scan,
# (pairs, 2n) in the PDP check
_DENSE_CHUNK = 250_000


def _reverse_triangle_witness(ell: np.ndarray, tol: float) -> Optional[tuple[int, int, int]]:
    """Lexicographically least (i, j, k) with ell[i,j] + ell[j,k] > ell[i,k] + tol, or None.

    -inf absorbs on the left, so a violation through the middle point j
    needs i in J-(j) and k in J+(j): finite ell[i, j] and ell[j, k]. Above
    the size rule's n, a sweep over j visits only the rows J-(j) over the
    column span of J+(j), sum_j |J-(j)| span(J+(j)) entries, on the success
    and the failure path; smaller matrices go to the dense scan over the
    whole cube.
    """
    if ell.shape[0] ** 2 > _SWEEP_STEP_COST:
        return _sweep_witness(ell, tol, np.isfinite(ell))
    return _dense_witness(ell, tol)


def _future_spans(causal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """first[j], stop[j]: the column span [first, stop) of J+(j); empty rows get (0, 0)."""
    n = causal.shape[1]
    has = causal.any(axis=1)
    first = np.where(has, causal.argmax(axis=1), 0)
    stop = np.where(has, n - causal[:, ::-1].argmax(axis=1), 0)
    return first, stop


def _sweep_witness(ell: np.ndarray, tol: float,
                   causal: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The least witness by a sweep of the middle points j over J-(j) x span(J+(j)).

    Rows J-(j) are gathered over the column span [first, last] of J+(j),
    sum_j |J-(j)| span(J+(j)) entries. A column k of the span outside
    J+(j) has ell[j, k] = -inf, so its left side is -inf and never a hit.
    `flatnonzero` sorts the rows and the span is in column order, so the
    first hit of `argwhere` is the least (i, k) through j; the least
    witness is the minimum over all j.
    """
    first, stop = _future_spans(causal)
    causal_t = np.ascontiguousarray(causal.T)
    hits = []
    for j in range(ell.shape[0]):
        past, a, b = np.flatnonzero(causal_t[j]), first[j], stop[j]
        lhs = ell[past, j, None] + ell[j, a:b]
        rhs = ell[past, a:b]  # a gathered copy
        rhs += tol
        viol = lhs > rhs
        if viol.any():
            r, c = np.argwhere(viol)[0]
            hits.append((int(past[r]), j, int(a + c)))
    return min(hits, default=None)


def _dense_witness(ell: np.ndarray, tol: float) -> Optional[tuple[int, int, int]]:
    """The least witness by a scan of the whole cube, chunked over i to bound memory."""
    n = ell.shape[0]
    block = max(1, _DENSE_CHUNK // max(n * n, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        lhs = ell[start:stop, :, None] + ell[None, :, :]
        rhs = ell[start:stop, None, :]
        viol = lhs > rhs + tol
        if np.count_nonzero(viol):
            i, j, k = np.argwhere(viol)[0].tolist()
            return start + i, j, k
    return None


def _float_matrix(m, name: str) -> np.ndarray:
    """m as a float array; "-inf"/"inf" strings parse, other malformed input is a shape error."""
    try:
        return np.array(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{name} must be a matrix of numbers: {exc}") from None


def check_labels(labels) -> None:
    """Raise ShapeMismatch unless `labels` is a list or tuple of unique hashable values."""
    if not isinstance(labels, (list, tuple)):
        raise ShapeMismatch(f"labels must be a list, got {labels!r:.40}")
    try:
        unique = len(set(labels)) == len(labels)
    except TypeError as exc:
        raise ShapeMismatch(f"labels must be hashable: {exc}") from None
    if not unique:
        first = next(x for x in labels if labels.count(x) > 1)
        raise ShapeMismatch(f"labels must be unique, {first!r:.40} repeats")


def integer_values(values, what: str) -> np.ndarray:
    """`values` as an int array: a fractional, non-finite or non-numeric value
    raises ShapeMismatch naming them as `what`, never truncated; 2.0 and the
    JSON object key "2.0" read as 2."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        bad = [v for v in arr.ravel().tolist() if not _is_integral(v)]
        if bad:
            raise ShapeMismatch(f"{what} {bad} are not integers")
        arr = arr.astype(float, copy=False)
    return arr.astype(int, copy=False)


def _is_integral(value) -> bool:
    try:
        return float(value).is_integer()
    except (TypeError, ValueError):
        return False


def point_indices(n: int, indices: Sequence[int], what: str) -> np.ndarray:
    """`indices` sorted and deduplicated, as an array of points of range(n).

    The one range rule for point indices from outside: any index outside
    range(n) raises ShapeMismatch naming them as `what`; a negative index is
    rejected, not wrapped, and a fractional one fails `integer_values`.
    """
    idx = integer_values(sorted(set(indices)), what)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        bad = idx[(idx < 0) | (idx >= n)].tolist()
        raise ShapeMismatch(f"{what} {bad} outside range({n})")
    return idx


def check_tol(value, what: str = "tol") -> None:
    """The one tolerance rule: a finite number >= 0, else ShapeMismatch naming `what`."""
    try:
        ok = 0.0 <= value < np.inf
    except (TypeError, ValueError):  # not a number, or an array
        ok = False
    if not ok:
        raise ShapeMismatch(f"{what} must be finite and >= 0, got {value!r}")


def check_seed(seed, what: str = "seed") -> int:
    """The one seed rule, for a count too: an integer >= 0, else ShapeMismatch
    naming `what` and the value."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ShapeMismatch(f"{what} must be an integer >= 0, got {seed!r}")
    return seed


def build_space(labels: Sequence[str], ell, tol: float = DEFAULT_TOL) -> FiniteLorentzSpace:
    """Validate labels, tol (`check_tol`) and the axioms; return the space with its tables."""
    check_labels(labels)
    check_tol(tol)
    ell = _float_matrix(ell, "ell")
    if ell.ndim != 2 or ell.shape[0] != ell.shape[1]:
        raise ShapeMismatch(f"ell must be square, got shape {ell.shape}")
    if ell.shape[0] != len(labels):
        raise ShapeMismatch(f"{len(labels)} labels but {ell.shape[0]}x{ell.shape[1]} matrix")
    validate_matrix(ell, tol)
    return FiniteLorentzSpace(labels, ell, tol)


@dataclass(frozen=True)
class CausalityReport:
    chronological: bool
    causal: bool
    pdp: bool
    witnesses: dict


def _indistinguishable_pairs(space: FiniteLorentzSpace) -> list[tuple[int, int]]:
    """Pairs i<j with identical ell-rows and ell-columns (within tol), row-major.

    Candidate then verify, on profiles [row | column], for a finite tol. An
    entry that is not finite then matches only an equal entry, so matching
    profiles are finite at the same places, and at (i, i), (j, i), (i, j)
    and (j, j) that makes the 2 x 2 block of `causal` constant. Those pairs
    are the candidates: on a validated space, whose diagonal is finite, the
    causal two-cycles, so a causal space needs no profile comparison. One
    gap-rule check, `gap_matrix <= tol` on every entry, verifies them.
    """
    c = space.causal
    d = c.diagonal()
    same = c == d[:, None]  # (i, j) is finite exactly when (i, i) is
    i, j = np.nonzero(same & same.T & (d[:, None] == d))
    upper = i < j
    i, j = i[upper], j[upper]
    if not i.size:
        return []
    prof = np.concatenate((space.ell, space.ell.T), axis=1)
    step = _DENSE_CHUNK // (2 * space.n)  # candidates per chunk of the check
    keep = np.concatenate([_profiles_match(prof[i[k:k + step]], prof[j[k:k + step]], space.tol)
                           for k in range(0, i.size, step)])
    return list(zip(i[keep].tolist(), j[keep].tolist()))


def _profiles_match(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The gap rule over whole profiles: every entry of a within tol of b's."""
    return (gap_matrix(a, b) <= tol).all(axis=-1)


def _causal_two_cycles(space: FiniteLorentzSpace) -> list[tuple[int, int]]:
    """Pairs i<j related causally both ways, in row-major order."""
    i, j = np.nonzero(space.causal & space.causal.T)
    keep = i < j
    return list(zip(i[keep].tolist(), j[keep].tolist()))


def causality_class(space: FiniteLorentzSpace) -> CausalityReport:
    """Exhaustive scan for the chronological / causal / PDP conditions."""
    chron_bad = np.flatnonzero(space.ell.diagonal() > space.tol).tolist()
    causal_bad = _causal_two_cycles(space)
    pdp_bad = _indistinguishable_pairs(space)
    return CausalityReport(
        chronological=not chron_bad,
        causal=not causal_bad,
        pdp=not pdp_bad,
        witnesses={"chronological": chron_bad, "causal": causal_bad, "pdp": pdp_bad},
    )


def quotient_tau_indistinguishable(space: FiniteLorentzSpace):
    """Collapse ell-indistinguishable points.

    Two points are indistinguishable when their ell-rows and ell-columns
    match entrywise within `space.tol` (-inf only against -inf). "Within
    tol" is not transitive: classes are the connected components of the
    pairwise relation, so a chain a~b~c collapses to one class even when a
    and c differ by more than tol. The representative of a class is its
    lowest original index. Returns (quotient space, projection array).
    """
    n = space.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in _indistinguishable_pairs(space):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    rep = [find(i) for i in range(n)]  # rep[i] <= i: roots are the i with rep[i] == i
    roots = [i for i in range(n) if rep[i] == i]
    class_of_root = {r: c for c, r in enumerate(roots)}
    projection = np.array([class_of_root[r] for r in rep], dtype=int)
    return space.restrict(roots), projection


def classify_special_points(space: FiniteLorentzSpace) -> dict[str, Optional[int]]:
    """Locate the spacelike-boundary and null-infinity points, if present.

    Requires (PDP); each pattern can match at most one point then. A
    1-point space returns all None (the patterns are vacuous there).
    """
    if _indistinguishable_pairs(space):
        raise PrePDPRequired("space must satisfy the point distinction property")
    n, ell, tol = space.n, space.ell, space.tol
    diag = np.eye(n, dtype=bool)  # the patterns read off-diagonal entries only
    unrelated = np.isneginf(ell) | diag
    null = (np.abs(ell) <= tol) | diag
    ok = (np.diagonal(ell) <= tol) & (n > 1)
    patterns = {"i0": unrelated.all(axis=0) & unrelated.all(axis=1),
                "n_plus": null.all(axis=0) & unrelated.all(axis=1),
                "n_minus": unrelated.all(axis=0) & null.all(axis=1)}
    hits = {kind: np.flatnonzero(mask & ok) for kind, mask in patterns.items()}
    return {kind: int(h[-1]) if h.size else None for kind, h in hits.items()}  # the last match


def timelike_diameter(space: FiniteLorentzSpace, subset: Sequence[int]) -> float:
    """sup of tau over subset x subset."""
    idx = point_indices(space.n, subset, "subset")
    if not idx.size:
        raise EmptySubset("timelike diameter of the empty set")
    return max(0.0, float(space.ell[np.ix_(idx, idx)].max()))


ISOMETRY_SIZE_CAP = 24  # the exact search's size cap, as corr.EXACT_SIZE_CAP is the matcher's


def isometry_search(a: FiniteLorentzSpace, b: FiniteLorentzSpace) -> Optional[dict[int, int]]:
    """Search for an exactly ell-preserving bijection a -> b; None if there is none.

    Exact mode only (|a| = |b| <= ISOMETRY_SIZE_CAP); larger instances should
    fall back to corr.min_distortion for near-isometry evidence. Backtracking with
    row/column signature pruning; result is deterministic (lexicographically
    least image over the search order).
    """
    if a.n != b.n:
        raise SizeMismatch(f"|a| = {a.n} != |b| = {b.n}")
    if a.n > ISOMETRY_SIZE_CAP:
        raise CapExceeded(f"exact mode size cap exceeded ({a.n} > {ISOMETRY_SIZE_CAP})")

    # an a-point can only map to a b-point with the same sorted row and
    # column; the search takes the points with the fewest such matches first
    rows_a, rows_b = np.sort(a.ell, axis=1), np.sort(b.ell, axis=1)
    cols_a, cols_b = np.sort(a.ell, axis=0), np.sort(b.ell, axis=0)
    matches = [[j for j in range(b.n) if np.array_equal(rows_a[i], rows_b[j])
                and np.array_equal(cols_a[:, i], cols_b[:, j])] for i in range(a.n)]
    order = sorted(range(a.n), key=lambda i: len(matches[i]))
    ea, eb = a.ell, b.ell
    image = [-1] * a.n
    used = [False] * b.n

    def extend(pos):
        if pos == a.n:
            return True
        i = order[pos]
        for c in matches[i]:
            if used[c] or ea[i, i] != eb[c, c] or any(
                    ea[i, j] != eb[c, image[j]] or ea[j, i] != eb[image[j], c]
                    for j in order[:pos]):
                continue
            image[i], used[c] = c, True
            if extend(pos + 1):
                return True
            used[c] = False
        return False

    return dict(enumerate(image)) if extend(0) else None


@dataclass(frozen=True)
class CoveredFiniteSpace:
    """A space with a basepoint and an increasing exhaustion by index subsets."""

    space: FiniteLorentzSpace
    basepoint: int
    cover: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.space.n
        if not self.cover:
            raise ShapeMismatch("cover must have at least one level")
        prev: set[int] = set()
        for k, level in enumerate(self.cover):
            point_indices(n, level, f"cover level {k}")
            s = set(level)
            if not s.issuperset(prev):
                raise ShapeMismatch(f"cover level {k} does not contain level {k - 1}")
            if self.basepoint not in s:
                raise ShapeMismatch(f"basepoint {self.basepoint} missing from cover level {k}")
            prev = s
        if prev != set(range(n)):  # the levels increase, so the last one is their union
            raise ShapeMismatch("union of cover levels must equal the whole point set")


def covered(space: FiniteLorentzSpace, basepoint: int,
            cover: Sequence[Sequence[int]]) -> CoveredFiniteSpace:
    return CoveredFiniteSpace(space=space, basepoint=basepoint,
                              cover=tuple(tuple(sorted(set(level))) for level in cover))
