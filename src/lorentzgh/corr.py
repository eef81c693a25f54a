"""Correspondences between spaces, distortion, and convergence certificates.

Distortion follows the sign conventions of extended time: matched pairs of
causally-unrelated pairs contribute 0, mixed unrelated/related pairs are an
absorbing INF_GAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import FiniteLorentzSpace
from .errors import (CapExceeded, CardinalityMismatch, EmptySubset, MiddleMismatch,
                     ShapeMismatch)
from .extended import INF_GAP, gap, gap_matrix
from .nets import DiamondNet

EXACT_SIZE_CAP = 8


@dataclass(frozen=True)
class Correspondence:
    """A total two-sided relation between range(n_left) and range(n_right)."""

    pairs: tuple[tuple[int, int], ...]
    n_left: int
    n_right: int

    def __post_init__(self):
        left = {x for x, _ in self.pairs}
        right = {y for _, y in self.pairs}
        if left != set(range(self.n_left)):
            raise ShapeMismatch(f"left points {sorted(set(range(self.n_left)) - left)} unmatched")
        if right != set(range(self.n_right)):
            raise ShapeMismatch(f"right points {sorted(set(range(self.n_right)) - right)} unmatched")

    def inverse(self) -> "Correspondence":
        return Correspondence(tuple(sorted((y, x) for x, y in self.pairs)),
                              self.n_right, self.n_left)


def make_correspondence(pairs: Sequence[tuple[int, int]], n_left: int, n_right: int) -> Correspondence:
    return Correspondence(tuple(sorted(set((int(x), int(y)) for x, y in pairs))), n_left, n_right)


def _sup_gap(a, b, xs, ys) -> float:
    """sup over k, m of gap(ell_a[xs[k], xs[m]], ell_b[ys[k], ys[m]]); 0 over no pairs."""
    return float(gap_matrix(a.ell[np.ix_(xs, xs)], b.ell[np.ix_(ys, ys)]).max(initial=0.0))


def distortion(r: Correspondence, a: FiniteLorentzSpace, b: FiniteLorentzSpace) -> float:
    """sup over pairs-of-pairs of |ell_a - ell_b| under the conventions.

    A correspondence sized for other spaces raises ShapeMismatch.
    """
    if (r.n_left, r.n_right) != (a.n, b.n):
        raise ShapeMismatch(f"correspondence is {r.n_left}x{r.n_right} "
                            f"but the spaces have {a.n} and {b.n} points")
    xs = np.array([x for x, _ in r.pairs], dtype=int)
    ys = np.array([y for _, y in r.pairs], dtype=int)
    return _sup_gap(a, b, xs, ys)


def compose(r: Correspondence, q: Correspondence) -> Correspondence:
    """Relational composition A<->B then B<->C; totality is preserved."""
    if r.n_right != q.n_left:
        raise MiddleMismatch(f"middle sizes differ: {r.n_right} vs {q.n_left}")
    by_mid: dict[int, list[int]] = {}
    for y, z in q.pairs:
        by_mid.setdefault(y, []).append(z)
    out = {(x, z) for x, y in r.pairs for z in by_mid.get(y, ())}
    return make_correspondence(sorted(out), r.n_left, q.n_right)


# ---------------------------------------------------------------------------
# minimal-distortion search
#
# Every correspondence contains a sub-correspondence graph(f) u graph(g)^-1
# (f any left selection, g a partner for each otherwise-uncovered right
# point) of no larger distortion, so searching that family finds the global
# minimum.
# ---------------------------------------------------------------------------


def _pairs_from_maps(fmap: Sequence[int], partners: dict[int, int]) -> tuple[tuple[int, int], ...]:
    pairs = {(x, y) for x, y in enumerate(fmap)}
    pairs.update((x, y) for y, x in partners.items())
    return tuple(sorted(pairs))


class _ExactSearch:
    """Depth-first search over (f, g) selections with incremental sup pruning."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        self.best_val = INF_GAP
        self.best_pairs: Optional[tuple] = None
        self.pairs: list[tuple[int, int]] = []
        self.right_covered = [0] * b.n

    def seed(self, val, pairs):
        if val < self.best_val:
            self.best_val = val
            self.best_pairs = pairs

    def _incremental(self, x, y, cur):
        ea, eb = self.a.ell, self.b.ell
        d = max(cur, gap(ea[x, x], eb[y, y]))
        for x2, y2 in self.pairs:
            if d >= self.best_val:
                return d
            d = max(d, gap(ea[x, x2], eb[y, y2]), gap(ea[x2, x], eb[y2, y]))
        return d

    def _push(self, x, y):
        self.pairs.append((x, y))
        self.right_covered[y] += 1

    def _pop(self):
        x, y = self.pairs.pop()
        self.right_covered[y] -= 1

    def run(self):
        self._dfs_left(0, 0.0)
        return self.best_val, self.best_pairs

    def _dfs_left(self, i, cur):
        if i == self.a.n:
            uncovered = [y for y in range(self.b.n) if not self.right_covered[y]]
            self._dfs_right(uncovered, 0, cur)
            return
        for y in range(self.b.n):
            d = self._incremental(i, y, cur)
            if d >= self.best_val:
                continue
            self._push(i, y)
            self._dfs_left(i + 1, d)
            self._pop()

    def _dfs_right(self, uncovered, j, cur):
        if j == len(uncovered):
            if cur < self.best_val:
                self.best_val = cur
                self.best_pairs = tuple(sorted(self.pairs))
            return
        y = uncovered[j]
        for x in range(self.a.n):
            d = self._incremental(x, y, cur)
            if d >= self.best_val:
                continue
            self._push(x, y)
            self._dfs_right(uncovered, j + 1, d)
            self._pop()


def _candidate_scores(cand, fixed, cs, fs, f0):
    """Incremental sup for pairing every point c of `cand` with point f0 of `fixed`.

    (cs[k], fs[k]) are the pairs chosen so far, cand-side index first. The
    right side calls this with the spaces swapped; gap is symmetric.
    """
    fwd = gap_matrix(cand.ell[:, cs], fixed.ell[f0, fs])
    bwd = gap_matrix(cand.ell[cs, :].T, fixed.ell[fs, f0])
    scores = np.maximum(fwd, bwd).max(axis=1, initial=0.0)
    return np.maximum(scores, gap_matrix(np.diagonal(cand.ell), fixed.ell[f0, f0]))


def _complete_and_eval(a, b, fmap, bound=None):
    """Cover uncovered right points greedily; return (corr, distortion), or None.

    The running sup starts at the sup over the fmap's pairs and takes the max
    with each added partner's score. It covers every pair of pairs of the
    result, so at the end it is the distortion. None: it reached `bound`.
    """
    covered = set(fmap)
    partners: dict[int, int] = {}
    xs, ys = list(range(len(fmap))), list(fmap)
    sup = _sup_gap(a, b, xs, ys)
    for y in range(b.n):
        if bound is not None and sup >= bound:
            return None
        if y in covered:
            continue
        scores = _candidate_scores(a, b, np.array(xs, dtype=int), np.array(ys, dtype=int), y)
        best_x = int(np.argmin(scores))
        sup = max(sup, float(scores[best_x]))
        partners[y] = best_x
        xs.append(best_x)
        ys.append(y)
    if bound is not None and sup >= bound:
        return None
    return make_correspondence(_pairs_from_maps(fmap, partners), a.n, b.n), sup


def _greedy_fmap(a, b, bound=None):
    """Left selection by least incremental sup; None once a chosen score reaches `bound`."""
    fmap: list[int] = []
    for x in range(a.n):
        scores = _candidate_scores(b, a, np.array(fmap, dtype=int), np.arange(x), x)
        y = int(np.argmin(scores))
        if bound is not None and scores[y] >= bound:
            return None
        fmap.append(y)
    return fmap


def min_distortion(a: FiniteLorentzSpace, b: FiniteLorentzSpace, mode: str = "heuristic",
                   seed: int = 0):
    """Minimal-distortion correspondence search.

    exact: global minimizer (branch and bound), sizes capped at 8.
    heuristic: the best completed seed. Each seed is a left map f, completed
    by giving every right point outside f's image its least-score partner.
    The seeds, in order: the identity (equal sizes), the canonical label
    matching (same label set in another order), the greedy map, then 8
    random maps drawn from `seed` (none above 150 points). Never below the
    exact minimum, deterministic for a given seed; its value is only an
    upper bound on the minimum.

    Every seed after the first is abandoned once its running sup reaches the
    best value so far. That sup is taken over a subset of the seed's final
    pairs, so it never exceeds the seed's distortion: an abandoned seed could
    not have won, and the result is the one the full search returns.

    Two empty spaces match by the empty correspondence at 0; exactly one
    empty side raises EmptySubset, as no total correspondence exists.
    Returns (correspondence, distortion value).
    """
    if (a.n == 0) != (b.n == 0):
        raise EmptySubset(f"no correspondence between {a.n} and {b.n} points")
    if mode == "exact":
        if a.n > EXACT_SIZE_CAP or b.n > EXACT_SIZE_CAP:
            raise CapExceeded(f"exact mode size cap exceeded ({max(a.n, b.n)} > {EXACT_SIZE_CAP})")
        search = _ExactSearch(a, b)
        corr0, val0 = _heuristic(a, b, seed, restarts=4)
        search.seed(val0, corr0.pairs)
        val, pairs = search.run()
        if pairs is None:  # heuristic seed was already optimal
            return corr0, val0
        return make_correspondence(pairs, a.n, b.n), val
    if mode != "heuristic":
        raise ShapeMismatch(f"unknown mode {mode!r}")
    return _heuristic(a, b, seed, restarts=8)


def _heuristic(a, b, seed, restarts):
    rng = np.random.default_rng(seed)
    if max(a.n, b.n) > 150:
        restarts = 0  # random seeds are useless noise at this scale

    def seed_maps():
        if a.n == b.n:
            yield list(range(a.n))  # identity
        if set(a.labels) == set(b.labels) and a.labels != b.labels:
            lookup = {lab: j for j, lab in enumerate(b.labels)}
            yield [lookup[lab] for lab in a.labels]  # canonical label matching
        greedy = _greedy_fmap(a, b, bound())
        if greedy is not None:
            yield greedy
        for _ in range(restarts):
            if a.n == b.n:
                yield list(rng.permutation(a.n))
            else:
                yield list(rng.integers(0, b.n, size=a.n))

    def bound():
        return None if best_corr is None else best_val  # the first seed runs in full

    best_corr, best_val = None, INF_GAP + 0.0
    for fmap in seed_maps():
        found = _complete_and_eval(a, b, fmap, bound())
        if found is not None:
            best_corr, best_val = found
        if best_val == 0.0:
            break
    return best_corr, best_val


# ---------------------------------------------------------------------------
# LGH convergence certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateMember:
    """One sequence element: a space, its per-scale nets, and the covered subset."""

    space: FiniteLorentzSpace
    nets: tuple[DiamondNet, ...]
    subset: Optional[tuple[int, ...]] = None
    index: Optional[int] = None  # sequence position n, for reporting

    def subset_indices(self) -> tuple[int, ...]:
        if self.subset is not None:
            return self.subset
        return tuple(range(self.space.n))


@dataclass(frozen=True)
class ConvergenceReport:
    stages: tuple[dict, ...]      # one record per (scale l, member n)
    extension_records: tuple[dict, ...]
    extension_ok: bool
    forward_density_ok: bool
    strong: bool
    density_witnesses: tuple[int, ...] = field(default=())


def slot_matching(net_a: DiamondNet, net_b: DiamondNet) -> dict[int, int]:
    """Vertex map aligning same-position diamonds of two equally-long nets."""
    if len(net_a) != len(net_b):
        raise ShapeMismatch("slot matching needs equal net cardinalities")
    out: dict[int, int] = {}
    for (p, q), (p2, q2) in zip(net_a.pairs, net_b.pairs):
        out[p] = p2
        out[q] = q2
    return out


def _matching_distortion(matching: dict[int, int], a, b) -> float:
    xs = np.array(sorted(matching), dtype=int)
    ys = np.array([matching[x] for x in xs], dtype=int)
    return _sup_gap(a, b, xs, ys)


def lgh_certificate(sequence: Sequence[CertificateMember], limit: CertificateMember,
                    matchings: Optional[dict] = None,
                    convergence_tol: Optional[float] = None) -> ConvergenceReport:
    """Evidence record for LGH convergence of the sequence subsets to the limit subset.

    matchings: optional {(l, n): vertex map member->limit}; absent entries are
    searched with min_distortion. extension_ok records, per (l, n), the first
    n' >= n whose scale-(l+1) matching restricts to the scale-l one without
    increasing distortion. Forward density is checked on the limit: every
    non-vertex subset point needs a vertex below it (strong: a chronological
    one).
    """
    n_scales = len(limit.nets)
    n_members = len(sequence)
    matchings = matchings or {}

    stages = []
    stage_dis = {}
    for l in range(n_scales):
        for n, member in enumerate(sequence):
            if len(member.nets) <= l:
                raise CardinalityMismatch(l, n, "member lacks a net at this scale")
            if len(member.nets[l]) != len(limit.nets[l]):
                raise CardinalityMismatch(l, n)
            key = (l, n)
            if key in matchings:
                dis = _matching_distortion(matchings[key], member.space, limit.space)
            else:
                va = member.nets[l].vertices()
                vb = limit.nets[l].vertices()
                sub_a = member.space.restrict(va)
                sub_b = limit.space.restrict(vb)
                mode = "exact" if max(sub_a.n, sub_b.n) <= EXACT_SIZE_CAP else "heuristic"
                _, dis = min_distortion(sub_a, sub_b, mode=mode)
            stage_dis[key] = dis
            stages.append({"l": l, "n": member.index if member.index is not None else n,
                           "distortion": dis,
                           "epsilon_member": member.nets[l].epsilon,
                           "epsilon_limit": limit.nets[l].epsilon,
                           "cardinality": len(limit.nets[l])})

    # extension property: the scale-l map on V(S^l) extends over
    # V(S^l) u V(S^{l+1}) at some n' >= n without increasing distortion.
    # The source allows arbitrarily late n'; tail members whose n' falls past
    # the truncation are recorded as "beyond" (with the union-distortion
    # trend as evidence), not as failures.
    ext_records = []
    extension_ok = True
    tol = limit.space.tol
    union_cache: dict[tuple[int, int], Optional[float]] = {}

    def union_dis(l, n2):
        key = (l, n2)
        if key not in union_cache:
            if (l + 1, n2) not in matchings or (l, n2) not in matchings:
                union_cache[key] = None
            else:
                fine = matchings[(l + 1, n2)]
                coarse = matchings[(l, n2)]
                if any(fine[v] != coarse[v] for v in fine.keys() & coarse.keys()):
                    union_cache[key] = None  # maps conflict on shared vertices
                else:
                    union_cache[key] = _matching_distortion({**coarse, **fine},
                                                            sequence[n2].space, limit.space)
        return union_cache[key]

    for l in range(n_scales - 1):
        for n in range(n_members):
            if (l, n) not in matchings:
                continue
            found = None
            trend = []
            for n2 in range(n, n_members):
                du = union_dis(l, n2)
                if du is None:
                    continue
                trend.append(du)
                if du <= stage_dis[(l, n)] + tol:
                    found = n2
                    break
            if found is not None:
                ext_records.append({"l": l, "n": n, "n_prime": found})
            elif len(trend) >= 1 and trend[-1] < INF_GAP and \
                    (len(trend) == 1 or trend[-1] <= trend[0]):
                ext_records.append({"l": l, "n": n, "n_prime": "beyond",
                                    "union_distortions": trend})
            else:
                ext_records.append({"l": l, "n": n, "n_prime": None})
                extension_ok = False
    if not any((l, n) in matchings for l in range(n_scales - 1) for n in range(n_members)) \
            and n_scales > 1:
        extension_ok = False  # nothing to extend against without supplied matchings

    # forward density in the limit
    all_vertices: set[int] = set()
    for net in limit.nets:
        all_vertices.update(net.vertices())
    subset = limit.subset_indices()
    vlist = np.array(sorted(all_vertices), dtype=int)
    weak_fail, strong_fail = [], []
    for x in subset:
        if x in all_vertices:
            continue
        if not limit.space.causal[vlist, x].any():
            weak_fail.append(x)
        if not limit.space.chron[vlist, x].any():
            strong_fail.append(x)
    forward_density_ok = not weak_fail
    strong_density = not strong_fail

    # convergence judged from the first finite member onward (the definition
    # only constrains n >= n0); an infinite tail is always fatal
    settled = True
    for l in range(n_scales):
        per_scale = [stage_dis[(l, n)] for n in range(n_members)]
        finite_from = next((i for i, d in enumerate(per_scale) if d < INF_GAP), None)
        if finite_from is None or per_scale[-1] >= INF_GAP:
            settled = False
            continue
        tail = per_scale[finite_from:]
        if any(d >= INF_GAP for d in tail):
            settled = False
        if tail[-1] > tail[0] + tol:
            settled = False
        if convergence_tol is not None and tail[-1] > convergence_tol:
            settled = False

    strong = bool(settled and extension_ok and strong_density)
    return ConvergenceReport(stages=tuple(stages),
                             extension_records=tuple(ext_records),
                             extension_ok=extension_ok,
                             forward_density_ok=forward_density_ok,
                             strong=strong,
                             density_witnesses=tuple(weak_fail))
