"""Correspondences between spaces, distortion, and convergence certificates.

Distortion follows the sign conventions of extended time: matched pairs of
causally-unrelated pairs contribute 0, mixed unrelated/related pairs are an
absorbing INF_GAP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import FiniteLorentzSpace, check_seed, check_tol, integer_values, point_indices
from .errors import (CapExceeded, CardinalityMismatch, EmptySubset, MiddleMismatch,
                     ShapeMismatch)
from .extended import INF_GAP, gap_matrix
from .nets import DiamondNet

EXACT_SIZE_CAP = 8


@dataclass(frozen=True)
class Correspondence:
    """A total two-sided relation between range(n_left) and range(n_right)."""

    pairs: tuple[tuple[int, int], ...]
    n_left: int
    n_right: int

    def __post_init__(self):
        for side, n, k in (("left", self.n_left, 0), ("right", self.n_right, 1)):
            hit = point_indices(n, [pair[k] for pair in self.pairs], f"{side} points")
            if hit.size != n:
                raise ShapeMismatch(f"{side} points {np.setdiff1d(range(n), hit).tolist()} unmatched")


def make_correspondence(pairs: Sequence[tuple[int, int]], n_left: int, n_right: int) -> Correspondence:
    pairs = integer_values(list(pairs), "correspondence points").tolist()
    return Correspondence(tuple(sorted(set((x, y) for x, y in pairs))), n_left, n_right)


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


def _exact_search(a, b, best_val):
    """Depth-first search over (f, g) selections with incremental sup pruning.

    cost[x, y, x2, y2] is the larger of the two gaps that pairs (x, y) and
    (x2, y2) add, so a pair's increment is a max over the pairs chosen so
    far. Returns (value, pairs) of the best selection below `best_val`, or
    (best_val, None) when none is below it.
    """
    g = gap_matrix(a.ell[:, None, :, None], b.ell[None, :, None, :])
    # memoryview indexing yields Python floats without the memory of nested lists
    cost = memoryview(np.maximum(g, g.transpose(2, 3, 0, 1)))
    chosen: list[tuple[int, int]] = []
    best_pairs = None

    def push(x, y, cur):
        """Choose (x, y) and return the new sup; None once it reaches best_val."""
        d = max(cur, cost[x, y, x, y])
        for x2, y2 in chosen:
            if d >= best_val:
                return None
            d = max(d, cost[x, y, x2, y2])
        if d >= best_val:
            return None
        chosen.append((x, y))
        return d

    def dfs_left(i, cur):
        if i == a.n:
            covered = {y for _, y in chosen}
            dfs_right([y for y in range(b.n) if y not in covered], 0, cur)
            return
        for y in range(b.n):
            d = push(i, y, cur)
            if d is not None:
                dfs_left(i + 1, d)
                chosen.pop()

    def dfs_right(uncovered, j, cur):
        nonlocal best_val, best_pairs
        if j == len(uncovered):
            if cur < best_val:
                best_val, best_pairs = cur, tuple(sorted(chosen))
            return
        for x in range(a.n):
            d = push(x, uncovered[j], cur)
            if d is not None:
                dfs_right(uncovered, j + 1, d)
                chosen.pop()

    dfs_left(0, 0.0)
    return best_val, best_pairs


def _best_partner(cand, fixed, cs, fs, f0):
    """The point of `cand` whose pairing with point f0 of `fixed` adds the least sup, and that sup.

    (cs[k], fs[k]) are the pairs chosen so far, cand-side index first. The
    left side calls this with the spaces swapped; gap is symmetric. Ties go
    to the lowest index.
    """
    cs, fs = np.array(cs, dtype=int), np.array(fs, dtype=int)
    fwd = gap_matrix(cand.ell[:, cs], fixed.ell[f0, fs])
    bwd = gap_matrix(cand.ell[cs, :].T, fixed.ell[fs, f0])
    scores = np.maximum(fwd, bwd).max(axis=1, initial=0.0)
    scores = np.maximum(scores, gap_matrix(np.diagonal(cand.ell), fixed.ell[f0, f0]))
    c = int(np.argmin(scores))
    return c, float(scores[c])


def _complete(a, b, fmap, bound=None):
    """Finish the partial left map `fmap` by the greedy rule; (corr, distortion), or None.

    The rule gives a point its `_best_partner` given the pairs chosen so far.
    Left points past the end of `fmap` get one in order, then every right
    point still uncovered gets one. The running sup starts at the sup over
    fmap's pairs and takes the max with each chosen score, so it covers
    every pair of pairs of the result and ends at its distortion. None: it
    reached `bound`.
    """
    xs, ys = list(range(len(fmap))), list(fmap)
    sup = _sup_gap(a, b, np.array(xs, dtype=int), np.array(ys, dtype=int))
    for x in range(len(fmap), a.n):
        if bound is not None and sup >= bound:
            return None
        y, score = _best_partner(b, a, ys, xs, x)
        sup = max(sup, score)
        xs.append(x)
        ys.append(y)
    covered = set(ys)
    for y in range(b.n):
        if bound is not None and sup >= bound:
            return None
        if y not in covered:
            x, score = _best_partner(a, b, xs, ys, y)
            sup = max(sup, score)
            xs.append(x)
            ys.append(y)
    if bound is not None and sup >= bound:
        return None
    return make_correspondence(zip(xs, ys), a.n, b.n), sup


def min_distortion(a: FiniteLorentzSpace, b: FiniteLorentzSpace, mode: str = "heuristic",
                   seed: int = 0):
    """Minimal-distortion correspondence search.

    exact: global minimizer, sizes capped at 8: branch and bound below the
    value of the heuristic, which runs first with the same seeds.
    heuristic: the best completed seed. Each seed is a partial left map f,
    and one greedy rule completes every seed: each left point past the end
    of f, then each right point outside f's image, gets the partner of least
    incremental sup. The seeds, in order: the identity (equal sizes), the
    canonical label matching (same label set in another order), the empty
    map (greedy), then 8 random maps drawn from `seed` (none above 150
    points). Never below the exact minimum, deterministic for a given seed;
    its value is only an upper bound on the minimum.

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
        corr0, val0 = _heuristic(a, b, seed)
        val, pairs = _exact_search(a, b, val0)
        if pairs is None:  # heuristic seed was already optimal
            return corr0, val0
        return make_correspondence(pairs, a.n, b.n), val
    if mode != "heuristic":
        raise ShapeMismatch(f"unknown mode {mode!r}")
    return _heuristic(a, b, seed)


def _heuristic(a, b, seed):
    rng = np.random.default_rng(check_seed(seed))
    restarts = 0 if max(a.n, b.n) > 150 else 8  # random seeds are useless noise at that scale

    def seed_maps():
        if a.n == b.n:
            yield list(range(a.n))  # identity
        if set(a.labels) == set(b.labels) and a.labels != b.labels:
            lookup = {lab: j for j, lab in enumerate(b.labels)}
            yield [lookup[lab] for lab in a.labels]  # canonical label matching
        yield []  # greedy: the rule alone
        for _ in range(restarts):
            if a.n == b.n:
                yield list(rng.permutation(a.n))
            else:
                yield list(rng.integers(0, b.n, size=a.n))

    best_corr, best_val = None, INF_GAP + 0.0
    for fmap in seed_maps():
        # the first seed runs in full
        found = _complete(a, b, fmap, None if best_corr is None else best_val)
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


def _union_distortion(coarse: dict[int, int], fine: dict[int, int], space,
                      limit_space) -> Optional[float]:
    """Distortion of two vertex maps taken together; None when they conflict on a shared vertex."""
    if any(fine[v] != coarse[v] for v in fine.keys() & coarse.keys()):
        return None
    return _matching_distortion({**coarse, **fine}, space, limit_space)


def lgh_certificate(sequence: Sequence[CertificateMember], limit: CertificateMember,
                    matchings: Optional[dict] = None,
                    convergence_tol: Optional[float] = None) -> ConvergenceReport:
    """Evidence record for LGH convergence of the sequence subsets to the limit subset.

    matchings: optional {(l, n): vertex map member->limit}; absent entries are
    searched with min_distortion. extension_ok records, per (l, n), the first
    n' >= n whose scale-(l+1) matching restricts to the scale-l one without
    increasing distortion; each union of two supplied maps is evaluated at
    most once, and none past the first n' that works. With several scales
    and no supplied matching below the last, extension_ok is False. Forward
    density is checked on the limit: every non-vertex subset point needs a
    vertex below it (strong: a chronological one); density_witnesses keeps
    the subset's order and repeats. Each scale's stages settle when the tail
    from the first finite stage on is nonempty and finite, ends at most tol
    above its start and, if given, at most convergence_tol.

    A limit subset point, a net vertex or a supplied matching's key or value
    outside its space raises ShapeMismatch, and so does a convergence_tol
    that fails `check_tol`.
    """
    if convergence_tol is not None:
        check_tol(convergence_tol, "convergence_tol")
    n_scales = len(limit.nets)
    n_members = len(sequence)
    matchings = matchings or {}
    subset = np.array(limit.subset_indices(), dtype=int)
    point_indices(limit.space.n, subset, "limit subset")
    vertices = point_indices(limit.space.n, [v for net in limit.nets for v in net.vertices()],
                             "limit net vertices")

    stages = []
    stage_dis = {}
    for l in range(n_scales):
        sub_b = limit.space.restrict(limit.nets[l].vertices())
        for n, member in enumerate(sequence):
            if len(member.nets) <= l:
                raise CardinalityMismatch(l, n, "member lacks a net at this scale")
            if len(member.nets[l]) != len(limit.nets[l]):
                raise CardinalityMismatch(l, n)
            va = member.nets[l].vertices()
            point_indices(member.space.n, va, "member net vertices")
            key = (l, n)
            if key in matchings:
                point_indices(member.space.n, matchings[key].keys(), "matching keys")
                point_indices(limit.space.n, matchings[key].values(), "matching values")
                dis = _matching_distortion(matchings[key], member.space, limit.space)
            else:
                sub_a = member.space.restrict(va)
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
    tol = limit.space.tol

    @functools.cache
    def union(l, n2):
        if (l, n2) in matchings and (l + 1, n2) in matchings:
            return _union_distortion(matchings[(l, n2)], matchings[(l + 1, n2)],
                                     sequence[n2].space, limit.space)
        return None

    ext_records = []
    extension_ok = n_scales < 2 or any((l, n) in matchings for l in range(n_scales - 1)
                                       for n in range(n_members))
    for l in range(n_scales - 1):
        for n in range(n_members):
            if (l, n) not in matchings:
                continue
            trend = []
            for n2 in range(n, n_members):
                du = union(l, n2)
                if du is None:
                    continue
                trend.append(du)
                if du <= stage_dis[(l, n)] + tol:
                    ext_records.append({"l": l, "n": n, "n_prime": n2})
                    break
            else:
                if trend and trend[-1] < INF_GAP and trend[-1] <= trend[0]:
                    ext_records.append({"l": l, "n": n, "n_prime": "beyond",
                                        "union_distortions": trend})
                else:
                    ext_records.append({"l": l, "n": n, "n_prime": None})
                    extension_ok = False

    # forward density in the limit
    rest = subset[~np.isin(subset, vertices)]
    witnesses = rest[~limit.space.causal[np.ix_(vertices, rest)].any(axis=0)].tolist()
    strong_fail = not limit.space.chron[np.ix_(vertices, rest)].any(axis=0).all()

    # convergence judged from the first finite member onward (the definition
    # only constrains n >= n0); an infinite tail is always fatal
    def settled(l):
        dis = [stage_dis[(l, n)] for n in range(n_members)]
        tail = dis[next((n for n, d in enumerate(dis) if d < INF_GAP), n_members):]
        return bool(tail) and INF_GAP not in tail and tail[-1] <= tail[0] + tol and \
            (convergence_tol is None or tail[-1] <= convergence_tol)

    strong = all(settled(l) for l in range(n_scales)) and extension_ok and not strong_fail
    return ConvergenceReport(stages=tuple(stages),
                             extension_records=tuple(ext_records),
                             extension_ok=extension_ok,
                             forward_density_ok=not witnesses,
                             strong=strong,
                             density_witnesses=tuple(witnesses))
