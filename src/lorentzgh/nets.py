"""Causal-diamond epsilon-nets: verification, greedy construction, doubling.

A net is an ordered list of vertex pairs (p, q); the diamond of a pair is
J(p, q) = J+(p) & J-(q) in a given space. Ordering matters downstream
(induced measures depend on it), so nets are sequences, not sets.

Every membership question "is z in J(p, q)?" goes through one batched
kernel, `diamond_masks`, which returns the (pairs x points) boolean matrix;
nets, doubling and `measured.induce_net_measure` all read it. `_admissible`
marks admissible diamonds (causal, tau <= epsilon + tol) in aligned tables.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import CoveredFiniteSpace, FiniteLorentzSpace
from .errors import ShapeMismatch, Uncoverable

ALL_CANDIDATES = "all"
CHRONOLOGICAL_CANDIDATES = "chronological"


@dataclass(frozen=True)
class DiamondNet:
    pairs: tuple[tuple[int, int], ...]
    epsilon: float

    def __len__(self) -> int:
        return len(self.pairs)

    def vertices(self) -> tuple[int, ...]:
        """V(S): all diamond vertices, ascending, deduplicated."""
        seen = set()
        for p, q in self.pairs:
            seen.add(p)
            seen.add(q)
        return tuple(sorted(seen))


@dataclass(frozen=True)
class NetCheck:
    ok: bool
    uncovered: tuple[int, ...]
    oversized: tuple[tuple[int, int], ...]


def diamond_masks(space: FiniteLorentzSpace, pairs: Sequence[tuple[int, int]],
                  cols: Sequence[int]) -> np.ndarray:
    """Boolean (pairs x cols) matrix: row r marks J(p_r, q_r) on `cols`.

    Built in place, so one temporary of the matrix's size exists at a time.
    """
    ps, qs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    m = space.causal[:, cols][ps]
    m &= space.causal[cols][:, qs].T
    return m


def point_indices(space: FiniteLorentzSpace, indices: Sequence[int], what: str) -> np.ndarray:
    """`indices` sorted and deduplicated, as an array of points of `space`.

    Raises ShapeMismatch, naming them as `what`, when any index lies outside
    range(space.n); a negative index is rejected, not wrapped. Only `space.n`
    is read, so a metric fiber serves as well as a space.
    """
    idx = np.array(sorted(set(indices)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= space.n):
        bad = idx[(idx < 0) | (idx >= space.n)].tolist()
        raise ShapeMismatch(f"{what} {bad} outside range({space.n})")
    return idx


def _admissible(causal: np.ndarray, tau: np.ndarray, epsilon: float, tol: float) -> np.ndarray:
    """Mask of the causal pairs with tau <= epsilon, within tol, from aligned tables."""
    return causal & (tau <= epsilon + tol)


def verify_net(space: FiniteLorentzSpace, subset: Sequence[int], net: DiamondNet) -> NetCheck:
    """Check coverage of `subset` and the tau <= epsilon size bound.

    A subset point or net vertex outside range(space.n) raises ShapeMismatch.
    """
    point_indices(space, net.vertices(), "net vertices")
    idx = point_indices(space, subset, "subset")
    covered = diamond_masks(space, net.pairs, idx).any(axis=0)
    uncovered = tuple(int(i) for i in idx[~covered])
    oversized = tuple((p, q) for p, q in net.pairs
                      if space.tau(p, q) > net.epsilon + space.tol)
    return NetCheck(ok=not uncovered and not oversized,
                    uncovered=uncovered, oversized=oversized)


def default_candidates(space: FiniteLorentzSpace, epsilon: float,
                       mode: str = ALL_CANDIDATES) -> list[tuple[int, int]]:
    """Admissible diamonds: causal pairs with tau <= epsilon.

    ALL includes degenerate (x, x) diamonds, needed to cover chronologically
    isolated points; CHRONOLOGICAL restricts to tau > 0.
    """
    ok = _admissible(space.causal, space.tau_matrix(), epsilon, space.tol)
    if mode == CHRONOLOGICAL_CANDIDATES:
        ok &= space.chron
    return [(int(p), int(q)) for p, q in np.argwhere(ok)]


def greedy_net(space: FiniteLorentzSpace, subset: Sequence[int], epsilon: float,
               candidates: Optional[Sequence[tuple[int, int]]] = None,
               seed_pairs: Sequence[tuple[int, int]] = (),
               candidate_mode: str = ALL_CANDIDATES) -> DiamondNet:
    """Greedy maximum-new-coverage cover of `subset` by admissible diamonds.

    `seed_pairs` are prepended unconditionally (used for net nesting across
    cover levels). Ties break by (p, q) ascending; output is deterministic.
    A subset point outside range(space.n) raises ShapeMismatch.
    """
    subset_idx = point_indices(space, subset, "subset")
    if candidates is None:
        candidates = default_candidates(space, epsilon, candidate_mode)
    candidates = sorted(set(candidates))

    chosen = [(p, q) for p, q in seed_pairs]
    covered = diamond_masks(space, chosen, subset_idx).any(axis=0)
    if covered.all():
        return DiamondNet(pairs=tuple(chosen), epsilon=epsilon)

    masks = diamond_masks(space, candidates, subset_idx)
    reachable = covered | masks.any(axis=0)
    if not reachable.all():
        missing = [int(i) for i in subset_idx[~reachable]]
        raise Uncoverable(missing)

    while not covered.all():
        gains = (masks & ~covered[None, :]).sum(axis=1)
        best = int(np.argmax(gains))  # argmax takes the first max: (p, q) ascending
        if gains[best] == 0:
            missing = [int(i) for i in subset_idx[~covered]]
            raise Uncoverable(missing)
        chosen.append(candidates[best])
        covered |= masks[best]
    return DiamondNet(pairs=tuple(chosen), epsilon=epsilon)


def exact_min_cover(universe_size: int, sets: Sequence[np.ndarray]) -> Optional[list[int]]:
    """Smallest subfamily of boolean masks covering range(universe_size).

    The answer is the least cover in (size, lexicographic) order: exhaustive
    search by increasing cardinality, combinations in lexicographic order;
    intended for universes <= ~12. Each mask is packed into one Python int,
    so a combination is tested with integer ORs.

    A mask that an earlier mask contains (a repeat included) is never in
    that cover, so only the other masks are enumerated. If such a mask i
    were in it, swapping in the earlier i' < i would keep a cover and make
    the sorted indices lexicographically smaller; had i' been in it
    already, dropping i would leave a smaller cover. Containment is
    transitive, so testing a mask against the kept ones suffices.
    Returns indices into `sets`, or None if even the full family fails.
    """
    packed = np.packbits(np.asarray(sets, dtype=bool).reshape(len(sets), universe_size),
                         axis=1, bitorder="little")
    kept, bits, seen = [], [], set()
    for i, row in enumerate(map(bytes, packed)):
        if row in seen:
            continue
        seen.add(row)
        b = int.from_bytes(row, "little")
        if all(b | k != k for k in bits):
            kept.append(i)
            bits.append(b)
    full = (1 << universe_size) - 1
    if functools.reduce(operator.or_, bits, 0) != full:
        return None
    for k in range(1, len(bits) + 1):
        for combo, members in zip(itertools.combinations(kept, k),
                                  itertools.combinations(bits, k)):
            if functools.reduce(operator.or_, members) == full:
                return list(combo)
    return None


def doubling_constant(space: FiniteLorentzSpace, subset: Sequence[int],
                      exact_threshold: int = 12, return_details: bool = False):
    """Smallest N with: every diamond J(x,y) inside `subset` is covered by N
    half-tau-size diamonds with vertices in `subset`.

    Exact covers are computed when the diamond has <= exact_threshold points;
    larger diamonds get the greedy upper bound and the result is an estimate.
    A subset point outside range(space.n) raises ShapeMismatch.
    """
    sub = point_indices(space, subset, "subset")
    causal = space.causal[np.ix_(sub, sub)]
    tau = np.maximum(0.0, space.ell[np.ix_(sub, sub)])
    # causal pairs in (x, y) row-major order, kept when J(x, y) has no point
    # outside the subset (only those diamonds are constrained)
    pairs = sub[np.argwhere(causal)]
    outside = np.delete(np.arange(space.n), sub)
    pairs = pairs[~diamond_masks(space, pairs, outside).any(axis=1)]
    exact = True
    worst = 1
    per_diamond = []
    for (x, y), mask in zip(pairs.tolist(), diamond_masks(space, pairs, sub)):
        members = sub[mask]
        half = space.tau(x, y) / 2.0
        cand = sub[np.argwhere(_admissible(causal, tau, half, space.tol))]
        if not len(cand):
            raise Uncoverable(members.tolist())
        if len(members) <= exact_threshold:
            cover = exact_min_cover(len(members), diamond_masks(space, cand, members))
            if cover is None:
                raise Uncoverable(members.tolist())
            count = len(cover)
        else:
            net = greedy_net(space, members, half,
                             candidates=[tuple(pq) for pq in cand.tolist()])
            count = len(net)
            exact = False
        per_diamond.append(((x, y), count))
        worst = max(worst, count)
    if return_details:
        return worst, {"exact": exact, "per_diamond": per_diamond}
    return worst


@dataclass(frozen=True)
class NetGrowthTable:
    rows: tuple[tuple[int, float, int], ...]  # (cover level k, epsilon, cardinality)
    nets: dict  # (k, epsilon) -> DiamondNet

    def cardinality(self, k: int, epsilon: float) -> int:
        for kk, e, c in self.rows:
            if kk == k and e == epsilon:
                return c
        raise KeyError((k, epsilon))


def net_growth_profile(cov: CoveredFiniteSpace, epsilons: Sequence[float]) -> NetGrowthTable:
    """Greedy nets per (cover level, epsilon), nested across levels.

    The level-k net reuses the level-(k-1) net as a seed, so vertex sets are
    nested in k for each fixed epsilon.
    """
    space = cov.space
    rows = []
    nets = {}
    for eps in epsilons:
        prev_pairs: tuple[tuple[int, int], ...] = ()
        for k in range(cov.depth):
            net = greedy_net(space, cov.level(k), eps, seed_pairs=prev_pairs)
            rows.append((k, float(eps), len(net)))
            nets[(k, float(eps))] = net
            prev_pairs = net.pairs
    return NetGrowthTable(rows=tuple(rows), nets=nets)
