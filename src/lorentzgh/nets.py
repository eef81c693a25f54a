"""Causal-diamond epsilon-nets: verification, greedy construction, doubling.

A net is an ordered list of vertex pairs (p, q); the diamond of a pair is
J(p, q) = J+(p) & J-(q) in a given space. Ordering matters downstream
(induced measures depend on it), so nets are sequences, not sets.

Every membership question "is z in J(p, q)?" goes through one batched
kernel, `diamond_masks`, which returns the (pairs x points) boolean matrix;
nets, doubling and `measured.induce_net_measure` all read it. `_admissible`
is the size bound tau <= epsilon + tol; `_greedy_cover` the greedy choice.
Subsets and net vertices pass `core.point_indices`, the range rule.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FiniteLorentzSpace, point_indices
from .errors import ShapeMismatch, Uncoverable

ALL_CANDIDATES = "all"
CHRONOLOGICAL_CANDIDATES = "chronological"


def _check_epsilon(epsilon) -> None:
    """The one epsilon rule of a net: a number >= 0 (+inf too, NaN not), else ShapeMismatch."""
    if not (isinstance(epsilon, numbers.Real) and epsilon >= 0):
        raise ShapeMismatch(f"net epsilon must be a number >= 0, got {epsilon!r}")


@dataclass(frozen=True)
class DiamondNet:
    pairs: tuple[tuple[int, int], ...]
    epsilon: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)

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


def _admissible(tau, epsilon: float, tol: float):
    """The size bound of a net diamond: tau <= epsilon, within tol (scalar or array)."""
    return tau <= epsilon + tol


def verify_net(space: FiniteLorentzSpace, subset: Sequence[int], net: DiamondNet) -> NetCheck:
    """Check coverage of `subset` and the tau <= epsilon size bound.

    A subset point or net vertex outside range(space.n) raises ShapeMismatch.
    """
    point_indices(space.n, net.vertices(), "net vertices")
    idx = point_indices(space.n, subset, "subset")
    covered = diamond_masks(space, net.pairs, idx).any(axis=0)
    uncovered = tuple(int(i) for i in idx[~covered])
    oversized = tuple((p, q) for p, q in net.pairs
                      if not _admissible(space.tau(p, q), net.epsilon, space.tol))
    return NetCheck(ok=not uncovered and not oversized,
                    uncovered=uncovered, oversized=oversized)


def default_candidates(space: FiniteLorentzSpace, epsilon: float,
                       mode: str = ALL_CANDIDATES) -> np.ndarray:
    """Admissible diamonds: the row-major (m, 2) array of causal pairs, tau <= epsilon.

    ALL includes degenerate (x, x) diamonds, needed to cover chronologically
    isolated points; CHRONOLOGICAL restricts to tau > 0.
    """
    ok = space.causal & _admissible(space.tau_matrix(), epsilon, space.tol)
    if mode == CHRONOLOGICAL_CANDIDATES:
        ok &= space.chron
    return np.argwhere(ok)


def greedy_net(space: FiniteLorentzSpace, subset: Sequence[int], epsilon: float,
               candidate_mode: str = ALL_CANDIDATES) -> DiamondNet:
    """Greedy maximum-new-coverage cover of `subset` by admissible diamonds.

    Ties break by (p, q) ascending; output is deterministic.
    A subset point outside range(space.n) or a bad epsilon raises ShapeMismatch.
    """
    _check_epsilon(epsilon)
    subset_idx = point_indices(space.n, subset, "subset")
    candidates = default_candidates(space, epsilon, candidate_mode)
    masks = diamond_masks(space, candidates, subset_idx)
    unreached = ~masks.any(axis=0)
    if unreached.any():
        raise Uncoverable(subset_idx[unreached].tolist())
    chosen = candidates[_greedy_cover(masks)].tolist()
    return DiamondNet(pairs=tuple((p, q) for p, q in chosen), epsilon=epsilon)


def _greedy_cover(masks: np.ndarray) -> list[int]:
    """Greedy rows of the bool (rows x points) `masks` until all columns are covered.

    Each step takes the first row (argmax) of largest new coverage; the
    caller has checked that the rows reach every column.
    """
    covered = np.zeros(masks.shape[1], dtype=bool)
    chosen = []
    while not covered.all():
        best = int(np.argmax((masks & ~covered).sum(axis=1)))
        chosen.append(best)
        covered |= masks[best]
    return chosen


def exact_min_cover(masks: np.ndarray) -> Optional[list[int]]:
    """Smallest set of rows of the bool (rows x points) `masks` covering every column.

    The answer is the least cover in (size, lexicographic) order: exhaustive
    search by increasing cardinality, combinations in lexicographic order;
    intended for universes <= ~12 points. Each row is packed into one
    Python int, so a combination is tested with integer ORs.

    A row that an earlier row contains (a repeat included) is never in
    that cover, so only the other rows are enumerated. If such a row i
    were in it, swapping in the earlier i' < i would keep a cover and make
    the sorted indices lexicographically smaller; had i' been in it
    already, dropping i would leave a smaller cover. Containment is
    transitive, so testing a row against the kept ones suffices.
    Returns row indices, or None if even all rows together fail.
    """
    packed = np.packbits(masks, axis=1, bitorder="little")
    kept, bits = [], []
    for i, row in enumerate(packed):
        b = int.from_bytes(row.tobytes(), "little")
        if all(b | k != k for k in bits):
            kept.append(i)
            bits.append(b)
    full = (1 << masks.shape[1]) - 1
    if functools.reduce(operator.or_, bits, 0) != full:
        return None
    # k = 0 covers an empty universe; k = len(kept), the union checked above, returns
    for k in range(len(bits) + 1):
        for combo, members in zip(itertools.combinations(kept, k),
                                  itertools.combinations(bits, k)):
            if functools.reduce(operator.or_, members, 0) == full:
                return list(combo)


def doubling_constant(space: FiniteLorentzSpace, subset: Sequence[int],
                      exact_threshold: int = 12) -> tuple[int, dict]:
    """Smallest N with: every diamond J(x,y) inside `subset` is covered by N
    half-tau-size diamonds with vertices in `subset`.

    Exact covers are computed when the diamond has <= exact_threshold points;
    larger diamonds get the greedy upper bound and the result is an estimate.
    Returns (N, {"exact": bool, "per_diamond": [((x, y), count), ...]}).
    A subset point outside range(space.n) raises ShapeMismatch.
    """
    sub = point_indices(space.n, subset, "subset")
    causal = space.causal[np.ix_(sub, sub)]
    # the subset's causal pairs, row-major, with their taus: any can be a candidate;
    # only those with no point outside the subset are constrained diamonds
    pairs = sub[np.argwhere(causal)]
    taus = np.maximum(0.0, space.ell[np.ix_(sub, sub)])[causal]
    inside = ~diamond_masks(space, pairs, np.delete(np.arange(space.n), sub)).any(axis=1)
    exact = True
    per_diamond = []
    for (x, y), tau, mask in zip(pairs[inside].tolist(), taus[inside].tolist(),
                                 diamond_masks(space, pairs[inside], sub)):
        members = sub[mask]
        masks = diamond_masks(space, pairs[_admissible(taus, tau / 2.0, space.tol)], members)
        unreached = ~masks.any(axis=0)
        if unreached.any():
            raise Uncoverable(members[unreached].tolist())
        # a row empty on the diamond is in no least cover and never the greedy choice
        masks = masks[masks.any(axis=1)]
        if len(members) <= exact_threshold:
            count = len(exact_min_cover(masks))
        else:
            count = len(_greedy_cover(masks))
            exact = False
        per_diamond.append(((x, y), count))
    worst = max([1] + [count for _, count in per_diamond])
    return worst, {"exact": exact, "per_diamond": per_diamond}
