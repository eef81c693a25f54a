"""Atomic measures on finite spaces and the induced net measures.

The induced measure of an ordered net splits each residual set's mass
evenly between the two vertices of its diamond; residual sets partition
the carrier, so total mass is conserved. Weak convergence on a finite
discrete space is metrized by the atomwise sup gap (every function is
continuous with compact support there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FiniteLorentzSpace, integer_values, point_indices
from .errors import NetDoesNotCover, ShapeMismatch, UnboundedWeights, UnmappedAtom
from .extended import NEG_INF
from .nets import DiamondNet, diamond_masks


@dataclass(frozen=True)
class AtomicMeasure:
    """Nonnegative point masses keyed by point index; zero atoms are dropped."""

    weights: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for i, w in self.weights:
            if w < 0 or not math.isfinite(w):
                raise ShapeMismatch(f"weight at atom {i} must be finite and >= 0")

    def as_dict(self) -> dict[int, float]:
        return dict(self.weights)

    def mass(self, i: int) -> float:
        return dict(self.weights).get(i, 0.0)

    def total(self) -> float:
        return math.fsum(w for _, w in self.weights)


def atomic_measure(weights: dict[int, float]) -> AtomicMeasure:
    """The atoms with nonzero weight, keys read by `integer_values`, sorted by point."""
    atoms = integer_values(list(weights), "measure atoms").tolist()
    items = tuple(sorted((i, float(w)) for i, w in zip(atoms, weights.values()) if w != 0.0))
    return AtomicMeasure(weights=items)


@dataclass(frozen=True)
class MeasuredNet:
    net: DiamondNet
    induced: AtomicMeasure
    residual_masses: tuple[float, ...]  # one per diamond, in net order


def induce_net_measure(space: FiniteLorentzSpace, m: AtomicMeasure,
                       subset: Sequence[int], net: DiamondNet) -> MeasuredNet:
    """Induced measure: half of each residual set's mass onto each vertex.

    Residual set i is (J_i & A) minus the earlier diamonds, so the order of
    the net is part of its identity. Total mass equals m(A) exactly. A subset
    point or net vertex outside range(space.n) raises ShapeMismatch.
    """
    point_indices(space.n, net.vertices(), "net vertices")
    a_idx = point_indices(space.n, subset, "subset")
    masks = diamond_masks(space, net.pairs, a_idx)
    missing = [int(i) for i in a_idx[~masks.any(axis=0)]]
    if missing:
        raise NetDoesNotCover(missing)

    weights = m.as_dict()
    out: dict[int, float] = {}
    taken = np.zeros(len(a_idx), dtype=bool)
    residuals = []
    for (p, q), mask in zip(net.pairs, masks):
        w = math.fsum(weights.get(i, 0.0) for i in a_idx[mask & ~taken].tolist())
        residuals.append(w)
        taken |= mask
        if w != 0.0:
            out[p] = out.get(p, 0.0) + w / 2.0
            out[q] = out.get(q, 0.0) + w / 2.0
    return MeasuredNet(net=net, induced=atomic_measure(out),
                       residual_masses=tuple(residuals))


def pushforward(f: dict[int, int], m: AtomicMeasure) -> AtomicMeasure:
    """Transport mass atom by atom along the point map `f`; total mass is preserved exactly."""
    buckets: dict[int, list[float]] = {}
    for i, w in m.weights:
        j = f.get(i)
        if j is None:
            raise UnmappedAtom(i)
        buckets.setdefault(int(integer_values(j, "atom images")), []).append(w)
    return atomic_measure({j: math.fsum(ws) for j, ws in buckets.items()})


def weak_gap(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Atomwise sup gap; metrizes weak convergence on a finite discrete space."""
    a, b = mu.as_dict(), nu.as_dict()
    atoms = set(a) | set(b)
    if not atoms:
        return 0.0
    return max(abs(a.get(i, 0.0) - b.get(i, 0.0)) for i in atoms)


LIMIT_WINDOW = 5  # tail length read by every limit fit and by the diagonal step `_refine`


def _monotone_candidates(values: Sequence[float]) -> list[list[int]]:
    """Non-increasing and non-decreasing leader subsequences (positions).

    One leader scan (keep a value >= every later one) serves both: on the
    negated values it picks the non-decreasing one, negation being exact for
    every float, NaN included.
    """
    candidates = []
    for vals in (values, [-v for v in values]):
        lead, best = [], -math.inf
        for k in range(len(vals) - 1, -1, -1):
            if vals[k] >= best:
                lead.append(k)
                best = vals[k]
        candidates.append(lead[::-1])
    return candidates


def extract_limit(values: Sequence[float], member_indices: Optional[Sequence[int]] = None):
    """Limit estimate of a bounded sequence at finite truncation.

    Extracts a monotone subsequence (the leader candidate whose final window
    has the smaller spread, so mixed-branch tails are avoided), then fits
    a + b/n over the last LIMIT_WINDOW points; falls back to the last value when
    indices are missing or the fit degenerates. Returns (limit, kept
    positions, spread of the window).
    """
    if not values:
        raise ShapeMismatch("cannot extract a limit from an empty sequence")

    def tail_spread(pos):
        tail = [values[k] for k in pos[-LIMIT_WINDOW:]]
        return max(tail) - min(tail)

    candidates = _monotone_candidates(values)
    # full-window candidates beat stubs; then smaller tail spread, then length
    pos = min(candidates, key=lambda p: (len(p) < LIMIT_WINDOW, tail_spread(p), -len(p)))
    tail = pos[-LIMIT_WINDOW:]
    tail_vals = [values[k] for k in tail]
    spread = max(tail_vals) - min(tail_vals)
    limit = tail_vals[-1]
    if spread == 0.0:
        return float(limit), pos, 0.0
    if member_indices is not None and len(tail) >= 2:
        ns = np.array([member_indices[k] for k in tail], dtype=float)
        if (ns > 0).all() and len(set(ns)) >= 2:
            A = np.stack([np.ones_like(ns), 1.0 / ns], axis=1)
            coef, *_ = np.linalg.lstsq(A, np.array(tail_vals), rcond=None)
            limit = float(coef[0])
    return float(limit), pos, float(spread)


def _refine(series, positions: list[int], member_indices: Optional[Sequence[int]]):
    """One diagonal step: (limit, spread) of member values `series[p]` along `positions`,
    which it refines in place, read off their last LIMIT_WINDOW. An all -inf tail keeps
    the -inf members: (-inf, 0.0). A mixed tail keeps every member: (its last value,
    inf). Otherwise `extract_limit` chooses among the finite members."""
    tail = [series[p] for p in positions[-LIMIT_WINDOW:]]
    if all(v == NEG_INF for v in tail):
        positions[:] = [p for p in positions if series[p] == NEG_INF]
        return NEG_INF, 0.0
    if not all(v > NEG_INF for v in tail):
        return tail[-1], math.inf
    positions[:] = [p for p in positions if series[p] > NEG_INF]
    idx = None if member_indices is None else [member_indices[p] for p in positions]
    limit, kept, spread = extract_limit([series[p] for p in positions], idx)
    positions[:] = [positions[k] for k in kept]
    return limit, spread


def _member_indices(values) -> Optional[list[int]]:
    """The one member-index rule: None, or a 1-D list read by `integer_values`."""
    if values is None:
        return None
    idx = integer_values(values, "member_indices")
    if idx.ndim != 1:
        raise ShapeMismatch(f"member_indices must be a list, got {values!r:.40}")
    return idx.tolist()


def measured_limit_builder(sequence: dict[tuple[int, int], Sequence[AtomicMeasure]],
                           bounds: Optional[dict[int, float]] = None,
                           member_indices: Optional[Sequence[int]] = None):
    """Vertex-wise limits of pushforward measures indexed by (cover k, scale l).

    Every key holds one measure per member, and `member_indices`, when
    given, one index per member; other lengths raise ShapeMismatch. Per
    (k, l) the per-vertex weight sequences refine one shared subsequence by
    the diagonal step `_refine`, reused across increasing k so earlier cover
    levels stay consistent. `bounds` holds the per-level mass bounds C_k,
    each > 0 or else ShapeMismatch; members violating 1/C_k <= mass <= C_k
    raise UnboundedWeights. Returns (limit measure, extraction log).
    """
    member_indices = _member_indices(member_indices)
    keys = sorted(sequence.keys())
    if not keys:
        raise ShapeMismatch("empty measured sequence")
    lengths = {str(key): len(sequence[key]) for key in keys}
    if member_indices is not None:
        lengths["member_indices"] = len(member_indices)
    if len(set(lengths.values())) > 1:
        raise ShapeMismatch("measure lists and member_indices need one length per member, got "
                            + ", ".join(f"{name}: {n}" for name, n in lengths.items()))
    if bounds:
        bad = sorted(k for k, ck in bounds.items() if not ck > 0)
        if bad:
            raise ShapeMismatch(f"mass bounds C_k at levels {bad} must be > 0")
        for (k, l), measures in sequence.items():
            ck = bounds.get(k)
            if ck is None:
                continue
            for m in measures:
                tot = m.total()
                if not (1.0 / ck - 1e-12 <= tot <= ck + 1e-12):
                    raise UnboundedWeights(k)

    log: dict = {"per_key": {}}
    limit_weights: dict[int, float] = {}
    # process cover levels in order; the subsequence chosen at level k seeds k+1
    positions = list(range(len(sequence[keys[0]])))
    for key in keys:
        weights = [m.as_dict() for m in sequence[key]]
        key_log = {}
        for atom in sorted({i for w in weights for i in w}):
            limit, spread = _refine([w.get(atom, 0.0) for w in weights], positions,
                                    member_indices)
            key_log[atom] = {"limit": limit, "kept": list(positions), "spread": spread}
            limit_weights.setdefault(atom, limit)
        log["per_key"][key] = key_log
    log["final_positions"] = list(positions)
    return atomic_measure(limit_weights), log
