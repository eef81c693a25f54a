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
    items = tuple(sorted((int(i), float(w)) for i, w in weights.items() if w != 0.0))
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
        raise NetDoesNotCover(f"net misses subset points {missing}", points=missing)

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
            raise UnmappedAtom(f"atom {i} has no image under the point map", atom=i)
        buckets.setdefault(int(integer_values(j, "atom images")), []).append(w)
    return atomic_measure({j: math.fsum(ws) for j, ws in buckets.items()})


def weak_gap(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Atomwise sup gap; metrizes weak convergence on a finite discrete space."""
    a, b = mu.as_dict(), nu.as_dict()
    atoms = set(a) | set(b)
    if not atoms:
        return 0.0
    return max(abs(a.get(i, 0.0) - b.get(i, 0.0)) for i in atoms)


LIMIT_WINDOW = 5  # tail length of every limit fit, here and in limits.diagonal_limit


def _monotone_candidates(values: Sequence[float]) -> list[list[int]]:
    """Non-increasing and non-decreasing leader subsequences (positions)."""
    n = len(values)
    lead_down, best = [], -math.inf
    for k in range(n - 1, -1, -1):
        if values[k] >= best:
            lead_down.append(k)
            best = values[k]
    lead_down.reverse()
    lead_up, best = [], math.inf
    for k in range(n - 1, -1, -1):
        if values[k] <= best:
            lead_up.append(k)
            best = values[k]
    lead_up.reverse()
    return [lead_down, lead_up]


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


def measured_limit_builder(sequence: dict[tuple[int, int], Sequence[AtomicMeasure]],
                           bounds: Optional[dict[int, float]] = None,
                           member_indices: Optional[Sequence[int]] = None):
    """Vertex-wise limits of pushforward measures indexed by (cover k, scale l).

    Per (k, l) the per-vertex weight sequences are refined to a shared
    subsequence (diagonal extraction, reused across increasing k so earlier
    cover levels stay consistent). `bounds` holds the per-level mass bounds
    C_k; members violating 1/C_k <= mass <= C_k raise UnboundedWeights.
    Returns (limit measure, extraction log).
    """
    keys = sorted(sequence.keys())
    if not keys:
        raise ShapeMismatch("empty measured sequence")
    if bounds:
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
    current_positions: Optional[list[int]] = None
    for key in keys:
        measures = list(sequence[key])
        if current_positions is None or max(current_positions, default=-1) >= len(measures):
            current_positions = list(range(len(measures)))
        atoms = sorted({i for m in measures for i, _ in m.weights})
        key_log = {}
        for atom in atoms:
            series = [measures[p].mass(atom) for p in current_positions]
            idx = None
            if member_indices is not None:
                idx = [member_indices[p] for p in current_positions]
            limit, kept, spread = extract_limit(series, idx)
            current_positions = [current_positions[k2] for k2 in kept]
            key_log[atom] = {"limit": limit, "kept": list(current_positions),
                             "spread": spread}
            limit_weights.setdefault(atom, limit)
        log["per_key"][key] = key_log
    log["final_positions"] = list(current_positions)
    return atomic_measure(limit_weights), log
