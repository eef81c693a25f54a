"""Diagonal limits at finite truncation, completeness checks, blow-ups.

The diagonal construction aligns net diamonds by their position in each
member's schedule, extracts a convergent subsequence entry by entry (shared
across entries, as in a diagonal argument), and assembles the limit space
from the surviving values. Finite truncations carry the discrete topology;
the source construction's chronological topology is noted in the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (CoveredFiniteSpace, FiniteLorentzSpace, _causal_two_cycles,
                   build_space, covered, timelike_diameter)
from .errors import (AxiomViolation, NoAdmissibleBasepoints, NonCauchy,
                     ScheduleViolation, SpecViolated, Uncoverable)
from .extended import NEG_INF
from .measured import LIMIT_WINDOW, extract_limit
from .nets import DiamondNet, doubling_constant, greedy_net


@dataclass(frozen=True)
class CoveredSequence:
    """Members with per-(cover k, scale l) net schedules aligned by position.

    schedules[m][k][l] is member m's scale-l net for its cover level k.
    member_indices carries the sequence positions n (used for limit
    extrapolation); correspondence hints are implicit in slot order.
    """

    members: tuple[CoveredFiniteSpace, ...]
    schedules: tuple  # per member: tuple over k of tuple over l of DiamondNet
    member_indices: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not self.members:
            raise ScheduleViolation("empty sequence")
        if len(self.schedules) != len(self.members):
            raise ScheduleViolation("one schedule per member required")
        if self.member_indices is not None and len(self.member_indices) != len(self.members):
            raise ScheduleViolation("member_indices length mismatch")


def _check_schedule(seq: CoveredSequence, depth_k: int, depth_l: int) -> None:
    for k in range(depth_k):
        for l in range(depth_l):
            sizes = set()
            for m, sched in enumerate(seq.schedules):
                if len(sched) <= k or len(sched[k]) <= l:
                    raise ScheduleViolation(f"member {m} lacks a net at (k={k}, l={l})")
                sizes.add(len(sched[k][l].pairs))
            if len(sizes) != 1:
                raise ScheduleViolation(f"net cardinalities differ at (k={k}, l={l}): {sorted(sizes)}")
        # nets nested in k, per member
    for m, sched in enumerate(seq.schedules):
        for k in range(depth_k - 1):
            for l in range(depth_l):
                if not set(sched[k][l].pairs) <= set(sched[k + 1][l].pairs):
                    raise ScheduleViolation(
                        f"member {m}: scale-{l} net at level {k} not contained in level {k + 1}")


def _entry_limit(series, positions, member_indices, tol, entry, strict, log):
    """Limit of one ell-entry along the shared subsequence; refines `positions`."""
    tail_vals = [series[p] for p in positions[-LIMIT_WINDOW:]]
    if all(v == NEG_INF for v in tail_vals):
        # eventually causally unrelated; keep the unrelated members
        positions[:] = [p for p in positions if series[p] == NEG_INF]
        value, spread = NEG_INF, 0.0
    elif all(v > NEG_INF for v in tail_vals):
        positions[:] = [p for p in positions if series[p] > NEG_INF]
        vals = [series[p] for p in positions]
        idx = [member_indices[p] for p in positions] if member_indices is not None else None
        value, kept_rel, spread = extract_limit(vals, idx)
        positions[:] = [positions[i] for i in kept_rel]
        if spread > tol:
            if strict:
                raise NonCauchy(entry, len(series))
            log["non_cauchy"].append({"entry": entry, "spread": spread})
    else:
        if strict:
            raise NonCauchy(entry, len(series),
                            f"entry {entry} mixes unrelated and related members in the tail")
        log["non_cauchy"].append({"entry": entry, "spread": None})
        value, spread = tail_vals[-1], math.inf
    log["entries"][entry] = {"value": value, "kept": len(positions), "spread": spread}
    return value


def diagonal_limit(seq: CoveredSequence, depth: tuple[int, int, int],
                   tol: float = 1e-6, strict: bool = True):
    """Finite-truncation diagonal limit of a covered sequence.

    depth = (K, L, N): cover levels, net scales, members used. Limit points
    are the deduplicated net-vertex slots plus the adjoined basepoint; each
    ell entry is the extracted subsequence limit (Cauchy within `tol` over
    the last `measured.LIMIT_WINDOW` values, else NonCauchy when strict). Returns
    (CoveredFiniteSpace, provenance log).
    """
    depth_k, depth_l, depth_n = depth
    members = seq.members[:depth_n]
    if not members:
        raise ScheduleViolation("depth selects no members")
    seq_t = CoveredSequence(members=tuple(members),
                            schedules=tuple(seq.schedules[:depth_n]),
                            member_indices=(tuple(seq.member_indices[:depth_n])
                                            if seq.member_indices is not None else None))
    depth_k = min(depth_k, min(len(s) for s in seq_t.schedules))
    if depth_k < 1:
        raise ScheduleViolation("depth selects no cover levels")
    depth_l = min(depth_l, min(len(s[k]) for s in seq_t.schedules for k in range(depth_k)))
    _check_schedule(seq_t, depth_k, depth_l)

    # slots -> per-member vertex index tuples, deduplicated
    slot_order = []
    slot_vertices: dict[tuple, tuple[int, ...]] = {}
    for k in range(depth_k):
        for l in range(depth_l):
            n_pairs = len(seq_t.schedules[0][k][l].pairs)
            for i in range(n_pairs):
                for side in range(2):
                    slot = (k, l, i, side)
                    verts = tuple(seq_t.schedules[m][k][l].pairs[i][side]
                                  for m in range(len(members)))
                    slot_order.append(slot)
                    slot_vertices[slot] = verts

    base = tuple(cov.basepoint for cov in members)
    classes: list[tuple[int, ...]] = []
    class_slots: list[list] = []
    lookup: dict[tuple[int, ...], int] = {}
    for slot in slot_order:
        verts = slot_vertices[slot]
        if verts not in lookup:
            lookup[verts] = len(classes)
            classes.append(verts)
            class_slots.append([slot])
        else:
            class_slots[lookup[verts]].append(slot)
    if base not in lookup:
        lookup[base] = len(classes)
        classes.append(base)
        class_slots.append([("o",)])
    base_class = lookup[base]

    n_classes = len(classes)
    member_idx = (list(seq_t.member_indices) if seq_t.member_indices is not None
                  else None)
    positions = list(range(len(members)))
    log = {"entries": {}, "non_cauchy": [],
           "note": "finite truncation carries the discrete topology "
                   "(source construction uses the chronological one)"}
    ell = np.full((n_classes, n_classes), NEG_INF)
    for a in range(n_classes):
        for b in range(n_classes):
            series = [members[m].space.ell[classes[a][m], classes[b][m]]
                      for m in range(len(members))]
            ell[a, b] = _entry_limit(series, positions, member_idx, tol, (a, b), strict, log)
    log["final_subsequence"] = ([member_idx[p] for p in positions]
                                if member_idx is not None else positions)

    labels = []
    for c in range(n_classes):
        if c == base_class:
            labels.append("o")
        else:
            k, l, i, side = class_slots[c][0]
            labels.append(f"v{k}.{l}.{i}.{'p' if side == 0 else 'q'}")
    space = build_space(labels, ell, tol=max(tol, 1e-9))

    cover_levels = []
    for k in range(depth_k):
        level = {base_class}
        for c, slots in enumerate(class_slots):
            if any(s[0] != "o" and s[0] <= k for s in slots):
                level.add(c)
        cover_levels.append(sorted(level))
    return covered(space, base_class, cover_levels), log


def forward_complete_check(space: FiniteLorentzSpace) -> dict:
    """A finite space is forward complete iff the causal relation has no
    nontrivial cycle; any 2-cycle witnesses an alternating non-convergent
    monotone bounded sequence (and cycles reduce to 2-cycles by transitivity).
    """
    bad = _causal_two_cycles(space)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        return {"complete": False, "witness": (i, j)}
    return {"complete": True, "witness": None}


@dataclass(frozen=True)
class BlowupSpec:
    o: int
    o_minus: int
    o_plus: int
    lam: float


def blow_up(cov: CoveredFiniteSpace, spec: BlowupSpec) -> CoveredFiniteSpace:
    """Rescale ell by lambda on the chronological diamond I(o-, o+)."""
    space = cov.space
    if not (spec.lam > 0):
        raise SpecViolated("lambda > 0")
    if not space.chron[spec.o_minus, spec.o]:
        raise SpecViolated("o_minus << o")
    if not space.chron[spec.o, spec.o_plus]:
        raise SpecViolated("o << o_plus")
    if not space.tau(spec.o_minus, spec.o_plus) < 1.0 / spec.lam:
        raise SpecViolated("tau(o_minus, o_plus) < 1/lambda")
    mask = space.chron_diamond(spec.o_minus, spec.o_plus)
    keep = [int(i) for i in np.flatnonzero(mask)]
    if spec.o not in keep:
        raise SpecViolated("o inside I(o_minus, o_plus)")
    pos = {orig: new for new, orig in enumerate(keep)}
    ell = spec.lam * space.ell[np.ix_(keep, keep)]
    sub = build_space([space.labels[i] for i in keep], ell, tol=space.tol)
    cover_levels = []
    for level in cov.cover:
        traced = sorted(pos[i] for i in level if i in pos)
        cover_levels.append(traced)
    return covered(sub, pos[spec.o], cover_levels)


def select_blowup_spec(cov: CoveredFiniteSpace, o: int, lam: float) -> BlowupSpec:
    """Tightest admissible (o-, o+): minimal tau(o-, o+), then richest diamond."""
    space = cov.space
    minus = np.flatnonzero(space.chron[:, o])
    plus = np.flatnonzero(space.chron[o, :])
    best = None
    for om in minus:
        for op in plus:
            t = space.tau(int(om), int(op))
            if t >= 1.0 / lam:
                continue
            size = int(space.chron_diamond(int(om), int(op)).sum())
            key = (t, -size, int(om), int(op))
            if best is None or key < best[0]:
                best = (key, BlowupSpec(o=o, o_minus=int(om), o_plus=int(op), lam=lam))
    if best is None:
        raise NoAdmissibleBasepoints(lam)
    return best[1]


@dataclass(frozen=True)
class TangentReport:
    records: tuple[dict, ...]
    limit: Optional[CoveredFiniteSpace]
    notes: tuple[str, ...] = field(default=())


def _halving_nets(cov: CoveredFiniteSpace, levels: int) -> list[DiamondNet]:
    """Nets at scales diam/2^l by greedy covering, per the repeated-halving proof."""
    space = cov.space
    every = list(range(space.n))
    diam = max(timelike_diameter(space, every), space.tol)
    nets = []
    for l in range(levels):
        eps = diam / (2 ** l)
        nets.append(greedy_net(space, every, eps))
    return nets


def tangent_experiment(cov: CoveredFiniteSpace, o: int, lambdas: Sequence[float],
                       levels: int = 3) -> TangentReport:
    """Blow-ups along increasing lambda: diameters, doubling, halving nets, limit.

    Per lambda the tightest admissible basepoint pair is auto-selected; the
    per-blow-up diameters are <= 1 by the 1/lambda bound. Net schedules are
    padded to a common cardinality so the diagonal construction can align
    slots (padding repeats the final diamond and is recorded).
    """
    records = []
    members = []
    schedules = []
    notes = []
    for lam in sorted(lambdas):
        spec = select_blowup_spec(cov, o, lam)
        blown = blow_up(cov, spec)
        every = list(range(blown.space.n))
        diam = timelike_diameter(blown.space, every)
        try:
            doubling = doubling_constant(blown.space, every, exact_threshold=10)
        except Uncoverable:
            doubling = None
            notes.append(f"doubling failed at lambda={lam}")
        try:
            nets = _halving_nets(blown, levels)
        except Uncoverable:
            notes.append(f"halving nets uncoverable at lambda={lam}; member dropped")
            continue
        records.append({"lambda": lam, "spec": (spec.o_minus, spec.o, spec.o_plus),
                        "diameter": diam, "doubling": doubling,
                        "net_cardinalities": [len(n) for n in nets],
                        "points": blown.space.n})
        members.append(blown)
        schedules.append(nets)

    limit = None
    if len(members) >= 2:
        padded = []
        for l in range(levels):
            target = max(len(s[l]) for s in schedules)
            for s in schedules:
                if len(s[l]) < target:
                    notes.append("schedule padded to align cardinalities")
            padded.append(target)
        aligned = []
        for s in schedules:
            per_k = []
            for l in range(levels):
                pairs = list(s[l].pairs)
                while len(pairs) < padded[l]:
                    pairs.append(pairs[-1])
                per_k.append(DiamondNet(pairs=tuple(pairs), epsilon=s[l].epsilon))
            aligned.append((tuple(per_k),))  # single cover level per blow-up
        flat_members = tuple(
            covered(m.space, m.basepoint, [list(range(m.space.n))]) for m in members)
        seq = CoveredSequence(members=flat_members, schedules=tuple(aligned),
                              member_indices=tuple(int(r["lambda"]) for r in records))
        try:
            limit, _ = diagonal_limit(seq, (1, levels, len(members)), strict=False)
        except (ScheduleViolation, NonCauchy, AxiomViolation) as exc:
            notes.append(f"limit construction failed: {exc}")
    return TangentReport(records=tuple(records), limit=limit, notes=tuple(notes))
