"""Diagonal limits at finite truncation and blow-ups.

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

from .core import (DEFAULT_TOL, CoveredFiniteSpace, build_space, check_tol, covered, point_indices,
                   timelike_diameter)
from .errors import (AxiomViolation, NoAdmissibleBasepoints, NonCauchy,
                     ScheduleViolation, SpecViolated, Uncoverable)
from .extended import NEG_INF
from .measured import _member_indices, _refine
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
        idx = _member_indices(self.member_indices)
        object.__setattr__(self, "member_indices", None if idx is None else tuple(idx))
        if idx is not None and len(idx) != len(self.members):
            raise ScheduleViolation("member_indices length mismatch")


def _check_schedule(schedules, depth_k: int, depth_l: int) -> None:
    for k in range(depth_k):
        for l in range(depth_l):
            sizes = {len(sched[k][l].pairs) for sched in schedules}
            if len(sizes) != 1:
                raise ScheduleViolation(f"net cardinalities differ at (k={k}, l={l}): {sorted(sizes)}")
        # nets nested in k, per member
    for m, sched in enumerate(schedules):
        for k in range(depth_k - 1):
            for l in range(depth_l):
                if not set(sched[k][l].pairs) <= set(sched[k + 1][l].pairs):
                    raise ScheduleViolation(
                        f"member {m}: scale-{l} net at level {k} not contained in level {k + 1}")


def _entry_limit(series, positions, member_indices, tol, entry, strict, log):
    """Limit of one ell-entry by the diagonal step; NonCauchy when strict, else logged."""
    value, spread = _refine(series, positions, member_indices)
    if spread == math.inf:  # a tail mixing unrelated and related members, whatever tol is
        if strict:
            raise NonCauchy(entry, len(series),
                            f"entry {entry} mixes unrelated and related members in the tail")
        log["non_cauchy"].append({"entry": entry, "spread": None})
    elif spread > tol:
        if strict:
            raise NonCauchy(entry, len(series))
        log["non_cauchy"].append({"entry": entry, "spread": spread})
    log["entries"][entry] = {"value": value, "kept": len(positions), "spread": spread}
    return value


def diagonal_limit(seq: CoveredSequence, depth: tuple[int, int, int],
                   tol: float = 1e-6, strict: bool = True):
    """Finite-truncation diagonal limit of a covered sequence.

    depth = (K, L, N): cover levels, net scales, members used; K and L are
    clipped to the shortest schedule, and each of K, L, N below 1 is a
    ScheduleViolation. A slot (k, l, i, side) is vertex `side` (p, q) of
    diamond i of the scale-l net at level k; its limit point is the tuple of
    per-member vertices there. Limit points are the distinct tuples in the
    order they first occur with k outermost, then the basepoint tuple if no
    slot holds it. Each point is labelled by its first slot,
    `v{k}.{l}.{i}.{p|q}` (the basepoint `o`), and enters the cover at that
    slot's k, which is its lowest level. Each ell entry is the extracted
    subsequence limit (Cauchy within `tol`, checked by `check_tol` first,
    over the last `measured.LIMIT_WINDOW` values, else NonCauchy when strict);
    the space loads at max(tol, DEFAULT_TOL). A schedule vertex outside its
    member's space raises ShapeMismatch. Returns (CoveredFiniteSpace, log).
    """
    check_tol(tol)
    depth_k, depth_l, depth_n = depth
    if depth_n < 1:
        raise ScheduleViolation("depth selects no members")
    members = seq.members[:depth_n]
    schedules = seq.schedules[:depth_n]
    member_idx = seq.member_indices[:depth_n] if seq.member_indices is not None else None
    depth_k = min(depth_k, min(len(s) for s in schedules))
    if depth_k < 1:
        raise ScheduleViolation("depth selects no cover levels")
    depth_l = min(depth_l, min(len(s[k]) for s in schedules for k in range(depth_k)))
    if depth_l < 1:
        raise ScheduleViolation("depth selects no net scales")
    _check_schedule(schedules, depth_k, depth_l)
    for cov, sched in zip(members, schedules):
        point_indices(cov.space.n, [v for per_k in sched[:depth_k] for net in per_k[:depth_l]
                                    for v in net.vertices()], "schedule vertices")

    # distinct per-member vertex tuples -> first slot (k, l, i, side); with k
    # outermost, a tuple's first slot carries its lowest cover level
    first_slot: dict[tuple[int, ...], Optional[tuple]] = {}
    for k in range(depth_k):
        for l in range(depth_l):
            nets = [sched[k][l].pairs for sched in schedules]
            for i in range(len(nets[0])):
                for side in range(2):
                    first_slot.setdefault(tuple(pairs[i][side] for pairs in nets), (k, l, i, side))
    base = tuple(cov.basepoint for cov in members)
    first_slot.setdefault(base, None)
    classes = list(first_slot)
    slots = list(first_slot.values())
    base_class = classes.index(base)

    positions = list(range(len(members)))
    log = {"entries": {}, "non_cauchy": [],
           "note": "finite truncation carries the discrete topology "
                   "(source construction uses the chronological one)"}
    ell = np.full((len(classes), len(classes)), NEG_INF)
    columns = [np.array(col) for col in zip(*classes)]  # per member, its vertex of each class
    for a, ca in enumerate(classes):
        # class row a of every member at once: rows[b, m] is member m's ell entry (a, b)
        rows = np.array([cov.space.ell[x, col] for cov, x, col in zip(members, ca, columns)]).T
        for b in range(len(classes)):  # one series at a time keeps the allocation peak low
            ell[a, b] = _entry_limit(rows[b].tolist(), positions, member_idx, tol, (a, b), strict, log)
    del columns, rows  # freed before build_space, where this call's allocations peak
    log["final_subsequence"] = ([member_idx[p] for p in positions]
                                if member_idx is not None else positions)

    labels = ["o" if c == base_class else f"v{s[0]}.{s[1]}.{s[2]}.{'pq'[s[3]]}"
              for c, s in enumerate(slots)]
    space = build_space(labels, ell, tol=max(tol, DEFAULT_TOL))
    cover_levels = [{base_class} | {c for c, s in enumerate(slots) if s is not None and s[0] <= k}
                    for k in range(depth_k)]
    return covered(space, base_class, cover_levels), log


@dataclass(frozen=True)
class BlowupSpec:
    o: int
    o_minus: int
    o_plus: int
    lam: float


def _check_lambda(lam: float) -> None:
    """The blow-up factor rule: lambda > 0 (so NaN fails too), else SpecViolated."""
    if not lam > 0:
        raise SpecViolated("lambda > 0")


def blow_up(cov: CoveredFiniteSpace, spec: BlowupSpec) -> CoveredFiniteSpace:
    """Rescale ell by lambda on the chronological diamond I(o-, o+).

    A point of the spec outside the space raises ShapeMismatch.
    """
    space = cov.space
    point_indices(space.n, (spec.o_minus, spec.o, spec.o_plus), "blow-up points")
    _check_lambda(spec.lam)
    if not space.chron[spec.o_minus, spec.o]:
        raise SpecViolated("o_minus << o")
    if not space.chron[spec.o, spec.o_plus]:
        raise SpecViolated("o << o_plus")
    if not space.tau(spec.o_minus, spec.o_plus) < 1.0 / spec.lam:
        raise SpecViolated("tau(o_minus, o_plus) < 1/lambda")
    mask = space.chron_diamond(spec.o_minus, spec.o_plus)
    keep = [int(i) for i in np.flatnonzero(mask)]  # holds o, by the two chron checks
    pos = {orig: new for new, orig in enumerate(keep)}
    ell = spec.lam * space.ell[np.ix_(keep, keep)]
    sub = build_space([space.labels[i] for i in keep], ell, tol=space.tol)
    return covered(sub, pos[spec.o], [[pos[i] for i in level if i in pos] for level in cov.cover])


def select_blowup_spec(cov: CoveredFiniteSpace, o: int, lam: float) -> BlowupSpec:
    """Tightest admissible (o-, o+): minimal tau(o-, o+) < 1/lam, then richest diamond.

    Ties go to the first pair in (o-, o+) row-major order. An `o` outside
    the space raises ShapeMismatch, and a lambda that is not > 0 SpecViolated.
    """
    space = cov.space
    point_indices(space.n, (o,), "basepoint")
    _check_lambda(lam)
    minus = np.flatnonzero(space.chron[:, o])
    plus = np.flatnonzero(space.chron[o, :])
    tau = np.maximum(0.0, space.ell[np.ix_(minus, plus)]).ravel()
    size = (space.chron[minus].astype(np.intp) @ space.chron[:, plus]).ravel()
    order = np.lexsort((-size, tau))  # stable: row-major among equal keys
    order = order[tau[order] < 1.0 / lam]
    if not order.size:
        raise NoAdmissibleBasepoints(lam)
    om, op = divmod(int(order[0]), plus.size)
    return BlowupSpec(o=o, o_minus=int(minus[om]), o_plus=int(plus[op]), lam=lam)


@dataclass(frozen=True)
class TangentReport:
    records: tuple[dict, ...]
    limit: Optional[CoveredFiniteSpace]
    notes: tuple[str, ...] = field(default=())


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
            doubling, _ = doubling_constant(blown.space, every, exact_threshold=10)
        except Uncoverable:
            doubling = None
            notes.append(f"doubling failed at lambda={lam}")
        try:  # halving nets at scales diam/2^l, per the repeated-halving proof
            nets = [greedy_net(blown.space, every, max(diam, blown.space.tol) / 2 ** l)
                    for l in range(levels)]
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
        targets = [max(len(s[l]) for s in schedules) for l in range(levels)]
        notes.extend("schedule padded to align cardinalities"
                     for l, target in enumerate(targets) for s in schedules if len(s[l]) < target)
        aligned = tuple((tuple(DiamondNet(pairs=net.pairs + net.pairs[-1:] * (target - len(net)),
                                          epsilon=net.epsilon)
                               for net, target in zip(s, targets)),)  # one cover level
                        for s in schedules)
        lams = [r["lambda"] for r in records]  # the member indices, when all integral
        if not all(float(lam).is_integer() for lam in lams):
            lams = None
            notes.append("fractional lambdas: limit fit without member indices")
        seq = CoveredSequence(members=tuple(members), schedules=aligned, member_indices=lams)
        try:
            limit, _ = diagonal_limit(seq, (1, levels, len(members)), strict=False)
        except (ScheduleViolation, AxiomViolation) as exc:
            notes.append(f"limit construction failed: {exc}")
    return TangentReport(records=tuple(records), limit=limit, notes=tuple(notes))
