import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import chain_space
from lorentzgh import limits
from lorentzgh import (BlowupSpec, CoveredSequence, DiamondNet, blow_up, covered,
                       causality_class, diagonal_limit, isometry_search, select_blowup_spec,
                       tangent_experiment, timelike_diameter, build_space, circle_fiber,
                       segment_fiber)
from lorentzgh.errors import (NoAdmissibleBasepoints, NonCauchy, ScheduleViolation,
                              SpecViolated)
from lorentzgh.extended import NEG_INF as NI

LIMIT_PINS = json.loads((Path(__file__).parent / "data" / "limit_pins.json").read_text())


def constant_sequence(space, copies=6, nets=None):
    cov = covered(space, 0, [range(space.n)])
    if nets is None:
        nets = (DiamondNet(pairs=tuple((i, i) for i in range(space.n)),
                           epsilon=1.0),)
    return CoveredSequence(members=tuple(cov for _ in range(copies)),
                           schedules=tuple(((nets),) for _ in range(copies)),
                           member_indices=tuple(range(1, copies + 1)))


class TestDiagonalLimit:
    def test_constant_sequence_isometric(self):
        s = chain_space([0, 1, 2])
        nets = (DiamondNet(pairs=((0, 2), (1, 1)), epsilon=2.0),)
        seq = constant_sequence(s, nets=nets)
        limit, log = diagonal_limit(seq, (1, 1, 6))
        verts = sorted({0, 1, 2})
        sub = s.restrict(verts)
        assert isometry_search(limit.space, sub) is not None
        assert causality_class(limit.space) is not None  # passes core validation

    def test_alternating_entries_extracted(self):
        # member n has ell(0, 1) = 1 + (-1)^n / n; the limit entry is 1
        members = []
        ns = list(range(2, 120))
        for n in ns:
            val = 1 + ((-1) ** n) / n
            sp = build_space(["a", "b"], [[0, val], [NI, 0]])
            members.append(covered(sp, 0, [range(2)]))
        nets = (DiamondNet(pairs=((0, 1),), epsilon=2.0),)
        seq = CoveredSequence(members=tuple(members),
                              schedules=tuple((nets,) for _ in ns),
                              member_indices=tuple(ns))
        limit, log = diagonal_limit(seq, (1, 1, len(ns)), tol=5e-3)
        a, b = limit.space.labels.index("o"), limit.space.labels.index("v0.0.0.q")
        assert limit.space.ell[a, b] == pytest.approx(1.0, abs=1e-4)
        assert log["final_subsequence"]  # extraction trace recorded

    def test_non_cauchy_raises(self):
        members = []
        ns = list(range(1, 20))
        for n in ns:
            val = 2.0 + 0.5 * n  # drifts upward; no convergent subsequence here
            sp = build_space(["a", "b"], [[0, val], [NI, 0]])
            members.append(covered(sp, 0, [range(2)]))
        nets = (DiamondNet(pairs=((0, 1),), epsilon=4.0),)
        seq = CoveredSequence(members=tuple(members),
                              schedules=tuple((nets,) for _ in ns),
                              member_indices=tuple(ns))
        with pytest.raises(NonCauchy):
            diagonal_limit(seq, (1, 1, len(ns)), tol=1e-6)

    def test_schedule_violation_on_cardinality(self):
        s = chain_space([0, 1])
        m1 = covered(s, 0, [range(2)])
        seq = CoveredSequence(
            members=(m1, m1),
            schedules=(((DiamondNet(pairs=((0, 1),), epsilon=1.0),),),
                       ((DiamondNet(pairs=((0, 1), (0, 0)), epsilon=1.0),),)),
        )
        with pytest.raises(ScheduleViolation):
            diagonal_limit(seq, (1, 1, 2))

    def test_depth_without_cover_levels(self):
        seq = constant_sequence(chain_space([0, 1]))
        with pytest.raises(ScheduleViolation, match="no cover levels"):
            diagonal_limit(seq, (0, 1, 6))

    @pytest.mark.parametrize("depth, message", [
        ((1, 1, 0), "no members"), ((1, 1, -1), "no members"),
        ((1, 0, 6), "no net scales"), ((1, -1, 6), "no net scales")])
    def test_depth_selects_nothing(self, depth, message):
        seq = constant_sequence(chain_space([0, 1]))
        with pytest.raises(ScheduleViolation, match=message):
            diagonal_limit(seq, depth)

    def test_schedules_without_net_scales(self):
        cov = covered(chain_space([0, 1]), 0, [range(2)])
        seq = CoveredSequence(members=(cov, cov), schedules=(((),), ((),)))
        with pytest.raises(ScheduleViolation, match="no net scales"):
            diagonal_limit(seq, (1, 1, 2))

    def test_limit_survives_core_validation(self, rng):
        # reverse triangle survives limits
        base = chain_space(np.sort(rng.uniform(0, 3, 5)))
        members, ns = [], list(range(1, 61))
        for n in ns:
            ell = base.ell.copy()
            fin = np.isfinite(ell)
            ell[fin] = ell[fin] * (1 + 1 / n)  # uniform scaling stays valid
            members.append(covered(build_space(base.labels, ell), 0, [range(5)]))
        nets = (DiamondNet(pairs=tuple((i, i) for i in range(5)), epsilon=10.0),)
        seq = CoveredSequence(members=tuple(members),
                              schedules=tuple((nets,) for _ in ns),
                              member_indices=tuple(ns))
        limit, _ = diagonal_limit(seq, (1, 1, len(ns)), tol=1e-2)
        assert (np.abs(limit.space.ell[np.isfinite(limit.space.ell)]
                       - base.ell[np.isfinite(base.ell)]) < 1e-3).all()


class TestBlowUp:
    def _cov(self):
        s = chain_space([0, 0.05, 0.1, 0.15, 0.2])
        return covered(s, 2, [range(5)])

    def test_identity_when_lambda_one(self):
        cov = self._cov()
        spec = BlowupSpec(o=2, o_minus=0, o_plus=4, lam=1.0)
        out = blow_up(cov, spec)
        keep = [1, 2, 3]  # strict chronological interior
        assert out.space.n == 3
        assert (out.space.ell == cov.space.ell[np.ix_(keep, keep)]).all()

    def test_doubling_ell(self):
        cov = self._cov()
        spec = BlowupSpec(o=2, o_minus=0, o_plus=4, lam=2.0)
        out = blow_up(cov, spec)
        keep = [1, 2, 3]
        assert (out.space.ell == 2.0 * cov.space.ell[np.ix_(keep, keep)]).all()

    def test_spec_violations(self):
        cov = self._cov()
        with pytest.raises(SpecViolated):
            blow_up(cov, BlowupSpec(o=2, o_minus=4, o_plus=0, lam=1.0))
        with pytest.raises(SpecViolated):
            blow_up(cov, BlowupSpec(o=2, o_minus=0, o_plus=4, lam=6.0))

    def test_blown_up_space_loads_at_scaled_tol(self):
        # ell[1][3] sits 5e-9 below ell[1][2] + ell[2][3]: within tol 1e-8,
        # and 4e-8 below it once scaled by 8, within tol * 8
        ell = chain_space([0, 0.02, 0.04, 0.06, 0.08]).ell.copy()
        ell[1, 3] -= 5e-9
        cov = covered(build_space([f"p{i}" for i in range(5)], ell, tol=1e-8), 2, [range(5)])
        out = blow_up(cov, BlowupSpec(o=2, o_minus=0, o_plus=4, lam=8.0))
        assert out.space.tol == 8e-8
        assert (out.space.ell == 8.0 * ell[1:4, 1:4]).all()
        shrunk = blow_up(cov, BlowupSpec(o=2, o_minus=0, o_plus=4, lam=0.5))
        assert shrunk.space.tol == 1e-8  # lambda < 1 shrinks every defect: tol stays

    def test_composition_dyadic_exact(self, rng):
        # blow_up(lam) o blow_up(mu) == blow_up(lam * mu) as ell matrices
        for _ in range(30):
            times = np.sort(rng.uniform(0, 0.2, size=6))
            s = chain_space(times)
            cov = covered(s, 3, [range(6)])
            lam, mu = 2.0 ** rng.integers(0, 3), 2.0 ** rng.integers(0, 2)
            spec_mu = BlowupSpec(o=3, o_minus=0, o_plus=5, lam=mu)
            inner = blow_up(cov, spec_mu)
            om, op = 0, inner.space.n - 1
            # recompute endpoints inside the restriction
            om = inner.space.labels.index(s.labels[1]) if s.labels[1] in inner.space.labels else 0
            try:
                spec_lam = select_blowup_spec(inner, inner.basepoint, lam * mu)
            except NoAdmissibleBasepoints:
                continue
            composed = blow_up(inner, BlowupSpec(o=inner.basepoint,
                                                 o_minus=spec_lam.o_minus,
                                                 o_plus=spec_lam.o_plus, lam=lam))
            # direct: restrict then scale by lam*mu over the same point set
            direct_labels = composed.space.labels
            idx = [cov.space.labels.index(lab) for lab in direct_labels]
            direct = lam * mu * cov.space.ell[np.ix_(idx, idx)]
            assert (composed.space.ell == direct).all()

    def test_diameter_bound(self, rng):
        # Minkowski sample, lambda = 4 around the midpoint
        from lorentzgh import ProductGenerator, SamplePlan, sample_spacetime, segment_fiber
        gen = ProductGenerator(fiber=segment_fiber(5, 0.1), cone_scale=1.0,
                               t_range=(0.0, 0.4))
        s = sample_spacetime(gen, SamplePlan(time_step=0.05))
        cov = covered(s.space, s.space.n // 2, [range(s.space.n)])
        spec = select_blowup_spec(cov, cov.basepoint, 4.0)
        out = blow_up(cov, spec)
        d = timelike_diameter(out.space, range(out.space.n))
        assert d <= 4.0 * s.space.tau(spec.o_minus, spec.o_plus) < 1.0


class TestTangent:
    def _minkowski_cov(self):
        from lorentzgh import ProductGenerator, SamplePlan, sample_spacetime, segment_fiber
        gen = ProductGenerator(fiber=segment_fiber(5, 0.4), cone_scale=1.0,
                               t_range=(0.0, 1.2))
        s = sample_spacetime(gen, SamplePlan(time_step=0.05))
        o = s.index_of((0.6, 2))
        return covered(s.space, o, [range(s.space.n)])

    def test_diameters_below_one(self):
        cov = self._minkowski_cov()
        report = tangent_experiment(cov, cov.basepoint, [1, 2, 4, 8], levels=2)
        assert report.records
        for rec in report.records:
            assert rec["diameter"] <= 1.0
            assert rec["net_cardinalities"]

    def test_singleton_degenerates(self):
        s = build_space(["x"], [[0.0]])
        cov = covered(s, 0, [[0]])
        with pytest.raises(NoAdmissibleBasepoints):
            select_blowup_spec(cov, 0, 1.0)

    def test_no_admissible_basepoints_for_huge_lambda(self):
        cov = self._minkowski_cov()
        with pytest.raises(NoAdmissibleBasepoints):
            select_blowup_spec(cov, cov.basepoint, 1e9)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_lambda_not_positive_is_spec_violated(self, lam):
        cov = self._minkowski_cov()
        with pytest.raises(SpecViolated, match="lambda > 0"):
            select_blowup_spec(cov, cov.basepoint, lam)

    def test_fractional_lambdas_give_no_member_indices(self, monkeypatch):
        """Truncating lambda 0.5, 1.5, 1.9 to (0, 1, 1) would skew the a + b/n fit;
        integral lambdas are the member indices (the recorded tangent pins)."""
        seen = []

        def spy(seq, *args, **kwargs):
            seen.append(seq.member_indices)
            return diagonal_limit(seq, *args, **kwargs)

        monkeypatch.setattr(limits, "diagonal_limit", spy)
        cov = self._minkowski_cov()
        report = tangent_experiment(cov, cov.basepoint, [0.5, 1.5, 1.9], levels=2)
        assert seen == [None] and report.limit is not None
        assert "fractional lambdas: limit fit without member indices" in report.notes


def reference_blowup_spec(cov, o, lam):
    """The per-pair loop `select_blowup_spec` replaced: the least (tau, -size, o-, o+)."""
    space = cov.space
    best = None
    for om in np.flatnonzero(space.chron[:, o]):
        for op in np.flatnonzero(space.chron[o, :]):
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


class TestBlowupSelection:
    LAMBDAS = (0.3, 1.0, 2.0, 4.0, 8.0, 30.0, 1e3, 1e6)

    @staticmethod
    def grid(fiber, step, seed=None):
        from lorentzgh import ProductGenerator, SamplePlan, sample_spacetime
        gen = ProductGenerator(fiber=fiber, cone_scale=1.0, t_range=(0.0, 1.2))
        s = sample_spacetime(gen, SamplePlan(time_step=step, seed=seed))
        return covered(s.space, 0, [range(s.space.n)])

    @pytest.mark.parametrize("make", [
        lambda: TestBlowupSelection.grid(segment_fiber(5, 0.4), 0.05),
        lambda: TestBlowupSelection.grid(circle_fiber(12, 0.3), 0.1, seed=4),
        lambda: TestBlowupSelection.grid(circle_fiber(7, 0.15), 0.08, seed=9),
    ], ids=["criterion-11-cover", "jittered-circle-12", "jittered-circle-7"])
    def test_matches_reference_loop_on_sampled_grids(self, make, rng):
        cov = make()
        for o in rng.choice(cov.space.n, size=3, replace=False).tolist():
            for lam in self.LAMBDAS:
                try:
                    expected = reference_blowup_spec(cov, o, lam)
                except NoAdmissibleBasepoints:
                    with pytest.raises(NoAdmissibleBasepoints):
                        select_blowup_spec(cov, o, lam)
                    continue
                assert select_blowup_spec(cov, o, lam) == expected

    def test_richest_diamond_breaks_a_tau_tie(self):
        # b and a both reach c through o with tau 2, but only I(a, c) also holds x
        b, a, o, x, c = range(5)
        ell = np.full((5, 5), NI)
        np.fill_diagonal(ell, 0.0)
        for p, q, t in [(b, o, 1), (a, o, 1), (a, x, 1), (o, c, 1), (x, c, 1), (b, c, 2), (a, c, 2)]:
            ell[p, q] = t
        cov = covered(build_space(list("baoxc"), ell), o, [range(5)])
        assert select_blowup_spec(cov, o, 0.4) == BlowupSpec(o=o, o_minus=a, o_plus=c, lam=0.4)
        assert reference_blowup_spec(cov, o, 0.4) == select_blowup_spec(cov, o, 0.4)

    def test_ties_go_to_the_first_pair_in_row_major_order(self):
        # five pasts and five futures of o = 5: 25 pairs of tau 2, each diamond {o}
        ell = np.full((11, 11), NI)
        np.fill_diagonal(ell, 0.0)
        ell[:5, 5] = ell[5, 6:] = 1.0
        ell[:5, 6:] = 2.0
        cov = covered(build_space([f"x{i}" for i in range(11)], ell), 5, [range(11)])
        assert select_blowup_spec(cov, 5, 0.4) == BlowupSpec(o=5, o_minus=0, o_plus=6, lam=0.4)
        assert reference_blowup_spec(cov, 5, 0.4) == select_blowup_spec(cov, 5, 0.4)


def _enc(v):
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _enc(x) for k, x in v.items()}
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _pinned_covered(rec):
    ell = [[NI if v == "-inf" else v for v in row] for row in rec["ell"]]
    return covered(build_space(rec["labels"], ell, tol=rec["tol"]), rec["basepoint"], rec["cover"])


def _covered_record(cov):
    return {"labels": list(cov.space.labels), "ell": _enc(cov.space.ell.tolist()),
            "tol": cov.space.tol, "basepoint": cov.basepoint,
            "cover": [list(level) for level in cov.cover]}


class TestPinnedLimits:
    """Diagonal limits and tangent reports recorded before limit points became
    one first-slot table.

    Members are small Minkowski point sets that converge like 1/n; some have a
    point duplicated at ell 0 so that two vertex tuples differ while their values
    agree. The `diagonal` cases cover K, L >= 2, depths clipped to the schedules
    and truncated to the first N members, vertex tuples shared across slots, the
    basepoint inside and outside the slot classes, member_indices=None, and
    strict=False with mixed -inf tails and non-Cauchy entries. The `tangent`
    cases blow up a small diamond whose tightest pair holds several points.
    """

    @pytest.mark.parametrize("case", LIMIT_PINS["diagonal"], ids=lambda c: c["name"])
    def test_diagonal_limit_reproduces_recorded_limit(self, case):
        rec = case["sequence"]
        seq = CoveredSequence(
            members=tuple(_pinned_covered(m) for m in rec["members"]),
            schedules=tuple(tuple(tuple(DiamondNet(pairs=tuple(map(tuple, net["pairs"])),
                                                   epsilon=net["epsilon"]) for net in per_k)
                                  for per_k in sched) for sched in rec["schedules"]),
            member_indices=None if rec["member_indices"] is None else tuple(rec["member_indices"]))
        limit, log = diagonal_limit(seq, tuple(case["depth"]), tol=case["tol"],
                                    strict=case["strict"])
        assert _covered_record(limit) == case["limit"]
        assert [[list(k), _enc(v)] for k, v in log["entries"].items()] == case["log"]["entries"]
        assert [{"entry": list(r["entry"]), "spread": _enc(r["spread"])}
                for r in log["non_cauchy"]] == case["log"]["non_cauchy"]
        assert log["final_subsequence"] == case["log"]["final_subsequence"]
        assert log["note"] == case["log"]["note"]

    @pytest.mark.parametrize("case", LIMIT_PINS["tangent"], ids=lambda c: c["name"])
    def test_tangent_experiment_reproduces_recorded_report(self, case):
        cov = _pinned_covered(case["covered"])
        report = tangent_experiment(cov, cov.basepoint, case["lambdas"], levels=case["levels"])
        assert _enc(report.records) == case["records"]
        assert report.limit is not None and _covered_record(report.limit) == case["limit"]
        assert list(report.notes) == case["notes"]
