"""The input rules: one range rule for point indices, one labels rule, the tol rule,
the seed rule, the net epsilon rule, and the product generator, sample plan and product point
rules of `geometry`; and one pinned record for every other reachable raise.

Every public entry that takes point indices rejects a negative and a
too-large index with a ShapeMismatch that names it. The entries with their
own parametrised range tests are checked there: the subsets of verify_net,
greedy_net and doubling_constant (tests/test_nets.py TestSubsetRange),
verify_net's and induce_net_measure's net vertices and subsets, and the
fiber sites of sample_spacetime and grid_net_product.
"""

import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

from conftest import chain_space
import lorentzgh
from lorentzgh import (BlowupSpec, CertificateMember, CoveredSequence, DiamondNet,
                       ProductGenerator, SamplePlan, blow_up, build_causet, build_fiber,
                       build_space, circle_fiber, comparison_config, cone_dominates, covered,
                       diagonal_limit, embed_net, faithful_embed_check, greedy_net,
                       grid_net_product, hauptvermutung_trial, lgh_certificate,
                       make_correspondence, measured_limit_builder, min_distortion, product_family,
                       sample_spacetime, select_blowup_spec, slab_net, slot_matching, sprinkle,
                       tangent_experiment, timelike_diameter, uncovered_samples, weak_gap)
from lorentzgh.core import check_seed, point_indices
from lorentzgh.curvature import FourPointConfig, curvature_bound_scan, four_point_check
from lorentzgh.errors import DomainError, EpsilonTooLarge, ShapeMismatch
from lorentzgh.extended import NEG_INF as NI
from lorentzgh.measured import atomic_measure, extract_limit

S3 = chain_space([0, 1, 2])
GEN = product_family(circle_fiber(8), "inf", t_range=(0.0, 3.0))


def _member(pair=(0, 2), subset=None):
    return CertificateMember(space=S3, nets=(DiamondNet(pairs=(pair,), epsilon=2.0),),
                             subset=subset)


def _sequence(pair):
    cov = covered(S3, 0, [range(3)])
    nets = (DiamondNet(pairs=((0, 0), (1, 1), pair), epsilon=1.0),)
    return CoveredSequence(members=(cov, cov), schedules=((nets,), (nets,)),
                           member_indices=(1, 2))


# entry -> (size of the indexed point set, call with one bad point index)
ENTRIES = {
    "covered": (3, lambda bad: covered(S3, 0, [[0, bad], [0, 1, 2]])),
    "build_causet": (3, lambda bad: build_causet(["a", "b", "c"], [(0, 1), (1, bad)])),
    "faithful_embed_check": (3, lambda bad: faithful_embed_check(
        build_causet(["a", "b", "c"], [(0, 1), (1, 2)]), S3, {0: 0, 1: bad, 2: 2})),
    "correspondence-left": (3, lambda bad: make_correspondence(
        [(0, 0), (1, 1), (2, 2), (bad, 0)], 3, 3)),
    "correspondence-right": (3, lambda bad: make_correspondence(
        [(0, 0), (1, 1), (2, 2), (0, bad)], 3, 3)),
    "timelike_diameter": (3, lambda bad: timelike_diameter(S3, [0, bad])),
    "four_point_check": (3, lambda bad: four_point_check(
        S3, FourPointConfig("future", (0, 1, 2, bad)), 0.0)),
    "uncovered_samples": (8, lambda bad: uncovered_samples(
        GEN, grid_net_product(GEN, 1.0, 2.0, 1.0, range(8)), [(1.5, 0), (1.5, bad)])),
    "sample_spacetime-extra_points": (8, lambda bad: sample_spacetime(
        GEN, SamplePlan(time_step=1.0), extra_points=[(1.5, 0), (1.5, bad)])),
    "lgh_certificate-limit_subset": (3, lambda bad: lgh_certificate(
        [_member()], _member(subset=(0, bad)))),
    "lgh_certificate-limit_net": (3, lambda bad: lgh_certificate(
        [_member()], _member(pair=(0, bad)))),
    "lgh_certificate-member_net": (3, lambda bad: lgh_certificate(
        [_member(pair=(0, bad))], _member())),
    "lgh_certificate-matching_key": (3, lambda bad: lgh_certificate(
        [_member()], _member(), {(0, 0): {0: 0, bad: 2}})),
    "lgh_certificate-matching_value": (3, lambda bad: lgh_certificate(
        [_member()], _member(), {(0, 0): {0: 0, 2: bad}})),
    "diagonal_limit": (3, lambda bad: diagonal_limit(_sequence((0, bad)), (1, 1, 2))),
    "blow_up": (3, lambda bad: blow_up(covered(S3, 0, [range(3)]),
                                       BlowupSpec(o=1, o_minus=0, o_plus=bad, lam=0.4))),
    "select_blowup_spec": (3, lambda bad: select_blowup_spec(covered(S3, 0, [range(3)]),
                                                             bad, 0.4)),
}


class TestPointIndexRule:
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("side", ["negative", "too-large"])
    def test_outside_range_named(self, entry, side):
        n, call = ENTRIES[entry]
        bad = -1 if side == "negative" else n
        with pytest.raises(ShapeMismatch, match=re.escape(f"[{bad}] outside range({n})")):
            call(bad)

    def test_rule_sorts_and_deduplicates(self):
        assert point_indices(4, [3, 0, 3, 1], "points").tolist() == [0, 1, 3]
        assert point_indices(0, [], "points").size == 0

    def test_rule_names_every_bad_index(self):
        message = re.escape("points [-2, -1, 4, 9] outside range(4)")
        with pytest.raises(ShapeMismatch, match=message):
            point_indices(4, [9, -1, 0, 4, -2, 3], "points")

    @pytest.mark.parametrize("value", [1.7, -0.5, math.nan, math.inf, -math.inf,
                                       np.float64(2.5)])
    def test_non_integer_named(self, value):
        with pytest.raises(ShapeMismatch, match=re.escape(f"[{float(value)!r}] are not integers")):
            point_indices(4, [0, value], "points")
        with pytest.raises(ShapeMismatch, match="are not integers"):
            timelike_diameter(S3, [0, value])

    @pytest.mark.parametrize("indices", [[2.0, 0], [np.int64(2), np.float32(0.0)],
                                         np.array([2.0, 0.0]), [True, 2], (2, 0, 2)])
    def test_integral_values_of_any_type_accepted(self, indices):
        got = point_indices(4, indices, "points")
        assert got.dtype == int and got.tolist() == sorted({int(v) for v in indices})

    def test_empty_accepted(self):
        for empty in ([], (), np.array([])):
            got = point_indices(4, empty, "points")
            assert got.dtype == int and got.size == 0

    def test_in_range_entries_unchanged(self):
        assert timelike_diameter(S3, [2, 0, 2]) == 2.0
        assert four_point_check(S3, FourPointConfig("future", (0, 1, 2, 2)), 0.0)["holds"]


HALVES = atomic_measure({0: 0.5, 1: 0.5})
# entry -> (call with inputs of mismatched shape, words the ShapeMismatch must carry)
SHAPES = {
    "four_point_check-three-points": (lambda: four_point_check(
        S3, FourPointConfig("future", (0, 1, 2)), 0.0), "needs 4 points, got 3"),
    "four_point_check-five-points": (lambda: four_point_check(
        S3, FourPointConfig("future", (0, 1, 2, 2, 2)), 0.0), "needs 4 points, got 5"),
    "measured_limit_builder-key-lengths": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 6, (1, 0): [HALVES] * 3}), "(0, 0): 6, (1, 0): 3"),
    "measured_limit_builder-short-member_indices": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 6}, member_indices=[1, 2]), "(0, 0): 6, member_indices: 2"),
    "measured_limit_builder-long-member_indices": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 2}, member_indices=[1, 2, 3]), "(0, 0): 2, member_indices: 3"),
    # member indices are one list of integers, and each mass bound C_k is > 0
    "measured_limit_builder-scalar-member_indices": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 2}, member_indices=2), "member_indices must be a list, got 2"),
    "measured_limit_builder-nested-member_indices": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 2}, member_indices=[[1], [2]]), "member_indices must be a list"),
    "measured_limit_builder-fractional-member_indices": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 2}, member_indices=[1, 2.5]), "member_indices [2.5] are not integers"),
    "CoveredSequence-string-member_indices": (lambda: CoveredSequence(
        members=_sequence((0, 2)).members, schedules=_sequence((0, 2)).schedules,
        member_indices=("a", 2)), "member_indices ['a'] are not integers"),
    "measured_limit_builder-zero-bound": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 2}, bounds={0: 2.0, 1: 0.0}), "C_k at levels [1] must be > 0"),
    "measured_limit_builder-nan-negative-bounds": (lambda: measured_limit_builder(
        {(0, 0): [HALVES] * 2}, bounds={2: math.nan, 0: -1.0}), "levels [0, 2] must be > 0"),
}


class TestShapeRule:
    """A configuration or a measured sequence of the wrong shape is a ShapeMismatch
    naming the lengths, never a bare ValueError, an IndexError or a silent restart."""

    @pytest.mark.parametrize("entry", sorted(SHAPES))
    def test_mismatch_named(self, entry):
        call, message = SHAPES[entry]
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            call()


# builder -> call with labels for two points
BUILDERS = {
    "build_space": lambda labels: build_space(labels, [[0, 1], [NI, 0]]),
    "build_fiber": lambda labels: build_fiber(labels, [[0, 1], [1, 0]]),
    "build_causet": lambda labels: build_causet(labels, [(0, 1)]),
}
BAD_LABELS = {
    "not-a-list": ("ab", "labels must be a list, got 'ab'"),
    "unhashable": ([["a"], ["b"]], "labels must be hashable"),
    "duplicate": (["s", "s"], "labels must be unique, 's' repeats"),
}


class TestLabelsRule:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_rejected(self, builder, case):
        labels, message = BAD_LABELS[case]
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            BUILDERS[builder](labels)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("labels", [["a", "b"], ("a", "b"), [0, ("x", 1)]])
    def test_accepted(self, builder, labels):
        BUILDERS[builder](labels)


# public entry -> (its tolerance parameter, call with that tolerance)
TOL_ENTRIES = {
    "core.build_space": ("tol", lambda tol: build_space(["a", "b"], [[0, 1], [NI, 0]], tol=tol)),
    "limits.diagonal_limit": ("tol", lambda tol: diagonal_limit(_sequence((0, 2)), (1, 1, 2),
                                                                tol=tol)),
    "corr.lgh_certificate": ("convergence_tol", lambda tol: lgh_certificate(
        [_member()], _member(), convergence_tol=tol)),
    "curvature.four_point_check": ("tol", lambda tol: four_point_check(
        S3, FourPointConfig("future", (0, 1, 2, 2)), 0.0, tol=tol)),
    "curvature.curvature_bound_scan": ("tol", lambda tol: curvature_bound_scan(
        S3, 0.0, 10, 0, tol=tol)),
}
# public callables with a tolerance parameter that do not apply the rule, and why
TOL_EXEMPT = {
    "core.FiniteLorentzSpace": "the unvalidated constructor, by contract; build_space validates",
    "core.validate_matrix": "reached only through build_space, after its tol rule",
    "serialize.space_from_dict": "passes tol to build_space",
    "serialize.covered_from_dict": "passes tol to build_space",
}


def _parameters(wanted):
    """(module.name, parameter) for every parameter named as `wanted` accepts
    of the package's public functions, classes and public methods."""
    for info in pkgutil.iter_modules(lorentzgh.__path__):
        module = importlib.import_module(f"lorentzgh.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            found = [(name, obj)]
            if inspect.isclass(obj):
                found += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                          if not m.startswith("_") and inspect.isfunction(f)]
            for qualname, f in found:
                if not callable(f):
                    continue
                for param in inspect.signature(f).parameters:
                    if wanted(param):
                        yield f"{info.name}.{qualname}", param


class TestTolRule:
    """Every public entry that takes a tolerance applies `core.check_tol`: a
    finite number >= 0, else one ShapeMismatch message naming the parameter."""

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejected(self, tol):
        with pytest.raises(ShapeMismatch, match="tol must be finite and >= 0"):
            build_space(["a", "b"], [[0, -5], [NI, 0]], tol=tol)
        with pytest.raises(ShapeMismatch, match="tol must be finite and >= 0"):
            build_space(["a"], [[0.0]], tol=tol)

    def test_zero_accepted(self):
        space = build_space(["a", "b"], [[0, 1], [NI, 0]], tol=0.0)
        assert space.tol == 0.0 and np.array_equal(space.ell, [[0, 1], [NI, 0]])

    @pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1, "abc"])
    def test_entry_rejected(self, entry, value):
        param, call = TOL_ENTRIES[entry]
        message = re.escape(f"{param} must be finite and >= 0, got {value!r}")
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            call(value)

    @pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
    def test_entry_zero_accepted(self, entry):
        TOL_ENTRIES[entry][1](0)

    def test_every_tol_parameter_is_ruled_or_exempt(self):
        found = set(_parameters(lambda param: param == "tol" or param.endswith("_tol")))
        unruled = sorted((name, param) for name, param in found
                         if name not in TOL_ENTRIES and name not in TOL_EXEMPT)
        assert not unruled, f"no rule row and no exemption: {unruled}"
        assert {(name, row[0]) for name, row in TOL_ENTRIES.items()} <= found, "stale rows"
        assert set(TOL_EXEMPT) <= {name for name, _ in found}, "stale exemptions"


# entry -> call with one seed
SEED_ENTRIES = {
    "core.check_seed": check_seed,
    "corr.min_distortion": lambda seed: min_distortion(S3, S3, seed=seed),
    "curvature.curvature_bound_scan": lambda seed: curvature_bound_scan(S3, 0.0, 10, seed),
    "causet.sprinkle": lambda seed: sprinkle(GEN, (0.0, 1.0), 3, seed),
    "causet.hauptvermutung_trial": lambda seed: hauptvermutung_trial(GEN, GEN, [3], seed),
    "geometry.SamplePlan": lambda seed: SamplePlan(time_step=1.0, seed=seed),
}


class TestSeedRule:
    """Every public entry that takes a seed applies `core.check_seed`: an
    integer >= 0, else one ShapeMismatch message naming the seed and its value."""

    @pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
    @pytest.mark.parametrize("value", [-1, -2**63, 1.5, "3"])
    def test_entry_rejected(self, entry, value):
        message = re.escape(f"seed must be an integer >= 0, got {value!r}")
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            SEED_ENTRIES[entry](value)

    @pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
    @pytest.mark.parametrize("value", [0, np.int64(7), 2**64])
    def test_entry_accepted(self, entry, value):
        SEED_ENTRIES[entry](value)

    def test_every_seed_parameter_is_ruled(self):
        assert set(_parameters(lambda param: "seed" in param)) == \
            {(name, "seed") for name in SEED_ENTRIES}


FIBER = circle_fiber(4)
# entry -> (call with one malformed field, its error class, words the error must carry)
PRODUCT_RULES = {
    **{f"cone_scale-{value!r}": (lambda value=value: ProductGenerator(FIBER, value, (0.0, 1.0)),
                                 ShapeMismatch, f"cone_scale must be a finite number > 0, "
                                                f"got {value!r}")
       for value in (math.inf, math.nan, 0, -1.0, "2")},
    **{f"t_range-{value!r}": (lambda value=value: ProductGenerator(FIBER, 1.0, value),
                              ShapeMismatch, f"t_range must be two finite numbers lo < hi, "
                                             f"got {value!r}")
       for value in ((0.0,), (0.0, 1.0, 2.0), (0.0, math.inf), (1.0, 0.0), 5)},
    **{f"time_step-{value!r}": (lambda value=value: SamplePlan(time_step=value),
                                ShapeMismatch, f"time_step must be a finite number > 0, "
                                               f"got {value!r}")
       for value in (math.inf, math.nan, 0.0)},
    "slab_net-nan-epsilon": (lambda: slab_net(GEN, 1.0, 2.0, math.nan, range(8)),
                             EpsilonTooLarge, "epsilon must be positive, got nan"),
    "atomic_measure-fractional-atom": (lambda: atomic_measure({0: 0.5, 1.7: 0.5}),
                                       ShapeMismatch, "measure atoms [1.7] are not integers"),
    "sample_spacetime-fractional-extra-site": (lambda: sample_spacetime(
        GEN, SamplePlan(time_step=1.0), extra_points=[(1.5, 1.7)]),
        ShapeMismatch, "extra point sites [1.7] are not integers"),
    "sample_spacetime-extra-time-outside": (lambda: sample_spacetime(
        GEN, SamplePlan(time_step=1.0), extra_points=[(1.5, 0), (5.0, 1)]),
        ShapeMismatch, "extra point times [5.0] outside generator range (0.0, 3.0)"),
    "sample_spacetime-extra-point-not-a-pair": (lambda: sample_spacetime(
        GEN, SamplePlan(time_step=1.0), extra_points=[(1.5, 0, 2)]),
        ShapeMismatch, "extra points must be (time, site) pairs, got shape (1, 3)"),
    "product_family-index-array": (lambda: product_family(FIBER, np.array([3, 4])),
                                   ShapeMismatch, "family index must be an integer >= 1"),
    "uncovered_samples-time-outside": (lambda: uncovered_samples(
        GEN, grid_net_product(GEN, 1.0, 2.0, 1.0, range(8)), [(1.5, 0), (-0.5, 1)]),
        ShapeMismatch, "sample times [-0.5] outside generator range (0.0, 3.0)"),
}


class TestProductRules:
    """A generator, a sample plan and a product point are each checked once, where
    they are made: a malformed field is one domain error naming it and its value."""

    @pytest.mark.parametrize("entry", sorted(PRODUCT_RULES))
    def test_rejected(self, entry):
        call, error, message = PRODUCT_RULES[entry]
        with pytest.raises(error, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("t_range", [[0.0, 1.0], np.array([0.0, 1.0])])
    def test_t_range_compares_and_hashes_by_value(self, t_range):
        by_tuple = ProductGenerator(FIBER, 1.0, (0.0, 1.0))
        by_value = ProductGenerator(FIBER, 1.0, t_range)
        assert by_value == by_tuple and hash(by_value) == hash(by_tuple)
        assert by_value.t_range == (0.0, 1.0) and isinstance(by_value.t_range, tuple)

    @pytest.mark.parametrize("n", [np.int64(3), 3.0])
    def test_family_index_of_any_integral_type(self, n):
        gen = product_family(FIBER, n)
        assert gen == product_family(FIBER, 3) and gen.cone_scale == 1.0 + 1.0 / 3


class TestNetEpsilonRule:
    """A net's epsilon is a number >= 0 (+inf is an unbounded net); anything else is
    one ShapeMismatch naming the value, from `DiamondNet` and before `greedy_net`
    builds a candidate."""

    @pytest.mark.parametrize("epsilon", [math.nan, -1.0, -math.inf, "x", None, "2"])
    def test_rejected(self, epsilon):
        message = re.escape(f"net epsilon must be a number >= 0, got {epsilon!r}")
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            DiamondNet((), epsilon)
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            greedy_net(S3, [0, 1, 2], epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 0, 2.5, math.inf, np.float64(1.0)])
    def test_accepted(self, epsilon):
        assert DiamondNet((), epsilon).epsilon == epsilon
        assert greedy_net(S3, [], epsilon) == DiamondNet((), epsilon)


COV3 = covered(S3, 0, [range(3)])
# the second member leaves (0, 2) unrelated: a tail that mixes -inf and 2.0
UNRELATED = covered(build_space(["a", "b", "c"], [[0, NI, NI], [NI, 0, 1], [NI, NI, 0]]), 0,
                    [range(3)])


def _net(*pairs):
    return DiamondNet(pairs=pairs, epsilon=1.0)


def _schedules(*per_member, members=None, member_indices=None):
    return CoveredSequence(members=members or (COV3,) * len(per_member), schedules=per_member,
                           member_indices=member_indices)


# statement -> (call that reaches it, the record it raises); one row for each
# reachable raise that no other test runs
RECORDS = {
    "causet.build_causet-self-loop": (
        lambda: build_causet(["a", "b"], [(0, 1), (1, 1)]),
        {"error": "cycle-detected", "message": "self-loop at element 1"}),
    "causet.sprinkle-region-outside-t_range": (
        lambda: sprinkle(GEN, (2.0, 4.0), 5, 0),
        {"error": "empty-region", "message": "region (2.0, 4.0) outside generator range (0.0, 3.0)"}),
    "core.build_space-neg-inf-diagonal": (
        lambda: build_space(["a", "b"], [[0, 1], [NI, NI]]),
        {"error": "axiom-violation", "message": "ell[1][1] must be >= 0", "kind": "diagonal",
         "witness": 1}),
    "corr.min_distortion-unknown-mode": (
        lambda: min_distortion(S3, S3, mode="fast"),
        {"error": "shape-mismatch", "message": "unknown mode 'fast'"}),
    "corr.slot_matching-unequal-nets": (
        lambda: slot_matching(_net((0, 1)), _net((0, 1), (1, 2))),
        {"error": "shape-mismatch", "message": "slot matching needs equal net cardinalities"}),
    "curvature.four_point_check-unknown-kind": (
        lambda: four_point_check(S3, FourPointConfig("sideways", (0, 1, 2, 2)), 0.0),
        {"error": "shape-mismatch", "message": "unknown configuration kind 'sideways'"}),
    "curvature.four_point_check-not-a-configuration": (
        lambda: four_point_check(S3, FourPointConfig("future", (2, 1, 0, 0)), 0.0),
        {"error": "shape-mismatch",
         "message": "points (2, 1, 0, 0) do not form a future four-point configuration"}),
    # a side >= D_K is rejected by the placement: tau(y, z2) = 2 >= pi/2
    "curvature.four_point_check-side-at-least-D_K": (
        lambda: four_point_check(chain_space([0, 0.5, 1, 2]),
                                 FourPointConfig("future", (0, 1, 2, 3)), 4.0),
        {"error": "unrealizable", "message": "side constraint not realizable: tau_yz2 >= D_K",
         "constraint": "tau_yz2 >= D_K"}),
    "curvature.curvature_bound_scan-fractional-budget": (
        lambda: curvature_bound_scan(S3, 0.0, 2.5, 0),
        {"error": "shape-mismatch", "message": "budget must be an integer >= 0, got 2.5"}),
    "curvature.curvature_bound_scan-nan-budget": (
        lambda: curvature_bound_scan(S3, 0.0, math.nan, 0),
        {"error": "shape-mismatch", "message": "budget must be an integer >= 0, got nan"}),
    "curvature.comparison_config-tau_yx-zero": (
        lambda: comparison_config(0.0, (0.0, 1.0, 1.0, 1.0, 1.0)),
        {"error": "unrealizable", "message": "y and x must be chronologically related",
         "constraint": "tau_yx <= 0"}),
    "curvature.comparison_config-negative-side": (
        lambda: comparison_config(0.0, (1.0, 2.0, 2.0, -1.0, 1.0)),
        {"error": "unrealizable", "message": "side constraint not realizable: tau_xz1 < 0",
         "constraint": "tau_xz1 < 0"}),
    "curvature.comparison_config-side-at-least-D_K": (
        lambda: comparison_config(1.0, (1.0, 4.0, 2.0, 1.0, 1.0)),
        {"error": "unrealizable", "message": "side constraint not realizable: tau_yz1 >= D_K",
         "constraint": "tau_yz1 >= D_K"}),
    # a null tau_xz1 is re-measured through the square root of a cancelled
    # interval, so the placed z1 misses its tau_xz1 by more than 1e-10 times
    # the largest side
    "curvature._placement-solver-diverged": (
        lambda: comparison_config(0.25, (0.8271467107628444, 1.3424722718049864,
                                         1.1129480908509861, 0.0, 0.0)),
        {"error": "solver-diverged",
         "message": "comparison residual 1.825e-08 exceeds 1e-10 * max side"}),
    # a subnormal tau_yx divides the placement's sine to an infinite coordinate
    "curvature._solve_z-chart-domain": (
        lambda: comparison_config(1.0, (1e-310, 1.0, 1.0, 0.5, 0.5)),
        {"error": "chart-domain", "message": "comparison placement overflows the chart for K=1.0"}),
    "geometry.build_fiber-nonzero-diagonal": (
        lambda: build_fiber(["a", "b"], [[0, 1], [1, 0.5]]),
        {"error": "axiom-violation", "message": "fiber metric must vanish on the diagonal",
         "kind": "diagonal", "witness": 1}),
    "geometry.grid_net_product-empty-fiber-net": (
        lambda: grid_net_product(GEN, 1.0, 2.0, 1.0, []),
        {"error": "not-a-fiber-net", "message": "empty fiber net", "witness": None}),
    "geometry.embed_net-missing-vertex": (
        lambda: embed_net(grid_net_product(GEN, 1.0, 2.0, 1.0, range(8)),
                          sample_spacetime(GEN, SamplePlan(time_step=1.0))),
        {"error": "shape-mismatch",
         "message": "sample does not contain a net vertex; pass extra_points"}),
    "geometry.cone_dominates-omega-zero": (
        lambda: cone_dominates(1.0, 0.5, 0.0),
        {"error": "unsupported-metric-family", "message": "omega must be positive, got 0.0"}),
    "limits.CoveredSequence-no-members": (
        lambda: _schedules(),
        {"error": "schedule-violation", "message": "empty sequence"}),
    "limits.CoveredSequence-schedule-count": (
        lambda: _schedules(((_net((0, 2)),),), members=(COV3, COV3)),
        {"error": "schedule-violation", "message": "one schedule per member required"}),
    "limits.CoveredSequence-member_indices-length": (
        lambda: _schedules(((_net((0, 2)),),), ((_net((0, 2)),),), member_indices=(1,)),
        {"error": "schedule-violation", "message": "member_indices length mismatch"}),
    "limits.diagonal_limit-not-nested-in-k": (
        lambda: diagonal_limit(_schedules(*[((_net((0, 2)),), (_net((0, 1)),))] * 2),
                               (2, 1, 2)),
        {"error": "schedule-violation",
         "message": "member 0: scale-0 net at level 0 not contained in level 1"}),
    "limits.diagonal_limit-strict-mixed-tail": (
        lambda: diagonal_limit(_schedules(((_net((0, 2)),),), ((_net((0, 2)),),),
                                          members=(COV3, UNRELATED)), (1, 1, 2)),
        {"error": "non-cauchy",
         "message": "entry (0, 1) mixes unrelated and related members in the tail",
         "entry": (0, 1), "depth": 2}),
    "limits.blow_up-o-not-before-o_plus": (
        lambda: blow_up(COV3, BlowupSpec(o=1, o_minus=0, o_plus=1, lam=0.4)),
        {"error": "spec-violated", "message": "blow-up spec invariant violated: o << o_plus",
         "which": "o << o_plus"}),
    "measured.extract_limit-empty": (
        lambda: extract_limit([]),
        {"error": "shape-mismatch", "message": "cannot extract a limit from an empty sequence"}),
}


def _one_ulp_over_tol():
    """A 1-point space whose diagonal passes the reverse triangle at one ulp over tol."""
    return covered(build_space(["m"], [[float(np.nextafter(1e-9, 1.0))]], tol=1e-9), 0, [[0]])


# branch -> (call that reaches it, the value it returns)
OUTCOMES = {
    # at level 59 the halving scale is below an ulp of tol, and the degenerate
    # diamond (m, m) of tau tol + 1 ulp is no longer admissible
    "limits.tangent_experiment-halving-nets-uncoverable": (
        lambda: tangent_experiment(_one_ulp_over_tol(), 0, [1], levels=60).notes,
        ("halving nets uncoverable at lambda=1; member dropped",)),
    "limits.tangent_experiment-limit-construction-failed": (
        lambda: tangent_experiment(covered(chain_space([0.0, 0.1, 0.2]), 1, [range(3)]), 1,
                                   [1, 2], levels=0).notes,
        ("limit construction failed: depth selects no net scales",)),
    # the reverse triangle holds with a margin of 2.4e-7 on sides of order 100,
    # where the flat t^2 - tau_yz^2 would cancel: the product form places z1
    "curvature._solve_z-product-form": (
        lambda: comparison_config(0.0, (116.77227652783134, 116.77227676539862,
                                        116.77227676539862, 0.0, 0.0)).z1.coords,
        (116.77227676539862, 2.3756727809150762e-07)),
    # a margin of 1.9e-6 on sides of order 3000: the residual 2.8e-8 is within
    # 1e-10 times the largest side, and z1 is off the axis
    "curvature._solve_z-large-sides": (
        lambda: comparison_config(0.0, (3119.002688652844, 3119.004629243366,
                                        3119.004629243366, 0.0, 0.0)).z1.coords,
        (3119.0046292439697, 0.0019405911255276184)),
    "measured.weak_gap-empty-measures": (
        lambda: weak_gap(atomic_measure({}), atomic_measure({})), 0.0),
}


class TestEveryReachableStatement:
    """Each raise and branch above runs in the suite, with the record or value it gives."""

    @pytest.mark.parametrize("entry", sorted(RECORDS))
    def test_record(self, entry):
        call, record = RECORDS[entry]
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.record() == record

    @pytest.mark.parametrize("entry", sorted(OUTCOMES))
    def test_outcome(self, entry):
        call, value = OUTCOMES[entry]
        assert call() == value
