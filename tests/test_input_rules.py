"""The input rules of `core`: one range rule for point indices, one labels rule, the tol rule.

Every public entry that takes point indices rejects a negative and a
too-large index with a ShapeMismatch that names it. The entries with their
own parametrised range tests are checked there: the subsets of verify_net,
greedy_net and doubling_constant (tests/test_nets.py TestSubsetRange),
verify_net's and induce_net_measure's net vertices and subsets, and the
fiber sites of sample_spacetime and grid_net_product.
"""

import math
import re

import numpy as np
import pytest

from conftest import chain_space
from lorentzgh import (BlowupSpec, CertificateMember, CoveredSequence, DiamondNet,
                       blow_up, build_causet, build_fiber, build_space, circle_fiber, covered,
                       diagonal_limit, faithful_embed_check, grid_net_product, greedy_net,
                       lgh_certificate, make_correspondence, product_family,
                       select_blowup_spec, timelike_diameter, uncovered_samples)
from lorentzgh.core import point_indices
from lorentzgh.curvature import FourPointConfig, four_point_check
from lorentzgh.errors import ShapeMismatch
from lorentzgh.extended import NEG_INF as NI

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
    "greedy_net-seed_pairs": (3, lambda bad: greedy_net(S3, range(3), 2.0,
                                                        seed_pairs=[(0, bad)])),
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
        assert greedy_net(S3, range(3), 2.0, seed_pairs=[(0, 2)]).pairs == ((0, 2),)


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


class TestTolRule:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejected(self, tol):
        with pytest.raises(ShapeMismatch, match="tol must be finite and >= 0"):
            build_space(["a", "b"], [[0, -5], [NI, 0]], tol=tol)
        with pytest.raises(ShapeMismatch, match="tol must be finite and >= 0"):
            build_space(["a"], [[0.0]], tol=tol)

    def test_zero_accepted(self):
        space = build_space(["a", "b"], [[0, 1], [NI, 0]], tol=0.0)
        assert space.tol == 0.0 and np.array_equal(space.ell, [[0, 1], [NI, 0]])
