import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorentzgh
from lorentzgh.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "docs" / "schemas"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys, expect=0):
    code, out, err = run_cli(args, capsys)
    assert code == expect, err
    return json.loads(out if expect == 0 else err)


# ell[0][2] falls 1e-7 short of the reverse triangle: valid at tol 1e-6 only
SHORT_CHAIN = {"labels": ["a", "b", "c"],
               "ell": [[0, 0.1, 0.2 - 1e-7], ["-inf", 0, 0.1], ["-inf", "-inf", 0]],
               "basepoint": 1, "cover": [[0, 1, 2]]}


class TestBasics:
    def test_validate_golden_space(self, capsys):
        payload = run_json(["validate", "--space", str(SCHEMAS / "space.json")], capsys)
        assert payload == {"ok": True}

    def test_validate_bad_space_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": ["a", "b", "c"],
                                   "ell": [[0, 1, 1.5], ["-inf", 0, 1],
                                           ["-inf", "-inf", 0]]}))
        record = run_json(["validate", "--space", str(bad)], capsys, expect=1)
        assert record["error"] == "axiom-violation"
        assert record["witness"] == [0, 1, 2]

    def test_usage_error_exit_2(self, capsys):
        code, out, err = run_cli(["validate"], capsys)
        assert code == 2

    def test_class_report(self, capsys):
        payload = run_json(["class", "--space", str(SCHEMAS / "space.json")], capsys)
        assert payload["chronological"] and payload["causal"] and payload["pdp"]

    def test_quotient(self, capsys):
        payload = run_json(["quotient", "--space", str(SCHEMAS / "space.json")], capsys)
        assert payload["projection"] == [0, 1, 2]

    def test_byte_identical_reruns(self, capsys):
        args = ["fourpoint", "--space", str(SCHEMAS / "space.json"),
                "--K", "0", "--budget", "50", "--seed", "7"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestNets:
    def test_net_then_verify_roundtrip(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        code, _, _ = run_cli(["net", "--space", str(SCHEMAS / "space.json"),
                              "--epsilon", "2", "--out", str(net_file)], capsys)
        assert code == 0 and json.loads(net_file.read_text())["pairs"]
        check = run_json(["verify-net", "--space", str(SCHEMAS / "space.json"),
                          "--net", str(net_file)], capsys)
        assert check["ok"]

    @pytest.mark.parametrize("pair", [[0, 7], [-1, 2]])
    def test_verify_net_vertex_outside_space_exit_1(self, pair, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"pairs": [[0, 2], pair], "epsilon": 2}))
        code, out, err = run_cli(["verify-net", "--space", str(SCHEMAS / "space.json"),
                                  "--net", str(net)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "shape-mismatch"

    @pytest.mark.parametrize("argv", [
        ["verify-net", "--net", str(SCHEMAS / "net.json"), "--subset", "0,7"],
        ["verify-net", "--net", str(SCHEMAS / "net.json"), "--subset=-1"],
        ["net", "--epsilon", "2", "--subset", "9"],
        ["doubling", "--subset", "0,5"],
        ["doubling", "--subset=-1,2"],
        ["measure", "induce", "--measure", str(SCHEMAS / "measure.json"),
         "--net", str(SCHEMAS / "net.json"), "--subset=-1,2"],
    ])
    def test_subset_outside_space_exit_1(self, argv, capsys):
        code, out, err = run_cli(argv + ["--space", str(SCHEMAS / "space.json")], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "shape-mismatch"

    def test_doubling(self, capsys):
        payload = run_json(["doubling", "--space", str(SCHEMAS / "space.json")], capsys)
        assert payload == {"N": 2, "exact": True}

    def test_grid_net_with_sample_check(self, tmp_path, capsys):
        payload = run_json(["grid-net", "--generator", str(SCHEMAS / "generator.json"),
                            "--t-minus", "0.3", "--t-plus", "0.6",
                            "--epsilon", "0.25", "--check-samples", "500"], capsys)
        assert payload["uncovered_samples"] == []

    @pytest.mark.parametrize("argv", [
        ["sample", "--step", "0.5", "--sites", "99"],
        ["sample", "--step", "0.5", "--sites=-1"],
        ["grid-net", "--t-minus", "0.3", "--t-plus", "0.6", "--epsilon", "0.25",
         "--fiber-net", "99"],
        ["grid-net", "--t-minus", "0.3", "--t-plus", "0.6", "--epsilon", "0.25",
         "--fiber-net=-1"],
    ])
    def test_fiber_site_outside_fiber_exit_1(self, argv, capsys):
        code, out, err = run_cli(argv + ["--generator", str(SCHEMAS / "generator.json")],
                                 capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "shape-mismatch"


class TestMatching:
    def test_distort_golden(self, capsys):
        payload = run_json(["distort", "--a", str(SCHEMAS / "space.json"),
                            "--b", str(SCHEMAS / "space.json"),
                            "--corr", str(SCHEMAS / "correspondence.json")], capsys)
        assert payload["distortion"] == 0

    @pytest.mark.parametrize("n", [2, 4])
    def test_distort_wrong_size_exit_1(self, n, tmp_path, capsys):
        corr = tmp_path / "corr.json"
        corr.write_text(json.dumps({"pairs": [[i, i] for i in range(n)],
                                    "n_left": n, "n_right": n}))
        code, out, err = run_cli(["distort", "--a", str(SCHEMAS / "space.json"),
                                  "--b", str(SCHEMAS / "space.json"),
                                  "--corr", str(corr)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "shape-mismatch"

    def test_match_exact_cap_exit_1(self, tmp_path, capsys):
        import numpy as np
        from lorentzgh import serialize as ser
        from conftest import chain_space
        big = chain_space(np.arange(9.0))
        f = tmp_path / "big.json"
        f.write_text(ser.dumps(ser.space_to_dict(big)))
        record = run_json(["match", "--a", str(f), "--b", str(f), "--mode", "exact"],
                          capsys, expect=1)
        assert "cap" in record["message"]

    def test_match_heuristic(self, capsys):
        payload = run_json(["match", "--a", str(SCHEMAS / "space.json"),
                            "--b", str(SCHEMAS / "space.json")], capsys)
        assert payload["distortion"] == 0

    def test_certify_manifest(self, capsys):
        payload = run_json(["certify", "--manifest",
                            str(SCHEMAS / "certify_manifest.json")], capsys)
        assert payload["strong"] is True

    def test_certify_csv(self, tmp_path, capsys):
        out = tmp_path / "stages.csv"
        code, _, _ = run_cli(["certify", "--manifest",
                              str(SCHEMAS / "certify_manifest.json"),
                              "--format", "csv", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().splitlines()[0] == "l,n,distortion"


class TestGeometryCommands:
    def test_sample_validates_downstream(self, tmp_path, capsys):
        space_file = tmp_path / "sampled.json"
        code, _, _ = run_cli(["sample", "--generator", str(SCHEMAS / "generator.json"),
                              "--step", "0.25", "--window", "0,0.5",
                              "--out", str(space_file)], capsys)
        assert code == 0
        payload = run_json(["validate", "--space", str(space_file)], capsys)
        assert payload["ok"]

    def test_cones(self, capsys):
        payload = run_json(["cones", "--generator", str(SCHEMAS / "generator.json"),
                            "--beta", "1.0", "--omega", "1.0"], capsys)
        assert not payload["holds"]  # family cone scale 1.1 > sqrt(beta)/omega

    @pytest.mark.parametrize("beta, omega, stdout", [
        ("0.5", "2.0", '{"certificate":"analytic","holds":false,"witness":[0.0,0,1.1]}\n'),
        ("1.0", "0.5", '{"certificate":"analytic","holds":true,"witness":null}\n'),
    ])
    def test_cones_stdout_bytes(self, beta, omega, stdout, capsys):
        code, out, _ = run_cli(["cones", "--generator", str(SCHEMAS / "generator.json"),
                                "--beta", beta, "--omega", omega], capsys)
        assert (code, out) == (0, stdout)

    @pytest.mark.parametrize("kind, points", [("circle", 0), ("segment", 0), ("segment", -2)])
    @pytest.mark.parametrize("argv", [["sample", "--step", "0.5"],
                                      ["cones", "--beta", "1", "--omega", "1"]])
    def test_empty_closed_form_fiber_exit_1(self, argv, kind, points, tmp_path, capsys):
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({"fiber_kind": kind, "fiber_points": points,
                                   "family_index": 10}))
        code, out, err = run_cli(argv + ["--generator", str(gen)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "shape-mismatch"
        assert "Traceback" not in err

    def test_integer_list_skips_empty_entries(self, capsys):
        argv = ["sample", "--generator", str(SCHEMAS / "generator.json"), "--step", "0.5"]
        code, out, err = run_cli(argv + ["--sites", "0,,1"], capsys)
        assert code == 0, err
        assert (code, out, err) == run_cli(argv + ["--sites", "0,1"], capsys)

    def test_scan(self, capsys):
        payload = run_json(["scan", "--space", str(SCHEMAS / "space.json"),
                            "--K-list", "0,0.5", "--budget", "20", "--seed", "1"],
                           capsys)
        assert len(payload["per_K"]) == 2


    @pytest.mark.parametrize("argv", [
        ["scan", "--K-list=nan"], ["scan", "--K-list=0,inf"], ["scan", "--K-list=-inf"],
        ["fourpoint", "--K", "nan"], ["scan", "--K-list=0", "--budget", "-5"],
        ["fourpoint", "--K", "0", "--budget", "-5"],
    ], ids=" ".join)
    def test_scan_bad_K_or_budget_exit_1(self, argv, capsys):
        message = "budget must be >= 0" if "--budget" in argv else "K must be finite"
        code, out, err = run_cli(argv + ["--space", str(ROOT / "tests" / "data" /
                                                        "planted_space.json")], capsys)
        assert (code, out) == (1, ""), err
        record = json.loads(err)
        assert record["error"] == "shape-mismatch" and message in record["message"]


# (labels, matrix) -> expected error code; entry [0][1] or the labels are malformed
MALFORMED = {
    "null-entry": (None, [[0, None], [1, 0]], "axiom-violation"),
    "object-entry": (None, [[0, {"x": 1}], [1, 0]], "shape-mismatch"),
    "ragged-rows": (None, [[0, 1], [1]], "shape-mismatch"),
    "string-entry": (None, [[0, "one"], [1, 0]], "shape-mismatch"),
    "bare-string-labels": ("ab", [[0, 1], [1, 0]], "shape-mismatch"),
    "number-labels": (5, [[0]], "shape-mismatch"),
    "unhashable-labels": ([["a"]], [[0]], "shape-mismatch"),
}


class TestMalformedMatrices:
    """Bad matrix entries and labels are domain errors, never tracebacks or usage errors."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("command", ["validate", "sample"])
    def test_exit_1_with_record(self, command, case, tmp_path, capsys):
        labels, matrix, error = MALFORMED[case]
        if command == "validate":
            data = {"labels": labels or ["a", "b"], "ell": matrix}
            argv = ["validate", "--space"]
        else:
            data = {"fiber": {"labels": labels or ["s0", "s1"], "d": matrix},
                    "family_index": 10}
            argv = ["sample", "--step", "0.5", "--generator"]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(argv + [str(path)], capsys)
        assert (code, out) == (1, ""), err
        assert json.loads(err)["error"] == error
        assert "Traceback" not in err


def _set(path, value):
    """An edit that sets the manifest entry at `path` (keys and list positions) to `value`."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


# manifest edits and flags that name a point outside a 3-point space
OUT_OF_RANGE = {
    "certify-limit-subset": ("certify_manifest.json", _set(["limit", "subset"], [0, 99]), []),
    "certify-negative-subset": ("certify_manifest.json", _set(["limit", "subset"], [-1]), []),
    "certify-member-net": ("certify_manifest.json",
                           _set(["members", 0, "nets", 0, "pairs"], [[0, 99]]), []),
    "certify-limit-net": ("certify_manifest.json",
                          _set(["limit", "nets", 0, "pairs"], [[0, 99]]), []),
    "certify-matching-value": ("certify_manifest.json",
                               _set(["matchings"], {"0,0": {"0": 0, "2": 99},
                                                    "0,1": {"0": 0, "2": 2}}), []),
    "certify-negative-matching-value": ("certify_manifest.json",
                                        _set(["matchings"], {"0,0": {"0": 0, "2": -1},
                                                             "0,1": {"0": 0, "2": 2}}), []),
    "certify-matching-key": ("certify_manifest.json",
                             _set(["matchings"], {"0,0": {"0": 0, "99": 2},
                                                  "0,1": {"0": 0, "2": 2}}), []),
    "converge-schedule-pair": ("converge_manifest.json",
                               _set(["schedules", 0, 0, 0, "pairs"], [[0, 99]]), []),
    "converge-negative-schedule-pair": ("converge_manifest.json",
                                        _set(["schedules", 0, 0, 0, "pairs"], [[0, -1]]), []),
    "blowup-o-plus": ("covered_space.json", None,
                      ["blowup", "--o-minus", "0", "--o", "1", "--o-plus", "99", "--lam", "0.4"]),
    "blowup-negative-points": ("covered_space.json", None,
                               ["blowup", "--o-minus=-3", "--o=-2", "--o-plus=-1", "--lam", "0.4"]),
    "tangent-o": ("covered_space.json", None, ["tangent", "--o", "99", "--lambdas", "1,2"]),
    "tangent-negative-o": ("covered_space.json", None,
                           ["tangent", "--o=-1", "--lambdas", "1,2"]),
}


# slot-matched manifests whose member net at scale 0 is missing or has another cardinality
CARDINALITY = {
    "certify-slots-missing-net": (_set(["members", 0, "nets"], []), 0),
    "certify-slots-longer-net": (_set(["members", 1, "nets", 0, "pairs"], [[0, 2], [0, 1]]), 1),
}


class TestCardinalityMismatch:
    """A slot-matched certificate reports net cardinality like one without slots."""

    @pytest.mark.parametrize("case", sorted(CARDINALITY))
    def test_exit_1_with_record(self, case, tmp_path, capsys):
        edit, member = CARDINALITY[case]
        data = json.loads((SCHEMAS / "certify_manifest.json").read_text())
        edit(data)
        path = tmp_path / "certify_manifest.json"
        path.write_text(json.dumps(data))
        record = run_json(["certify", "--manifest", str(path)], capsys, expect=1)
        assert (record["error"], record["scale"], record["member"]) == \
            ("cardinality-mismatch", 0, member)


class TestPointsOutOfRange:
    """A point index outside its space, in a manifest or a blow-up flag, is a
    shape-mismatch: never a traceback, never wrapped to the last point."""

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_exit_1_with_record(self, case, tmp_path, capsys):
        name, edit, argv = OUT_OF_RANGE[case]
        if edit is None:
            argv = argv + ["--covered", str(SCHEMAS / name)]
        else:
            data = json.loads((SCHEMAS / name).read_text())
            edit(data)
            path = tmp_path / name
            path.write_text(json.dumps(data))
            argv = [name.split("_")[0], "--manifest", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), err
        assert json.loads(err)["error"] == "shape-mismatch"


# argv (inputs written under tmp_path by name) -> words the shape-mismatch message must carry
INPUT_RULES = {
    "validate-tol-nan": (["validate", "--space", str(SCHEMAS / "space.json"), "--tol", "nan"],
                         "tol must be finite and >= 0, got nan"),
    "validate-tol-inf": (["validate", "--space", str(SCHEMAS / "space.json"), "--tol", "inf"],
                         "tol must be finite and >= 0, got inf"),
    "validate-tol-negative": (["validate", "--space", str(SCHEMAS / "space.json"), "--tol=-1"],
                              "tol must be finite and >= 0, got -1.0"),
    "converge-tol-nan": (["converge", "--manifest", str(SCHEMAS / "converge_manifest.json"),
                          "--tol", "nan"], "tol must be finite and >= 0, got nan"),
    "distort-pair-outside": (["distort", "--a", str(SCHEMAS / "space.json"),
                              "--b", str(SCHEMAS / "space.json"), "--corr", "corr.json"],
                             "left points [5] outside range(3)"),
    "causet-unhashable-elements": (["causet", "ell", "--causet", "causet.json"],
                                   "labels must be hashable"),
    # a fractional index read from a file is named, never truncated
    "verify-net-fractional-vertex": (["verify-net", "--space", str(SCHEMAS / "space.json"),
                                      "--net", "net.json"], "net vertices [2.7] are not integers"),
    "distort-fractional-pair": (["distort", "--a", str(SCHEMAS / "space.json"),
                                 "--b", str(SCHEMAS / "space.json"), "--corr", "corr-frac.json"],
                                "correspondence points [2.9] are not integers"),
    "causet-fractional-cover": (["causet", "ell", "--causet", "causet-frac.json"],
                                "cover endpoints [0.5] are not integers"),
    "blowup-fractional-basepoint": (["blowup", "--covered", "covered.json", "--o-minus", "0",
                                     "--o-plus", "2", "--lam", "0.4"],
                                    "basepoint [1.5] are not integers"),
    "measure-push-fractional-image": (["measure", "push", "--measure", "measure.json",
                                       "--map", "map.json"], "atom images [2.9] are not integers"),
    "causet-embed-fractional-image": (["causet", "embed", "--causet", str(SCHEMAS / "causet.json"),
                                       "--space", str(SCHEMAS / "space.json"), "--map", "map.json"],
                                      "element images [2.9] are not integers"),
    "certify-fractional-matching": (["certify", "--manifest", "certify.json"],
                                    "matching values [2.5] are not integers"),
    # a JSON object key that names a point is read by the same rule
    "measure-gap-fractional-atom": (["measure", "gap", "--a", "measure-key.json",
                                     "--b", "measure-key.json"],
                                    "measure atoms ['2.5'] are not integers"),
    "measure-push-fractional-key": (["measure", "push", "--measure", "measure.json",
                                     "--map", "map-key.json"], "map keys ['2.5'] are not integers"),
    "causet-embed-fractional-key": (["causet", "embed", "--causet", str(SCHEMAS / "causet.json"),
                                     "--space", str(SCHEMAS / "space.json"),
                                     "--map", "map-key.json"], "map keys ['2.5'] are not integers"),
    "certify-fractional-scale-key": (["certify", "--manifest", "certify-scale-key.json"],
                                     "matching scale keys ['2.5'] are not integers"),
    "certify-fractional-matching-key": (["certify", "--manifest", "certify-key.json"],
                                        "matching keys ['2.5'] are not integers"),
    "measure-limit-fractional-bound-key": (["measure", "limit", "--manifest", "limit-key.json"],
                                           "bound keys ['2.5'] are not integers"),
    # every key holds one measure per member, and member_indices one index per member
    "measure-limit-key-lengths": (["measure", "limit", "--manifest", "limit-lengths.json"],
                                  "(0, 0): 4, (1, 0): 3"),
    "measure-limit-short-member-indices": (["measure", "limit", "--manifest",
                                            "limit-indices.json"], "(0, 0): 4, member_indices: 2"),
    # generator counts are read by the same rule
    "sample-fractional-fiber-points": (["sample", "--generator", "gen-points.json", "--step",
                                        "0.5"], "fiber points [8.7] are not integers"),
    "causet-sprinkle-fractional-family-index": (["causet", "sprinkle", "--generator",
                                                 "gen-family.json", "--region", "0,0.5",
                                                 "--count", "5", "--seed", "1"],
                                                "family index [10.9] are not integers"),
    # a generator's t_range is exactly two finite numbers lo < hi, its cone_scale finite > 0
    "sample-t-range-one-value": (["sample", "--generator", "gen-t-one.json", "--step", "0.5"],
                                 "t_range must be two finite numbers lo < hi, got (0.0,)"),
    "sample-t-range-three-values": (["sample", "--generator", "gen-t-three.json", "--step", "0.5"],
                                    "t_range must be two finite numbers lo < hi, "
                                    "got (0.0, 1.0, 2.0)"),
    "sample-t-range-infinite-end": (["sample", "--generator", "gen-t-inf.json", "--step", "0.5"],
                                    "t_range must be two finite numbers lo < hi, got (0.0, inf)"),
    "sample-infinite-cone-scale": (["sample", "--generator", "gen-cone-inf.json", "--step", "0.5"],
                                   "cone_scale must be a finite number > 0, got inf"),
    "causet-sprinkle-infinite-cone-scale": (["causet", "sprinkle", "--generator",
                                             "gen-cone-inf.json", "--region", "0,0.5",
                                             "--count", "5", "--seed", "1"],
                                            "cone_scale must be a finite number > 0, got inf"),
    "grid-net-infinite-cone-scale": (["grid-net", "--generator", "gen-cone-inf.json",
                                      "--t-minus", "0.5", "--t-plus", "0.9", "--epsilon", "0.3",
                                      "--fiber-net", "0,1,2,3,4,5,6,7"],
                                     "cone_scale must be a finite number > 0, got inf"),
    # converge's Cauchy tol and a manifest's convergence_tol pass the one tol rule
    "converge-tol-negative": (["converge", "--manifest", str(SCHEMAS / "converge_manifest.json"),
                               "--tol=-1"], "tol must be finite and >= 0, got -1.0"),
    "converge-tol-inf-mixed-tail": (["converge", "--manifest", "converge-mixed.json",
                                     "--tol", "inf"], "tol must be finite and >= 0, got inf"),
    "certify-convergence-tol-string": (["certify", "--manifest", "certify-tol-string.json"],
                                       "convergence_tol must be finite and >= 0, got 'abc'"),
    "certify-convergence-tol-list": (["certify", "--manifest", "certify-tol-list.json"],
                                     "convergence_tol must be finite and >= 0, got [1]"),
    "certify-convergence-tol-negative": (["certify", "--manifest", "certify-tol-negative.json"],
                                         "convergence_tol must be finite and >= 0, got -1"),
    # every other manifest field has its rule too
    "certify-unknown-matchings": (["certify", "--manifest", "certify-slot.json"],
                                  "matchings must be \"slots\" or an object, got 'slot'"),
    "certify-string-member-index": (["certify", "--manifest", "certify-index.json"],
                                    "member index ['zz'] are not integers"),
    "converge-fractional-member-indices": (["converge", "--manifest", "converge-frac.json"],
                                           "member_indices [0.5] are not integers"),
    "converge-string-member-indices": (["converge", "--manifest", "converge-str.json"],
                                       "member_indices ['a', 'b', 'c'] are not integers"),
    "measure-limit-scalar-member-indices": (["measure", "limit", "--manifest", "limit-int.json"],
                                            "member_indices must be a list, got 4"),
    "measure-limit-string-member-indices": (["measure", "limit", "--manifest", "limit-str.json"],
                                            "member_indices ['a', 'b', 'c', 'd'] are not"),
    "measure-limit-fractional-member-indices": (["measure", "limit", "--manifest",
                                                 "limit-frac.json"],
                                                "member_indices [0.5] are not integers"),
    "measure-limit-zero-bound": (["measure", "limit", "--manifest", "limit-bound-zero.json"],
                                 "mass bounds C_k at levels [0] must be > 0"),
    "measure-limit-negative-bound": (["measure", "limit", "--manifest",
                                      "limit-bound-negative.json"],
                                     "mass bounds C_k at levels [0] must be > 0"),
}
CERTIFY = json.loads((SCHEMAS / "certify_manifest.json").read_text())
MEASURE_LIMIT = json.loads((SCHEMAS / "measure_limit_manifest.json").read_text())
CONVERGE = json.loads((SCHEMAS / "converge_manifest.json").read_text())
INPUT_FILES = {
    "corr.json": {"pairs": [[0, 0], [1, 1], [2, 2], [5, 1]], "n_left": 3, "n_right": 3},
    "causet.json": {"elements": [["x"], ["y"]], "covers": [[0, 1]]},
    "net.json": {"epsilon": 2.0, "pairs": [[0, 2.7]]},
    "corr-frac.json": {"pairs": [[0, 0], [1, 1], [2, 2.9]], "n_left": 3, "n_right": 3},
    "causet-frac.json": {"elements": ["x", "y"], "covers": [[0, 0.5]]},
    "covered.json": {**json.loads((SCHEMAS / "covered_space.json").read_text()), "basepoint": 1.5},
    "measure.json": {"weights": {"0": 1.0}},
    "map.json": {"0": 2.9, "1": 1, "2": 1, "3": 2},
    "certify.json": {**CERTIFY, "matchings": {"0,0": {"0": 0, "2": 2.5},
                                              "0,1": {"0": 0, "2": 2}}},
    "measure-key.json": {"weights": {"0": 0.5, "2.5": 1.0}},
    "map-key.json": {"0": 1, "2.5": 1},
    "certify-scale-key.json": {**CERTIFY, "matchings": {"0,2.5": {"0": 0, "2": 2}}},
    "certify-key.json": {**CERTIFY, "matchings": {"0,0": {"0": 0, "2.5": 2},
                                                  "0,1": {"0": 0, "2": 2}}},
    "limit-key.json": {**MEASURE_LIMIT, "bounds": {"2.5": 2.0}},
    "limit-lengths.json": {**MEASURE_LIMIT, "sequence": MEASURE_LIMIT["sequence"] + [
        {"k": 1, "l": 0, "measures": MEASURE_LIMIT["sequence"][0]["measures"][:3]}]},
    "limit-indices.json": {**MEASURE_LIMIT, "member_indices": [1, 2]},
    "gen-points.json": {"fiber_kind": "circle", "fiber_points": 8.7, "family_index": 10},
    "gen-family.json": {"fiber_kind": "circle", "fiber_points": 8, "family_index": 10.9},
    "gen-t-one.json": {"fiber_kind": "circle", "fiber_points": 8, "family_index": 10,
                       "t_range": [0]},
    "gen-t-three.json": {"fiber_kind": "circle", "fiber_points": 8, "family_index": 10,
                         "t_range": [0, 1, 2]},
    "gen-t-inf.json": {"fiber_kind": "circle", "fiber_points": 8, "family_index": 10,
                       "t_range": [0, "inf"]},
    "gen-cone-inf.json": {"fiber_kind": "circle", "fiber_points": 8, "cone_scale": "inf"},
    # the last member's entry (0, 2) is -inf, the others' 2.0: a mixed tail
    "converge-mixed.json": {**CONVERGE, "members": CONVERGE["members"][:2] + [
        {**CONVERGE["members"][2], "ell": [[0, "-inf", "-inf"], ["-inf", 0, 1],
                                           ["-inf", "-inf", 0]]}]},
    "certify-tol-string.json": {**CERTIFY, "convergence_tol": "abc"},
    "certify-tol-list.json": {**CERTIFY, "convergence_tol": [1]},
    "certify-tol-negative.json": {**CERTIFY, "convergence_tol": -1},
    "certify-slot.json": {**CERTIFY, "matchings": "slot"},
    "certify-index.json": {**CERTIFY, "members": [{**CERTIFY["members"][0], "index": "zz"},
                                                  *CERTIFY["members"][1:]]},
    "converge-frac.json": {**CONVERGE, "member_indices": [0.5, 1, 2]},
    "converge-str.json": {**CONVERGE, "member_indices": ["a", "b", "c"]},
    "limit-int.json": {**MEASURE_LIMIT, "member_indices": 4},
    "limit-str.json": {**MEASURE_LIMIT, "member_indices": ["a", "b", "c", "d"]},
    "limit-frac.json": {**MEASURE_LIMIT, "member_indices": [0.5, 1, 2, 3]},
    "limit-bound-zero.json": {**MEASURE_LIMIT, "bounds": {"0": 0}},
    "limit-bound-negative.json": {**MEASURE_LIMIT, "bounds": {"0": -1}},
}


class TestInputRuleRecords:
    """A bad tol, point index or label from a file or flag is a shape-mismatch record."""

    @pytest.mark.parametrize("case", sorted(INPUT_RULES))
    def test_exit_1_with_record(self, case, tmp_path, capsys):
        argv, message = INPUT_RULES[case]
        for name, data in INPUT_FILES.items():
            (tmp_path / name).write_text(json.dumps(data))
        argv = [str(tmp_path / a) if a in INPUT_FILES else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), err
        record = json.loads(err)
        assert record["error"] == "shape-mismatch" and message in record["message"]


# argv (inputs written under tmp_path by name) -> the malformed file the record names
MALFORMED_FILES = {
    "measure-gap-weights-list": (["measure", "gap", "--a", "weights-list.json",
                                  "--b", str(SCHEMAS / "measure.json")], "weights-list.json"),
    "verify-net-pairs-number": (["verify-net", "--space", str(SCHEMAS / "space.json"),
                                 "--net", "pairs-number.json"], "pairs-number.json"),
    "validate-top-level-list": (["validate", "--space", "list.json"], "list.json"),
    "validate-missing-ell": (["validate", "--space", "labels-only.json"], "labels-only.json"),
    "certify-named-space-missing-ell": (["certify", "--manifest", "certify-named.json"],
                                        "labels-only.json"),
    "converge-missing-schedules": (["converge", "--manifest", "converge-no-schedules.json"],
                                   "converge-no-schedules.json"),
    "measure-limit-missing-sequence": (["measure", "limit", "--manifest", "limit-no-sequence.json"],
                                       "limit-no-sequence.json"),
}
MALFORMED_INPUTS = {
    "weights-list.json": {"weights": [1, 2]},
    "pairs-number.json": {"epsilon": 1, "pairs": 5},
    "list.json": [1, 2],
    "labels-only.json": {"labels": ["a"]},
    "certify-named.json": {**CERTIFY, "limit": {**CERTIFY["limit"], "space": "labels-only.json"}},
    "converge-no-schedules.json": {
        key: value for key, value in
        json.loads((SCHEMAS / "converge_manifest.json").read_text()).items()
        if key != "schedules"},
    "limit-no-sequence.json": {"bounds": {"0": 2.0}},
}


class TestMalformedFiles:
    """A readable JSON file with a missing or mistyped field is a shape-mismatch
    record that names the file: never a traceback, never a usage error."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_exit_1_with_record(self, case, tmp_path, capsys):
        argv, name = MALFORMED_FILES[case]
        for file, data in MALFORMED_INPUTS.items():
            (tmp_path / file).write_text(json.dumps(data))
        argv = [str(tmp_path / a) if a in MALFORMED_INPUTS else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), err
        assert "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "shape-mismatch" and name in record["message"], record

    def test_unreadable_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        for path in (bad, tmp_path / "missing.json"):
            code, out, err = run_cli(["validate", "--space", str(path)], capsys)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "usage"


class TestPackaging:
    def test_runs_without_scipy(self):
        # scipy is a test-only dependency: the package must not import it
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from lorentzgh import cli, comparison_config\n"
            "comparison_config(0.5, (0.3, 0.8, 0.9, 0.4, 0.5))\n"
            f"sys.exit(cli.main(['scan', '--space', {str(SCHEMAS / 'space.json')!r},\n"
            "                    '--K-list', '0,0.5,-0.5', '--budget', '20', '--seed', '1']))\n"
        )
        src = str(Path(lorentzgh.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["per_K"]


class TestMeasureCommands:
    def test_induce_push_gap(self, tmp_path, capsys):
        induced = run_json(["measure", "induce", "--space", str(SCHEMAS / "space.json"),
                            "--measure", str(SCHEMAS / "measure.json"),
                            "--net", str(SCHEMAS / "net.json")], capsys)
        assert induced["total"] == 1.0
        m_file = tmp_path / "m.json"
        m_file.write_text(json.dumps({"weights": {"0": 0.25, "1": 0.75}}))
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps({"0": 1, "1": 1}))
        pushed = run_json(["measure", "push", "--measure", str(m_file),
                           "--map", str(map_file)], capsys)
        assert pushed["weights"] == {"1": 1.0}
        m2 = tmp_path / "m2.json"
        m2.write_text(json.dumps({"weights": {"1": 0.9}}))
        gap = run_json(["measure", "gap", "--a", str(m_file), "--b", str(m2)], capsys)
        assert gap["gap"] == pytest.approx(0.25)

    def test_integral_text_keys_read_as_indices(self, tmp_path, capsys):
        m_file = tmp_path / "m.json"
        m_file.write_text(json.dumps({"weights": {"0.0": 0.25, "1": 0.75}}))
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps({"0": 1, "1.0": 1}))
        pushed = run_json(["measure", "push", "--measure", str(m_file),
                           "--map", str(map_file)], capsys)
        assert pushed["weights"] == {"1": 1.0}

    def test_measure_limit(self, capsys):
        payload = run_json(["measure", "limit", "--manifest",
                            str(SCHEMAS / "measure_limit_manifest.json")], capsys)
        assert payload["measure"]["weights"] == {"0": 0.5, "1": 0.5}


class TestLimitsCommands:
    def test_converge(self, capsys):
        payload = run_json(["converge", "--manifest",
                            str(SCHEMAS / "converge_manifest.json"),
                            "--depth", "1,1,0"], capsys)
        assert payload["non_cauchy"] == []

    def test_converge_depth_without_cover_levels_exit_1(self, capsys):
        code, out, err = run_cli(["converge", "--manifest",
                                  str(SCHEMAS / "converge_manifest.json"),
                                  "--depth", "0,1,0"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "schedule-violation",
                                   "message": "depth selects no cover levels"}

    @pytest.mark.parametrize("depth, message", [
        ("1,1,-1", "depth selects no members"),
        ("1,-1,0", "depth selects no net scales"),
        ("1,0,0", "depth selects no net scales")])
    def test_converge_depth_without_members_or_scales_exit_1(self, depth, message, capsys):
        code, out, err = run_cli(["converge", "--manifest",
                                  str(SCHEMAS / "converge_manifest.json"),
                                  f"--depth={depth}"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "schedule-violation", "message": message}

    @pytest.mark.parametrize("indices, printed", [(None, "[0,1,2]"), ([1.0, 2.0, 3.0], "[1,2,3]")])
    def test_converge_member_indices_read_by_rule(self, indices, printed, tmp_path, capsys):
        """A null member_indices reads as an absent one, and integral floats as integers."""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**CONVERGE, "member_indices": indices}))
        absent = {k: v for k, v in CONVERGE.items() if k != "member_indices"}
        (tmp_path / "absent.json").write_text(json.dumps(absent))
        code, out, err = run_cli(["converge", "--manifest", str(path)], capsys)
        assert code == 0, err
        assert f'"final_subsequence":{printed},' in out
        assert json.loads(out)["space"] == run_json(
            ["converge", "--manifest", str(tmp_path / "absent.json")], capsys)["space"]

    def test_blowup_and_tangent(self, tmp_path, capsys):
        import numpy as np
        from lorentzgh import serialize as ser, covered
        from conftest import chain_space
        s = chain_space(np.linspace(0, 0.2, 6))
        cov = covered(s, 3, [range(6)])
        f = tmp_path / "cov.json"
        f.write_text(ser.dumps(ser.covered_to_dict(cov)))
        payload = run_json(["blowup", "--covered", str(f), "--o-minus", "0",
                            "--o-plus", "5", "--lam", "2"], capsys)
        assert len(payload["labels"]) == 4
        tangent = run_json(["tangent", "--covered", str(f), "--o", "3",
                            "--lambdas", "1,2", "--levels", "2"], capsys)
        assert all(rec["diameter"] <= 1.0 for rec in tangent["records"])

    @pytest.mark.parametrize("lam", ["0", "nan", "-1"])
    def test_tangent_lambda_not_positive_exit_1(self, lam, capsys):
        code, out, err = run_cli(["tangent", "--covered", str(SCHEMAS / "covered_space.json"),
                                  "--o", "1", f"--lambdas={lam}"], capsys)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "spec-violated"

    def test_tol_reaches_covered_loaders(self, tmp_path, capsys):
        f = tmp_path / "cov.json"
        f.write_text(json.dumps(SHORT_CHAIN))
        assert run_json(["validate", "--space", str(f), "--tol", "1e-6"], capsys) == {"ok": True}
        payload = run_json(["blowup", "--covered", str(f), "--tol", "1e-6", "--o-minus", "0",
                            "--o-plus", "2", "--lam", "2"], capsys)
        assert payload["labels"] == ["b"]
        run_json(["tangent", "--covered", str(f), "--tol", "1e-6", "--o", "1",
                  "--lambdas", "1,2", "--levels", "1"], capsys)


class TestTol:
    """`--tol` is the load tolerance wherever a command reads a space, and a
    usage error on the commands that read none."""

    LOADERS = {
        "class": ["class", "--space", "{s}"],
        "quotient": ["quotient", "--space", "{s}"],
        "net": ["net", "--space", "{s}", "--epsilon", "1"],
        "verify-net": ["verify-net", "--space", "{s}", "--net", "{net}"],
        "doubling": ["doubling", "--space", "{s}"],
        "distort": ["distort", "--a", "{s}", "--b", "{s}", "--corr",
                    str(SCHEMAS / "correspondence.json")],
        "match": ["match", "--a", "{s}", "--b", "{s}"],
        "fourpoint": ["fourpoint", "--space", "{s}", "--K", "0", "--budget", "5"],
        "scan": ["scan", "--space", "{s}", "--K-list", "0", "--budget", "5"],
        "measure induce": ["measure", "induce", "--space", "{s}", "--measure",
                           str(SCHEMAS / "measure.json"), "--net", "{net}"],
        "causet embed": ["causet", "embed", "--causet", str(SCHEMAS / "causet.json"),
                         "--space", "{s}", "--map", str(SCHEMAS / "point_map.json")],
        "certify": ["certify", "--manifest", "{manifest}"],
    }

    @pytest.mark.parametrize("command", sorted(LOADERS))
    def test_tol_reaches_space_loaders(self, command, tmp_path, capsys):
        (tmp_path / "s.json").write_text(json.dumps(SHORT_CHAIN))
        net = {"pairs": [[0, 2]], "epsilon": 1.0}
        (tmp_path / "net.json").write_text(json.dumps(net))
        member = {"space": "s.json", "nets": [net]}
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"members": [dict(member, index=1), dict(member, index=2)],
             "limit": member, "matchings": "slots"}))
        argv = [a.format(s=tmp_path / "s.json", net=tmp_path / "net.json",
                         manifest=tmp_path / "manifest.json") for a in self.LOADERS[command]]
        record = run_json(argv, capsys, expect=1)
        assert record["error"] == "axiom-violation"
        run_json(argv + ["--tol", "1e-6"], capsys)

    @pytest.mark.parametrize("argv", [
        ["sample", "--generator", "{g}", "--step", "0.25"],
        ["grid-net", "--generator", "{g}", "--t-minus", "0.3", "--t-plus", "0.6",
         "--epsilon", "0.25"],
        ["cones", "--generator", "{g}", "--beta", "1", "--omega", "1"],
        ["measure", "push", "--measure", "{m}", "--map", str(SCHEMAS / "point_map.json")],
        ["measure", "gap", "--a", "{m}", "--b", "{m}"],
        ["measure", "limit", "--manifest", str(SCHEMAS / "measure_limit_manifest.json")],
        ["causet", "ell", "--causet", str(SCHEMAS / "causet.json")],
        ["causet", "sprinkle", "--generator", "{g}", "--region", "0,0.5", "--count", "20",
         "--seed", "4"],
        ["causet", "trial", "--a", "{g}", "--b", "{g}", "--counts", "20", "--seed", "3"],
    ], ids=lambda argv: " ".join(argv[:2]) if argv[0] in ("measure", "causet") else argv[0])
    def test_tol_rejected_where_no_space_is_read(self, argv, tmp_path, capsys):
        (tmp_path / "m.json").write_text(json.dumps({"weights": {"0": 0.25, "1": 0.75}}))
        argv = [a.format(g=SCHEMAS / "generator.json", m=tmp_path / "m.json") for a in argv]
        assert run_cli(argv, capsys)[0] == 0
        code, out, err = run_cli(argv + ["--tol", "1e-6"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol" in err


class TestCausetCommands:
    def test_ell(self, capsys):
        payload = run_json(["causet", "ell", "--causet", str(SCHEMAS / "causet.json")],
                           capsys)
        assert payload["ell"][0][3] == 2

    def test_sprinkle_embed(self, tmp_path, capsys):
        sprinkled = run_json(["causet", "sprinkle", "--generator",
                              str(SCHEMAS / "generator.json"), "--region", "0,0.5",
                              "--count", "20", "--seed", "4"], capsys)
        assert len(sprinkled["causet"]["elements"]) == 20
        embed = run_json(["causet", "embed", "--causet", str(SCHEMAS / "causet.json"),
                          "--space", str(SCHEMAS / "space.json"),
                          "--map", str(SCHEMAS / "point_map.json")], capsys)
        assert "faithful" in embed

    def test_trial_csv(self, tmp_path, capsys):
        out = tmp_path / "trial.csv"
        code, _, _ = run_cli(["causet", "trial", "--a", str(SCHEMAS / "generator.json"),
                              "--b", str(SCHEMAS / "generator.json"),
                              "--counts", "20", "--seed", "3",
                              "--format", "csv", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "count,tau_distortion,chain_distortion"
        assert lines[1].startswith("20,")


def leaf_parsers(parser, path=()):
    """(command words, parser) for each leaf command under `parser`."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from leaf_parsers(child, (*path, name))


class TestCommandTable:
    """The parser is the one command table: each leaf names its handler."""

    LEAVES = list(leaf_parsers(build_parser()))

    def test_every_command_is_a_leaf(self):
        commands = [path for path, _ in self.LEAVES]
        assert len(commands) == 25 and ("measure", "induce") in commands

    @pytest.mark.parametrize("path, parser", LEAVES, ids=[" ".join(p) for p, _ in LEAVES])
    def test_leaf_runs_a_handler_and_has_help(self, path, parser, capsys):
        assert callable(parser.get_default("run"))
        code, out, _ = run_cli([*path, "--help"], capsys)
        assert code == 0 and out.startswith(f"usage: lorentzgh {' '.join(path)} ")


def test_subprocess_entry_point(tmp_path):
    # byte-identical output across OS-level invocations
    cmd = [sys.executable, "-m", "lorentzgh.cli", "class",
           "--space", str(SCHEMAS / "space.json")]
    r1 = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    r2 = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


class TestArtifactRoundTrips:
    """Every artifact written by one subcommand is accepted by its consumers."""

    def test_quotient_space_feeds_class(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        run_json(["quotient", "--space", str(SCHEMAS / "space.json")], capsys)
        code, _, _ = run_cli(["quotient", "--space", str(SCHEMAS / "space.json"),
                              "--out", str(out)], capsys)
        assert code == 0
        inner = tmp_path / "qspace.json"
        inner.write_text(json.dumps(json.loads(out.read_text())["space"]))
        payload = run_json(["class", "--space", str(inner)], capsys)
        assert payload["pdp"]

    def test_sprinkle_feeds_causet_ell(self, tmp_path, capsys):
        out = tmp_path / "sprinkled.json"
        code, _, _ = run_cli(["causet", "sprinkle", "--generator",
                              str(SCHEMAS / "generator.json"), "--region", "0,0.5",
                              "--count", "12", "--seed", "4", "--out", str(out)],
                             capsys)
        assert code == 0
        causet_file = tmp_path / "causet.json"
        causet_file.write_text(json.dumps(json.loads(out.read_text())["causet"]))
        payload = run_json(["causet", "ell", "--causet", str(causet_file)], capsys)
        assert len(payload["labels"]) == 12

    def test_induced_measure_feeds_gap(self, tmp_path, capsys):
        out = tmp_path / "induced.json"
        code, _, _ = run_cli(["measure", "induce", "--space", str(SCHEMAS / "space.json"),
                              "--measure", str(SCHEMAS / "measure.json"),
                              "--net", str(SCHEMAS / "net.json"), "--out", str(out)],
                             capsys)
        assert code == 0
        m_file = tmp_path / "m.json"
        m_file.write_text(json.dumps(json.loads(out.read_text())["measure"]))
        # label-keyed weights fall back to integer keys only for index-keyed
        # files; rewrite with indices for the standalone gap command
        weights = json.loads(out.read_text())["measure"]["weights"]
        idx = {"a": 0, "b": 1, "c": 2}
        m_file.write_text(json.dumps({"weights": {str(idx[k]): v
                                                  for k, v in weights.items()}}))
        payload = run_json(["measure", "gap", "--a", str(m_file), "--b", str(m_file)],
                           capsys)
        assert payload["gap"] == 0.0

    def test_grid_net_pairs_feed_verify_net(self, tmp_path, capsys):
        # grid-net emits vertex_points; embed through a sample to verify
        payload = run_json(["grid-net", "--generator", str(SCHEMAS / "generator.json"),
                            "--t-minus", "0.3", "--t-plus", "0.5",
                            "--epsilon", "0.25"], capsys)
        assert payload["pairs"]


class TestCliPins:
    """stdout sha256 and exit code of the README CLI lines on the golden files."""

    PINS = json.loads((ROOT / "tests" / "data" / "cli_pins.json").read_text())["pins"]

    @staticmethod
    def readme_commands() -> list[list[str]]:
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        return [line.split()[1:] for line in text.splitlines()
                if line.startswith("lorentzgh ")]

    @pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["argv"][:2]))
    def test_pin_reproduces(self, pin, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        code, out, err = run_cli(pin["argv"], capsys)
        assert code == pin["exit"], err
        assert hashlib.sha256(out.encode()).hexdigest() == pin["stdout_sha256"]

    def test_pins_match_readme(self):
        readme = self.readme_commands()
        for pin in self.PINS:
            assert (pin["argv"] in readme) == pin["readme"], pin["argv"]
        # every README line whose inputs are all golden files is pinned
        golden = [argv for argv in readme
                  if all(a.startswith("docs/schemas/") for a in argv if a.endswith(".json"))]
        assert golden == [pin["argv"] for pin in self.PINS if pin["readme"]]
