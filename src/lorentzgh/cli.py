"""Command-line frontend.

One binary, many subcommands; all randomness is seeded and identical
invocations produce byte-identical output. Exit codes: 0 success, 1 domain
error (machine-readable record on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import serialize as ser
from .causet import chain_ell, faithful_embed_check, hauptvermutung_trial, sprinkle
from .core import (DEFAULT_TOL, causality_class, classify_special_points,
                   isometry_search, quotient_tau_indistinguishable)
from .corr import (CertificateMember, distortion, lgh_certificate,
                   min_distortion, slot_matching)
from .curvature import curvature_bound_scan
from .errors import DomainError
from .geometry import (SamplePlan, cone_dominates, grid_net_product,
                       sample_spacetime, uncovered_samples)
from .limits import (BlowupSpec, CoveredSequence, blow_up, diagonal_limit,
                     tangent_experiment)
from .measured import induce_net_measure, measured_limit_builder, pushforward, weak_gap
from .nets import doubling_constant, greedy_net, verify_net


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _resolve(data, base: Path, loader):
    """Manifest entries may be inline dicts or file paths relative to the manifest."""
    if isinstance(data, str):
        return loader(json.loads((base / data).read_text(encoding="utf-8")))
    return loader(data)


def _emit(args, payload, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = ser.dumps(payload) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _indices(arg: str, n: int) -> list[int]:
    if arg in (None, "all"):
        return list(range(n))
    return [int(v) for v in arg.split(",") if v != ""]


def _floats(arg: str) -> list[float]:
    return [float(v) for v in arg.split(",") if v != ""]


def _load_space(args, attr="space"):
    return ser.space_from_dict(_read_json(getattr(args, attr)), tol=args.tol)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lorentzgh")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt=False, tol=True):
        p.add_argument("--out")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="load tolerance for input spaces (default 1e-9)")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("validate", help="axiom-check a space file")
    p.add_argument("--space", required=True)
    common(p)

    p = sub.add_parser("class", help="causality classification report")
    p.add_argument("--space", required=True)
    p.add_argument("--special", action="store_true", help="also classify special points")
    common(p)

    p = sub.add_parser("quotient", help="collapse ell-indistinguishable points")
    p.add_argument("--space", required=True)
    common(p)

    p = sub.add_parser("net", help="greedy diamond net for a subset")
    p.add_argument("--space", required=True)
    p.add_argument("--subset", default="all")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--net-candidates", choices=["all", "chronological"], default="all")
    common(p)

    p = sub.add_parser("verify-net", help="check a net against a space subset")
    p.add_argument("--space", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--subset", default="all")
    common(p)

    p = sub.add_parser("doubling", help="doubling constant of a subset")
    p.add_argument("--space", required=True)
    p.add_argument("--subset", default="all")
    common(p)

    p = sub.add_parser("distort", help="distortion of a supplied correspondence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--corr", required=True)
    common(p)

    p = sub.add_parser("match", help="minimal-distortion correspondence search")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="heuristic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--isometry", action="store_true",
                   help="also run the exact isometry search (equal sizes)")
    common(p)

    p = sub.add_parser("certify", help="LGH convergence certificate from a manifest")
    p.add_argument("--manifest", required=True)
    common(p, fmt=True)

    p = sub.add_parser("sample", help="sample a product generator into a space")
    p.add_argument("--generator", required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--window", help="t_lo,t_hi inside the generator range")
    p.add_argument("--sites", help="fiber site indices, default all")
    p.add_argument("--jitter-seed", type=int, default=None)
    common(p, tol=False)

    p = sub.add_parser("grid-net", help="explicit slab-covering grid net")
    p.add_argument("--generator", required=True)
    p.add_argument("--t-minus", type=float, required=True)
    p.add_argument("--t-plus", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--fiber-net", default="all")
    p.add_argument("--check-samples", type=int, default=0,
                   help="verify coverage on an n-point sample of the slab")
    common(p, tol=False)

    p = sub.add_parser("cones", help="cone domination check (constant beta/omega)")
    p.add_argument("--generator", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    common(p, tol=False)

    p = sub.add_parser("fourpoint", help="four-point condition scan")
    p.add_argument("--space", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p, fmt=True)

    p = sub.add_parser("scan", help="four-point scan over several K values")
    p.add_argument("--space", required=True)
    p.add_argument("--K-list", required=True)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p, fmt=True)

    p = sub.add_parser("measure", help="atomic measure operations")
    msub = p.add_subparsers(dest="measure_command", required=True)

    pm = msub.add_parser("induce")
    pm.add_argument("--space", required=True)
    pm.add_argument("--measure", required=True)
    pm.add_argument("--net", required=True)
    pm.add_argument("--subset", default="all")
    common(pm)

    pm = msub.add_parser("push")
    pm.add_argument("--measure", required=True)
    pm.add_argument("--map", required=True, help="JSON object atom->target")
    common(pm, tol=False)

    pm = msub.add_parser("gap")
    pm.add_argument("--a", required=True)
    pm.add_argument("--b", required=True)
    common(pm, tol=False)

    pm = msub.add_parser("limit")
    pm.add_argument("--manifest", required=True)
    common(pm, tol=False)

    p = sub.add_parser("converge", help="diagonal limit of a covered sequence manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--depth", default="1,1,0", help="K,L,N (N=0 means all members)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="Cauchy tolerance of the limit (default 1e-6)")
    common(p, tol=False)

    p = sub.add_parser("blowup", help="lambda blow-up of a covered space")
    p.add_argument("--covered", required=True)
    p.add_argument("--o-minus", type=int, required=True)
    p.add_argument("--o-plus", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--o", type=int, default=None)
    common(p)

    p = sub.add_parser("tangent", help="blow-up tangent experiment")
    p.add_argument("--covered", required=True)
    p.add_argument("--o", type=int, required=True)
    p.add_argument("--lambdas", required=True)
    p.add_argument("--levels", type=int, default=3)
    common(p)

    p = sub.add_parser("causet", help="causal set operations")
    csub = p.add_subparsers(dest="causet_command", required=True)

    pc = csub.add_parser("ell")
    pc.add_argument("--causet", required=True)
    common(pc, tol=False)

    pc = csub.add_parser("sprinkle")
    pc.add_argument("--generator", required=True)
    pc.add_argument("--region", required=True, help="t_lo,t_hi")
    pc.add_argument("--count", type=int, required=True)
    pc.add_argument("--seed", type=int, required=True)
    common(pc, tol=False)

    pc = csub.add_parser("embed")
    pc.add_argument("--causet", required=True)
    pc.add_argument("--space", required=True)
    pc.add_argument("--map", required=True)
    pc.add_argument("--one-directional", action="store_true")
    common(pc)

    pc = csub.add_parser("trial")
    pc.add_argument("--a", required=True)
    pc.add_argument("--b", required=True)
    pc.add_argument("--counts", required=True)
    pc.add_argument("--seed", type=int, required=True)
    common(pc, fmt=True, tol=False)

    return top


def _cmd_validate(args):
    _load_space(args)
    _emit(args, {"ok": True})


def _cmd_class(args):
    space = _load_space(args)
    report = causality_class(space)
    payload = {"chronological": report.chronological, "causal": report.causal,
               "pdp": report.pdp, "witnesses": report.witnesses}
    if args.special:
        payload["special_points"] = classify_special_points(space)
    _emit(args, payload)


def _cmd_quotient(args):
    space = _load_space(args)
    q, proj = quotient_tau_indistinguishable(space)
    _emit(args, {"space": ser.space_to_dict(q), "projection": [int(v) for v in proj]})


def _cmd_net(args):
    space = _load_space(args)
    subset = _indices(args.subset, space.n)
    net = greedy_net(space, subset, args.epsilon,
                     candidate_mode=getattr(args, "net_candidates"))
    _emit(args, ser.net_to_dict(net))


def _cmd_verify_net(args):
    space = _load_space(args)
    net = ser.net_from_dict(_read_json(args.net))
    check = verify_net(space, _indices(args.subset, space.n), net)
    _emit(args, {"ok": check.ok, "uncovered": list(check.uncovered),
                 "oversized": [list(p) for p in check.oversized]})


def _cmd_doubling(args):
    space = _load_space(args)
    n, details = doubling_constant(space, _indices(args.subset, space.n),
                                   return_details=True)
    _emit(args, {"N": n, "exact": details["exact"]})


def _cmd_distort(args):
    a = _load_space(args, "a")
    b = _load_space(args, "b")
    r = ser.correspondence_from_dict(_read_json(args.corr))
    _emit(args, {"distortion": distortion(r, a, b)})


def _cmd_match(args):
    a = _load_space(args, "a")
    b = _load_space(args, "b")
    corr, value = min_distortion(a, b, mode=args.mode, seed=args.seed)
    payload = {"correspondence": ser.correspondence_to_dict(corr), "distortion": value}
    if args.isometry:
        iso = isometry_search(a, b)
        payload["isometry"] = None if iso is None else {str(k): v for k, v in sorted(iso.items())}
    _emit(args, payload)


def _member_from_manifest(entry, base, tol) -> CertificateMember:
    space = _resolve(entry["space"], base, lambda data: ser.space_from_dict(data, tol))
    nets = tuple(ser.net_from_dict(n) for n in entry["nets"])
    subset = tuple(entry["subset"]) if "subset" in entry else None
    return CertificateMember(space=space, nets=nets, subset=subset,
                             index=entry.get("index"))


def _cmd_certify(args):
    base = Path(args.manifest).parent
    manifest = _read_json(args.manifest)
    members = [_member_from_manifest(e, base, args.tol) for e in manifest["members"]]
    limit = _member_from_manifest(manifest["limit"], base, args.tol)
    matchings = None
    if manifest.get("matchings") == "slots":
        # a missing or differently sized net gets no slot map, so that
        # lgh_certificate reports it as a cardinality mismatch
        matchings = {(l, n): slot_matching(member.nets[l], net)
                     for n, member in enumerate(members)
                     for l, net in enumerate(limit.nets)
                     if l < len(member.nets) and len(member.nets[l]) == len(net)}
    elif isinstance(manifest.get("matchings"), dict):
        matchings = {tuple(int(v) for v in key.split(",")):
                     {int(a): b for a, b in val.items()}
                     for key, val in manifest["matchings"].items()}
    report = lgh_certificate(members, limit, matchings=matchings,
                             convergence_tol=manifest.get("convergence_tol"))
    payload = {"stages": list(report.stages),
               "extension_ok": report.extension_ok,
               "forward_density_ok": report.forward_density_ok,
               "strong": report.strong}
    rows = [["l", "n", "distortion"]] + \
           [[s["l"], s["n"], s["distortion"]] for s in report.stages]
    _emit(args, payload, csv_rows=rows)


def _cmd_sample(args):
    gen = ser.generator_from_dict(_read_json(args.generator))
    window = tuple(_floats(args.window)) if args.window else None
    sites = "all" if not args.sites else tuple(int(v) for v in args.sites.split(","))
    plan = SamplePlan(time_step=args.step, fiber_sites=sites, seed=args.jitter_seed)
    sampled = sample_spacetime(gen, plan, t_window=window)
    _emit(args, ser.space_to_dict(sampled.space))


def _cmd_grid_net(args):
    gen = ser.generator_from_dict(_read_json(args.generator))
    fiber_net = _indices(args.fiber_net, gen.fiber.n)
    net = grid_net_product(gen, args.t_minus, args.t_plus, args.epsilon, fiber_net)
    payload = {"epsilon": net.epsilon, "columns": net.columns,
               "pairs": [list(p) for p in net.pairs],
               "vertex_points": [[t, s] for t, s in net.vertex_points]}
    if args.check_samples:
        import numpy as np
        rng = np.random.default_rng(0)
        ts = rng.uniform(args.t_minus, args.t_plus, size=args.check_samples)
        sites = rng.integers(0, gen.fiber.n, size=args.check_samples)
        points = list(zip(ts.tolist(), (int(s) for s in sites)))
        payload["uncovered_samples"] = uncovered_samples(gen, net, points)
    _emit(args, payload)


def _cmd_cones(args):
    gen = ser.generator_from_dict(_read_json(args.generator))
    result = cone_dominates((gen.cone_scale, gen.fiber), (args.beta, args.omega))
    _emit(args, result)


def _cmd_fourpoint(args):
    space = _load_space(args)
    result = curvature_bound_scan(space, args.K, args.budget, args.seed)
    rows = [["y", "x", "z1", "z2", "slack"]] + \
           [[*v["points"], v["slack"]] for v in result["violations"]]
    _emit(args, result, csv_rows=rows)


def _cmd_scan(args):
    space = _load_space(args)
    out = []
    for K in _floats(getattr(args, "K_list")):
        result = curvature_bound_scan(space, K, args.budget, args.seed)
        out.append({"K": K, "tested": result["tested"],
                    "violations": len(result["violations"]),
                    "worst_slack": min((v["slack"] for v in result["violations"]),
                                       default=None)})
    rows = [["K", "tested", "violations"]] + \
           [[r["K"], r["tested"], r["violations"]] for r in out]
    _emit(args, {"per_K": out}, csv_rows=rows)


def _cmd_measure(args):
    if args.measure_command == "induce":
        space = _load_space(args)
        m = ser.measure_from_dict(_read_json(args.measure), space)
        net = ser.net_from_dict(_read_json(args.net))
        mn = induce_net_measure(space, m, _indices(args.subset, space.n), net)
        _emit(args, {"measure": ser.measure_to_dict(mn.induced, space),
                     "residual_masses": list(mn.residual_masses),
                     "total": mn.induced.total()})
    elif args.measure_command == "push":
        m = ser.measure_from_dict(_read_json(args.measure))
        mapping = {int(k): v for k, v in _read_json(args.map).items()}
        _emit(args, ser.measure_to_dict(pushforward(mapping, m)))
    elif args.measure_command == "gap":
        a = ser.measure_from_dict(_read_json(args.a))
        b = ser.measure_from_dict(_read_json(args.b))
        _emit(args, {"gap": weak_gap(a, b)})
    else:  # limit
        manifest = _read_json(args.manifest)
        sequence = {}
        for entry in manifest["sequence"]:
            key = (int(entry["k"]), int(entry["l"]))
            sequence[key] = [ser.measure_from_dict(m) for m in entry["measures"]]
        bounds = ({int(k): float(v) for k, v in manifest["bounds"].items()}
                  if "bounds" in manifest else None)
        member_indices = manifest.get("member_indices")
        measure, log = measured_limit_builder(sequence, bounds, member_indices)
        _emit(args, {"measure": ser.measure_to_dict(measure),
                     "final_subsequence": log["final_positions"]})


def _cmd_converge(args):
    base = Path(args.manifest).parent
    manifest = _read_json(args.manifest)
    members = tuple(_resolve(m, base, ser.covered_from_dict) for m in manifest["members"])
    schedules = tuple(
        tuple(tuple(ser.net_from_dict(net) for net in per_k) for per_k in sched)
        for sched in manifest["schedules"])
    indices = tuple(manifest["member_indices"]) if "member_indices" in manifest else None
    seq = CoveredSequence(members=members, schedules=schedules, member_indices=indices)
    K, L, N = (int(v) for v in args.depth.split(","))
    if N == 0:
        N = len(members)
    limit, log = diagonal_limit(seq, (K, L, N), tol=args.tol)
    _emit(args, {"space": ser.covered_to_dict(limit),
                 "final_subsequence": log["final_subsequence"],
                 "non_cauchy": log["non_cauchy"]})


def _cmd_blowup(args):
    cov = ser.covered_from_dict(_read_json(args.covered), tol=args.tol)
    o = cov.basepoint if args.o is None else args.o
    spec = BlowupSpec(o=o, o_minus=getattr(args, "o_minus"),
                      o_plus=getattr(args, "o_plus"), lam=args.lam)
    _emit(args, ser.covered_to_dict(blow_up(cov, spec)))


def _cmd_tangent(args):
    cov = ser.covered_from_dict(_read_json(args.covered), tol=args.tol)
    report = tangent_experiment(cov, args.o, _floats(args.lambdas), levels=args.levels)
    payload = {"records": list(report.records), "notes": list(report.notes),
               "limit": None if report.limit is None else ser.covered_to_dict(report.limit)}
    _emit(args, payload)


def _cmd_causet(args):
    if args.causet_command == "ell":
        c = ser.causet_from_dict(_read_json(args.causet))
        _emit(args, ser.space_to_dict(chain_ell(c)))
    elif args.causet_command == "sprinkle":
        gen = ser.generator_from_dict(_read_json(args.generator))
        region = tuple(_floats(args.region))
        causet, site_map = sprinkle(gen, region, args.count, args.seed)
        _emit(args, {"causet": ser.causet_to_dict(causet),
                     "site_map": {str(k): [t, s] for k, (t, s) in sorted(site_map.items())}})
    elif args.causet_command == "embed":
        c = ser.causet_from_dict(_read_json(args.causet))
        space = _load_space(args)
        mapping = {int(k): v for k, v in _read_json(args.map).items()}
        result = faithful_embed_check(c, space, mapping,
                                      one_directional=getattr(args, "one_directional"))
        _emit(args, result)
    else:  # trial
        gen_a = ser.generator_from_dict(_read_json(args.a))
        gen_b = ser.generator_from_dict(_read_json(args.b))
        counts = [int(v) for v in args.counts.split(",")]
        report = hauptvermutung_trial(gen_a, gen_b, counts, args.seed)
        rows = [["count", "tau_distortion", "chain_distortion"]] + \
               [[r["count"], r["tau_distortion"], r["chain_distortion"]]
                for r in report["rows"]]
        _emit(args, report, csv_rows=rows)


_HANDLERS = {
    "validate": _cmd_validate, "class": _cmd_class, "quotient": _cmd_quotient,
    "net": _cmd_net, "verify-net": _cmd_verify_net, "doubling": _cmd_doubling,
    "distort": _cmd_distort, "match": _cmd_match, "certify": _cmd_certify,
    "sample": _cmd_sample, "grid-net": _cmd_grid_net, "cones": _cmd_cones,
    "fourpoint": _cmd_fourpoint, "scan": _cmd_scan, "measure": _cmd_measure,
    "converge": _cmd_converge, "blowup": _cmd_blowup, "tangent": _cmd_tangent,
    "causet": _cmd_causet,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _HANDLERS[args.command](args)
    except DomainError as exc:
        sys.stderr.write(ser.dumps(exc.record()) + "\n")
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(ser.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
