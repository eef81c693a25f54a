"""Command-line frontend.

One binary, many subcommands; all randomness is seeded and identical
invocations produce byte-identical output. Exit codes: 0 success, 1 domain
error (machine-readable record on stderr; a malformed input file is a
shape-mismatch), 2 usage error (bad flags, an unreadable or non-JSON file).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import serialize as ser
from .causet import chain_ell, faithful_embed_check, hauptvermutung_trial, sprinkle
from .core import (DEFAULT_TOL, causality_class, classify_special_points, integer_values,
                   isometry_search, quotient_tau_indistinguishable)
from .corr import (CertificateMember, distortion, lgh_certificate,
                   min_distortion, slot_matching)
from .curvature import curvature_bound_scan
from .errors import DomainError, ShapeMismatch
from .geometry import (SamplePlan, cone_dominates, grid_net_product,
                       sample_spacetime, uncovered_samples)
from .limits import (BlowupSpec, CoveredSequence, blow_up, diagonal_limit,
                     tangent_experiment)
from .measured import induce_net_measure, measured_limit_builder, pushforward, weak_gap
from .nets import doubling_constant, greedy_net, verify_net


def _load(path, loader, *extra):
    """`loader(data, *extra)` on the JSON `data` in the file at `path`: the one
    step that reads an input file. A KeyError, TypeError, AttributeError or
    ValueError from `loader` (a missing or mistyped field) becomes a
    shape-mismatch that names the file; an unreadable file or bad JSON stays
    a usage error."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return loader(data, *extra)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ShapeMismatch(f"malformed {path}: {type(exc).__name__}: {exc}") from None


def _resolve(data, base: Path, loader):
    """Manifest entries may be inline dicts or file paths relative to the manifest."""
    if isinstance(data, str):
        return _load(base / data, loader)
    return loader(data)


def _index_keys(mapping: dict, what: str) -> dict:
    """`mapping` with its JSON object keys read as point indices."""
    return dict(zip(integer_values(list(mapping), what).tolist(), mapping.values()))


def _emit(args, payload, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = ser.dumps(payload) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _ints(arg: str) -> list[int]:
    """An integer-list flag: comma-separated, with empty entries skipped."""
    return [int(v) for v in arg.split(",") if v != ""]


def _indices(arg: str, n: int) -> list[int]:
    return list(range(n)) if arg == "all" else _ints(arg)


def _floats(arg: str) -> list[float]:
    return [float(v) for v in arg.split(",") if v != ""]


def _load_space(args, attr="space"):
    return _load(getattr(args, attr), ser.space_from_dict, args.tol)


@contextmanager
def _leaf(parent, name, run, fmt=False, tol=True, **kwargs):
    """A leaf command parser of `parent` that runs `run(args)`. Its own flags,
    added in the `with` body, come before `--out`, `--tol` (for commands that
    read a space) and `--format` (for the tabular reports) in its usage line."""
    p = parent.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    yield p
    p.add_argument("--out")
    if tol:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="load tolerance for input spaces (default 1e-9)")
    if fmt:
        p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lorentzgh")
    sub = top.add_subparsers(dest="command", required=True)

    with _leaf(sub, "validate", _cmd_validate, help="axiom-check a space file") as p:
        p.add_argument("--space", required=True)

    with _leaf(sub, "class", _cmd_class, help="causality classification report") as p:
        p.add_argument("--space", required=True)
        p.add_argument("--special", action="store_true", help="also classify special points")

    with _leaf(sub, "quotient", _cmd_quotient, help="collapse ell-indistinguishable points") as p:
        p.add_argument("--space", required=True)

    with _leaf(sub, "net", _cmd_net, help="greedy diamond net for a subset") as p:
        p.add_argument("--space", required=True)
        p.add_argument("--subset", default="all")
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--net-candidates", choices=["all", "chronological"], default="all")

    with _leaf(sub, "verify-net", _cmd_verify_net, help="check a net against a space subset") as p:
        p.add_argument("--space", required=True)
        p.add_argument("--net", required=True)
        p.add_argument("--subset", default="all")

    with _leaf(sub, "doubling", _cmd_doubling, help="doubling constant of a subset") as p:
        p.add_argument("--space", required=True)
        p.add_argument("--subset", default="all")

    with _leaf(sub, "distort", _cmd_distort, help="distortion of a supplied correspondence") as p:
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--corr", required=True)

    with _leaf(sub, "match", _cmd_match, help="minimal-distortion correspondence search") as p:
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--mode", choices=["exact", "heuristic"], default="heuristic")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--isometry", action="store_true",
                       help="also run the exact isometry search (equal sizes)")

    with _leaf(sub, "certify", _cmd_certify, fmt=True,
               help="LGH convergence certificate from a manifest") as p:
        p.add_argument("--manifest", required=True)

    with _leaf(sub, "sample", _cmd_sample, tol=False,
               help="sample a product generator into a space") as p:
        p.add_argument("--generator", required=True)
        p.add_argument("--step", type=float, required=True)
        p.add_argument("--window", help="t_lo,t_hi inside the generator range")
        p.add_argument("--sites", help="fiber site indices, default all")
        p.add_argument("--jitter-seed", type=int, default=None)

    with _leaf(sub, "grid-net", _cmd_grid_net, tol=False,
               help="explicit slab-covering grid net") as p:
        p.add_argument("--generator", required=True)
        p.add_argument("--t-minus", type=float, required=True)
        p.add_argument("--t-plus", type=float, required=True)
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--fiber-net", default="all")
        p.add_argument("--check-samples", type=int, default=0,
                       help="verify coverage on an n-point sample of the slab")

    with _leaf(sub, "cones", _cmd_cones, tol=False,
               help="cone domination check (constant beta/omega)") as p:
        p.add_argument("--generator", required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--omega", type=float, required=True)

    with _leaf(sub, "fourpoint", _cmd_fourpoint, fmt=True, help="four-point condition scan") as p:
        p.add_argument("--space", required=True)
        p.add_argument("--K", type=float, required=True)
        p.add_argument("--budget", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)

    with _leaf(sub, "scan", _cmd_scan, fmt=True,
               help="four-point scan over several K values") as p:
        p.add_argument("--space", required=True)
        p.add_argument("--K-list", required=True)
        p.add_argument("--budget", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)

    msub = sub.add_parser("measure", help="atomic measure operations").add_subparsers(
        dest="measure_command", required=True)

    with _leaf(msub, "induce", _cmd_measure_induce) as p:
        p.add_argument("--space", required=True)
        p.add_argument("--measure", required=True)
        p.add_argument("--net", required=True)
        p.add_argument("--subset", default="all")

    with _leaf(msub, "push", _cmd_measure_push, tol=False) as p:
        p.add_argument("--measure", required=True)
        p.add_argument("--map", required=True, help="JSON object atom->target")

    with _leaf(msub, "gap", _cmd_measure_gap, tol=False) as p:
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)

    with _leaf(msub, "limit", _cmd_measure_limit, tol=False) as p:
        p.add_argument("--manifest", required=True)

    with _leaf(sub, "converge", _cmd_converge, tol=False,
               help="diagonal limit of a covered sequence manifest") as p:
        p.add_argument("--manifest", required=True)
        p.add_argument("--depth", default="1,1,0", help="K,L,N (N=0 means all members)")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="Cauchy tolerance of the limit (default 1e-6)")

    with _leaf(sub, "blowup", _cmd_blowup, help="lambda blow-up of a covered space") as p:
        p.add_argument("--covered", required=True)
        p.add_argument("--o-minus", type=int, required=True)
        p.add_argument("--o-plus", type=int, required=True)
        p.add_argument("--lam", type=float, required=True)
        p.add_argument("--o", type=int, default=None)

    with _leaf(sub, "tangent", _cmd_tangent, help="blow-up tangent experiment") as p:
        p.add_argument("--covered", required=True)
        p.add_argument("--o", type=int, required=True)
        p.add_argument("--lambdas", required=True)
        p.add_argument("--levels", type=int, default=3)

    csub = sub.add_parser("causet", help="causal set operations").add_subparsers(
        dest="causet_command", required=True)

    with _leaf(csub, "ell", _cmd_causet_ell, tol=False) as p:
        p.add_argument("--causet", required=True)

    with _leaf(csub, "sprinkle", _cmd_causet_sprinkle, tol=False) as p:
        p.add_argument("--generator", required=True)
        p.add_argument("--region", required=True, help="t_lo,t_hi")
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)

    with _leaf(csub, "embed", _cmd_causet_embed) as p:
        p.add_argument("--causet", required=True)
        p.add_argument("--space", required=True)
        p.add_argument("--map", required=True)
        p.add_argument("--one-directional", action="store_true")

    with _leaf(csub, "trial", _cmd_causet_trial, fmt=True, tol=False) as p:
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--counts", required=True)
        p.add_argument("--seed", type=int, required=True)

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
    net = greedy_net(space, subset, args.epsilon, candidate_mode=args.net_candidates)
    _emit(args, ser.net_to_dict(net))


def _cmd_verify_net(args):
    space = _load_space(args)
    net = _load(args.net, ser.net_from_dict)
    check = verify_net(space, _indices(args.subset, space.n), net)
    _emit(args, {"ok": check.ok, "uncovered": list(check.uncovered),
                 "oversized": [list(p) for p in check.oversized]})


def _cmd_doubling(args):
    space = _load_space(args)
    n, details = doubling_constant(space, _indices(args.subset, space.n))
    _emit(args, {"N": n, "exact": details["exact"]})


def _cmd_distort(args):
    a = _load_space(args, "a")
    b = _load_space(args, "b")
    r = _load(args.corr, ser.correspondence_from_dict)
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


def _certify_manifest(manifest, base, tol):
    """Members, limit, matchings ("slots", an "l,n"-keyed dict or None) and convergence tol."""
    members = [_member_from_manifest(e, base, tol) for e in manifest["members"]]
    limit = _member_from_manifest(manifest["limit"], base, tol)
    matchings = manifest.get("matchings")
    if isinstance(matchings, dict):
        matchings = {tuple(integer_values(key.split(","), "matching scale keys").tolist()):
                     _index_keys(val, "matching keys") for key, val in matchings.items()}
    elif matchings != "slots":
        matchings = None
    return members, limit, matchings, manifest.get("convergence_tol")


def _cmd_certify(args):
    base = Path(args.manifest).parent
    members, limit, matchings, convergence_tol = _load(
        args.manifest, _certify_manifest, base, args.tol)
    if matchings == "slots":
        # a missing or differently sized net gets no slot map, so that
        # lgh_certificate reports it as a cardinality mismatch
        matchings = {(l, n): slot_matching(member.nets[l], net)
                     for n, member in enumerate(members)
                     for l, net in enumerate(limit.nets)
                     if l < len(member.nets) and len(member.nets[l]) == len(net)}
    report = lgh_certificate(members, limit, matchings=matchings,
                             convergence_tol=convergence_tol)
    payload = {"stages": list(report.stages),
               "extension_ok": report.extension_ok,
               "forward_density_ok": report.forward_density_ok,
               "strong": report.strong}
    rows = [["l", "n", "distortion"]] + \
           [[s["l"], s["n"], s["distortion"]] for s in report.stages]
    _emit(args, payload, csv_rows=rows)


def _cmd_sample(args):
    gen = _load(args.generator, ser.generator_from_dict)
    window = tuple(_floats(args.window)) if args.window else None
    sites = "all" if not args.sites else tuple(_ints(args.sites))
    plan = SamplePlan(time_step=args.step, fiber_sites=sites, seed=args.jitter_seed)
    sampled = sample_spacetime(gen, plan, t_window=window)
    _emit(args, ser.space_to_dict(sampled.space))


def _cmd_grid_net(args):
    gen = _load(args.generator, ser.generator_from_dict)
    fiber_net = _indices(args.fiber_net, gen.fiber.n)
    net = grid_net_product(gen, args.t_minus, args.t_plus, args.epsilon, fiber_net)
    payload = {"epsilon": net.epsilon, "columns": net.columns,
               "pairs": [list(p) for p in net.pairs],
               "vertex_points": [[t, s] for t, s in net.vertex_points]}
    if args.check_samples:
        rng = np.random.default_rng(0)
        ts = rng.uniform(args.t_minus, args.t_plus, size=args.check_samples)
        sites = rng.integers(0, gen.fiber.n, size=args.check_samples)
        points = list(zip(ts.tolist(), (int(s) for s in sites)))
        payload["uncovered_samples"] = uncovered_samples(gen, net, points)
    _emit(args, payload)


def _cmd_cones(args):
    gen = _load(args.generator, ser.generator_from_dict)
    _emit(args, cone_dominates((gen.cone_scale, gen.fiber), (args.beta, args.omega)))


def _cmd_fourpoint(args):
    space = _load_space(args)
    result = curvature_bound_scan(space, args.K, args.budget, args.seed)
    rows = [["y", "x", "z1", "z2", "slack"]] + \
           [[*v["points"], v["slack"]] for v in result["violations"]]
    _emit(args, result, csv_rows=rows)


def _cmd_scan(args):
    space = _load_space(args)
    out = []
    for K in _floats(args.K_list):
        result = curvature_bound_scan(space, K, args.budget, args.seed)
        out.append({"K": K, "tested": result["tested"],
                    "violations": len(result["violations"]),
                    "worst_slack": min((v["slack"] for v in result["violations"]),
                                       default=None)})
    rows = [["K", "tested", "violations"]] + \
           [[r["K"], r["tested"], r["violations"]] for r in out]
    _emit(args, {"per_K": out}, csv_rows=rows)


def _cmd_measure_induce(args):
    space = _load_space(args)
    m = _load(args.measure, ser.measure_from_dict, space)
    net = _load(args.net, ser.net_from_dict)
    mn = induce_net_measure(space, m, _indices(args.subset, space.n), net)
    _emit(args, {"measure": ser.measure_to_dict(mn.induced, space),
                 "residual_masses": list(mn.residual_masses),
                 "total": mn.induced.total()})


def _cmd_measure_push(args):
    m = _load(args.measure, ser.measure_from_dict)
    mapping = _load(args.map, _index_keys, "map keys")
    _emit(args, ser.measure_to_dict(pushforward(mapping, m)))


def _cmd_measure_gap(args):
    a = _load(args.a, ser.measure_from_dict)
    b = _load(args.b, ser.measure_from_dict)
    _emit(args, {"gap": weak_gap(a, b)})


def _cmd_measure_limit(args):
    sequence, bounds, member_indices = _load(args.manifest, _measure_limit_manifest)
    measure, log = measured_limit_builder(sequence, bounds, member_indices)
    _emit(args, {"measure": ser.measure_to_dict(measure),
                 "final_subsequence": log["final_positions"]})


def _measure_limit_manifest(manifest):
    """The (k, l)-keyed measure sequence, the bounds and the member indices."""
    sequence = {}
    for entry in manifest["sequence"]:
        key = tuple(integer_values([entry["k"], entry["l"]], "sequence (k, l)").tolist())
        sequence[key] = [ser.measure_from_dict(m) for m in entry["measures"]]
    bounds = ({k: float(v) for k, v in _index_keys(manifest["bounds"], "bound keys").items()}
              if "bounds" in manifest else None)
    return sequence, bounds, manifest.get("member_indices")


def _covered_sequence(manifest, base):
    members = tuple(_resolve(m, base, ser.covered_from_dict) for m in manifest["members"])
    schedules = tuple(
        tuple(tuple(ser.net_from_dict(net) for net in per_k) for per_k in sched)
        for sched in manifest["schedules"])
    indices = tuple(manifest["member_indices"]) if "member_indices" in manifest else None
    return CoveredSequence(members=members, schedules=schedules, member_indices=indices)


def _cmd_converge(args):
    base = Path(args.manifest).parent
    seq = _load(args.manifest, _covered_sequence, base)
    K, L, N = _ints(args.depth)
    if N == 0:
        N = len(seq.members)
    limit, log = diagonal_limit(seq, (K, L, N), tol=args.tol)
    _emit(args, {"space": ser.covered_to_dict(limit),
                 "final_subsequence": log["final_subsequence"],
                 "non_cauchy": log["non_cauchy"]})


def _cmd_blowup(args):
    cov = _load(args.covered, ser.covered_from_dict, args.tol)
    o = cov.basepoint if args.o is None else args.o
    spec = BlowupSpec(o=o, o_minus=args.o_minus, o_plus=args.o_plus, lam=args.lam)
    _emit(args, ser.covered_to_dict(blow_up(cov, spec)))


def _cmd_tangent(args):
    cov = _load(args.covered, ser.covered_from_dict, args.tol)
    report = tangent_experiment(cov, args.o, _floats(args.lambdas), levels=args.levels)
    payload = {"records": list(report.records), "notes": list(report.notes),
               "limit": None if report.limit is None else ser.covered_to_dict(report.limit)}
    _emit(args, payload)


def _cmd_causet_ell(args):
    c = _load(args.causet, ser.causet_from_dict)
    _emit(args, ser.space_to_dict(chain_ell(c)))


def _cmd_causet_sprinkle(args):
    gen = _load(args.generator, ser.generator_from_dict)
    causet, site_map = sprinkle(gen, tuple(_floats(args.region)), args.count, args.seed)
    _emit(args, {"causet": ser.causet_to_dict(causet),
                 "site_map": {str(k): [t, s] for k, (t, s) in sorted(site_map.items())}})


def _cmd_causet_embed(args):
    c = _load(args.causet, ser.causet_from_dict)
    space = _load_space(args)
    mapping = _load(args.map, _index_keys, "map keys")
    _emit(args, faithful_embed_check(c, space, mapping, one_directional=args.one_directional))


def _cmd_causet_trial(args):
    gen_a = _load(args.a, ser.generator_from_dict)
    gen_b = _load(args.b, ser.generator_from_dict)
    report = hauptvermutung_trial(gen_a, gen_b, _ints(args.counts), args.seed)
    rows = [["count", "tau_distortion", "chain_distortion"]] + \
           [[r["count"], r["tau_distortion"], r["chain_distortion"]] for r in report["rows"]]
    _emit(args, report, csv_rows=rows)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.run(args)
    except DomainError as exc:
        sys.stderr.write(ser.dumps(exc.record()) + "\n")
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(ser.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
