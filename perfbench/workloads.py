"""The three benchmark workloads: `slab`, `causet` and `many_small`.

Each workload is a closed loop: one caller issues the next operation only
after the previous one returns. Set-up (the constructor) makes every input
from the seed; a pass (`run_pass`) feeds those inputs to the library through
`Pass.op`, which times each call and digests its output. The first pass of
a run checks every output; a later pass must reproduce each output byte for
byte and inherits its verdict. See README.md in this directory for why each workload
exists and which layers it should and should not move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from lorentzgh import (causet, cli, core, corr, curvature, extended, geometry, limits,
                       measured, nets, serialize)


@dataclass(frozen=True)
class Failure:
    """A failed check. `known` names the open defect it reproduces, if any."""

    message: str
    known: str = ""


@dataclass(frozen=True)
class CliRun:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class Pass:
    """One pass of a workload: times each op and digests and checks its output."""

    def __init__(self, tracer, first: "Pass | None"):
        self.tracer = tracer
        self.first = first  # the run's first pass, which ran the checks
        self.seconds = 0.0
        self.digests: list[bytes] = []
        self.verdicts: list[Failure | None] = []  # check results, first pass only
        self.artifacts: dict[str, list[bytes]] = defaultdict(list)
        self.failures: list[dict] = []
        self.bytes_in = self.bytes_out = 0

    def op(self, name, fn, *args, check=None, digest=None, error=None, **kwargs):
        start = perf_counter()
        try:
            value = fn(*args, **kwargs)
            problem = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            value, problem = None, f"{type(exc).__name__}: {exc}"
        self.seconds += perf_counter() - start
        index = len(self.digests)
        known = ""
        with self.tracer.paused():
            info = (digest or fingerprint)(value) if problem is None else {"digests": {}}
            found = info["digests"]
            combined = sha256(b"".join(found[k] for k in sorted(found)))
            self.digests.append(combined)
            for artifact, d in found.items():
                self.artifacts[f"{name}:{artifact}"].append(d)
            self.bytes_in += info.get("bytes_in", 0)
            self.bytes_out += info.get("bytes_out", 0)
            if problem is None and error is not None:
                problem = error(value)
            if self.first is None:
                failure = None
                if problem is None and check is not None:
                    try:
                        failure = check(value)
                    except Exception as exc:  # malformed output fails the op
                        failure = Failure(f"check raised {type(exc).__name__}: {exc}")
                self.verdicts.append(failure)
            elif index >= len(self.first.digests) or self.first.digests[index] != combined:
                failure = Failure("output bytes differ from the first pass")
            else:  # identical output, identical verdict
                failure = self.first.verdicts[index]
            if problem is None and failure is not None:
                problem, known = failure.message, failure.known
        if problem is not None:
            self.failures.append({"op": index, "name": name, "message": problem,
                                  "known": known})
        return value

    def artifact_digests(self) -> dict[str, str]:
        """sha256 per artifact; an op name that repeats gets the digest of its digests."""
        return {k: (v[0] if len(v) == 1 else hashlib.sha256(b"".join(v)).digest()).hex()
                for k, v in sorted(self.artifacts.items())}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

INPUT_FLAGS = ("--space", "--net", "--generator", "--a", "--b")


class CliWorkload:
    """Drives `lorentzgh.cli.main(argv)` in-process on files in `workdir`."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def write_json(self, name: str, payload) -> None:
        Path(self.path(name)).write_text(serialize.dumps(payload) + "\n", encoding="utf-8")

    @staticmethod
    def invoke(argv: tuple[str, ...]) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return CliRun(argv, code, out.getvalue(), err.getvalue())

    def run(self, p, name: str, *argv: str, check=None):
        return p.op(name, self.invoke, tuple(argv), check=check, digest=self.artifacts,
                    error=self.exit_error)

    @staticmethod
    def exit_error(run: CliRun):
        if run.code != 0:
            return f"exit code {run.code}: {run.stderr.strip()[:300]}"
        return None

    @staticmethod
    def artifacts(run: CliRun) -> dict:
        """sha256 and size of stdout and of the --out file, plus sizes read."""
        found = {"stdout": run.stdout.encode("utf-8")}
        argv = list(run.argv)
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            found[out.name] = out.read_bytes()
        bytes_in = sum(Path(argv[k + 1]).stat().st_size
                       for k, flag in enumerate(argv[:-1]) if flag in INPUT_FLAGS)
        return {"digests": {k: sha256(v) for k, v in found.items()},
                "bytes_in": bytes_in, "bytes_out": sum(len(v) for v in found.values())}

    def load(self, name: str) -> dict:
        return json.loads(Path(self.path(name)).read_text(encoding="utf-8"))


class Slab(CliWorkload):
    """README pipeline on one large sampled slab: O(n^2)/O(n^3) kernels and JSON I/O."""

    name = "slab"
    fiber_points, family_index = 8, 100
    # the half-width slab (n = 328) keeps the 0.025 grid and the 56-point doubling
    # subset of the full one (n = 648) at a quarter of the pass time, so a run holds
    # enough passes for a steady median on a noisy 2-core machine
    step, window = 0.025, (-0.5, 0.5)
    doubling_window = (0.0, 0.15)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.seed = seed
        gen = geometry.product_family(geometry.circle_fiber(self.fiber_points),
                                      self.family_index, t_range=(-1.0, 1.0))
        self.write_json("generator.json", serialize.generator_to_dict(gen))
        # sample orders points time-major over the grid lo + k * step
        lo, hi = self.window
        times = [lo + k * self.step for k in range(int(round((hi - lo) / self.step)) + 1)]
        t0, t1 = self.doubling_window
        self.doubling_subset = [k * self.fiber_points + s for k, t in enumerate(times)
                                if t0 - 1e-9 <= t <= t1 + 1e-9
                                for s in range(self.fiber_points)]

    def run_pass(self, p) -> None:
        space, net = self.path("space.json"), self.path("net.json")
        quotient = self.path("quotient.json")
        self.run(p, "sample", "sample", "--generator", self.path("generator.json"),
                 "--step", str(self.step), f"--window={self.window[0]},{self.window[1]}",
                 "--out", space, check=self.check_sample)
        self.run(p, "validate", "validate", "--space", space,
                 check=lambda r: None if json.loads(r.stdout) == {"ok": True}
                 else Failure("validate did not report ok"))
        self.run(p, "class", "class", "--space", space)
        self.run(p, "quotient", "quotient", "--space", space, "--out", quotient,
                 check=self.check_quotient)
        self.run(p, "net", "net", "--space", space, "--epsilon", "0.5", "--out", net,
                 check=self.check_net)
        self.run(p, "verify-net", "verify-net", "--space", space, "--net", net,
                 check=lambda r: None if json.loads(r.stdout)["ok"]
                 else Failure("verify-net reported a bad net"))
        self.run(p, "doubling", "doubling", "--space", space,
                 "--subset", ",".join(map(str, self.doubling_subset)))
        self.run(p, "scan", "scan", "--space", space, "--K-list", "0,0.5",
                 "--budget", "1000", "--seed", str(self.seed), check=self.check_scan)

    def check_sample(self, run: CliRun):
        names = self.load("space.json")["labels"]  # "(t,site)"
        times = [float(name[1:name.index(",")]) for name in names]
        t0, t1 = self.doubling_window
        inside = [k for k, t in enumerate(times) if t0 - 1e-9 <= t <= t1 + 1e-9]
        if inside != self.doubling_subset:
            return Failure("doubling subset does not match the sampled points "
                           f"with {t0} <= t <= {t1}")
        return None

    def check_quotient(self, run: CliRun):
        q = serialize.space_from_dict(self.load("quotient.json")["space"])
        if not core.causality_class(q).pdp:
            return Failure("quotient violates PDP")
        return None

    def check_net(self, run: CliRun):
        space = serialize.space_from_dict(self.load("space.json"))
        net = serialize.net_from_dict(self.load("net.json"))
        if not nets.verify_net(space, range(space.n), net).ok:
            return Failure("net does not pass verify_net")
        return None

    @staticmethod
    def check_scan(run: CliRun):
        flat = [r for r in json.loads(run.stdout)["per_K"] if r["K"] == 0.0]
        if not flat or flat[0]["violations"] != 0:
            return Failure(f"flat K=0 scan reports violations: {flat}")
        return None


class Causet(CliWorkload):
    """Causal-set trials and sprinkling: the heuristic matcher and longest chains."""

    name = "causet"
    counts = (100, 200, 500)
    region = (0.0, 2.0)
    sprinkle_count = 500
    known_cover_defect = ("ROADMAP item 5: uint8 two-step count in sprinkle wraps at "
                          "256 and emits spurious Hasse covers")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.seed = seed
        fiber = geometry.circle_fiber(8, radius=0.3)
        self.gen_a = geometry.ProductGenerator(fiber=fiber, cone_scale=1.0,
                                               t_range=self.region)
        gen_b = geometry.ProductGenerator(fiber=fiber.scaled(1.1), cone_scale=1.0,
                                          t_range=self.region)
        self.write_json("gen_a.json", serialize.generator_to_dict(self.gen_a))
        self.write_json("gen_b.json", serialize.generator_to_dict(gen_b))

    def run_pass(self, p) -> None:
        a, b = self.path("gen_a.json"), self.path("gen_b.json")
        counts = ",".join(map(str, self.counts))
        self.run(p, "causet trial A-A", "causet", "trial", "--a", a, "--b", a,
                 "--counts", counts, "--seed", str(self.seed), check=self.check_same)
        self.run(p, "causet trial A-B", "causet", "trial", "--a", a, "--b", b,
                 "--counts", counts, "--seed", str(self.seed), check=self.check_scaled)
        self.run(p, "causet sprinkle", "causet", "sprinkle", "--generator", a,
                 "--region", f"{self.region[0]},{self.region[1]}",
                 "--count", str(self.sprinkle_count), "--seed", str(self.seed),
                 check=self.check_covers)

    @staticmethod
    def check_same(run: CliRun):
        bad = [r for r in json.loads(run.stdout)["rows"]
               if r["tau_distortion"] != 0 or r["chain_distortion"] != 0]
        return Failure(f"A against A rows with non-zero distortion: {bad}") if bad else None

    @staticmethod
    def check_scaled(run: CliRun):
        # criterion 10; "inf" (an INF_GAP stage) also exceeds the floor
        bad = [r for r in json.loads(run.stdout)["rows"]
               if r["count"] >= 200 and not float(r["tau_distortion"]) >= 0.02]
        return Failure(f"A against B rows below the 0.02 floor: {bad}") if bad else None

    def check_covers(self, run: CliRun):
        """Hasse covers against a non-wrapping (int64) two-step count."""
        out = json.loads(run.stdout)
        points = [(float(t), int(s)) for t, s in
                  (out["site_map"][str(k)] for k in range(len(out["site_map"])))]
        strict = np.array([[geometry.product_ell(self.gen_a, p, q) > extended.NEG_INF
                            for q in points] for p in points])
        np.fill_diagonal(strict, False)
        steps = strict.astype(np.int64) @ strict.astype(np.int64)
        want = {(int(a), int(b)) for a, b in np.argwhere(strict & (steps == 0))}
        got = {(int(a), int(b)) for a, b in out["causet"]["covers"]}
        spurious, missing = got - want, want - got
        outside = got - {(int(a), int(b)) for a, b in np.argwhere(strict)}
        if missing or outside:
            return Failure(f"{len(missing)} Hasse covers missing, "
                           f"{len(outside)} covers outside the causal order")
        if spurious:
            # the known defect: a pair with 256 * k intermediates looks like a cover
            wrapped = all(steps[a, b] % 256 == 0 for a, b in spurious)
            return Failure(f"{len(spurious)} spurious Hasse covers of {len(got)}",
                           known=self.known_cover_defect if wrapped else "")
        return None


# ---------------------------------------------------------------------------
# many small library calls
# ---------------------------------------------------------------------------


def chain_matrices(rng, sizes, span: float = 5.0) -> list[np.ndarray]:
    """Random timelike chains: ell[i, j] = t_j - t_i for sorted uniform times."""
    sizes = np.asarray(sizes)
    times = np.sort(rng.uniform(0, span, size=(len(sizes), sizes.max())), axis=1)
    out = [None] * len(sizes)
    for n in np.unique(sizes):  # one broadcast per chain length
        rows = np.flatnonzero(sizes == n)
        t = times[rows, :n]
        ell = t[:, None, :] - t[:, :, None]
        ell[ell < 0] = extended.NEG_INF
        for k, row in enumerate(rows):
            out[row] = ell[k]
    return out


def labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def time_order_space(prefix: str, t: np.ndarray):
    """Points at sorted times t; equal times are indistinguishable (ell = 0 both ways)."""
    ell = t[None, :] - t[:, None]
    ell[ell < 0] = extended.NEG_INF
    ell[t[None, :] == t[:, None]] = 0.0
    return core.build_space(labels(prefix, len(t)), ell)


def integer_space(rng, n: int):
    return time_order_space("p", np.sort(rng.integers(0, 7, size=n)).astype(float))


def layered_space(rng, layers: int, width: int):
    return time_order_space("q", np.repeat(np.sort(rng.uniform(0, 4.0, size=layers)), width))


def random_causet_space(rng, n: int):
    covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return causet.chain_ell(causet.build_causet(labels("e", n), covers))


def product_space(rng, n_times: int, n_sites: int):
    gen = geometry.ProductGenerator(
        fiber=geometry.segment_fiber(n_sites, float(rng.uniform(0.2, 1.0))),
        cone_scale=float(rng.uniform(0.5, 2.0)), t_range=(0.0, 1.0))
    plan = geometry.SamplePlan(time_step=1.0 / (n_times - 1),
                               seed=int(rng.integers(0, 2**31)))
    return geometry.sample_spacetime(gen, plan).space


def space_digest(space) -> dict:
    """Digest of a FiniteLorentzSpace, cheaper than `fingerprint` for the hottest op."""
    h = hashlib.sha256("\x1f".join(space.labels).encode())
    for table in (space.ell, space.chron, space.causal):
        h.update(table.tobytes())
    h.update(repr(space.tol).encode())
    return {"digests": {"value": h.digest()}}


def fingerprint(value) -> dict:
    h = hashlib.sha256()
    _feed(h, value)
    return {"digests": {"value": h.digest()}}


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        for name in obj.__dataclass_fields__:
            _feed(h, getattr(obj, name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode() + b";")


class ManySmall:
    """Thousands of tiny library calls: per-call overhead and the exact search."""

    name = "many_small"
    # sized so a pass takes a few seconds and one run holds enough passes for a
    # steady median
    n_chains, n_pdp, n_nets, n_pairs = 20_000, 2_000, 1_000, 100
    scan_Ks, scan_budget = (0.0, 0.5, -0.5), 1_500
    certificate_ns = (10, 30, 100, 300, 1000)
    tangent_lambdas = (1, 2, 4, 8)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        names = {n: labels("p", n) for n in range(3, 9)}
        self.chains = [(names[len(ell)], ell)
                       for ell in chain_matrices(rng, rng.integers(3, 9, size=self.n_chains))]
        self.pdp_spaces = []
        for k in range(self.n_pdp):
            if k % 2:
                self.pdp_spaces.append(integer_space(rng, int(rng.integers(3, 7))))
            else:
                self.pdp_spaces.append(layered_space(rng, int(rng.integers(2, 4)),
                                                     int(rng.integers(1, 3))))
        self.net_inputs = []
        for ell in chain_matrices(rng, rng.integers(3, 8, size=self.n_nets)):
            n = len(ell)
            space = core.build_space(labels("p", n), ell)
            m = measured.atomic_measure({i: float(rng.uniform(0, 2)) for i in range(n)})
            self.net_inputs.append((space, m, float(rng.uniform(1.0, 5.0))))
        makers = (lambda: core.build_space(labels("p", 8), chain_matrices(rng, [8])[0]),
                  lambda: random_causet_space(rng, 8),
                  lambda: product_space(rng, 4, 2))
        self.pairs = [(makers[k % 3](), makers[k % 3](), int(rng.integers(0, 2**31)))
                      for k in range(self.n_pairs)]
        self.scan_space = self._criterion_07_space()
        self.certificate = self._criterion_05_members()
        self.diagonal = self._criterion_06_sequence()
        self.tangent = self._criterion_11_cover()

    # --- fixed geometric inputs from the acceptance criteria -------------

    @staticmethod
    def _criterion_07_space():
        gen = geometry.ProductGenerator(fiber=geometry.segment_fiber(12, 2.0),
                                        cone_scale=1.0, t_range=(0.0, 3.0))
        plan = geometry.SamplePlan(time_step=0.25)
        return geometry.sample_spacetime(gen, plan, t_window=(0.0, 2.5)).space

    def _criterion_05_members(self):
        fiber = geometry.circle_fiber(8)
        scales = (1.0, 0.5, 1.0 / 3.0)

        def member(n):
            gen = geometry.product_family(fiber, n, t_range=(-1.0, 1.0))
            grids = [geometry.slab_net(gen, 0.0, 0.5, e, range(fiber.n)) for e in scales]
            extra = [pt for g in grids for pt in geometry.net_vertex_points(g)]
            sampled = geometry.sample_spacetime(gen, geometry.SamplePlan(time_step=1 / 8),
                                                t_window=(0.0, 0.5), extra_points=extra)
            subset = tuple(k for k, pt in enumerate(sampled.points) if 0.0 <= pt[0] <= 0.5)
            return corr.CertificateMember(
                space=sampled.space, nets=tuple(geometry.embed_net(g, sampled) for g in grids),
                subset=subset, index=None if n == "inf" else n)

        return [member(n) for n in self.certificate_ns], member("inf")

    @staticmethod
    def _criterion_06_sequence():
        fiber = geometry.circle_fiber(8)
        geninf = geometry.product_family(fiber, "inf", t_range=(-1.0, 1.0))
        scales = (1.0, 0.5, 1.0 / 3.0)
        grids = [geometry.slab_net(geninf, 0.0, 0.5, e, range(8)) for e in scales]
        vertex_pts = []
        for g in grids:
            for pt in geometry.net_vertex_points(g):
                if pt not in vertex_pts:
                    vertex_pts.append(pt)
        if (0.0, 0) not in vertex_pts:
            vertex_pts.append((0.0, 0))
        idx = {pt: k for k, pt in enumerate(vertex_pts)}
        schedule = tuple(nets.DiamondNet(
            pairs=tuple((idx[g.vertex_points[a]], idx[g.vertex_points[b]])
                        for a, b in g.pairs), epsilon=g.epsilon) for g in grids)

        def member(n):
            gen = geometry.product_family(fiber, n, t_range=(-1.0, 1.0))
            sp = core.build_space([geometry.point_label(gen, pt) for pt in vertex_pts],
                                  geometry._ell_matrix(gen, vertex_pts))
            return core.covered(sp, idx[(0.0, 0)], [range(sp.n)])

        ns = sorted(set(np.geomspace(1, 10_000, 60).astype(int).tolist()
                        + [9996, 9997, 9998, 9999, 10_000]))
        seq = limits.CoveredSequence(members=tuple(member(n) for n in ns),
                                     schedules=tuple((schedule,) for _ in ns),
                                     member_indices=tuple(ns))
        # limit classes in slot-dedup order, and their Y_inf reference entries
        order, seen = [], set()
        for net in schedule:
            for pq in net.pairs:
                for v in pq:
                    if v not in seen:
                        seen.add(v)
                        order.append(v)
        if idx[(0.0, 0)] not in seen:
            order.append(idx[(0.0, 0)])
        want = np.array([[geometry.product_ell(geninf, vertex_pts[a], vertex_pts[b])
                          for b in order] for a in order])
        return seq, (1, len(scales), len(ns)), want

    @staticmethod
    def _criterion_11_cover():
        gen = geometry.ProductGenerator(fiber=geometry.segment_fiber(5, 0.4),
                                        cone_scale=1.0, t_range=(0.0, 1.2))
        s = geometry.sample_spacetime(gen, geometry.SamplePlan(time_step=0.05))
        return core.covered(s.space, s.index_of((0.6, 2)), [range(s.space.n)])

    # --- the pass ---------------------------------------------------------

    def run_pass(self, p) -> None:
        for lab, ell in self.chains:
            p.op("core.build_space", core.build_space, lab, ell, digest=space_digest,
                 check=lambda sp, ell=ell: None if np.array_equal(sp.ell, ell)
                 else Failure("build_space changed the matrix"))
        for sp in self.pdp_spaces:
            out = p.op("core.quotient_tau_indistinguishable",
                       core.quotient_tau_indistinguishable, sp)
            if out is None:
                continue
            p.op("core.causality_class", core.causality_class, out[0],
                 check=lambda rep: None if rep.pdp and rep.causal
                 else Failure("quotient is not PDP and causal"))
        for sp, m, eps in self.net_inputs:
            every = range(sp.n)
            net = p.op("nets.greedy_net", nets.greedy_net, sp, every, eps,
                       check=lambda net, sp=sp: None
                       if nets.verify_net(sp, range(sp.n), net).ok
                       else Failure("greedy net fails verify_net"))
            if net is None:
                continue
            p.op("measured.induce_net_measure", measured.induce_net_measure, sp, m, every,
                 net, check=lambda mn, m=m: None
                 if abs(mn.induced.total() - m.total()) <= 1e-12
                 else Failure("induced measure does not conserve mass"))
        for a, b, seed in self.pairs:
            exact = p.op("corr.min_distortion.exact", corr.min_distortion, a, b,
                         mode="exact", seed=seed)
            p.op("corr.min_distortion.heuristic", corr.min_distortion, a, b,
                 mode="heuristic", seed=seed,
                 check=lambda r, exact=exact: None if exact is not None and exact[1] <= r[1]
                 else Failure(f"heuristic {r[1]} below exact {exact and exact[1]}"))
        for K in self.scan_Ks:
            p.op("curvature.curvature_bound_scan", curvature.curvature_bound_scan,
                 self.scan_space, K, self.scan_budget, self.seed,
                 check=lambda out, K=K: None if K != 0.0 or not out["violations"]
                 else Failure(f"{len(out['violations'])} violations at K=0"))
        members, limit = self.certificate
        p.op("corr.lgh_certificate", corr.lgh_certificate, members, limit)
        seq, depth, want = self.diagonal
        p.op("limits.diagonal_limit", limits.diagonal_limit, seq, depth, tol=1e-6,
             check=lambda out: self._check_diagonal(out, want))
        cov = self.tangent
        p.op("limits.tangent_experiment", limits.tangent_experiment, cov, cov.basepoint,
             list(self.tangent_lambdas), levels=2,
             check=lambda rep: None if all(r["diameter"] <= 1.0 for r in rep.records)
             else Failure("tangent blow-up diameter above 1"))

    @staticmethod
    def _check_diagonal(out, want):
        ell = out[0].space.ell
        worst = max(extended.gap(float(want[a, b]), float(ell[a, b]))
                    for a in range(want.shape[0]) for b in range(want.shape[1]))
        if worst > 1e-6:
            return Failure(f"diagonal limit differs from Y_inf by {worst:.3e}")
        return None


WORKLOADS = {w.name: w for w in (Slab, Causet, ManySmall)}
