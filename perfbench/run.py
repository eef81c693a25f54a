"""lorentzgh benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload slab --seed 7 --seconds 25 --trace 0

Run from a checkout: the library is imported from `src/` next to this
directory. Set-up is measured in fresh child processes (import, input
generation, input files) and reported as a median. Passes repeat until
they have taken `--seconds` in all. With `--trace 0` the last stdout line
reports `setup_s`, `pass_s` and `peak_rss_mb`; with `--trace 1` untraced and
traced passes alternate and it reports the per-layer metrics instead. The
lines before it are a human-readable report, and the full record (artifact
digests, failures, spans) is written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
DEFAULT_SEEDS = {"slab": 7, "causet": 11, "many_small": 0}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed; defaults: slab 7, causet 11, many_small 0")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="set up in DIR, print the monotonic clock and exit")
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    return args


def setup_only(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_only))
    print(repr(time.monotonic()))
    return 0


def measure_setups(args, work: Path) -> list[float]:
    """Wall seconds from spawning a fresh interpreter to its finished set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        child_dir = work / f"setup-{k}"
        child_dir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(child_dir)]
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed ({done.returncode}): "
                               f"{done.stderr.strip()[-2000:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
        shutil.rmtree(child_dir)
    return times


def highest_percentile(values: list[float]):
    """Highest percentile with at least ten samples above it, as (p, value)."""
    ordered = sorted(values)
    below = len(ordered) - 10
    if below < 1:
        return None
    return 100 * below // len(ordered), ordered[below - 1]


def layer_metrics(tracer_snapshots, untraced, traced, bytes_io, span_names):
    """Per-layer metrics: medians over the traced passes."""
    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    for span in span_names:
        for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
            metrics[f"{span}.{field}"] = (
                med([snap["spans"].get(span, {}).get(field, 0) for snap in tracer_snapshots]),
                unit)

    def counter(name):
        return med([snap["counters"].get(name, 0.0) for snap in tracer_snapshots])

    candidates, chosen = counter("nets.candidates"), counter("nets.chosen")
    checks = metrics["curvature.four_point_check.calls"][0]
    metrics.update({
        "serialize.bytes_in": (bytes_io[0], "bytes"),
        "serialize.bytes_out": (bytes_io[1], "bytes"),
        "nets.candidates": (candidates, "count"),
        "nets.chosen": (chosen, "count"),
        "nets.chosen_per_candidate": (chosen / candidates if candidates else 0.0, "ratio"),
        "curvature.four_point_check.errors": (
            med([snap["spans"].get("curvature.four_point_check", {}).get("errors", 0)
                 for snap in tracer_snapshots]), "count"),
        "curvature.useful_ratio": (counter("curvature.tested") / checks if checks else 0.0,
                                   "ratio"),
        "trace.overhead_s": (med(traced) - med(untraced), "s"),
        "pass.uncovered_s": (med([snap["uncovered_s"] for snap in tracer_snapshots]), "s"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lorentzgh" / "__init__.py").is_file():
        sys.stderr.write(f"no lorentzgh sources under {SRC}; run from a full checkout\n")
        return 2
    # the load is one thread: keep the BLAS pool from starting workers
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.setup_only:
        return setup_only(args)

    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = measure_setups(args, work)
        return run(args, work, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, setups: list[float]) -> int:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    import lorentzgh

    if not Path(lorentzgh.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported lorentzgh from {lorentzgh.__file__}, not {SRC}")
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    untraced, traced, snapshots, failures = [], [], [], []
    attempted, first = 0, None
    while True:
        is_traced = bool(args.trace) and len(untraced) > len(traced)
        p = workloads.Pass(tracer, first)
        tracer.reset()
        tracer.enabled = is_traced
        try:
            workload.run_pass(p)
        finally:
            tracer.enabled = False
        attempted += len(p.digests)
        failures.extend(dict(f, passno=len(untraced) + len(traced)) for f in p.failures)
        if first is None:
            # later passes can raise the peak by reusing freed heap differently, so the
            # peak is read after a fixed amount of work: set-up and the first pass
            first, peak_rss_mb = p, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if is_traced:
            traced.append(p.seconds)
            snapshots.append({
                "spans": {k: {"calls": v.calls, "self_s": v.self_s, "total_s": v.total_s,
                              "errors": v.errors} for k, v in tracer.stats.items()},
                "counters": dict(tracer.counters),
                "uncovered_s": p.seconds - tracer.top_level_s})
        else:
            untraced.append(p.seconds)
        if sum(untraced) + sum(traced) >= args.seconds and (not args.trace or traced):
            break

    failed = len(failures)
    correct = all(f["known"] for f in failures)
    if args.trace:
        metrics = layer_metrics(snapshots, untraced, traced, (first.bytes_in, first.bytes_out),
                                tracing.span_names())
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    report(args, setups, untraced, traced, peak_rss_mb, metrics, attempted, failures, first)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setups, "untraced_pass_s": untraced, "traced_pass_s": traced,
              "attempted": attempted, "failures": failures,
              "artifact_sha256": first.artifact_digests(), "spans": snapshots,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def report(args, setups, untraced, traced, peak_rss_mb, metrics, attempted, failures,
           first) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  setup_s {statistics.median(setups):.4f} s  (median of {len(setups)} set-ups)")
    tail = highest_percentile(untraced)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    print(f"  pass_s  {statistics.median(untraced):.4f} s  (median of {len(untraced)} "
          f"untraced passes; {tail_text})")
    if traced:
        print(f"  traced pass_s {statistics.median(traced):.4f} s  "
              f"(median of {len(traced)} traced passes)")
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MiB  (set-up and first pass)")
    print(f"  failed_ops_ratio {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6f} ratio")
    for f in failures[:20]:
        tag = f"known defect ({f['known']})" if f["known"] else "FAILED"
        print(f"    pass {f['passno']} op {f['op']} {f['name']}: {tag}: {f['message']}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    print("  artifact sha256:")
    for name, digest in first.artifact_digests().items():
        print(f"    {digest}  {name}")


if __name__ == "__main__":
    sys.exit(main())
