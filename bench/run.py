"""cascadyn benchmark: crossval, forecast and stream on the OUTBREAK_SIM world.

    python3 bench/run.py --workload crossval --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and prints every metric by name with its unit. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced run (spans are written to ``bench/out/``). ``--world-seed`` reseeds
the world (default: the acceptance world's 2024); ``--seed`` draws the
order of forecast's cascades, and the order and checked events of stream's.
``--smoke`` runs on a tiny world, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the run with the host, versions, seeds, sample counts and the source
of each failure. An operation is a ranking comparison of newer with one
baseline at one prefix size / a cascade's forecast / a streamed event.

A run alternates its set-ups with shares of the timed passes, so that its
figures average over when it ran on a shared host. It leaves the choice of
CPU to the scheduler: pinning the thread to one CPU makes it wait whenever
another process runs there.

End-to-end metrics, per workload (crossval / forecast / stream):

    setup_s      median of the set-ups: world generation and filtering,
                 plus, for forecast and stream, extraction and a newer fit
    wall_s       median pass: one run_experiment call / every kept cascade /
                 every stream event
    ops_per_s    median over passes of predictions scored / cascades /
                 events per second
    op_p50_us    percentiles over operations of each one's median latency
    op_p99_us    across passes; an operation is a run_experiment call / one
                 cascade's three queries / one feed_event plus query_size
    peak_rss_mb  peak resident memory of the process
    rmsle        newer's RMSLE, mean over prefix sizes 5, 10, 25 / final-size
                 RMSLE at the 30% cut / streamed estimate at the 30% cut
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

if not (SRC / "cascadyn" / "__init__.py").is_file():
    raise SystemExit(f"bench: no cascadyn source at {SRC}; run from a checkout of the repo")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from spans import NULL, PASS_ROOT, SETUP_ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from world import DEFAULT_WORLD_SEED, FULL, SMOKE, build_world  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("rmsle", "1"),
)

FIT_KINDS = ("newer", "weibull", "exponential", "rayleigh", "cox")

PER_LAYER = (
    ("simulate.gen_network_s", "s"),
    ("simulate.gen_user_dynamics_s", "s"),
    ("simulate.gen_cascades_s", "s"),
    ("simulate.events", "count"),
    ("simulate.cascades_kept", "count"),
    ("simulate.self_s", "s"),
    ("features.extract_subcascades_s", "s"),
    ("features.extract_features_s", "s"),
    ("features.calls", "count"),
    ("features.users_with_samples", "count"),
    ("features.users_min_events", "count"),
    ("features.self_s", "s"),
    *((f"fitting.fit_s.{kind}", "s") for kind in FIT_KINDS),
    *((f"fitting.iterations.{kind}", "count") for kind in ("newer", "weibull", "cox")),
    ("fitting.converged_share", "ratio"),
    ("fitting.users_fitted", "count"),
    ("fitting.self_s", "s"),
    ("evaluate.self_s", "s"),
    ("evaluate.loglinear_s", "s"),
    ("evaluate.folds", "count"),
    ("evaluate.predictions_scored", "count"),
    ("predict.build_s", "s"),
    ("predict.final_size_s", "s"),
    ("predict.outbreak_time_s", "s"),
    ("predict.process_curve_s", "s"),
    ("predict.observed_rows", "count"),
    ("predict.rows_with_replies", "count"),
    ("predict.lookups.fitted", "count"),
    ("predict.lookups.regressed", "count"),
    ("predict.lookups.fallback", "count"),
    ("predict.outbreak_searched", "count"),
    ("predict.outbreak_none", "count"),
    ("predict.feed_event_s", "s"),
    ("predict.query_size_s", "s"),
    ("predict.reply_updates", "count"),
    ("predict.timer_recalcs", "count"),
    ("predict.max_recalcs_per_subcascade", "count"),
    ("predict.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.root_self_s", "s"),
    ("trace.root_children_s", "s"),
    ("trace_overhead_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=DEFAULT_WORLD_SEED)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _settle() -> None:
    """Start each timed pass from the same collector state: collect, then
    exempt everything alive (the world, the first pass's outputs) from later
    collections, so their cost does not grow with the run."""
    gc.collect()
    gc.freeze()


def _timed_pass(workload, tracer):
    _settle()
    start = time.perf_counter()
    with tracer.span(PASS_ROOT):
        result = workload.run_pass(tracer)
    result.wall_s = time.perf_counter() - start
    return result


def run_workload(name: str, args) -> dict:
    """One workload in this process: set-ups, timed passes, checks, metrics.

    The untraced run alternates set-ups with shares of the timed passes, so
    both samples spread over the whole run rather than one stretch of the
    host's drifting speed. The traced run sets up once, under its tracer,
    and pairs each untraced pass with a traced one.
    """
    scale = SMOKE if args.smoke else FULL
    cfg = replace(scale.world, seed=args.world_seed)
    fit = name != "crossval"
    tracer = Tracer() if args.trace else None
    segments = 1 if tracer else scale.setup_repeats
    setup_times, passes, traced = [], [], []
    failed_checks = failed_repeats = 0
    measured = 0.0

    def keep(result, into):
        """Check the first pass's outputs; count the outputs of a later pass
        that differ from them, then drop those so memory stays flat."""
        nonlocal failed_checks, failed_repeats, measured
        measured += result.wall_s
        if passes:
            failed_repeats += sum(a != b for a, b in zip(result.outputs, passes[0].outputs))
            result.outputs = []
        else:
            failed_checks = workload.failures(result)
        result.kept = []
        into.append(result)

    world = workload = None
    for segment in range(segments):
        if tracer:
            with tracer.span(SETUP_ROOT):
                world = build_world(cfg, tracer, fit=fit)
        else:
            world = workload = None  # let the previous world go first
            gc.unfreeze()
            gc.collect()
            start = time.perf_counter()
            world = build_world(cfg, NULL, fit=fit)
            setup_times.append(time.perf_counter() - start)
        workload = WORKLOADS[name](world, scale, args.seed)
        while not passes or measured < args.seconds * (segment + 1) / segments:
            keep(_timed_pass(workload, NULL), passes)
            if tracer:
                keep(_timed_pass(workload, tracer), traced)

    gc.unfreeze()  # the collector's state is the whole process's
    first = passes[0]
    attempted = sum(p.attempted for p in passes + traced)
    failed = min(failed_checks + failed_repeats, attempted)

    # each operation's median over the passes, so a burst of host noise
    # during one pass does not move the percentiles
    latencies = np.median(np.vstack([np.asarray(p.latencies_s) for p in passes]), axis=0)
    if tracer:
        tracer.run_deferred()
        metrics = layer_metrics(tracer, traced, passes)
        tracer.write(BENCH / "out" / f"trace-{name}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "ops_per_s": statistics.median(p.ops / p.wall_s for p in passes),
            "op_p50_us": float(np.percentile(latencies, 50)) * 1e6,
            "op_p99_us": float(np.percentile(latencies, 99)) * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rmsle": workload.rmsle(first),
        }
    units = dict(PER_LAYER if tracer else END_TO_END)
    stamp = {
        "workload": name,
        "seed": args.seed,
        "world_seed": args.world_seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "failed": {"checks": failed_checks, "repeats": failed_repeats},
        "samples": {
            "setup_s": len(setup_times),
            "wall_s": len(passes),
            "traced_passes": len(traced),
            "op_p50_us": len(latencies),
            "op_p99_us": len(latencies),
            "rmsle": len(workload.cascades),
        },
    }
    return {
        "stamp": stamp,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        },
    }


def layer_metrics(tracer: Tracer, traced, passes) -> dict:
    """Per-layer metrics over one set-up plus the mean traced pass."""
    summary = tracer.summary()
    time_of, self_of = summary["time"], summary["self_by_name"]
    layer_self, counts = summary["self"], summary["counts"]
    fits = counts.get("fitting.fits", 0.0)
    metrics = {
        "simulate.gen_network_s": time_of.get("simulate.gen_network", 0.0),
        "simulate.gen_user_dynamics_s": time_of.get("simulate.gen_user_dynamics", 0.0),
        "simulate.gen_cascades_s": time_of.get("simulate.gen_cascades", 0.0),
        "features.extract_subcascades_s": time_of.get("features.extract_subcascades", 0.0),
        "features.extract_features_s": time_of.get("features.extract_features", 0.0),
        "fitting.converged_share": counts.get("fitting.converged", 0.0) / fits if fits else 0.0,
        "evaluate.self_s": self_of.get("evaluate.run_experiment", 0.0),
        "evaluate.loglinear_s": (time_of.get("evaluate.loglinear_fit", 0.0)
                                 + time_of.get("evaluate.loglinear_predict", 0.0)),
        "predict.max_recalcs_per_subcascade":
            summary["maxima"].get("predict.max_recalcs_per_subcascade", 0.0),
        "trace.wall_s": statistics.fmean(p.wall_s for p in traced),
        "trace.root_self_s": summary["root"]["self_s"],
        "trace.root_children_s": summary["root"]["children_s"],
        "trace_overhead_s": (statistics.fmean(p.wall_s for p in traced)
                             - statistics.fmean(p.wall_s for p in passes)),
    }
    for kind in FIT_KINDS:
        metrics[f"fitting.fit_s.{kind}"] = time_of.get(f"fitting.fit.{kind}", 0.0)
    for op in ("build", "final_size", "outbreak_time", "process_curve",
               "feed_event", "query_size"):
        metrics[f"predict.{op}_s"] = time_of.get(f"predict.{op}", 0.0)
    for layer in ("simulate", "features", "fitting", "predict"):
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for name, unit in PER_LAYER:
        if name not in metrics:
            metrics[name] = counts.get(name, 0.0)
    return metrics


def git_sha() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_metrics(name: str, metrics: dict, samples: dict) -> None:
    for key, metric in metrics.items():
        n = samples.get(key)
        note = f"  ({n} samples)" if n is not None else ""
        print(f"{name:9s} {key:38s} {metric['value']:>16.6g} {metric['unit']}{note}")


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--world-seed", str(args.world_seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args)
    print_metrics(args.workload, out["result"]["metrics"], out["stamp"]["samples"])
    print(json.dumps({"stamp": out["stamp"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
