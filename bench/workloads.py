"""The three workloads. Each runs identical passes over its inputs on the
fixed world and checks the outputs of its first pass; every later pass must
repeat them exactly.

crossval  one ``run_experiment("size", ...)`` call per pass on every kept
          cascade; fitting (cox above all) and the fold loop do the work,
          the streaming estimator none. Its inputs do not depend on the seed:
          the fold split alone changes cox's fit time by a fifth or more, on
          top of the run-to-run noise the bounds must absorb, so every run
          uses acceptance 09's split.
forecast  the in-process ``cascadyn predict --task all`` path for every kept
          cascade: observe 30% of its lifetime, then final size, outbreak
          time and a 20-point process curve from a fresh ``ModelDynamics``;
          batch reads of ``BasicPredictor``, no fitting.
stream    every event of the largest cascades fed to ``SamplingPredictor``
          with a ``query_size`` after each; small writes to the same
          prediction code, per-event scalar work.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from cascadyn.evaluate import PredictionRecord, rmsle, run_experiment
from cascadyn.fitting import FitOptions
from cascadyn.predict import (
    DEFAULT_SEARCH_WINDOW,
    BasicPredictor,
    ModelDynamics,
    PartialCascade,
    SamplingPredictor,
)

from spans import count_rows, evaluate_wrappers

OBSERVE_FRAC = 0.3
# The paper's outbreak threshold is 1000, but only 3 acceptance-world
# cascades reach it, so the binary search would almost never run.
OUTBREAK_THRESHOLD = 100
GRID_POINTS = 20
EPSILON = 0.1
STREAM_CHECKPOINTS = 12  # per cascade, drawn by the seed, plus the last event
PREFIX_SIZES = (5, 10, 25)
CROSSVAL_MODELS = ("newer", "weibull", "exponential", "rayleigh", "cox", "loglinear")
# newer must score no worse than any other model, as in acceptance 09
CROSSVAL_BASELINES = ("weibull", "exponential", "rayleigh", "cox", "loglinear")
CROSSVAL_OPTIONS = FitOptions(tol=1e-6)
CROSSVAL_FOLD_SEED = 0


@dataclass
class Pass:
    """One pass: its wall time, per-operation latencies and its outputs.

    ``attempted`` counts the operations the checks judge; ``ops`` counts the
    work behind ``ops_per_s``. They differ only for crossval, whose checked
    operations are newer's comparisons with each baseline at each prefix
    size, whose work is the predictions scored, and whose latency is that of
    a whole ``run_experiment`` call.
    """

    wall_s: float = 0.0
    latencies_s: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    ops: int = 0
    outputs: list = field(default_factory=list)
    kept: list = field(default_factory=list)  # objects the checks need


def _observe(cascade, network_size: int) -> PartialCascade:
    t0, t_end = cascade.root.t, cascade.events[-1].t
    return PartialCascade.from_cascade(cascade, t0 + OBSERVE_FRAC * (t_end - t0), network_size)


def _rmsle(cascades, predictions) -> float:
    return rmsle(PredictionRecord(c.cascade_id, float(c.size), float(p))
                 for c, p in zip(cascades, predictions))


class Crossval:
    name = "crossval"

    def __init__(self, world, scale, seed: int):
        self.net = world.net
        self.cascades = world.cascades
        self.folds = scale.crossval_folds

    def run_pass(self, tracer) -> Pass:
        result = Pass(attempted=len(PREFIX_SIZES) * len(CROSSVAL_BASELINES))
        wrappers = (evaluate_wrappers(tracer, CROSSVAL_OPTIONS.min_events)
                    if tracer.enabled else nullcontext())
        with wrappers:
            start = time.perf_counter()
            with tracer.span("evaluate.run_experiment"):
                report = run_experiment(
                    "size", self.cascades, self.net, models=CROSSVAL_MODELS,
                    folds=self.folds, prefix_sizes=PREFIX_SIZES, seed=CROSSVAL_FOLD_SEED,
                    options=CROSSVAL_OPTIONS)
            result.latencies_s.append(time.perf_counter() - start)
        scores = {(row["model"], row["sweep"]): row["rmsle"] for row in report.rows}
        result.ops = sum(row["n"] for row in report.rows)
        result.outputs = [scores]
        tracer.count("evaluate.folds", self.folds)
        tracer.count("evaluate.predictions_scored", result.ops)
        return result

    def failures(self, first: Pass) -> int:
        """Comparisons, one per baseline and prefix size, that newer loses."""
        scores = first.outputs[0]
        return sum(1 for s in PREFIX_SIZES for baseline in CROSSVAL_BASELINES
                   if not scores[("newer", s)] <= scores[(baseline, s)])

    def rmsle(self, first: Pass) -> float:
        scores = first.outputs[0]
        return sum(scores[("newer", s)] for s in PREFIX_SIZES) / len(PREFIX_SIZES)


class Forecast:
    name = "forecast"

    def __init__(self, world, scale, seed: int):
        self.world = world
        order = np.random.default_rng([seed, 12]).permutation(len(world.cascades))
        self.cascades = [world.cascades[i] for i in order]

    def run_pass(self, tracer) -> Pass:
        world = self.world
        n_nodes = world.net.n_nodes
        result = Pass(attempted=len(self.cascades), ops=len(self.cascades))
        with tracer.span("predict.model_dynamics"):
            dynamics = ModelDynamics(world.model, world.features)
        for cascade in self.cascades:
            start = time.perf_counter()
            with tracer.span("predict.observe"):
                pc = _observe(cascade, n_nodes)
            with tracer.span("predict.build"):
                predictor = BasicPredictor(pc, dynamics)
            with tracer.span("predict.final_size"):
                final = predictor.final_size()
            with tracer.span("predict.outbreak_time"):
                outbreak = predictor.outbreak_time(OUTBREAK_THRESHOLD)
            with tracer.span("predict.process_curve"):
                grid = np.linspace(pc.t_limit, max(cascade.events[-1].t, pc.t_limit),
                                   GRID_POINTS)
                curve = predictor.process_curve(grid.tolist())
            result.latencies_s.append(time.perf_counter() - start)
            result.outputs.append((final, outbreak, tuple(curve.sizes)))
            result.kept.append(predictor)
            if tracer.enabled:
                tracer.defer(_forecast_counter(pc, dynamics, final, outbreak))
        return result

    def failures(self, first: Pass) -> int:
        """Cascades whose outputs break a guarantee: the size at t_limit is
        the observed size exactly, the curve never decreases, and an outbreak
        time t has size_at(t) >= threshold > size_at(t - 1)."""
        failed = 0
        for predictor, (final, outbreak, sizes) in zip(first.kept, first.outputs):
            pc = predictor.pc
            ok = predictor.size_at(pc.t_limit) == float(pc.size)
            ok = ok and all(b >= a for a, b in zip(sizes, sizes[1:]))
            if outbreak is None:
                ok = ok and (final < OUTBREAK_THRESHOLD or predictor.size_at(
                    pc.t_limit + DEFAULT_SEARCH_WINDOW) < OUTBREAK_THRESHOLD)
            elif outbreak == pc.t_limit:  # t - 1 precedes what was observed
                ok = ok and predictor.size_at(outbreak) >= OUTBREAK_THRESHOLD
            else:
                ok = ok and (predictor.size_at(outbreak) >= OUTBREAK_THRESHOLD
                             > predictor.size_at(outbreak - 1.0))
            failed += not ok
        return failed

    def rmsle(self, first: Pass) -> float:
        return _rmsle(self.cascades, [final for final, _, _ in first.outputs])


def _forecast_counter(pc, dynamics, final, outbreak):
    def count(tracer):
        count_rows(tracer, pc, dynamics)
        searched = pc.size < OUTBREAK_THRESHOLD <= final
        tracer.count("predict.outbreak_searched", searched)
        tracer.count("predict.outbreak_none", outbreak is None)
    return count


class Stream:
    name = "stream"

    def __init__(self, world, scale, seed: int):
        self.world = world
        big = [c for c in world.cascades if c.size >= scale.stream_min_events]
        rng = np.random.default_rng([seed, 13])
        self.cascades = [big[i] for i in rng.permutation(len(big))]
        self.checkpoints = []
        for c in self.cascades:
            drawn = rng.choice(c.size - 1, size=min(STREAM_CHECKPOINTS, c.size - 1),
                               replace=False)
            self.checkpoints.append(frozenset(drawn.tolist()) | {c.size - 1})

    def run_pass(self, tracer) -> Pass:
        world = self.world
        n_nodes = world.net.n_nodes
        result = Pass()
        with tracer.span("predict.model_dynamics"):
            dynamics = ModelDynamics(world.model, world.features)
        latencies = result.latencies_s
        for cascade, checkpoints in zip(self.cascades, self.checkpoints):
            sampler = SamplingPredictor(n_nodes, EPSILON, dynamics)
            t0, t_end = cascade.root.t, cascade.events[-1].t
            t_cut = t0 + OBSERVE_FRAC * (t_end - t0)
            at_cut = None
            estimates = []
            for i, ev in enumerate(cascade.events):
                if at_cut is None and ev.t > t_cut:
                    with tracer.span("predict.query_size"):
                        at_cut = sampler.query_size(t_cut)
                start = time.perf_counter()
                with tracer.span("predict.feed_event"):
                    sampler.feed_event(ev.user, ev.parent, ev.t)
                with tracer.span("predict.query_size"):
                    estimate = sampler.query_size(ev.t)
                latencies.append(time.perf_counter() - start)
                if i in checkpoints:
                    estimates.append((i, estimate))
            if at_cut is None:  # every event shares the root's timestamp
                at_cut = sampler.query_size(max(t_cut, t_end))
            result.ops += cascade.size
            result.attempted += cascade.size
            result.outputs.append((at_cut, tuple(estimates)))
            result.kept.append(sampler)
            if tracer.enabled:
                tracer.defer(_stream_counter(sampler))
        return result

    def failures(self, first: Pass) -> int:
        """Checkpoints whose estimate is off ``BasicPredictor.final_size`` by
        more than epsilon, plus subcascades recalculated more than
        ceil(log_{1+eps} |V|) + 1 times."""
        n_nodes = self.world.net.n_nodes
        budget = math.ceil(math.log(n_nodes) / math.log(1.0 + EPSILON)) + 1
        dynamics = ModelDynamics(self.world.model, self.world.features)
        failed = 0
        for cascade, sampler, (_, estimates) in zip(self.cascades, first.kept, first.outputs):
            for i, estimate in estimates:
                events = cascade.events[:i + 1]
                pc = PartialCascade(cascade.cascade_id, events, events[-1].t, n_nodes)
                basic = BasicPredictor(pc, dynamics).final_size()
                failed += not abs(estimate - basic) / basic <= EPSILON
            failed += sum(1 for u in sampler.states if sampler.recalc_count(u) > budget)
        return failed

    def rmsle(self, first: Pass) -> float:
        return _rmsle(self.cascades, [at_cut for at_cut, _ in first.outputs])


def _stream_counter(sampler):
    def count(tracer):
        tracer.count("predict.reply_updates", sampler.reply_updates)
        tracer.count("predict.timer_recalcs", sampler.timer_recalcs)
        tracer.maximum("predict.max_recalcs_per_subcascade",
                       max(sampler.recalc_count(u) for u in sampler.states))
    return count


WORKLOADS = {w.name: w for w in (Crossval, Forecast, Stream)}
