"""Metrics, experiment protocols and dominance diagnostics.

Absolute headline numbers depend on the data; the protocols here report
model rankings and boundary behavior on whatever cascade set they are given,
at desk scale.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, NumericsError
from .features import Cascade, Network, extract_features, extract_subcascades, network_rows
from .fitting import (
    DEFAULT_HYPERPARAMS,
    FitOptions,
    Hyperparams,
    fit_model,
)
from .predict import BasicPredictor, ModelDynamics, PartialCascade, PrefixBatch, ProcessCurve

__all__ = [
    "PredictionRecord",
    "rmsle",
    "sigma_precision",
    "process_precision",
    "stratified_folds",
    "run_experiment",
    "ExperimentReport",
    "dominance_report",
    "LogLinearModel",
]

PROTOCOLS = ("size", "outbreak", "process", "out_of_sample")
SURVIVAL_MODEL_KINDS = ("newer", "weibull", "exponential", "rayleigh", "cox")


@dataclass(frozen=True)
class PredictionRecord:
    cascade_id: str
    truth: float
    predicted: float
    task: str = "size"


def _check_sigma(sigma: float) -> None:
    if not (0.0 < sigma < 1.0):
        raise DataError(f"sigma must lie in (0, 1), got {sigma}")


def _columns(records: Iterable[PredictionRecord]) -> tuple[list, list, list]:
    """Cascade ids, truths and predictions of the records, as three lists."""
    records = list(records)
    return ([r.cascade_id for r in records], [r.truth for r in records],
            [r.predicted for r in records])


def _finite(metric: str, ids: Sequence[str], truth, predicted) -> tuple[np.ndarray, np.ndarray]:
    """Truths and predictions as float arrays; refuses none at all and a NaN
    or infinite value, naming the first such record."""
    t = np.asarray(truth, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if t.size == 0:
        raise DataError(f"{metric} needs at least one record")
    bad = ~(np.isfinite(t) & np.isfinite(p))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"{metric} requires finite values, got ({predicted[i]}, "
                        f"{truth[i]}) for cascade {ids[i]!r}")
    return t, p


def _rmsle(ids: Sequence[str], truth, predicted) -> float:
    t, p = _finite("rmsle", ids, truth, predicted)
    bad = (t <= 0) | (p <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(
            f"rmsle requires positive values, got ({predicted[i]}, {truth[i]}) "
            f"for cascade {ids[i]!r}"
        )
    # libm's log and pow, in record order, as a loop over records takes them:
    # numpy's vector log and square differ from them in the last bit for
    # about one value in a few thousand
    n = t.size
    d = (np.fromiter(map(math.log, p.tolist()), float, n)
         - np.fromiter(map(math.log, t.tolist()), float, n))
    return math.sqrt(sum(map(pow, d.tolist(), repeat(2))) / n)


def _in_band(truth: np.ndarray, predicted: np.ndarray, sigma: float) -> np.ndarray:
    """Whether each prediction lies within truth * (1 +- sigma)."""
    with np.errstate(over="ignore"):  # a band edge past the largest float is inf
        return (truth * (1.0 - sigma) <= predicted) & (predicted <= truth * (1.0 + sigma))


def _sigma_precision(ids: Sequence[str], truth, predicted, sigma: float) -> float:
    t, p = _finite("sigma_precision", ids, truth, predicted)
    return int(np.count_nonzero(_in_band(t, p, sigma))) / t.size  # a float for the CSV's repr


def rmsle(records: Iterable[PredictionRecord]) -> float:
    """Root mean squared error of log predictions vs log truth."""
    return _rmsle(*_columns(records))


def sigma_precision(records: Iterable[PredictionRecord], sigma: float = 0.2) -> float:
    """Fraction of predictions within truth * (1 +- sigma)."""
    _check_sigma(sigma)
    return _sigma_precision(*_columns(records), sigma)


def process_precision(curve_pred: ProcessCurve, curve_truth: ProcessCurve,
                      sigma: float = 0.2) -> float:
    """Fraction of grid points where the predicted size is within the sigma
    band of the true size. Both curves must share the same grid."""
    _check_sigma(sigma)
    if list(curve_pred.times) != list(curve_truth.times):
        raise DataError("process curves are defined on different time grids")
    hits = _in_band(np.array(curve_truth.sizes, dtype=float),
                    np.array(curve_pred.sizes, dtype=float), sigma)
    return int(np.count_nonzero(hits)) / len(curve_pred.times)


# ---------------------------------------------------------------------------
# Protocol machinery
# ---------------------------------------------------------------------------

def stratified_folds(cascades: Sequence[Cascade], n_folds: int, seed: int) -> list[list[int]]:
    """Fold indices stratified by log-size decile to tame power-law variance."""
    if n_folds < 2:
        raise DataError(f"need at least 2 folds, got {n_folds}")
    if len(cascades) < n_folds:
        raise DataError(f"{len(cascades)} cascades cannot fill {n_folds} folds")
    log_sizes = np.log([c.size for c in cascades])
    edges = np.quantile(log_sizes, np.linspace(0.1, 0.9, 9))
    strata = np.searchsorted(edges, log_sizes, side="right")
    rng = np.random.default_rng([seed, 7])
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    cursor = 0
    for s in sorted(set(strata.tolist())):
        members = [i for i in range(len(cascades)) if strata[i] == s]
        rng.shuffle(members)
        for i in members:
            folds[cursor % n_folds].append(i)
            cursor += 1
    if any(not f for f in folds):
        raise DataError("insufficient cascades for a fold")
    return [sorted(f) for f in folds]


class LogLinearModel:
    """Regression of log final size on early-stage cascade features."""

    FEATURES = ("observed_size", "growth_speed", "root_followers",
                "mean_followers", "max_depth", "mean_depth")

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)

    @staticmethod
    def design_rows(cascades: Sequence[Cascade], prefix: int, net: Network) -> np.ndarray:
        """Log features of each cascade's first ``prefix`` events, one row
        per cascade in ``FEATURES`` order, in one pass over the cascades'
        cached arrays."""
        cascades = list(cascades)
        if not cascades:
            return np.empty((0, len(LogLinearModel.FEATURES)))
        lengths = np.array([min(prefix, c.size) for c in cascades], dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        times = np.concatenate([c.times[:prefix] for c in cascades])
        depths = np.concatenate([c.depths[:prefix] for c in cascades])
        rows = network_rows(net, cascades, lengths)
        followers = net.follower_ptr[rows + 1] - net.follower_ptr[rows]
        duration = times[starts + lengths - 1] - times[starts] + 1.0
        # the root has depth 0, so the depth sums and maxima run over the
        # later events alone; a one-event prefix has neither
        later = lengths - 1
        mean_depth = np.divide(np.add.reduceat(depths, starts), later,
                               out=np.zeros(len(cascades)), where=later > 0)
        return np.log(np.column_stack([
            np.full(len(cascades), float(prefix)),
            prefix / duration,
            followers[starts] + 1.0,
            np.add.reduceat(followers, starts) / lengths + 1.0,
            np.maximum.reduceat(depths, starts) + 1.0,
            mean_depth + 1.0,
        ]))

    @classmethod
    def fit(cls, cascades: Sequence[Cascade], prefix: int, net: Network) -> "LogLinearModel":
        usable = [c for c in cascades if c.size > prefix]
        if not usable:
            raise DataError(f"no training cascade is larger than prefix {prefix}")
        design = np.column_stack([cls.design_rows(usable, prefix, net), np.ones(len(usable))])
        y = np.log([c.size for c in usable])
        w, *_ = np.linalg.lstsq(design, y, rcond=None)
        return cls(w)

    def predict_final(self, cascades: Sequence[Cascade], prefix: int,
                      net: Network) -> np.ndarray:
        """Predicted final size of each cascade, floored at ``prefix``."""
        rows = self.design_rows(cascades, prefix, net)
        design = np.column_stack([rows, np.ones(len(rows))])
        return np.maximum(np.exp(design @ self.weights), float(prefix))


@dataclass
class ExperimentReport:
    protocol: str
    sigma: float
    rows: list[dict]
    notes: list[str]

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / f"{self.protocol}_results.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "sweep", "n", "rmsle", "precision"])
            for row in self.rows:
                writer.writerow([row["model"], row["sweep"], row["n"],
                                 repr(row["rmsle"]), repr(row["precision"])])
        summary = {
            "protocol": self.protocol,
            "sigma": self.sigma,
            "rows": self.rows,
            "notes": self.notes,
        }
        (outdir / f"{self.protocol}_summary.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8"
        )


LOGLINEAR_SKIPPED = {
    "outbreak": "loglinear cannot predict outbreak times; skipped",
    "process": "loglinear cannot predict process curves; skipped",
    "out_of_sample": "loglinear is not an out-of-sample dynamics model; skipped",
}


def _aggregate(scored: dict[tuple[str, object], list[tuple]], sigma: float,
               precisions: dict[tuple[str, object], list[np.ndarray]]) -> list[dict]:
    """One row per (model, sweep) from its batches of (cascade ids, truths,
    predictions). When ``precisions`` holds arrays of one value per process
    curve, ``n`` counts curves and ``precision`` is their mean."""
    rows = []
    for key in sorted(scored, key=lambda key: (key[0], str(key[1]))):
        ids, truth, predicted = zip(*scored[key])
        columns = ([i for batch in ids for i in batch], np.concatenate(truth),
                   np.concatenate(predicted))
        if precisions:
            curves = np.concatenate(precisions[key])
            n, precision = len(curves), float(np.mean(curves))
        else:
            n, precision = len(columns[0]), _sigma_precision(*columns, sigma)
        rows.append({
            "model": key[0],
            "sweep": key[1],
            "n": n,
            "rmsle": _rmsle(*columns),
            "precision": precision,
        })
    return rows


def _check_against_reference(batch: PrefixBatch, sizes: np.ndarray,
                             dynamics: ModelDynamics) -> None:
    """Recompute the batch's longest observation with a ``BasicPredictor``
    and refuse a batched final size that differs by more than rounding.

    This guards the many-cut layout (rows concatenated, parent positions
    shifted, replies counted by one global ``bincount``) against the
    one-cut layout a predictor reads from its partial cascade, on the data
    each run scores; property tests cover small random worlds only. It
    stays while the benchmark's crossval ``predict.build_s`` and
    ``predict.lookups.*`` count the predictor built here, until a benchmark
    change moves those counters.
    """
    j = int(np.argmax(batch.lengths))
    pc = batch.observations[j]
    reference = BasicPredictor(pc, dynamics).final_size()
    if not math.isclose(sizes[j], reference, rel_tol=1e-9):
        raise NumericsError(f"batched final size {sizes[j]} of cascade {pc.cascade_id!r} "
                            f"differs from the predictor's {reference}")


def run_experiment(protocol: str, cascades: Sequence[Cascade], net: Network,
                   models: Sequence[str] = ("newer", "exponential", "rayleigh", "cox"),
                   *, folds: int = 10, prefix_sizes: Sequence[int] = (5, 10, 25),
                   early_fractions: Sequence[float] = (0.1, 0.25, 0.5),
                   sigma: float = 0.2, outbreak_threshold: int = 1000,
                   hidden_fraction: float = 0.1, grid_points: int = 20,
                   seed: int = 0, hyperparams: Hyperparams = DEFAULT_HYPERPARAMS,
                   options: FitOptions | None = None) -> ExperimentReport:
    """Run one evaluation protocol and aggregate RMSLE / sigma-precision
    per model across the protocol's sweep variable.

    ``size``, ``outbreak`` and ``process`` score each ``stratified_folds``
    fold against models fitted on the others. ``out_of_sample`` fits once on
    every cascade with some users' samples hidden, and scores the prefixes
    holding a hidden user. Only ``size`` scores ``loglinear``.

    Each split's scored observations form one ``PrefixBatch``, which each
    model queries once (``final_sizes``, ``outbreak_times``, or ``sizes_at``
    on each observation's grid), plus one ``LogLinearModel.predict_final``
    per prefix size. True curves take one ``searchsorted`` per observation,
    and the curves' sigma-band precisions one array pass.
    """
    if protocol not in PROTOCOLS:
        raise DataError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    for kind in models:
        if kind not in SURVIVAL_MODEL_KINDS and kind != "loglinear":
            raise DataError(f"unknown model kind {kind!r}")
    _check_sigma(sigma)
    if protocol == "process":
        for frac in early_fractions:
            if not 0.0 <= frac <= 1.0:  # also refuses NaN; infinities lie outside
                raise DataError(f"early fraction {frac} is not a finite value in [0, 1]")
    else:
        for s in prefix_sizes:
            if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s < 1:
                raise DataError(f"prefix size {s!r} is not an integer >= 1")
    opts = options or FitOptions()
    cascades = list(cascades)
    n_nodes = net.n_nodes
    kinds = [m for m in models if m != "loglinear"]
    with_loglinear = protocol == "size" and "loglinear" in models
    notes = [LOGLINEAR_SKIPPED[protocol]] if protocol != "size" and "loglinear" in models else []

    sweeps = early_fractions if protocol == "process" else prefix_sizes
    if protocol == "outbreak":
        if not any(c.size >= outbreak_threshold for c in cascades):
            raise DataError(f"no cascade reaches the outbreak threshold {outbreak_threshold}")
        horizon = max(c.events[-1].t for c in cascades)
        sweeps = [s for s in prefix_sizes if s < outbreak_threshold]
    # each split: training cascades, test cascades, and the training samples
    # when they are not simply those of the training cascades
    if protocol == "out_of_sample":
        all_samples = extract_subcascades(cascades)
        eligible = sorted(u for u, s in all_samples.items() if s.n >= opts.min_events)
        if len(eligible) < 2:
            raise DataError("too few users with samples to hide any")
        rng = np.random.default_rng([seed, 91])
        n_hidden = max(1, int(round(hidden_fraction * len(eligible))))
        hidden = set(rng.choice(eligible, size=n_hidden, replace=False).tolist())
        visible = {u: s for u, s in all_samples.items() if u not in hidden}
        splits = [(cascades, cascades, visible)]
    else:
        held_out = [set(fold) for fold in stratified_folds(cascades, folds, seed)]
        splits = [([c for i, c in enumerate(cascades) if i not in held],
                   [c for i, c in enumerate(cascades) if i in held], None) for held in held_out]

    def scored(cascade: Cascade, sweep) -> PartialCascade | None:
        """The observation scored on a test cascade at one sweep value, if any."""
        if protocol == "process":
            t0, t_end = cascade.root.t, cascade.events[-1].t
            if t_end <= t0:
                return None
            return PartialCascade.from_cascade(cascade, t0 + sweep * (t_end - t0), n_nodes)
        if cascade.size <= sweep or (protocol == "outbreak" and cascade.size < outbreak_threshold):
            return None
        if protocol == "out_of_sample" and not {e.user for e in cascade.events[:sweep]} & hidden:
            return None
        return PartialCascade.first_events(cascade, sweep, n_nodes)

    scores: dict[tuple[str, object], list[tuple]] = {}
    precisions: dict[tuple[str, object], list[np.ndarray]] = {}

    def score(kind: str, sweep, ids: Sequence[str], truth, predicted) -> None:
        if len(ids):
            scores.setdefault((kind, sweep), []).append((ids, truth, predicted))

    for train, test, samples in splits:
        if samples is None:
            samples = extract_subcascades(train)
        feats = extract_features(net, train)
        fitted = {kind: ModelDynamics(fit_model(kind, samples, feats, hyperparams, opts)[0], feats)
                  for kind in kinds}
        loglinear = ({s: LogLinearModel.fit(train, s, net) for s in prefix_sizes}
                     if with_loglinear else {})
        # every scored observation of the split, in cascade then sweep order
        points = [(cascade, sweep, pc) for cascade in test for sweep in sweeps
                  if (pc := scored(cascade, sweep)) is not None]
        if not points:
            continue
        batch = PrefixBatch([pc for _, _, pc in points])
        if protocol == "process":
            t_end = np.array([cascade.events[-1].t for cascade, _, _ in points])
            grids = np.linspace(batch.t_limits, t_end, grid_points, axis=1)
            truths = np.array([np.searchsorted(cascade.times, grid, side="right")
                               for (cascade, _, _), grid in zip(points, grids)], dtype=float)
        elif protocol == "outbreak":
            t0 = np.array([cascade.root.t for cascade, _, _ in points])
            t_max = batch.t_limits + 2.0 * (horizon - t0) + 1.0
            truths = np.array([c.times[outbreak_threshold - 1] for c, _, _ in points]) - t0 + 1.0
        else:
            truths = np.array([cascade.size for cascade, _, _ in points], dtype=float)
        by_sweep = {}
        for s in dict.fromkeys(sweeps):
            at = [j for j, (_, sweep, _) in enumerate(points) if sweep == s]
            by_sweep[s] = at, [points[j][0] for j in at], [points[j][0].cascade_id for j in at]
        for kind, dyn in fitted.items():
            if protocol == "process":
                curves = np.maximum.accumulate(batch.sizes_at(dyn, grids), axis=1)
                hits = np.count_nonzero(_in_band(truths, curves, sigma), axis=1) / grid_points
                for s, (at, _, ids) in by_sweep.items():
                    if len(at):
                        precisions.setdefault((kind, s), []).append(hits[at])
                    score(kind, s, [cid for cid in ids for _ in range(grid_points)],
                          truths[at].ravel(), curves[at].ravel())
                continue
            if protocol == "outbreak":
                pred_t = batch.outbreak_times(dyn, outbreak_threshold, t_max)
                # "never" is capped at the search horizon
                predicted = np.where(np.isnan(pred_t), t_max, pred_t) - t0 + 1.0
            else:
                predicted = batch.final_sizes(dyn)
                _check_against_reference(batch, predicted, dyn)
            for s, (at, _, ids) in by_sweep.items():
                score(kind, s, ids, truths[at], predicted[at])
        for s, model in loglinear.items():
            at, cs, ids = by_sweep[s]
            score("loglinear", s, ids, truths[at], model.predict_final(cs, s, net))
    if not scores:
        if protocol == "out_of_sample":
            raise DataError("no test cascade contains a hidden user in its prefix")
        raise DataError(f"the {protocol} protocol scored no prediction on these cascades")
    return ExperimentReport(protocol=protocol, sigma=sigma,
                            rows=_aggregate(scores, sigma, precisions), notes=notes)


# ---------------------------------------------------------------------------
# Dominance diagnostics
# ---------------------------------------------------------------------------

def dominance_report(cascades: Iterable[Cascade]) -> dict:
    """Descriptive report of how concentrated cascade generation is: per-user
    shares of generated children and the join times of the dominant users."""
    per_cascade = []
    for cascade in sorted(cascades, key=lambda c: c.cascade_id):
        children: dict[str, int] = {}
        join_time = {ev.user: ev.t for ev in cascade.events}
        for ev in cascade.events:
            if ev.parent is not None:
                children[ev.parent] = children.get(ev.parent, 0) + 1
        total = cascade.size - 1
        t0, t_end = cascade.root.t, cascade.events[-1].t
        span = max(t_end - t0, 1.0)
        contributors = sorted(children.items(), key=lambda kv: (-kv[1], kv[0]))
        shares = [c / total for _, c in contributors] if total else []
        cumulative = np.cumsum(shares).tolist() if shares else []
        half_idx = next((i for i, c in enumerate(cumulative) if c >= 0.5), None)
        dominant = [u for u, _ in contributors[: (half_idx + 1)]] if half_idx is not None else []
        dom_times = sorted((join_time[u] - t0) / span for u in dominant)
        top_count = max(1, math.ceil(0.01 * cascade.size))
        share_top_1pct = float(sum(shares[:top_count])) if shares else 0.0
        per_cascade.append({
            "cascade": cascade.cascade_id,
            "size": cascade.size,
            "shares": shares,
            "cumulative": cumulative,
            "top_share": shares[0] if shares else 0.0,
            "share_top_1pct": share_top_1pct,
            "dominant_join_quantiles": (
                [float(np.quantile(dom_times, q)) for q in (0.25, 0.5, 0.75)]
                if dom_times else []
            ),
        })
    agg = {
        "n_cascades": len(per_cascade),
        "mean_top_share": float(np.mean([c["top_share"] for c in per_cascade]))
        if per_cascade else 0.0,
        "mean_share_top_1pct": float(np.mean([c["share_top_1pct"] for c in per_cascade]))
        if per_cascade else 0.0,
    }
    return {"cascades": per_cascade, "aggregate": agg}
