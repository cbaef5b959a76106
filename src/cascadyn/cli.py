"""Command-line pipeline: simulate, fit, predict, evaluate.

Exit codes: 0 success, 1 data or numeric failure, 2 usage error. Every
subcommand is deterministic given its inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import CascadynError
from .evaluate import (
    PredictionRecord,
    run_experiment,
    rmsle,
    sigma_precision,
)
from .features import (
    extract_features,
    extract_subcascades,
    filter_cascades,
    read_cascades_jsonl,
    read_features_csv,
    read_network_csv,
    write_cascades_jsonl,
    write_features_csv,
    write_network_csv,
)
from .fitting import (
    FitOptions,
    Hyperparams,
    NewerModel,
    check_warm_start,
    fit_model,
    write_subcascades_jsonl,
)
from .predict import (
    DEFAULT_SEARCH_WINDOW,
    BasicPredictor,
    ModelDynamics,
    PartialCascade,
    SamplingPredictor,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from .simulate import SimConfig, gen_cascades, gen_network, gen_user_dynamics, write_true_params_json

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadyn",
        description="Fit per-user Weibull behavioral dynamics from cascade logs "
                    "and predict cascade size, outbreak time and growth curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic network and cascades")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--config", help="SimConfig JSON file; flags override it")
    p_sim.add_argument("--nodes", type=int)
    p_sim.add_argument("--cascades", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--exponent", type=float)
    p_sim.add_argument("--min-degree", type=int)
    p_sim.add_argument("--max-degree", type=int)
    p_sim.add_argument("--retweet-scale", type=float)
    p_sim.add_argument("--retweet-prob", type=float)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--scale-base", type=float)
    p_sim.add_argument("--shape-base", type=float)
    p_sim.add_argument("--beta", help="comma-separated ground-truth scale coefficients")
    p_sim.add_argument("--gamma", help="comma-separated ground-truth shape coefficients")

    p_fit = sub.add_parser("fit", help="fit behavioral dynamics from cascade logs")
    p_fit.add_argument("--network", required=True)
    p_fit.add_argument("--cascades", required=True)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--model", default="newer",
                       choices=["newer", "weibull", "exponential", "rayleigh", "cox"])
    p_fit.add_argument("--mu", type=float, default=10.0)
    p_fit.add_argument("--eta", type=float, default=10.0)
    p_fit.add_argument("--alpha-beta", type=float, default=6e-5)
    p_fit.add_argument("--alpha-gamma", type=float, default=8e-6)
    p_fit.add_argument("--min-size", type=int, default=5,
                       help="drop cascades smaller than this before fitting")
    p_fit.add_argument("--min-events", type=int, default=5,
                       help="exclude users with fewer subcascade events from the likelihood")
    p_fit.add_argument("--tol", type=float, default=1e-7)
    p_fit.add_argument("--max-iter", type=int, default=200)
    p_fit.add_argument("--warm-start", help="existing model JSON to start from "
                                            "(newer and weibull only)")

    p_pred = sub.add_parser("predict", help="predict cascade outcomes from early stages")
    p_pred.add_argument("--model", required=True, help="fitted model JSON")
    p_pred.add_argument("--network", required=True)
    p_pred.add_argument("--cascades", required=True)
    p_pred.add_argument("--out", required=True, help="output predictions JSONL")
    p_pred.add_argument("--features", help="feature CSV for out-of-sample users "
                                           "(defaults to extracting from the inputs)")
    p_pred.add_argument("--task", default="size",
                        choices=["size", "outbreak", "process", "all"])
    p_pred.add_argument("--mode", default="basic", choices=["basic", "sampling"])
    p_pred.add_argument("--epsilon", type=float, default=0.1)
    p_pred.add_argument("--te", default="inf",
                        help="'inf', 'now', or an offset in seconds past t_limit")
    p_pred.add_argument("--observe-frac", type=float,
                        help="observe events up to this fraction of the cascade duration")
    p_pred.add_argument("--observe-count", type=int,
                        help="observe the first N events")
    p_pred.add_argument("--t-limit", type=float,
                        help="absolute observation cutoff in seconds")
    p_pred.add_argument("--threshold", type=int, default=1000,
                        help="outbreak size threshold")
    p_pred.add_argument("--grid-points", type=int, default=20)
    p_pred.add_argument("--min-size", type=int, default=1,
                        help="skip cascades smaller than this")

    p_eval = sub.add_parser("evaluate", help="score predictions or run a protocol")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--sigma", type=float, default=0.2)
    p_eval.add_argument("--pred", help="predictions JSONL to score")
    p_eval.add_argument("--truth", help="ground-truth cascades JSONL")
    p_eval.add_argument("--threshold", type=int, default=1000)
    p_eval.add_argument("--protocol",
                        choices=["size", "outbreak", "process", "out_of_sample"],
                        help="run a full fit+predict protocol instead of scoring a file")
    p_eval.add_argument("--network")
    p_eval.add_argument("--cascades")
    p_eval.add_argument("--models", default="newer,exponential,rayleigh,cox")
    p_eval.add_argument("--folds", type=int, default=10)
    p_eval.add_argument("--prefix-sizes", default="5,10,25")
    p_eval.add_argument("--early-fractions", default="0.1,0.25,0.5")
    p_eval.add_argument("--min-size", type=int, default=5)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--mu", type=float, default=10.0)
    p_eval.add_argument("--eta", type=float, default=10.0)
    p_eval.add_argument("--alpha-beta", type=float, default=6e-5)
    p_eval.add_argument("--alpha-gamma", type=float, default=8e-6)
    return parser


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_coeffs(text: str | None):
    if text is None:
        return None
    return tuple(float(v) for v in text.split(","))


def _cmd_simulate(args) -> int:
    cfg = SimConfig.from_json(args.config) if args.config else SimConfig()
    overrides = {
        "n_nodes": args.nodes,
        "n_cascades": args.cascades,
        "seed": args.seed,
        "degree_exponent": args.exponent,
        "min_degree": args.min_degree,
        "max_degree": args.max_degree,
        "retweet_scale": args.retweet_scale,
        "retweet_prob": args.retweet_prob,
        "horizon": args.horizon,
        "scale_base": args.scale_base,
        "shape_base": args.shape_base,
        "beta_true": _parse_coeffs(args.beta),
        "gamma_true": _parse_coeffs(args.gamma),
    }
    fields = {k: v for k, v in overrides.items() if v is not None}
    if fields:
        from dataclasses import replace
        cfg = replace(cfg, **fields)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    net = gen_network(cfg)
    dynamics = gen_user_dynamics(net, cfg)
    cascades = gen_cascades(net, cfg, dynamics)
    write_network_csv(outdir / "network.csv", net)
    write_cascades_jsonl(outdir / "cascades.jsonl", cascades)
    write_true_params_json(outdir / "true_params.json", dynamics, cfg.seed)
    sizes = Counter(c.size for c in cascades)
    with open(outdir / "size_histogram.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "count"])
        for size in sorted(sizes):
            writer.writerow([size, sizes[size]])
    print(f"wrote {len(cascades)} cascades over {net.n_nodes} nodes to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    hyper = Hyperparams(mu=args.mu, eta=args.eta,
                        alpha_beta=args.alpha_beta, alpha_gamma=args.alpha_gamma)
    opts = FitOptions(tol=args.tol, max_outer=args.max_iter, min_events=args.min_events)
    if args.warm_start:
        check_warm_start(args.model)
    net = read_network_csv(args.network)
    cascades = filter_cascades(read_cascades_jsonl(args.cascades), args.min_size)
    if not cascades:
        raise CascadynError(f"no cascade has at least {args.min_size} events")
    samples = extract_subcascades(cascades)
    feats = extract_features(net, cascades)
    warm = NewerModel.load(args.warm_start) if args.warm_start else None
    model, report = fit_model(args.model, samples, feats, hyper, opts, warm_start=warm)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model.save(outdir / "model.json")
    (outdir / "fit_report.json").write_text(
        json.dumps(report.to_dict(), indent=1, allow_nan=False) + "\n", encoding="utf-8")
    write_features_csv(outdir / "features.csv", feats)
    write_subcascades_jsonl(outdir / "subcascades.jsonl", samples)
    print(f"fitted {args.model} for {len(model.user_params)} users "
          f"({report.iterations} iterations, converged={report.converged})")
    if report.lasso_capped:
        print(f"{report.lasso_capped} LASSO solves stopped at the {opts.lasso_max_iter}-step "
              f"cap before their optimality was certified")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def _observe(cascade, args, network_size: int) -> PartialCascade:
    chosen = [v is not None for v in (args.observe_frac, args.observe_count, args.t_limit)]
    if sum(chosen) > 1:
        raise CascadynError("choose only one of --observe-frac/--observe-count/--t-limit")
    if args.observe_count is not None:
        count = min(args.observe_count, cascade.size)
        return PartialCascade.first_events(cascade, count, network_size)
    if args.t_limit is not None:
        return PartialCascade.from_cascade(cascade, args.t_limit, network_size)
    frac = 0.5 if args.observe_frac is None else args.observe_frac
    if not (0.0 <= frac <= 1.0):
        raise CascadynError(f"--observe-frac must lie in [0, 1], got {frac}")
    t0, t_end = cascade.root.t, cascade.events[-1].t
    return PartialCascade.from_cascade(cascade, t0 + frac * (t_end - t0), network_size)


def _cmd_predict(args) -> int:
    if args.te not in ("inf", "now"):
        try:
            float(args.te)
        except ValueError:
            raise CascadynError(f"--te must be 'inf', 'now' or a number, got {args.te!r}")
    if args.mode == "sampling" and args.te != "inf":
        raise CascadynError(f"--te {args.te} applies to --mode basic only; --mode sampling "
                            f"estimates the final size, as --te inf does")
    model = NewerModel.load(args.model)
    net = read_network_csv(args.network)
    cascades = read_cascades_jsonl(args.cascades)
    if args.min_size > 1:
        cascades = filter_cascades(cascades, args.min_size)
    if args.features:
        feats = read_features_csv(args.features)
    else:
        feats = extract_features(net, cascades)
    dynamics = ModelDynamics(model, feats)

    def predict_one(cascade) -> dict:
        pc = _observe(cascade, args, net.n_nodes)
        basic = args.mode == "basic" or args.task != "size"
        predictor = BasicPredictor(pc, dynamics) if basic else None
        rec: dict = {"cascade": cascade.cascade_id, "t_limit": pc.t_limit}
        if args.mode == "sampling":
            sampler = SamplingPredictor(net.n_nodes, args.epsilon, dynamics)
            for ev in pc.events:
                sampler.feed_event(ev.user, ev.parent, ev.t)
            rec["final"] = sampler.query_size(pc.t_limit)
        elif args.te == "inf":
            rec["final"] = predictor.final_size()
        elif args.te == "now":
            rec["final"] = predictor.size_at(pc.t_limit)
        else:
            rec["final"] = predictor.size_at(pc.t_limit + float(args.te))
        if args.task in ("outbreak", "all"):
            rec["outbreak_t"] = predictor.outbreak_time(args.threshold)
        if args.task in ("process", "all"):
            t_end = cascade.events[-1].t
            grid = np.linspace(pc.t_limit, max(t_end, pc.t_limit), args.grid_points)
            curve = predictor.process_curve(grid.tolist())
            rec["curve"] = [[t, s] for t, s in zip(curve.times, curve.sizes)]
        return rec

    records = [predict_one(c) for c in cascades]
    write_predictions_jsonl(args.out, records)
    print(f"wrote {len(records)} predictions to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _cmd_evaluate(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.protocol:
        if not args.network or not args.cascades:
            raise CascadynError("--protocol needs --network and --cascades")
        net = read_network_csv(args.network)
        cascades = filter_cascades(read_cascades_jsonl(args.cascades), args.min_size)
        hyper = Hyperparams(mu=args.mu, eta=args.eta,
                            alpha_beta=args.alpha_beta, alpha_gamma=args.alpha_gamma)
        report = run_experiment(
            args.protocol, cascades, net,
            models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
            folds=args.folds,
            prefix_sizes=tuple(int(v) for v in args.prefix_sizes.split(",")),
            early_fractions=tuple(float(v) for v in args.early_fractions.split(",")),
            sigma=args.sigma,
            outbreak_threshold=args.threshold,
            seed=args.seed,
            hyperparams=hyper,
        )
        report.write(outdir)
        print(f"wrote {args.protocol} protocol report to {outdir}")
        return 0

    if not args.pred or not args.truth:
        raise CascadynError("scoring mode needs --pred and --truth "
                            "(or use --protocol)")
    preds = read_predictions_jsonl(args.pred)
    truth = {c.cascade_id: c for c in read_cascades_jsonl(args.truth)}
    size_records: list[PredictionRecord] = []
    outbreak_records: list[PredictionRecord] = []
    process_records: list[PredictionRecord] = []
    for rec in preds:
        cascade = truth.get(rec["cascade"])
        if cascade is None:
            raise CascadynError(f"prediction for unknown cascade {rec['cascade']!r}")
        size_records.append(PredictionRecord(
            cascade.cascade_id, float(cascade.size), float(rec["final"])))
        if "outbreak_t" in rec and cascade.size >= args.threshold:
            t0 = cascade.root.t
            true_t = cascade.events[args.threshold - 1].t
            pred_t = rec["outbreak_t"]
            if pred_t is None:  # "never" is capped at the window predict searched
                pred_t = float(rec["t_limit"]) + DEFAULT_SEARCH_WINDOW
            outbreak_records.append(PredictionRecord(
                cascade.cascade_id, true_t - t0 + 1.0, float(pred_t) - t0 + 1.0,
                task="outbreak"))
        for t, s in rec.get("curve") or []:
            process_records.append(PredictionRecord(
                cascade.cascade_id, float(cascade.size_at(t)), float(s),
                task="process-point"))

    rows = []
    for task, records in (("size", size_records), ("outbreak", outbreak_records),
                          ("process", process_records)):
        if records:
            rows.append({"task": task, "n": len(records), "rmsle": rmsle(records),
                         "precision": sigma_precision(records, args.sigma)})
    with open(outdir / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "n", "rmsle", "precision"])
        for row in rows:
            writer.writerow([row["task"], row["n"], repr(row["rmsle"]), repr(row["precision"])])
    (outdir / "summary.json").write_text(
        json.dumps({"sigma": args.sigma, "rows": rows}, indent=1, sort_keys=True,
                   allow_nan=False) + "\n",
        encoding="utf-8")
    print(f"wrote evaluation report to {outdir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "predict": _cmd_predict,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except (CascadynError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
