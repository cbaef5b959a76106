import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadyn.evaluate as evaluate
from cascadyn.errors import DataError, NumericsError
from cascadyn.evaluate import (
    LogLinearModel,
    PredictionRecord,
    dominance_report,
    process_precision,
    rmsle,
    run_experiment,
    sigma_precision,
    stratified_folds,
)
from cascadyn.features import Cascade, CascadeEvent, Network, extract_subcascades
from cascadyn.features import extract_features
from cascadyn.fitting import FitOptions, fit_model
from cascadyn.predict import BasicPredictor, ModelDynamics, PartialCascade, ProcessCurve
from cascadyn.simulate import SimConfig, gen_cascades, gen_network
from worlds import oracle_design_row, oracle_rmsle, oracle_sigma_precision, worlds


def rec(pred, truth, cid="c"):
    return PredictionRecord(cascade_id=cid, truth=truth, predicted=pred)


def chain_cascade(cid, size, gap=10.0):
    events = [CascadeEvent("u0", None, 0.0)]
    for i in range(1, size):
        events.append(CascadeEvent(f"u{i}", f"u{i-1}", i * gap))
    return Cascade(cascade_id=cid, events=events)


def star_cascade(cid, size, gap=5.0):
    events = [CascadeEvent("r", None, 0.0)]
    for i in range(1, size):
        events.append(CascadeEvent(f"u{i}", "r", i * gap))
    return Cascade(cascade_id=cid, events=events)


class TestRmsle:
    def test_perfect_predictions(self):
        assert rmsle([rec(5, 5), rec(100, 100)]) == 0.0

    def test_single_e_factor(self):
        assert rmsle([rec(math.e * 7, 7)]) == pytest.approx(1.0, rel=1e-12)

    def test_hand_arithmetic(self):
        records = [rec(100, 200), rec(1000, 500)]
        assert rmsle(records) == pytest.approx(math.log(2), rel=1e-12)

    def test_permutation_invariance(self):
        a = [rec(3, 4), rec(10, 2), rec(7, 7)]
        assert rmsle(a) == rmsle(list(reversed(a)))

    @given(st.lists(st.tuples(st.floats(0.1, 1e4), st.floats(0.1, 1e4)), min_size=1, max_size=20),
           st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_common_factor_invariance(self, pairs, factor):
        base = [rec(p, t) for p, t in pairs]
        scaled = [rec(p * factor, t * factor) for p, t in pairs]
        assert rmsle(scaled) == pytest.approx(rmsle(base), rel=1e-9, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            rmsle([rec(0.0, 5.0)])
        with pytest.raises(DataError):
            rmsle([rec(5.0, -1.0)])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            rmsle([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        for pred, truth in ((bad, 5.0), (5.0, bad)):
            with pytest.raises(DataError, match="'c7'"):
                rmsle([rec(5.0, 5.0), rec(pred, truth, cid="c7")])


class TestSigmaPrecision:
    def test_perfect(self):
        assert sigma_precision([rec(5, 5)], 0.2) == 1.0

    def test_thirty_percent_off_not_counted(self):
        assert sigma_precision([rec(1.3 * 10, 10)], 0.2) == 0.0

    def test_boundary_is_inclusive(self):
        assert sigma_precision([rec(12.0, 10.0)], 0.2) == 1.0
        assert sigma_precision([rec(8.0, 10.0)], 0.2) == 1.0

    def test_invalid_sigma(self):
        for sigma in (0.0, 1.0, -0.3):
            with pytest.raises(DataError):
                sigma_precision([rec(1, 1)], sigma)

    def test_permutation_invariance(self):
        a = [rec(3, 4), rec(10, 2), rec(7, 7)]
        assert sigma_precision(a, 0.5) == sigma_precision(list(reversed(a)), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for pred, truth in ((bad, 5.0), (5.0, bad)):
            with pytest.raises(DataError, match="'c7'"):
                sigma_precision([rec(5.0, 5.0), rec(pred, truth, cid="c7")], 0.2)


_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 10**6))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except DataError as exc:
        return "error", str(exc)


class TestScoresMatchRecordLoops:
    """The array kernel behind ``rmsle``, ``sigma_precision`` and the protocol
    reports gives the record loops' values bit for bit, and their messages."""

    @given(st.lists(st.tuples(_values, _values), max_size=30), st.floats(-0.5, 1.5))
    @settings(max_examples=300, deadline=None)
    def test_any_records(self, pairs, sigma):
        records = [rec(p, t, cid=f"c{i}") for i, (p, t) in enumerate(pairs)]
        assert _outcome(rmsle, iter(records)) == _outcome(oracle_rmsle, records)
        assert (_outcome(sigma_precision, iter(records), sigma)
                == _outcome(oracle_sigma_precision, records, sigma))

    @given(st.lists(st.tuples(st.floats(1e-3, 1e7), st.floats(1.0, 1e5)), min_size=1,
                    max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_positive_records(self, pairs):
        records = [rec(p, t) for p, t in pairs]
        assert rmsle(records) == oracle_rmsle(records)
        assert sigma_precision(records, 0.2) == oracle_sigma_precision(records, 0.2)

    def test_predictions_near_the_truth(self):
        # numpy's vector log and square miss libm's in the last bit for about
        # one value in a few thousand, most often near 1; one record at a
        # time shows each miss
        rng = np.random.default_rng(3)
        for p, t in zip(rng.uniform(0.5, 1.5, 3000).tolist(), rng.uniform(0.9, 1.1, 3000).tolist()):
            assert rmsle([rec(p, t)]) == oracle_rmsle([rec(p, t)])
        truth = rng.integers(1, 2000, size=20_000).astype(float)
        records = [rec(p, t, cid=f"c{i}") for i, (p, t)
                   in enumerate(zip(truth * rng.lognormal(0.0, 0.8, truth.size), truth))]
        assert rmsle(records) == oracle_rmsle(records)
        assert sigma_precision(records, 0.2) == oracle_sigma_precision(records, 0.2)


class TestProcessPrecision:
    def test_identical_curves(self):
        c = ProcessCurve(times=[0, 1, 2], sizes=[1.0, 2.0, 3.0])
        assert process_precision(c, c, 0.2) == 1.0

    def test_flat_prediction_decays(self):
        times = list(range(10))
        flat = ProcessCurve(times=times, sizes=[5.0] * 10)
        growing = ProcessCurve(times=times, sizes=[5.0 + 3.0 * t for t in times])
        assert process_precision(flat, growing, 0.2) < 0.3

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(1)
        times = sorted(rng.uniform(0, 100, 20).tolist())
        truth = np.cumsum(rng.uniform(0.5, 3.0, 20)) + 1.0
        pred = truth * rng.uniform(0.7, 1.3, 20)
        pred = np.maximum.accumulate(pred)
        sigma = 0.2
        expected = np.mean([
            1.0 if t * (1 - sigma) <= p <= t * (1 + sigma) else 0.0
            for p, t in zip(pred, truth)
        ])
        got = process_precision(ProcessCurve(times=times, sizes=pred.tolist()),
                                ProcessCurve(times=times, sizes=truth.tolist()), sigma)
        assert got == pytest.approx(float(expected))

    def test_mismatched_grids_rejected(self):
        a = ProcessCurve(times=[0, 1], sizes=[1.0, 2.0])
        b = ProcessCurve(times=[0, 2], sizes=[1.0, 2.0])
        with pytest.raises(DataError):
            process_precision(a, b, 0.2)


class TestStratifiedFolds:
    def test_partition_covers_everything_once(self):
        cascades = [chain_cascade(f"c{i}", size) for i, size in
                    enumerate([2, 3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 200])]
        folds = stratified_folds(cascades, 3, seed=0)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(len(cascades)))

    def test_deterministic(self):
        cascades = [chain_cascade(f"c{i}", 2 + i) for i in range(20)]
        assert stratified_folds(cascades, 4, seed=5) == stratified_folds(cascades, 4, seed=5)

    def test_too_few_cascades_rejected(self):
        with pytest.raises(DataError):
            stratified_folds([chain_cascade("c", 3)], 2, seed=0)


class TestDominance:
    def test_star_root_owns_everything(self):
        report = dominance_report([star_cascade("s", 10)])
        entry = report["cascades"][0]
        assert entry["top_share"] == 1.0
        assert entry["shares"] == [1.0]

    def test_balanced_binary_tree_shares(self):
        depth = 3
        events = [CascadeEvent("n1", None, 0.0)]
        counter = 2
        frontier = ["n1"]
        t = 1.0
        for _ in range(depth):
            nxt = []
            for parent in frontier:
                for _ in range(2):
                    name = f"n{counter}"
                    events.append(CascadeEvent(name, parent, t))
                    nxt.append(name)
                    counter += 1
                    t += 1.0
            frontier = nxt
        cascade = Cascade(cascade_id="bt", events=events)
        report = dominance_report([cascade])
        shares = report["cascades"][0]["shares"]
        expected = 2.0 / (2 ** (depth + 1) - 2)
        assert all(s == pytest.approx(expected) for s in shares)

    def test_heavy_tail_concentration_matches_recount(self):
        cfg = SimConfig(n_nodes=400, n_cascades=60, seed=21, retweet_scale=0.6)
        net = gen_network(cfg)
        cascades = [c for c in gen_cascades(net, cfg) if c.size >= 5]
        report = dominance_report(cascades)
        for entry, cascade in zip(report["cascades"],
                                  sorted(cascades, key=lambda c: c.cascade_id)):
            children: dict[str, int] = {}
            for ev in cascade.events:
                if ev.parent is not None:
                    children[ev.parent] = children.get(ev.parent, 0) + 1
            top = max(children.values()) / (cascade.size - 1)
            assert entry["top_share"] == pytest.approx(top)

    def test_singleton_cascade(self):
        report = dominance_report([chain_cascade("c", 1)])
        assert report["cascades"][0]["shares"] == []

    def test_hub_config_concentrates_generation(self):
        # hub-rooted cascades: the top 1% of nodes generate most children
        cfg = SimConfig(n_nodes=2000, n_cascades=300, seed=77,
                        retweet_prob=0.04, root_weighting="followers",
                        degree_exponent=2.3, min_degree=2, max_degree=1500)
        net = gen_network(cfg)
        cascades = [c for c in gen_cascades(net, cfg) if c.size >= 10]
        assert cascades
        report = dominance_report(cascades)
        assert report["aggregate"]["mean_share_top_1pct"] > 0.5


class TestLogLinear:
    def test_recovers_synthetic_log_linear_sizes(self):
        rng = np.random.default_rng(3)
        nodes = ["r"] + [f"u{i}" for i in range(1, 60)]
        net = Network(nodes=nodes, edges=[(u, "r") for u in nodes[1:]])
        cascades = []
        for i in range(30):
            size = int(rng.integers(8, 60))
            # event gap inversely proportional to size makes log(size) an
            # exact linear function of the log growth-speed feature
            cascades.append(star_cascade(f"c{i}", size, gap=100.0 / size))
        model = LogLinearModel.fit(cascades, prefix=5, net=net)
        preds = model.predict_final(cascades, 5, net).tolist()
        truth = [float(c.size) for c in cascades]
        records = [rec(p, t, cid=str(i)) for i, (p, t) in enumerate(zip(preds, truth))]
        assert rmsle(records) < 0.05

    @settings(max_examples=150, deadline=None)
    @given(world=worlds(), prefix=st.integers(1, 14))
    def test_design_rows_match_oracle(self, world, prefix):
        nodes, edges, cascades = world
        if not cascades:
            return
        net = Network(nodes=nodes, edges=edges)
        expected = np.stack([oracle_design_row(c, prefix, net) for c in cascades])
        np.testing.assert_allclose(LogLinearModel.design_rows(cascades, prefix, net), expected,
                                   rtol=1e-12, atol=0.0)
        for c, row in zip(cascades, expected):
            np.testing.assert_allclose(LogLinearModel.design_rows([c], prefix, net), [row],
                                       rtol=1e-12, atol=0.0)

    def test_batched_predictions_match_per_cascade(self):
        rng = np.random.default_rng(5)
        nodes = ["r"] + [f"u{i}" for i in range(1, 60)]
        net = Network(nodes=nodes, edges=[(u, "r") for u in nodes[1:]])
        cascades = [star_cascade(f"c{i}", int(rng.integers(8, 60)), gap=float(rng.uniform(1, 9)))
                    for i in range(20)]
        model = LogLinearModel.fit(cascades, prefix=5, net=net)
        expected = [max(float(np.exp(np.append(oracle_design_row(c, 5, net), 1.0)
                                     @ model.weights)), 5.0) for c in cascades]
        np.testing.assert_allclose(model.predict_final(cascades, 5, net), expected,
                                   rtol=1e-12, atol=0.0)
        assert [model.predict_final([c], 5, net)[0] for c in cascades] == pytest.approx(
            expected, rel=1e-12)

    def test_prediction_floored_at_observed(self):
        net = Network(nodes=["r"] + [f"u{i}" for i in range(1, 30)], edges=[])
        cascades = [star_cascade(f"c{i}", 20) for i in range(5)]
        model = LogLinearModel.fit(cascades, prefix=6, net=net)
        assert model.predict_final(cascades[:1], 6, net)[0] >= 6.0


def per_observation_report(protocol, cascades, net, *, models, folds, prefix_sizes, seed,
                           outbreak_threshold, options, early_fractions=(0.1, 0.25, 0.5),
                           sigma=0.2, grid_points=20, **_):
    """The outbreak and process protocols as ``run_experiment`` scored them
    one observation at a time, each with its own ``BasicPredictor`` and, for
    process, a true curve of ``Cascade.size_at`` per grid point: a test-only
    reference for the batched fold loop."""
    horizon = max(c.events[-1].t for c in cascades)
    kinds = [m for m in models if m != "loglinear"]
    records, precisions = {}, {}
    for fold in stratified_folds(cascades, folds, seed):
        train = [c for i, c in enumerate(cascades) if i not in fold]
        feats = extract_features(net, train)
        samples = extract_subcascades(train)
        fitted = {kind: ModelDynamics(fit_model(kind, samples, feats, options=options)[0], feats)
                  for kind in kinds}
        for cascade in (cascades[i] for i in fold):
            t0, t_end = cascade.root.t, cascade.events[-1].t
            observed = []
            if protocol == "process" and t_end > t0:
                for frac in early_fractions:
                    t_lim = t0 + frac * (t_end - t0)
                    grid = np.linspace(t_lim, t_end, grid_points).tolist()
                    truth = ProcessCurve(times=grid,
                                         sizes=[float(cascade.size_at(t)) for t in grid])
                    observed.append((frac, PartialCascade.from_cascade(cascade, t_lim,
                                                                       net.n_nodes), truth))
            elif protocol == "outbreak" and cascade.size >= outbreak_threshold:
                truth = cascade.events[outbreak_threshold - 1].t - t0 + 1.0
                observed = [(s, PartialCascade.first_events(cascade, s, net.n_nodes), truth)
                            for s in prefix_sizes if cascade.size > s and s < outbreak_threshold]
            for sweep, pc, truth in observed:
                for kind, dyn in fitted.items():
                    predictor = BasicPredictor(pc, dyn)
                    got = records.setdefault((kind, sweep), [])
                    if protocol == "outbreak":
                        t_max = pc.t_limit + 2.0 * (horizon - t0) + 1.0
                        pred_t = predictor.outbreak_time(outbreak_threshold, t_max)
                        pred_t = t_max if pred_t is None else pred_t
                        got.append(rec(pred_t - t0 + 1.0, truth, cascade.cascade_id))
                    else:
                        curve = predictor.process_curve(truth.times)
                        precisions.setdefault((kind, sweep), []).append(
                            process_precision(curve, truth, sigma))
                        got += [rec(p, t, cascade.cascade_id)
                                for p, t in zip(curve.sizes, truth.sizes)]
    rows = [{"model": kind, "sweep": sweep,
             "n": len(precisions.get((kind, sweep), got)),
             "rmsle": rmsle(got),
             "precision": (float(np.mean(precisions[(kind, sweep)])) if protocol == "process"
                           else sigma_precision(got, sigma))}
            for (kind, sweep), got in sorted(records.items(),
                                             key=lambda kv: (kv[0][0], str(kv[0][1])))]
    return evaluate.ExperimentReport(protocol=protocol, sigma=sigma, rows=rows, notes=[])


@pytest.fixture(scope="module")
def sim_data():
    cfg = SimConfig(n_nodes=400, n_cascades=120, seed=31, retweet_scale=0.6,
                    scale_base=600.0, gamma_true=(0.15, 0, 0, 0, 0, 0),
                    horizon=5 * 86400.0)
    net = gen_network(cfg)
    cascades = [c for c in gen_cascades(net, cfg) if c.size >= 5]
    return net, cascades


class TestRunExperiment:
    def test_size_protocol_produces_rows(self, sim_data):
        net, cascades = sim_data
        report = run_experiment("size", cascades, net,
                                models=("weibull", "exponential", "loglinear"),
                                folds=2, prefix_sizes=(5,), seed=0)
        models = {row["model"] for row in report.rows}
        assert models == {"weibull", "exponential", "loglinear"}
        for row in report.rows:
            assert row["n"] > 0
            assert row["rmsle"] >= 0.0
            assert 0.0 <= row["precision"] <= 1.0

    def test_process_protocol_runs(self, sim_data):
        net, cascades = sim_data
        report = run_experiment("process", cascades, net, models=("exponential",),
                                folds=2, early_fractions=(0.5,), grid_points=5, seed=0)
        assert report.rows
        assert report.rows[0]["model"] == "exponential"

    def test_out_of_sample_protocol_runs(self, sim_data):
        net, cascades = sim_data
        report = run_experiment("out_of_sample", cascades, net,
                                models=("weibull", "exponential"),
                                prefix_sizes=(5,), seed=0,
                                hidden_fraction=0.2)
        assert {row["model"] for row in report.rows} == {"weibull", "exponential"}

    def test_outbreak_protocol_with_low_threshold(self, sim_data):
        net, cascades = sim_data
        threshold = int(np.quantile([c.size for c in cascades], 0.8))
        report = run_experiment("outbreak", cascades, net, models=("exponential",),
                                folds=2, prefix_sizes=(5,),
                                outbreak_threshold=threshold, seed=0)
        assert report.rows

    def test_unknown_protocol_rejected(self, sim_data):
        net, cascades = sim_data
        with pytest.raises(DataError):
            run_experiment("nonsense", cascades, net)

    def test_report_write_is_deterministic(self, sim_data, tmp_path):
        net, cascades = sim_data
        report = run_experiment("size", cascades, net, models=("exponential",),
                                folds=2, prefix_sizes=(5,), seed=0)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        report.write(d1)
        report.write(d2)
        assert (d1 / "size_results.csv").read_bytes() == (d2 / "size_results.csv").read_bytes()
        assert (d1 / "size_summary.json").read_bytes() == (d2 / "size_summary.json").read_bytes()

    def test_out_of_sample_regression_beats_averaged_params(self):
        from cascadyn.fitting import FitOptions

        # covariate-linked ground truth: hidden users' dynamics are
        # recoverable by regression but not by global averaging
        cfg = SimConfig(n_nodes=2000, n_cascades=4000, seed=303,
                        retweet_prob=0.05, root_weighting="followers",
                        degree_exponent=2.3, min_degree=2, max_degree=1000,
                        scale_base=1.0, shape_base=1.0,
                        beta_true=(1.1, 0, 0, 0, 0, 0),
                        gamma_true=(-0.08, 0, 0, 0, 0, 0),
                        horizon=5 * 86400.0)
        net = gen_network(cfg)
        cascades = [c for c in gen_cascades(net, cfg) if c.size >= 5]
        report = run_experiment("out_of_sample", cascades, net,
                                models=("newer", "weibull"),
                                prefix_sizes=(5, 10), seed=1, hidden_fraction=0.1,
                                options=FitOptions(tol=1e-6))
        scores = {(r["model"], r["sweep"]): r["rmsle"] for r in report.rows}
        for s in (5, 10):
            assert scores[("newer", s)] < scores[("weibull", s)]

    def test_size_rows_count_cascades_larger_than_prefix(self, sim_data):
        net, cascades = sim_data
        report = run_experiment("size", cascades, net, models=("exponential", "loglinear"),
                                folds=2, prefix_sizes=(5, 10), seed=0)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row["n"] == sum(1 for c in cascades if c.size > row["sweep"])

    def test_outbreak_rows_count_cascades_reaching_threshold(self, sim_data):
        net, cascades = sim_data
        threshold = int(np.quantile([c.size for c in cascades], 0.8))
        report = run_experiment("outbreak", cascades, net, models=("exponential",),
                                folds=2, prefix_sizes=(5, 10),
                                outbreak_threshold=threshold, seed=0)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row["n"] == sum(1 for c in cascades
                                   if c.size >= threshold and c.size > row["sweep"])

    def test_process_rows_count_curves(self, sim_data):
        net, cascades = sim_data
        report = run_experiment("process", cascades, net, models=("exponential",),
                                folds=2, early_fractions=(0.25, 0.5), grid_points=5, seed=0)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row["n"] == sum(1 for c in cascades if c.events[-1].t > c.root.t)

    @pytest.mark.parametrize("protocol, note", [
        ("outbreak", "loglinear cannot predict outbreak times; skipped"),
        ("process", "loglinear cannot predict process curves; skipped"),
        ("out_of_sample", "loglinear is not an out-of-sample dynamics model; skipped"),
    ])
    def test_loglinear_skipped_with_note(self, sim_data, protocol, note):
        net, cascades = sim_data
        threshold = int(np.quantile([c.size for c in cascades], 0.8))
        report = run_experiment(protocol, cascades, net, models=("exponential", "loglinear"),
                                folds=2, prefix_sizes=(5,), early_fractions=(0.5,),
                                grid_points=5, outbreak_threshold=threshold,
                                hidden_fraction=0.2, seed=0)
        assert report.notes == [note]
        assert {row["model"] for row in report.rows} == {"exponential"}

    def test_each_fold_trains_on_the_other_folds(self, sim_data, monkeypatch):
        import cascadyn.evaluate as evaluate

        net, cascades = sim_data
        trained_on = []

        def spy(train):
            trained_on.append(sorted(c.cascade_id for c in train))
            return extract_subcascades(train)

        monkeypatch.setattr(evaluate, "extract_subcascades", spy)
        run_experiment("size", cascades, net, models=("exponential",),
                       folds=3, prefix_sizes=(5,), seed=4)
        expected = [sorted(c.cascade_id for i, c in enumerate(cascades) if i not in fold)
                    for fold in stratified_folds(cascades, 3, seed=4)]
        assert trained_on == expected

    @pytest.mark.parametrize("protocol", ["size", "out_of_sample", "outbreak", "process"])
    def test_batched_final_sizes_match_per_prefix_reference(self, sim_data, monkeypatch,
                                                            protocol):
        net, cascades = sim_data
        kwargs = dict(models=("newer", "weibull", "cox", "loglinear"), folds=2,
                      prefix_sizes=(1, 5, 10), seed=2, hidden_fraction=0.2,
                      outbreak_threshold=30, options=FitOptions(tol=1e-6))
        batched = run_experiment(protocol, cascades, net, **kwargs)

        class PerPrefix:
            """One BasicPredictor per scored prefix, as the fold loop ran before."""

            def __init__(self, observations):
                self.observations = list(observations)
                self.lengths = np.array([pc.size for pc in self.observations], dtype=np.intp)
                self.size = len(self.observations)

            def final_sizes(self, dynamics):
                return np.array([BasicPredictor(pc, dynamics).final_size()
                                 for pc in self.observations])

        if protocol in ("outbreak", "process"):
            reference = per_observation_report(protocol, cascades, net, **kwargs)
        else:
            monkeypatch.setattr(evaluate, "PrefixBatch", PerPrefix)
            reference = run_experiment(protocol, cascades, net, **kwargs)
        # loglinear scores only in the size protocol
        assert len(batched.rows) == len(reference.rows) == (12 if protocol == "size" else 9)
        for got, want in zip(batched.rows, reference.rows):
            assert (got["model"], got["sweep"], got["n"]) == (want["model"], want["sweep"],
                                                              want["n"])
            assert got["rmsle"] == pytest.approx(want["rmsle"], rel=1e-12)
            assert got["precision"] == pytest.approx(want["precision"], rel=1e-12)

    def test_batch_that_disagrees_with_the_predictor_is_refused(self, sim_data, monkeypatch):
        net, cascades = sim_data
        final_sizes = evaluate.PrefixBatch.final_sizes
        monkeypatch.setattr(evaluate.PrefixBatch, "final_sizes",
                            lambda self, dyn: final_sizes(self, dyn) * (1.0 + 1e-6))
        with pytest.raises(NumericsError, match="differs from the predictor's"):
            run_experiment("size", cascades, net, models=("exponential",), folds=2,
                           prefix_sizes=(5,), seed=0)

    @pytest.mark.parametrize("protocol, sweep, bad", [
        ("process", "early_fractions", 1.5),
        ("process", "early_fractions", -0.5),
        ("process", "early_fractions", float("nan")),
        ("process", "early_fractions", float("inf")),
        ("size", "prefix_sizes", 0),
        ("outbreak", "prefix_sizes", -3),
        ("out_of_sample", "prefix_sizes", 2.5),
        ("size", "prefix_sizes", 5.0),
    ])
    def test_bad_sweep_value_refused_before_fitting(self, sim_data, monkeypatch,
                                                    protocol, sweep, bad):
        import cascadyn.evaluate as evaluate

        net, cascades = sim_data
        fits = []
        monkeypatch.setattr(evaluate, "fit_model", lambda *a, **k: fits.append(a))
        with pytest.raises(DataError, match=re.escape(str(bad))):
            run_experiment(protocol, cascades, net, models=("exponential",), folds=2,
                           **{sweep: (0.5, bad) if sweep == "early_fractions" else (5, bad)})
        assert fits == []

    @pytest.mark.parametrize("protocol, kwargs", [
        ("size", {"prefix_sizes": (500,)}),
        ("outbreak", {"prefix_sizes": (5,), "outbreak_threshold": 5}),  # no prefix < 5
        ("process", {"early_fractions": (0.5,)}),
    ])
    def test_nothing_scored_is_refused(self, protocol, kwargs):
        net = Network(nodes=[f"u{i}" for i in range(12)], edges=[])
        # six-event cascades with every event at the root's time: no process
        # curve spans any time, and no cascade outgrows a 500-event prefix
        cascades = [Cascade(f"c{j}", [CascadeEvent(f"u{j}", None, 0.0)] + [
            CascadeEvent(f"u{(j + k) % 12}", f"u{j}", 0.0) for k in range(1, 6)])
            for j in range(6)]
        with pytest.raises(DataError, match=f"{protocol} protocol scored no prediction"):
            run_experiment(protocol, cascades, net, models=("exponential",), folds=2,
                           options=FitOptions(min_events=1), **kwargs)
