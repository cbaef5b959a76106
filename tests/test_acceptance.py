"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the synthetic benchmarks are fully seeded so reruns are exact.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cascadyn.evaluate import run_experiment
from cascadyn.features import Cascade, CascadeEvent, filter_cascades
from cascadyn.fitting import (
    FitOptions,
    Hyperparams,
    SubcascadeSample,
    fit_model,
    fit_newer,
    newer_objective,
    regress_out_of_sample,
    smooth_partials,
)
from cascadyn.predict import BasicPredictor, ModelDynamics, PartialCascade, SamplingPredictor
from cascadyn.simulate import (
    SimConfig,
    dynamics_from_coefficients,
    gen_cascades,
    gen_feature_matrix,
    gen_network,
    gen_user_dynamics,
    sample_delays,
)
from cascadyn.survival import (
    EmpiricalSurvival,
    WeibullParams,
    ks_statistic,
    weibull_hazard,
    weibull_pdf,
    weibull_survival,
    weibull_survival_inverse,
)


def report(number, name, started, budget):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def random_stream(rng, n_users, network_size):
    users = [f"u{i}" for i in range(n_users)]
    dynamics = {
        u: WeibullParams(float(rng.uniform(5, 2000)), float(rng.uniform(0.4, 3.0)))
        for u in users
    }
    events = [CascadeEvent(users[0], None, 0.0)]
    t = 0.0
    for i in range(1, n_users):
        t += float(rng.exponential(30.0))
        events.append(CascadeEvent(users[i], users[int(rng.integers(0, i))], t))
    return events, dynamics


def test_01_distribution_identities():
    started = time.time()
    rng = np.random.default_rng(2101)
    n = 10_000
    scales = np.exp(rng.uniform(math.log(0.05), math.log(50.0), n))
    shapes = np.exp(rng.uniform(math.log(0.2), math.log(8.0), n))
    quantiles = rng.uniform(1e-9, 1.0 - 1e-9, n)
    for i in range(n):
        p = WeibullParams(float(scales[i]), float(shapes[i]))
        t = weibull_survival_inverse(p, float(quantiles[i]))
        if t == 0.0:
            continue
        f = weibull_pdf(p, t)
        hs = weibull_hazard(p, t) * weibull_survival(p, t)
        assert abs(hs - f) <= 1e-12 * max(f, 1e-300)
        s = weibull_survival(p, t)
        if 1e-12 < s < 1.0 - 1e-6:
            # near s = 1 the rounding of exp(-x) alone exceeds the target
            t_back = weibull_survival_inverse(p, s)
            assert abs(t_back - t) <= 1e-9 * t
    from scipy.integrate import quad

    for i in range(0, n, 100):  # 100-parameter quadrature subsample
        p = WeibullParams(float(scales[i]), float(shapes[i]))
        upper = weibull_survival_inverse(p, 1e-12)
        total, _ = quad(lambda t: weibull_pdf(p, t), 0.0, upper, limit=200)
        assert abs(total - 1.0) <= 1e-6
    report(1, "distribution identities", started, budget=5.0)


def test_02_mle_recovery():
    started = time.time()
    rng = np.random.default_rng(2202)
    for scale_true in (0.5, 2.0, 8.0):
        for shape_true in (0.7, 1.0, 1.5, 3.0):
            truth = WeibullParams(scale_true, shape_true)
            draws = sample_delays(truth, 10_000, rng)
            fitted = fit_model("weibull", {"u": SubcascadeSample("u", draws)},
                               options=FitOptions(min_events=1))[0].user_params["u"]
            assert abs(fitted.scale - scale_true) / scale_true < 0.05
            assert abs(fitted.shape - shape_true) / shape_true < 0.05
    # closed forms against the stationarity calculus oracles
    delays = rng.uniform(0.5, 40.0, size=500)
    sample = {"u": SubcascadeSample("u", delays)}
    exp_fit = fit_model("exponential", sample, options=FitOptions(min_events=1))[0].user_params["u"]
    assert abs(exp_fit.scale - float(np.mean(delays))) <= 1e-9 * float(np.mean(delays))
    ray_fit = fit_model("rayleigh", sample, options=FitOptions(min_events=1))[0].user_params["u"]
    rms = float(np.sqrt(np.mean(delays ** 2)))
    assert abs(ray_fit.scale - rms) <= 1e-9 * rms
    report(2, "mle recovery", started, budget=30.0)


def test_03_newer_descent_and_stationarity():
    started = time.time()
    X = gen_feature_matrix(200, 6, seed=55, spread=1.0)
    truth = dynamics_from_coefficients(X, [0.7, 0, -0.4, 0, 0, 0.3],
                                       [0, 0.25, 0, 0, -0.2, 0])
    rng = np.random.default_rng(56)
    samples = {u: SubcascadeSample(u, sample_delays(p, 300, rng)) for u, p in truth.items()}
    hp = Hyperparams(mu=10.0, eta=10.0, alpha_beta=6e-5, alpha_gamma=8e-6)
    model, rep = fit_newer(samples, X, hp, FitOptions(min_events=1, tol=1e-13, max_outer=2000))
    trace = np.asarray(rep.objective_trace)
    assert not np.any(np.diff(trace) > 1e-9 * np.abs(trace[:-1]))

    users, d_scale, d_shape = smooth_partials(model, samples, X)
    assert np.max(np.abs(d_scale)) < 1e-4
    assert np.max(np.abs(d_shape)) < 1e-4

    def central_difference(m, user, attr, h):
        p = m.user_params[user]
        hi = replace(m, user_params={**m.user_params, user: replace(p, **{attr: getattr(p, attr) + h})})
        lo = replace(m, user_params={**m.user_params, user: replace(p, **{attr: getattr(p, attr) - h})})
        return (newer_objective(hi, samples, X) - newer_objective(lo, samples, X)) / (2 * h)

    # at convergence the gradients sit below the finite-difference noise
    # floor (~1e-5 for an objective of this magnitude), so the agreement
    # check carries an absolute floor of 1e-4 alongside the 1e-3 relative
    for idx in range(0, len(users), 20):
        u = users[idx]
        p = model.user_params[u]
        for attr, analytic in (("scale", d_scale[idx]), ("shape", d_shape[idx])):
            fd = central_difference(model, u, attr, 1e-6 * max(1.0, getattr(p, attr)))
            assert abs(analytic - fd) <= max(1e-3 * max(abs(fd), abs(analytic)), 1e-4)

    # formula check where the gradients are O(1): a perturbed model state
    bent = replace(model, user_params={
        u: WeibullParams(p.scale * 1.35, p.shape * 0.8)
        for u, p in model.user_params.items()
    })
    _, d_scale_b, d_shape_b = smooth_partials(bent, samples, X)
    for idx in range(0, len(users), 40):
        u = users[idx]
        p = bent.user_params[u]
        for attr, analytic in (("scale", d_scale_b[idx]), ("shape", d_shape_b[idx])):
            fd = central_difference(bent, u, attr, 1e-6 * max(1.0, getattr(p, attr)))
            assert analytic == pytest.approx(fd, rel=1e-3)
    report(3, "newer descent and stationarity", started, budget=120.0)


def test_04_newer_covariate_recovery():
    started = time.time()
    beta_true = np.array([0.9, 0.0, -0.6, 0.0, 0.4, 0.0])
    gamma_true = np.array([0.0, 0.3, 0.0, -0.25, 0.0, 0.0])
    X = gen_feature_matrix(200, 6, seed=77, spread=1.0)
    truth = dynamics_from_coefficients(X, beta_true, gamma_true)
    rng = np.random.default_rng(78)
    samples = {u: SubcascadeSample(u, sample_delays(p, 1000, rng)) for u, p in truth.items()}

    hide_rng = np.random.default_rng(79)
    hidden = set(hide_rng.choice(sorted(samples), size=20, replace=False).tolist())
    visible = {u: s for u, s in samples.items() if u not in hidden}
    x_visible = X.subset([u for u in X.users if u not in hidden])

    # sparsity weights sized for this N (the corpus-scale defaults are tuned
    # to a vastly larger user count)
    hp = Hyperparams(mu=10.0, eta=10.0, alpha_beta=0.01, alpha_gamma=0.01)
    model, _ = fit_newer(visible, x_visible, hp, FitOptions(min_events=1))

    for true_vec, est_vec in ((beta_true, model.beta), (gamma_true, model.gamma)):
        for true_c, est_c in zip(true_vec, est_vec):
            if true_c == 0.0:
                assert est_c == 0.0
            else:
                assert math.copysign(1.0, est_c) == math.copysign(1.0, true_c)

    errors = []
    for u in sorted(hidden):
        estimated = regress_out_of_sample(model, X.row(u))
        errors.append(abs(estimated.scale - truth[u].scale) / truth[u].scale)
        errors.append(abs(estimated.shape - truth[u].shape) / truth[u].shape)
    assert float(np.median(errors)) <= 0.15
    report(4, "newer covariate recovery", started, budget=300.0)


def test_05_basic_model_boundary_exactness():
    started = time.time()
    rng = np.random.default_rng(2505)
    for _ in range(1000):
        n_users = int(rng.integers(2, 40))
        events, dynamics = random_stream(rng, n_users, network_size=1000)
        t_limit = events[-1].t + float(rng.uniform(0.0, 50.0))
        pc = PartialCascade("b", events, t_limit, 1000)
        predicted = BasicPredictor(pc, dynamics).size_at(t_limit)
        assert predicted == float(pc.size)

    # the engineered two-level example: deathrates 0.4 and 1/3, horizon at
    # infinity, total 1 + 2/0.4 + 1/(1/3) = 9
    t_limit = 4.0
    dynamics = {
        "r": WeibullParams(5.0 / (-math.log(0.6)), 1.0),
        "a": WeibullParams(4.0 / (-math.log(2.0 / 3.0)), 1.0),
        "b": WeibullParams(1.0, 1.0),
        "g": WeibullParams(1.0, 1.0),
    }
    events = [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 1.0),
              CascadeEvent("b", "r", 2.0), CascadeEvent("g", "a", 3.0)]
    pc = PartialCascade("worked", events, t_limit, 10 ** 6)
    assert BasicPredictor(pc, dynamics).final_size() == pytest.approx(9.0, rel=1e-12)
    report(5, "basic model boundary exactness", started, budget=5.0)


def test_06_sampling_error_bound_and_recalc_budget():
    started = time.time()
    rng = np.random.default_rng(2606)
    network_size = 400
    streams_per_epsilon = 350
    for epsilon in (0.01, 0.1, 0.5):
        budget = math.ceil(math.log(network_size) / math.log(1.0 + epsilon)) + 1
        for i in range(streams_per_epsilon):
            n_users = int(rng.integers(5, 30))
            events, mapping = random_stream(rng, n_users, network_size)
            # each mapping is made a table once; the first stream's
            # predictors take the mapping itself, so that path stays covered
            first = epsilon == 0.01 and i == 0
            dynamics = mapping if first else ModelDynamics.of(mapping)
            sampler = SamplingPredictor(network_size, epsilon, dynamics)
            seen = []
            for ev in events:
                sampler.feed_event(ev.user, ev.parent, ev.t)
                seen.append(ev)
                estimate = sampler.query_size(ev.t)
                basic = BasicPredictor(
                    PartialCascade("r", list(seen), ev.t, network_size), dynamics
                ).final_size()
                assert abs(estimate - basic) / basic <= epsilon
            last_t = events[-1].t
            for q in sorted(rng.uniform(last_t, last_t + 1e5, 3)):
                estimate = sampler.query_size(float(q))
                basic = BasicPredictor(
                    PartialCascade("r", list(seen), float(q), network_size), dynamics
                ).final_size()
                assert abs(estimate - basic) / basic <= epsilon
            for u in sampler.states:
                assert sampler.recalc_count(u) <= budget
    report(6, "sampling error bound and recalc budget", started, budget=120.0)


def test_07_sampling_efficiency():
    started = time.time()
    rng = np.random.default_rng(2707)
    n_events = 10_000
    users = [f"u{i}" for i in range(n_events)]
    dynamics = {
        u: WeibullParams(float(rng.uniform(20, 3000)), float(rng.uniform(0.4, 2.5)))
        for u in users
    }
    times = np.cumsum(rng.exponential(2.0, size=n_events))
    times[0] = 0.0
    sampler = SamplingPredictor(n_events, 0.1, dynamics)
    sampler.feed_event(users[0], None, 0.0)
    for i in range(1, n_events):
        parent = users[int(rng.integers(0, i))]
        sampler.feed_event(users[i], parent, float(times[i]))
        if i % 100 == 0:
            sampler.query_size(float(times[i]))
    sampler.query_size(float(times[-1]))

    # the basic comparator recomputes every observed subcascade term once a
    # second; its operation count follows from the event times directly
    basic_ops = 0
    for i in range(n_events):
        t_next = times[i + 1] if i + 1 < n_events else times[-1] + 1.0
        basic_ops += (i + 1) * max(int(t_next) - int(times[i]), 0)
    sampling_ops = sampler.total_updates
    assert sampling_ops * 10 <= basic_ops, (sampling_ops, basic_ops)
    report(7, "sampling efficiency", started, budget=60.0)


OUTBREAK_SIM = SimConfig(
    n_nodes=15_000, n_cascades=30_000, seed=2024,
    retweet_prob=0.02, retweet_noise_sigma=1.8,
    root_weighting="followers",
    degree_exponent=2.35, min_degree=2, max_degree=8000,
    scale_base=1800.0, shape_base=0.9,
    beta_true=(0.2, 0, 0, 0, 0, 0),
    gamma_true=(-0.05, 0, 0, 0, 0, 0),
    scale_noise_sigma=1.1, shape_noise_sigma=0.45,
    horizon=5 * 86400.0,
)


@pytest.fixture(scope="module")
def ranking_world():
    net = gen_network(OUTBREAK_SIM)
    dynamics = gen_user_dynamics(net, OUTBREAK_SIM)
    cascades = filter_cascades(gen_cascades(net, OUTBREAK_SIM, dynamics), 5)
    return net, dynamics, cascades


def test_08_outbreak_search_matches_scan(ranking_world):
    started = time.time()
    net, mapping, cascades = ranking_world
    table = ModelDynamics.of(mapping)  # made once; the first predictor takes the mapping
    threshold = 1000
    biggest = sorted(cascades, key=lambda c: (-c.size, c.cascade_id))[:100]
    horizon = 20_000
    for k, cascade in enumerate(biggest):
        t0, t_end = cascade.root.t, cascade.events[-1].t
        pc = PartialCascade.from_cascade(cascade, t0 + 0.3 * (t_end - t0), net.n_nodes)
        predictor = BasicPredictor(pc, table if k else mapping)
        t_max = pc.t_limit + horizon
        fast = predictor.outbreak_time(threshold, t_max)
        slow = None
        for d in range(horizon + 1):
            if predictor.size_at(pc.t_limit + d) >= threshold:
                slow = pc.t_limit + d
                break
        assert fast == slow
    report(8, "outbreak search matches exhaustive scan", started, budget=60.0)


def test_09_model_ranking(ranking_world):
    started = time.time()
    net, _, cascades = ranking_world
    result = run_experiment(
        "size", cascades, net,
        models=("newer", "exponential", "rayleigh", "cox", "loglinear"),
        folds=10, prefix_sizes=(5, 10, 25), seed=0,
        options=FitOptions(tol=1e-6),
    )
    scores = {(row["model"], row["sweep"]): row["rmsle"] for row in result.rows}
    for s in (5, 10, 25):
        for baseline in ("exponential", "rayleigh", "cox", "loglinear"):
            assert scores[("newer", s)] <= scores[(baseline, s)], (
                f"s={s}: newer {scores[('newer', s)]:.4f} vs "
                f"{baseline} {scores[(baseline, s)]:.4f}")

    # per-user goodness of fit away from the special shapes
    rng = np.random.default_rng(2909)
    for shape_true in (0.7, 1.5, 3.0):
        draws = sample_delays(WeibullParams(4.0, shape_true), 2000, rng)
        sample = {"u": SubcascadeSample("u", draws)}
        opts = FitOptions(min_events=1)
        weibull_fit = fit_model("weibull", sample, options=opts)[0].user_params["u"]
        exp_fit = fit_model("exponential", sample, options=opts)[0].user_params["u"]
        ray_fit = fit_model("rayleigh", sample, options=opts)[0].user_params["u"]
        emp = EmpiricalSurvival.from_delays(draws)
        assert ks_statistic(weibull_fit, emp) < ks_statistic(exp_fit, emp)
        assert ks_statistic(weibull_fit, emp) < ks_statistic(ray_fit, emp)
    report(9, "model ranking", started, budget=600.0)


def test_10_end_to_end_determinism(tmp_path):
    started = time.time()
    from cascadyn.cli import main

    def pipeline(base):
        base.mkdir()
        sim = base / "sim"
        fit = base / "fit"
        pred = base / "pred.jsonl"
        rep = base / "report"
        assert main(["simulate", "--out", str(sim), "--nodes", "400",
                     "--cascades", "250", "--seed", "11",
                     "--retweet-scale", "0.6", "--scale-base", "900",
                     "--gamma", "0.15,0,0,0,0,0"]) == 0
        assert main(["fit", "--network", str(sim / "network.csv"),
                     "--cascades", str(sim / "cascades.jsonl"),
                     "--out", str(fit), "--model", "newer", "--min-events", "3"]) == 0
        assert main(["predict", "--model", str(fit / "model.json"),
                     "--network", str(sim / "network.csv"),
                     "--cascades", str(sim / "cascades.jsonl"),
                     "--features", str(fit / "features.csv"),
                     "--out", str(pred), "--task", "all", "--threshold", "40",
                     "--observe-frac", "0.4"]) == 0
        assert main(["evaluate", "--pred", str(pred),
                     "--truth", str(sim / "cascades.jsonl"),
                     "--out", str(rep), "--threshold", "40"]) == 0
        return {
            "network.csv": (sim / "network.csv").read_bytes(),
            "cascades.jsonl": (sim / "cascades.jsonl").read_bytes(),
            "true_params.json": (sim / "true_params.json").read_bytes(),
            "model.json": (fit / "model.json").read_bytes(),
            "fit_report.json": (fit / "fit_report.json").read_bytes(),
            "features.csv": (fit / "features.csv").read_bytes(),
            "pred.jsonl": pred.read_bytes(),
            "report.csv": (rep / "report.csv").read_bytes(),
            "summary.json": (rep / "summary.json").read_bytes(),
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    for name in first:
        assert first[name] == second[name], f"{name} differs across reruns"
    report(10, "end-to-end determinism", started, budget=600.0)
