import json
import math
import re
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadyn import fitting, userids
from cascadyn.errors import DataError
from cascadyn.features import Network, extract_features, extract_subcascades
from cascadyn.fitting import (
    MODEL_KINDS,
    SCALE_BOUNDS,
    SHAPE_BOUNDS,
    FeatureMatrix,
    FitOptions,
    FittedUsers,
    Hyperparams,
    NewerModel,
    SubcascadeSample,
    SubcascadeTable,
    fit_model,
    fit_newer,
    lasso,
    mean_params,
    median_params,
    newer_objective,
    read_subcascades_jsonl,
    regress_out_of_sample,
    smooth_partials,
    user_log_likelihood,
    write_subcascades_jsonl,
)
from cascadyn.fitting import _newton_box, _Segments
from cascadyn.predict import ModelDynamics
from cascadyn.simulate import dynamics_from_coefficients, gen_feature_matrix, sample_delays
from cascadyn.survival import (
    WeibullParams,
    ks_statistic,
    EmpiricalSurvival,
    weibull_hazard,
    weibull_survival,
)
from cascadyn.userids import intern
from worlds import oracle_lasso_cd, oracle_power_sums, sim_world, worlds


def make_sample(user, delays):
    return SubcascadeSample(user=user, delays=np.asarray(delays, dtype=float))


def synthetic_instance(n_users, events_per_user, seed, *, n_features=4,
                       beta=None, gamma=None, spread=1.0,
                       scale_base=5.0, shape_base=1.2):
    X = gen_feature_matrix(n_users, n_features, seed=seed, spread=spread)
    beta = np.zeros(n_features) if beta is None else np.asarray(beta)
    gamma = np.zeros(n_features) if gamma is None else np.asarray(gamma)
    truth = dynamics_from_coefficients(X, beta, gamma,
                                       scale_base=scale_base, shape_base=shape_base)
    rng = np.random.default_rng(seed + 1)
    samples = {
        u: make_sample(u, sample_delays(p, events_per_user, rng))
        for u, p in truth.items()
    }
    return X, samples, truth


class TestHyperparamDefaults:
    def test_documented_defaults(self):
        from cascadyn.fitting import DEFAULT_HYPERPARAMS

        assert DEFAULT_HYPERPARAMS == Hyperparams(mu=10.0, eta=10.0,
                                                  alpha_beta=6e-5, alpha_gamma=8e-6)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Hyperparams(mu=-1.0)


class TestFitOptions:
    @pytest.mark.parametrize("field, value", [
        ("tol", math.nan), ("tol", math.inf), ("tol", -1.0),
        ("lasso_tol", math.nan), ("lasso_tol", -1e-12),
        ("max_outer", 0),
        ("newton_max_iter", 0),
        ("lasso_max_iter", -1),
        ("min_events", -1),
    ])
    def test_out_of_range_value_names_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            FitOptions(**{field: value})

    def test_range_ends_accepted(self):
        FitOptions(tol=0.0, lasso_tol=0.0, max_outer=1, newton_max_iter=1, lasso_max_iter=1,
                   min_events=0)


def exp_linear_batch(a, r, c):
    """grad_hess of f_i(x) = a_i e^{c_i x} - b_i x with b_i = a_i c_i e^{c_i r_i},
    strictly convex for a_i > 0 and c_i != 0 and stationary at r_i, for a
    batch of entries."""
    b = a * c * np.exp(c * r)

    def grad_hess(x):
        e = a * c * np.exp(c * x)
        return e - b, e * c
    return grad_hess


# stationary points past the box too, so some entries pin to an end
exp_linear_st = st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-14.0, 14.0),
                                   st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
                                   st.floats(-12.0, 12.0), st.sampled_from([0.0, 1e-10, 1e-3])),
                         min_size=1, max_size=8)
box_st = st.tuples(st.floats(-10.0, 9.0), st.floats(0.01, 10.0)).map(
    lambda t: (t[0], t[0] + t[1]))


class TestNewtonBox:
    @given(exp_linear_st, box_st, st.integers(1, 100))
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_each_entry_alone(self, entries, bounds, max_iter):
        a, r, c, x0, gtol = (np.array(col) for col in zip(*entries))
        together = _newton_box(exp_linear_batch(a, r, c), x0, bounds, gtol, max_iter)
        for i in range(len(a)):
            one = slice(i, i + 1)
            alone = _newton_box(exp_linear_batch(a[one], r[one], c[one]), x0[one], bounds,
                                gtol[one], max_iter)
            assert together[one].tobytes() == alone.tobytes()

    @given(exp_linear_st, box_st)
    @settings(max_examples=300, deadline=None)
    def test_minimizer_on_the_box(self, entries, bounds):
        a, r, c, x0, _ = (np.array(col) for col in zip(*entries))
        grad_hess = exp_linear_batch(a, r, c)
        x = _newton_box(grad_hess, x0, bounds, 0.0, 100)
        lo, hi = bounds
        g_lo = grad_hess(np.full(len(a), lo))[0]
        g_hi = grad_hess(np.full(len(a), hi))[0]
        delta = 1e-9 * np.maximum(1.0, np.abs(x))
        g_below = grad_hess(np.maximum(x - delta, lo))[0]
        g_above = grad_hess(np.minimum(x + delta, hi))[0]
        for i in range(len(a)):
            if g_lo[i] >= 0.0:
                assert x[i] == lo
            elif g_hi[i] <= 0.0:
                assert x[i] == hi
            else:
                assert g_below[i] <= 0.0 <= g_above[i]


class TestLogLikelihood:
    def test_exponential_unit_delay(self):
        # m=1, k=1, T=1: 0 + 0 - 0 - 1
        assert user_log_likelihood(WeibullParams(1, 1), make_sample("u", [1.0])) == pytest.approx(-1.0)

    def test_hand_arithmetic(self):
        # lam=2, k=1, T={2,4}: -2 ln 2 - 3
        value = user_log_likelihood(WeibullParams(2, 1), make_sample("u", [2.0, 4.0]))
        assert value == pytest.approx(-2 * math.log(2) - 3, rel=1e-12)

    def test_equals_sum_of_log_hazard_survival(self):
        from cascadyn.survival import weibull_survival_inverse

        rng = np.random.default_rng(0)
        for _ in range(20):
            p = WeibullParams(float(rng.uniform(0.3, 8)), float(rng.uniform(0.4, 4)))
            # draw through the quantile range so the factored product cannot underflow
            delays = [weibull_survival_inverse(p, s) for s in rng.uniform(0.01, 0.99, size=12)]
            direct = user_log_likelihood(p, make_sample("u", delays))
            factored = sum(
                math.log(weibull_hazard(p, t) * weibull_survival(p, t)) for t in delays
            )
            assert direct == pytest.approx(factored, rel=1e-10)

    def test_reparameterized_form_agrees(self):
        # substituting scale' = scale^(-shape) must leave the value unchanged
        rng = np.random.default_rng(1)
        for _ in range(20):
            scale = float(rng.uniform(0.3, 9))
            shape = float(rng.uniform(0.4, 4))
            delays = rng.uniform(0.5, 20, size=8)
            m = len(delays)
            scale_prime = scale ** -shape
            alt = (
                m * math.log(shape)
                + (shape - 1) * float(np.sum(np.log(delays)))
                + m * math.log(scale_prime)
                - scale_prime * float(np.sum(delays ** shape))
            )
            direct = user_log_likelihood(WeibullParams(scale, shape), make_sample("u", delays))
            assert direct == pytest.approx(alt, rel=1e-10)

    def test_rejects_empty_sample(self):
        with pytest.raises(DataError):
            make_sample("u", [])

    def test_rejects_nonpositive_delays(self):
        with pytest.raises(DataError):
            make_sample("u", [1.0, 0.0])

    @pytest.mark.parametrize("delays", [[-math.inf], [math.nan], [math.inf], [1.0, math.nan],
                                        [2.0, math.inf, 1.0], [-1.0, 2.0], [3.0, -0.0]])
    def test_rejects_every_nonpositive_or_non_finite_delay(self, delays):
        with pytest.raises(DataError, match="nonpositive or non-finite"):
            make_sample("u", delays)

    def test_accepts_tiny_positive_delays(self):
        assert make_sample("u", [5.0, 1e-300]).delays.tolist() == [1e-300, 5.0]


def straight_line_objective(model, samples, X):
    """Independent reimplementation of the objective, kept deliberately naive."""
    users = list(model.user_params)
    total = 0.0
    for u in users:
        p = model.user_params[u]
        t = samples[u].delays
        m = len(t)
        li = (
            m * math.log(p.shape)
            + (p.shape - 1) * sum(math.log(v) for v in t)
            - m * p.shape * math.log(p.scale)
            - p.scale ** (-p.shape) * sum(v ** p.shape for v in t)
        )
        total -= li
    n = len(users)
    z = np.log(np.stack([X.row(u) for u in users]))
    log_scale = np.array([math.log(model.user_params[u].scale) for u in users])
    log_shape = np.array([math.log(model.user_params[u].shape) for u in users])
    hp = model.hyperparams
    g2 = np.sum((log_scale - z @ model.beta) ** 2) / (2 * n) + hp.alpha_beta * np.sum(np.abs(model.beta))
    g3 = np.sum((log_shape - z @ model.gamma) ** 2) / (2 * n) + hp.alpha_gamma * np.sum(np.abs(model.gamma))
    return total + hp.mu * g2 + hp.eta * g3


class TestObjective:
    def make_model(self, X, samples, hp, beta=None, gamma=None, params=None):
        users = list(samples)
        r = len(X.names)
        return NewerModel(
            kind="newer",
            feature_names=list(X.names),
            hyperparams=hp,
            beta=np.zeros(r) if beta is None else beta,
            gamma=np.zeros(r) if gamma is None else gamma,
            user_params=params or {u: WeibullParams(1.0, 1.0) for u in users},
            user_events={u: samples[u].n for u in users},
        )

    def test_zero_weights_reduce_to_likelihood(self):
        X, samples, _ = synthetic_instance(5, 10, seed=3)
        hp = Hyperparams(0.0, 0.0, 0.0, 0.0)
        model = self.make_model(X, samples, hp)
        expected = -sum(user_log_likelihood(model.user_params[u], samples[u]) for u in samples)
        assert newer_objective(model, samples) == pytest.approx(expected, rel=1e-12)

    def test_unit_params_zero_coefficients(self):
        X, samples, _ = synthetic_instance(4, 6, seed=4)
        hp = Hyperparams(10.0, 10.0, 6e-5, 8e-6)
        model = self.make_model(X, samples, hp)
        # log 1 = 0 everywhere, so both penalties vanish
        expected = -sum(user_log_likelihood(WeibullParams(1, 1), samples[u]) for u in samples)
        assert newer_objective(model, samples, X) == pytest.approx(expected, rel=1e-12)

    def test_random_instance_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(9)
        X, samples, _ = synthetic_instance(3, 2, seed=9, n_features=2)
        hp = Hyperparams(3.0, 0.7, 0.01, 0.02)
        params = {
            u: WeibullParams(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 3)))
            for u in samples
        }
        model = self.make_model(X, samples, hp,
                                beta=rng.normal(size=2), gamma=rng.normal(size=2),
                                params=params)
        assert newer_objective(model, samples, X) == pytest.approx(
            straight_line_objective(model, samples, X), rel=1e-10)


class TestLasso:
    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        expected, *_ = np.linalg.lstsq(Z, y, rcond=None)
        got, _ = lasso(Z, y, alpha=0.0)
        assert np.allclose(got, expected, atol=1e-6)

    def test_large_penalty_gives_zero(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        alpha = float(np.max(np.abs(Z.T @ y)) / 30) + 1.0
        assert np.all(lasso(Z, y, alpha=alpha)[0] == 0.0)

    def test_no_columns_certified_at_once(self):
        b, certified = lasso(np.empty((3, 0)), np.ones(3), alpha=0.1)
        assert b.shape == (0,) and certified

    def test_soft_threshold_shrinks_toward_zero(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(200, 3))
        b_true = np.array([2.0, 0.0, -1.0])
        y = Z @ b_true + 0.01 * rng.normal(size=200)
        small, _ = lasso(Z, y, alpha=1e-4)
        big, _ = lasso(Z, y, alpha=0.5)
        assert np.sum(np.abs(big)) < np.sum(np.abs(small))


# entries away from the subnormal range, where a Gram diagonal could round
# to a tiny nonzero and blow a coefficient up
_entries = st.floats(-3.0, 3.0).map(lambda v: 0.0 if abs(v) < 1e-3 else v)


@st.composite
def lasso_problems(draw):
    """(Z, y, alpha, warm): n in 1..40 and r in 1..8, so n < r occurs, with
    a zero column and duplicated columns drawn in at will."""
    n, r = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    Z = np.array(draw(st.lists(_entries, min_size=n * r, max_size=n * r))).reshape(n, r)
    columns = st.integers(0, r - 1)
    if draw(st.booleans()):
        Z[:, draw(columns)] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        Z[:, draw(columns)] = Z[:, draw(columns)]
    y = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    alpha = draw(st.floats(0.0, 1.0))
    warm = draw(st.none() | st.lists(_entries, min_size=r, max_size=r).map(np.array))
    return Z, y, alpha, warm


def lasso_objective(Z, y, alpha, b) -> float:
    return float(np.sum((y - Z @ b) ** 2)) / (2.0 * len(y)) + alpha * float(np.sum(np.abs(b)))


class TestLassoProperties:
    @given(lasso_problems())
    @settings(max_examples=300, deadline=None)
    def test_converged_solves_meet_kkt(self, problem):
        Z, y, alpha, warm = problem
        b, certified = lasso(Z, y, alpha, warm=warm, max_iter=3000)
        assert certified
        n = len(y)
        grad = Z.T @ (y - Z @ b) / n
        kkt = np.where(b != 0.0, np.abs(grad - alpha * np.sign(b)),
                       np.maximum(np.abs(grad) - alpha, 0.0))
        zero = ~np.any(Z != 0.0, axis=0)
        assert np.all(kkt[~zero] <= 1e-8 * max(1.0, float(np.max(np.abs(b)))))
        # a zero column moves no prediction, so its L1 penalty sets it to 0, warm or not
        assert np.all(b[zero] == 0.0)

    @given(lasso_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_residual_loop_at_full_column_rank(self, problem):
        Z, y, alpha, warm = problem
        b, _ = lasso(Z, y, alpha, warm=warm, max_iter=2000)
        expected, converged = oracle_lasso_cd(Z, y, alpha, warm=warm, max_iter=2000)
        # never worse than cyclic descent, converged or not, at any rank
        want = lasso_objective(Z, y, alpha, expected)
        assert lasso_objective(Z, y, alpha, b) <= want + 1e-12 * max(1.0, want)
        # a strictly convex problem has one optimum, which a converged loop nears
        if converged and np.linalg.matrix_rank(Z) == Z.shape[1]:
            assert np.all(np.abs(b - expected)
                          <= 1e-9 * max(1.0, float(np.max(np.abs(expected)))))

    @given(lasso_problems())
    @settings(max_examples=100, deadline=None)
    def test_never_raises_the_warm_start_objective(self, problem):
        Z, y, alpha, warm = problem
        if warm is None:
            return
        start = np.where(np.any(Z != 0.0, axis=0), warm, 0.0)
        for max_iter in (1, 2, 3000):
            b, _ = lasso(Z, y, alpha, warm=warm, max_iter=max_iter)
            before = lasso_objective(Z, y, alpha, start)
            assert lasso_objective(Z, y, alpha, b) <= before + 1e-12 * max(1.0, before)

    def test_fewer_rows_than_columns_ends_with_at_most_n_nonzeros(self):
        # columns in general position: the one optimum has at most n nonzeros,
        # while the warm start holds all six
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        b, certified = lasso(Z, y, 6e-5, warm=np.ones(6))
        assert certified
        assert np.count_nonzero(b) <= 5


# one user's delays by how its fit ends: anywhere, at the shape's upper bound
# (all tied), at the scale's bounds (every delay far outside them), or at the
# shape's lower bound (two delays e^207 apart: the MLE shape is about 0.0097)
_DELAY_KINDS = {
    "spread": st.lists(st.integers(1, 40), min_size=1, max_size=12).map(
        lambda ts: [10.0 * t for t in ts]),
    "tied": st.tuples(st.sampled_from([1.0, 7.0, 3600.0]), st.integers(2, 12)).map(
        lambda vm: [vm[0]] * vm[1]),
    "below_scale": st.lists(st.floats(1e-12, 1e-9), min_size=1, max_size=6),
    "above_scale": st.lists(st.floats(1e11, 1e13), min_size=1, max_size=6),
    "below_shape": st.just([1e-40, 1e50]),
}


@st.composite
def newer_worlds(draw):
    """(samples, X, hyperparams) of 1-8 users and 1-8 features, so fewer
    users than features occurs, with tied delays and users pinned at
    ``SCALE_BOUNDS`` or ``SHAPE_BOUNDS``."""
    n, r = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    users = [f"u{i}" for i in range(n)]
    samples = {u: make_sample(u, draw(st.sampled_from(sorted(_DELAY_KINDS)).flatmap(
        _DELAY_KINDS.get))) for u in users}
    values = st.sampled_from([1.0, 2.0, 30.0]) | st.floats(0.5, 1e4)
    X = FeatureMatrix(users, [f"f{j}" for j in range(r)],
                      np.array(draw(st.lists(values, min_size=n * r, max_size=n * r))).reshape(n, r))
    weights = st.sampled_from([0.0, 0.1, 10.0, 1e3])
    hp = Hyperparams(mu=draw(weights), eta=draw(weights),
                     alpha_beta=draw(st.sampled_from([0.0, 6e-5, 0.1])),
                     alpha_gamma=draw(st.sampled_from([0.0, 8e-6, 0.1])))
    return samples, X, hp


class TestNewerDescent:
    @given(newer_worlds())
    @settings(max_examples=150, deadline=None)
    def test_objective_trace_never_rises(self, world):
        samples, X, hp = world
        model, report = fit_newer(samples, X, hp, FitOptions(min_events=1, max_outer=30,
                                                             lasso_max_iter=500))
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
        for p in model.user_params.values():
            assert SCALE_BOUNDS[0] <= p.scale <= SCALE_BOUNDS[1]
            assert SHAPE_BOUNDS[0] <= p.shape <= SHAPE_BOUNDS[1]


class TestFitNewer:
    def test_single_user_mle_recovery(self):
        rng = np.random.default_rng(21)
        draws = sample_delays(WeibullParams(2.0, 1.5), 10000, rng)
        model, report = fit_newer({"u": make_sample("u", draws)}, None,
                                  Hyperparams(0, 0, 0, 0), FitOptions(min_events=1))
        p = model.user_params["u"]
        assert abs(p.scale - 2.0) / 2.0 < 0.05
        assert abs(p.shape - 1.5) / 1.5 < 0.05
        assert report.converged

    def test_objective_trace_nonincreasing(self):
        X, samples, _ = synthetic_instance(30, 60, seed=13,
                                           beta=[0.5, 0, -0.3, 0], gamma=[0.2, 0, 0, 0])
        model, report = fit_newer(samples, X, Hyperparams(), FitOptions(min_events=1))
        trace = np.array(report.objective_trace)
        increases = np.diff(trace) > 1e-9 * np.abs(trace[:-1])
        assert not np.any(increases)

    def test_stationarity_and_finite_difference_match(self):
        X, samples, _ = synthetic_instance(12, 80, seed=14, beta=[0.4, 0, 0, 0])
        hp = Hyperparams()
        model, _ = fit_newer(samples, X, hp, FitOptions(min_events=1, tol=1e-9))
        users, d_scale, d_shape = smooth_partials(model, samples, X)
        assert np.max(np.abs(d_scale)) < 1e-4
        assert np.max(np.abs(d_shape)) < 1e-4
        # central finite differences of the full objective
        for idx in (0, len(users) // 2):
            u = users[idx]
            p = model.user_params[u]
            for attr, analytic in (("scale", d_scale[idx]), ("shape", d_shape[idx])):
                h = 1e-6 * max(1.0, getattr(p, attr))
                hi = replace(model, user_params={**model.user_params,
                                                 u: replace(p, **{attr: getattr(p, attr) + h})})
                lo = replace(model, user_params={**model.user_params,
                                                 u: replace(p, **{attr: getattr(p, attr) - h})})
                fd = (newer_objective(hi, samples, X) - newer_objective(lo, samples, X)) / (2 * h)
                assert analytic == pytest.approx(fd, rel=1e-3, abs=5e-5)

    def test_finite_difference_match_away_from_optimum(self):
        X, samples, _ = synthetic_instance(6, 40, seed=15)
        hp = Hyperparams()
        users = list(samples)
        model = NewerModel(
            kind="newer", feature_names=list(X.names), hyperparams=hp,
            beta=np.full(len(X.names), 0.1), gamma=np.full(len(X.names), -0.05),
            user_params={u: WeibullParams(3.0, 0.8) for u in users},
            user_events={u: samples[u].n for u in users},
        )
        _, d_scale, d_shape = smooth_partials(model, samples, X)
        for idx, u in enumerate(users):
            p = model.user_params[u]
            for attr, analytic in (("scale", d_scale[idx]), ("shape", d_shape[idx])):
                h = 1e-6 * max(1.0, getattr(p, attr))
                hi = replace(model, user_params={**model.user_params,
                                                 u: replace(p, **{attr: getattr(p, attr) + h})})
                lo = replace(model, user_params={**model.user_params,
                                                 u: replace(p, **{attr: getattr(p, attr) - h})})
                fd = (newer_objective(hi, samples, X) - newer_objective(lo, samples, X)) / (2 * h)
                assert analytic == pytest.approx(fd, rel=1e-3)

    def test_coefficient_support_and_sign_recovery(self):
        # intercept-free ground truth, matching the regression's own form
        beta = [0.8, 0.0, -0.5, 0.0]
        gamma = [0.0, 0.35, 0.0, 0.0]
        X, samples, _ = synthetic_instance(120, 800, seed=16, beta=beta, gamma=gamma,
                                           scale_base=1.0, shape_base=1.0)
        hp = Hyperparams(mu=10.0, eta=10.0, alpha_beta=0.01, alpha_gamma=0.01)
        model, _ = fit_newer(samples, X, hp, FitOptions(min_events=1))
        for j, true in enumerate(beta):
            if true == 0.0:
                assert model.beta[j] == 0.0
            else:
                assert math.copysign(1, model.beta[j]) == math.copysign(1, true)
        for j, true in enumerate(gamma):
            if true == 0.0:
                assert model.gamma[j] == 0.0
            else:
                assert math.copysign(1, model.gamma[j]) == math.copysign(1, true)

    def test_warm_start_not_worse_than_cold(self):
        X, samples, _ = synthetic_instance(15, 40, seed=17, beta=[0.3, 0, 0, 0])
        cold_model, cold_report = fit_newer(samples, X, Hyperparams(), FitOptions(min_events=1))
        _, warm_report = fit_newer(samples, X, Hyperparams(), FitOptions(min_events=1),
                                   warm_start=cold_model)
        assert warm_report.objective_trace[-1] <= cold_report.objective_trace[-1] * (1 + 1e-9)

    def test_min_events_excludes_sparse_users(self):
        X, samples, _ = synthetic_instance(6, 10, seed=18)
        users = list(samples)
        samples[users[0]] = make_sample(users[0], samples[users[0]].delays[:3])
        model, _ = fit_newer(samples, X, Hyperparams(), FitOptions(min_events=5))
        assert users[0] not in model.user_params
        assert all(u in model.user_params for u in users[1:])

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_likelihood_passes_per_outer_iteration(self, monkeypatch, eta):
        # outside the Newton solves, one moments pass before the descent and
        # one per outer iteration, at its new shapes: it serves that
        # iteration's objective, the shape safeguard's likelihoods at the
        # old shapes when eta > 0, and the next scale block
        X, samples, _ = synthetic_instance(15, 40, seed=20, beta=[0.3, 0, 0, 0])
        solving, outside = [], []
        moments, newton_box = _Segments.moments, fitting._newton_box

        def counted_box(*args):
            solving.append(1)
            try:
                return newton_box(*args)
            finally:
                solving.pop()

        monkeypatch.setattr(fitting, "_newton_box", counted_box)
        monkeypatch.setattr(_Segments, "moments",
                            lambda self, k: outside.append(not solving) or moments(self, k))
        _, report = fit_newer(samples, X, Hyperparams(mu=1.0, eta=eta),
                              FitOptions(min_events=1, max_outer=3, tol=0.0))
        assert report.iterations == 3
        assert sum(outside) == 1 + report.iterations
        assert len(outside) > sum(outside)  # the shape solves read moments too

    def test_missing_feature_row_rejected(self):
        X, samples, _ = synthetic_instance(3, 10, seed=19)
        samples["ghost"] = make_sample("ghost", np.full(10, 2.0))
        with pytest.raises(DataError):
            fit_newer(samples, X, Hyperparams(), FitOptions(min_events=1))


class TestBaselines:
    def test_exponential_closed_form_is_mean(self):
        params = fit_model("exponential", {"u": make_sample("u", [1, 2, 3])},
                           options=FitOptions(min_events=1))[0].user_params
        assert params["u"].scale == pytest.approx(2.0, abs=1e-9)
        assert params["u"].shape == 1.0

    def test_rayleigh_closed_form_is_rms(self):
        params = fit_model("rayleigh", {"u": make_sample("u", [1, 1])},
                           options=FitOptions(min_events=1))[0].user_params
        assert params["u"].scale == pytest.approx(1.0, abs=1e-9)
        assert params["u"].shape == 2.0

    def test_closed_forms_match_stationarity_oracle(self):
        rng = np.random.default_rng(30)
        delays = rng.uniform(0.5, 20, size=200)
        sample = make_sample("u", delays)
        exp_scale = fit_model("exponential", {"u": sample},
                              options=FitOptions(min_events=1))[0].user_params["u"].scale
        assert exp_scale == pytest.approx(float(np.mean(delays)), rel=1e-9)
        ray_scale = fit_model("rayleigh", {"u": sample},
                              options=FitOptions(min_events=1))[0].user_params["u"].scale
        assert ray_scale == pytest.approx(float(np.sqrt(np.mean(delays ** 2))), rel=1e-9)

    def test_cox_recovers_common_shape(self):
        rng = np.random.default_rng(31)
        true_shape = 1.8
        samples = {}
        for i in range(20):
            scale = float(rng.uniform(1, 10))
            samples[f"u{i}"] = make_sample(
                f"u{i}", sample_delays(WeibullParams(scale, true_shape), 400, rng))
        params = fit_model("cox", samples, options=FitOptions(min_events=1))[0].user_params
        shapes = {p.shape for p in params.values()}
        assert len(shapes) == 1
        shared = shapes.pop()
        assert abs(shared - true_shape) / true_shape < 0.05

    def test_weibull_shapes_are_profile_stationary(self):
        X, samples = uneven_instance()
        model, report = fit_model("weibull", samples, X, options=FitOptions(min_events=1))
        assert report.converged and report.iterations >= 1
        pinned = 0
        for u, p in model.user_params.items():
            g, mag = profile_derivative(samples[u].delays, p.shape)
            if p.shape in SHAPE_BOUNDS:
                pinned += 1
            else:
                assert abs(g) <= 1e-8 * mag
            assert p.scale == pytest.approx(closed_form_scale(samples[u].delays, p.shape),
                                            rel=1e-12)
        assert pinned < len(model.user_params) // 2
        expected = -sum(user_log_likelihood(p, samples[u]) for u, p in model.user_params.items())
        assert report.objective_trace == [pytest.approx(expected, rel=1e-12)]

    def test_weibull_objective_not_above_unregularized_newer(self):
        for seed in (32, 70):
            X, samples = uneven_instance(seed)
            opts = FitOptions(min_events=1)
            _, report = fit_model("weibull", samples, X, options=opts)
            _, descent = fit_newer(samples, None, Hyperparams(0, 0, 0, 0), opts)
            exact, reached = report.objective_trace[-1], descent.objective_trace[-1]
            assert exact <= reached + 1e-12 * abs(reached)

    def test_weibull_ks_beats_fixed_shape_fits(self):
        rng = np.random.default_rng(33)
        for true_shape in (0.7, 3.0):
            draws = sample_delays(WeibullParams(4.0, true_shape), 3000, rng)
            sample = {"u": make_sample("u", draws)}
            opts = FitOptions(min_events=1)
            fits = {
                kind: fit_model(kind, sample, options=opts)[0].user_params["u"]
                for kind in ("weibull", "exponential", "rayleigh")
            }
            emp = EmpiricalSurvival.from_delays(draws)
            ks = {kind: ks_statistic(p, emp) for kind, p in fits.items()}
            assert ks["weibull"] < ks["exponential"]
            assert ks["weibull"] < ks["rayleigh"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_model("cauchy", {"u": make_sample("u", [1, 2])},
                      options=FitOptions(min_events=1))


def scalar_cox_oracle(samples, newton_max_iter=100):
    """The shared-shape fit as a per-user scalar loop: each round sets every
    scale in closed form for the current shape, then solves the pooled
    shape equation by bisection-guarded Newton. Returns (scales, shape,
    objective trace)."""
    users = list(samples)
    log_t = [np.log(samples[u].delays) for u in users]
    m = [samples[u].n for u in users]
    sum_log_t = [float(np.sum(lt)) for lt in log_t]

    def power_sums(lt, log_scale, k):
        dz = lt - log_scale
        w = np.exp(np.minimum(k * dz, 700.0))
        return float(np.sum(w)), float(np.sum(w * dz)), float(np.sum(w * dz * dz))

    def closed_form_scale(lt, k):
        z = k * lt
        zm = float(np.max(z))
        u = (zm + math.log(float(np.sum(np.exp(z - zm)))) - math.log(lt.size)) / k
        return math.exp(min(max(u, math.log(1e-6)), math.log(1e9)))

    def pooled_objective(k, scales):
        total = 0.0
        for i in range(len(users)):
            s0, _, _ = power_sums(log_t[i], math.log(scales[i]), k)
            total -= (m[i] * math.log(k) + (k - 1.0) * sum_log_t[i]
                      - m[i] * k * math.log(scales[i]) - s0)
        return total

    shared = 1.0
    scales = [float(np.mean(samples[u].delays)) for u in users]
    trace = [pooled_objective(shared, scales)]
    for _ in range(100):
        scales = [closed_form_scale(lt, shared) for lt in log_t]
        log_scales = [math.log(s) for s in scales]

        def df(k):
            return sum(-m[i] / k - sum_log_t[i] + m[i] * log_scales[i]
                       + power_sums(log_t[i], log_scales[i], k)[1] for i in range(len(users)))

        def d2f(k):
            return sum(m[i] / (k * k) + power_sums(log_t[i], log_scales[i], k)[2]
                       for i in range(len(users)))

        lo, hi = SHAPE_BOUNDS
        if df(lo) >= 0.0:
            shared = lo
        elif df(hi) <= 0.0:
            shared = hi
        else:
            x = min(max(shared, lo), hi)
            for _ in range(newton_max_iter):
                g = df(x)
                if g == 0.0:
                    break
                if g < 0.0:
                    lo = x
                else:
                    hi = x
                h = d2f(x)
                step = x - g / h if h > 0.0 else lo
                x = step if lo < step < hi else 0.5 * (lo + hi)
                if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
                    break
            shared = x
        trace.append(pooled_objective(shared, scales))
        if abs(trace[-2] - trace[-1]) <= 1e-10 * max(1.0, abs(trace[-2])):
            break
    return dict(zip(users, scales)), shared, trace


def uneven_instance(seed=70):
    """Users whose shapes differ (so cox takes several rounds) and whose
    sample sizes differ (so a segment-boundary slip shows)."""
    X, samples, _ = synthetic_instance(24, 60, seed=seed, beta=[0.5, 0, -0.3, 0],
                                       gamma=[0.4, 0, 0, 0.3], spread=1.5)
    for i, u in enumerate(samples):
        samples[u] = make_sample(u, samples[u].delays[:1 + (7 * i) % 60])
    return X, samples


def profile_derivative(delays, shape):
    """d/dk of one user's negative log-likelihood profiled over the
    closed-form scale, -m/k - sum(log t) + m sum(t^k log t) / sum(t^k),
    straight from the formula, and the summed magnitude of its terms."""
    log_t = np.log(delays)
    w = np.exp(shape * (log_t - log_t.max()))
    weighted = float(np.sum(w * log_t) / np.sum(w))
    m = log_t.size
    g = -m / shape - float(np.sum(log_t)) + m * weighted
    return g, m / shape + float(np.sum(np.abs(log_t))) + m * abs(weighted)


def closed_form_scale(delays, shape):
    """(mean t^k)^(1/k), the scale that maximizes the likelihood at shape k."""
    return float(np.mean(np.asarray(delays) ** shape) ** (1.0 / shape))


def pooled_shape_gradient(params, samples):
    """d/dk of the pooled negative log-likelihood at the fitted scales, and
    the summed magnitude of its terms."""
    g = mag = 0.0
    for u, p in params.items():
        t = samples[u].delays
        lw = np.log(t / p.scale)
        w = np.exp(p.shape * lw)
        g += -t.size / p.shape + float(np.sum(lw * (w - 1.0)))
        mag += t.size / p.shape + float(np.sum(np.abs(lw) * (w + 1.0)))
    return g, mag


delay_st = st.sampled_from([1.0, 2.0, 7.0, 60.0]) | st.floats(1.0, 1e4)
world_st = st.lists(st.lists(delay_st, min_size=1, max_size=8), min_size=1, max_size=6)


@st.composite
def kernel_st(draw):
    """A world of delays with one log scale and one shape per user, each
    anywhere in its fitting box."""
    world = draw(world_st)
    per_user = partial(st.lists, min_size=len(world), max_size=len(world))
    return (world, draw(per_user(st.floats(*map(math.log, SCALE_BOUNDS)))),
            draw(per_user(st.floats(*SHAPE_BOUNDS))))


class TestBaselineKernels:
    @given(kernel_st())
    @example(([[1.0, 1e4], [60.0, 60.0, 2.0], [7.0]],  # k d > 700 for the first user
              [math.log(SCALE_BOUNDS[0]), 3.0, math.log(SCALE_BOUNDS[1])],
              [SHAPE_BOUNDS[1], 0.5, SHAPE_BOUNDS[0]]))
    @settings(max_examples=300, deadline=None)
    def test_power_sums_match_per_entry_oracle(self, drawn):
        world, log_scale, shape = drawn
        n = len(world)
        m = np.array([len(d) for d in world])
        flat = np.log(np.concatenate(world))
        log_scale, shape = np.array(log_scale), np.array(shape)
        seg = _Segments(flat, m)
        d = seg.top - log_scale
        y_max = -np.minimum.reduceat(seg.flat, seg.starts)  # largest |y| of each user
        # one shape per user, as the shape block reads; one shared by all
        for k, kernel_k in ((shape, shape), (np.repeat(shape[:1], n), shape[:1])):
            with np.errstate(over="raise"):
                got = seg.power_sums(log_scale, k, seg.moments(kernel_k))
            want = oracle_power_sums(flat, m, log_scale, k)
            clamped = k * d > 700.0  # the oracle clamps some entry of these users
            # each power p is exp of a sum of terms of magnitude at most
            # A = k (|y| + |d|) <= 50 * (9.3 + 23.1), rounded to within eps A
            # by either route, and the sums add the m terms p (|y| + |d|)^j
            # in another grouping: |got - want| <= 4 eps (A + m + 1) M_j, with
            # M_j the sum of those terms. A power below the normal range may
            # flush to 0 on one route only: m (|y| + |d| + 1)^j smallest
            # normals more
            a = k * (y_max + np.abs(d))
            p = np.exp(np.minimum(np.repeat(k * d, m) + np.repeat(k, m) * seg.flat, 700.0))
            for j in range(3):
                assert np.all(np.isfinite(got[j]))
                mag = np.add.reduceat(p * (np.abs(seg.flat) + np.repeat(np.abs(d), m)) ** j,
                                      seg.starts)
                tol = (4 * np.finfo(float).eps * (a + m + 1) * mag
                       + np.finfo(float).tiny * m * (y_max + np.abs(d) + 1) ** j)
                ok = np.abs(got[j] - want[j]) <= tol
                assert np.all(ok | clamped), (j, got[j], want[j], tol)
            # clamped once per user, not per entry: saturated, and no larger
            s0 = got[0][clamped]
            assert np.all(s0 >= math.exp(700.0))
            assert np.all(s0 <= want[0][clamped] * (1 + 1e-12))
        s0 = oracle_power_sums(flat, m, log_scale, shape)[0]
        want = m * np.log(shape) + (shape - 1.0) * np.add.reduceat(flat, seg.starts) \
            - m * shape * log_scale - s0
        lis = seg.log_likelihoods(log_scale, shape, seg.moments(shape))
        free = shape * d <= 700.0
        assert np.all((np.abs(lis - want) <= 1e-12 * (np.abs(want) + s0 + m))[free])

    def test_cox_matches_scalar_oracle(self):
        # the oracle stops once a round moves the objective by 1e-10
        # relative, so its own shape misses the optimum (by 1.2e-7 here)
        X, samples = uneven_instance()
        model, report = fit_model("cox", samples, X, options=FitOptions(min_events=1))
        _, shared, trace = scalar_cox_oracle(samples)
        assert len(trace) > 3  # the oracle takes several rounds
        assert report.converged and report.iterations >= 1
        assert report.objective_trace[-1] <= trace[-1]
        shapes = {p.shape for p in model.user_params.values()}
        assert len(shapes) == 1
        assert shapes.pop() == pytest.approx(shared, abs=1e-5)
        for u, p in model.user_params.items():
            assert p.scale == pytest.approx(closed_form_scale(samples[u].delays, p.shape),
                                            rel=1e-12)
        assert set(model.user_params) == set(samples)

    def test_fixed_shape_scales_per_user(self):
        X, samples = uneven_instance()
        opts = FitOptions(min_events=1)
        exp_model, _ = fit_model("exponential", samples, X, options=opts)
        ray_model, _ = fit_model("rayleigh", samples, X, options=opts)
        for u, s in samples.items():
            assert exp_model.user_params[u].scale == pytest.approx(
                float(np.mean(s.delays)), rel=1e-9)
            assert ray_model.user_params[u].scale == pytest.approx(
                float(np.sqrt(np.mean(s.delays ** 2))), rel=1e-9)

    def test_fixed_shape_trace_is_pooled_likelihood(self):
        X, samples = uneven_instance()
        model, report = fit_model("rayleigh", samples, X, options=FitOptions(min_events=1))
        expected = -sum(user_log_likelihood(p, samples[u]) for u, p in model.user_params.items())
        assert report.objective_trace == [pytest.approx(expected, rel=1e-12)]
        assert report.converged and report.iterations == 0

    def test_cox_round_cap_reports_not_converged(self):
        X, samples = uneven_instance()
        _, capped = fit_model("cox", samples, X,
                              options=FitOptions(min_events=1, newton_max_iter=1))
        assert capped.converged is False
        assert capped.iterations == 1
        _, full = fit_model("cox", samples, X, options=FitOptions(min_events=1))
        assert full.converged is True
        assert full.iterations > 1

    @given(world_st)
    @settings(max_examples=150, deadline=None)
    def test_cox_descends_to_a_stationary_shape(self, world):
        samples = {f"u{i}": make_sample(f"u{i}", d) for i, d in enumerate(world)}
        model, report = fit_model("cox", samples, None, options=FitOptions(min_events=1))
        trace = report.objective_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))
        shared = next(iter(model.user_params.values())).shape
        if shared not in SHAPE_BOUNDS:
            g, mag = pooled_shape_gradient(model.user_params, samples)
            assert abs(g) <= 1e-8 * mag


class TestOutOfSample:
    def test_zero_coefficients_give_unit_params(self):
        model = NewerModel(kind="newer", feature_names=["a", "b"],
                           hyperparams=Hyperparams(), beta=np.zeros(2), gamma=np.zeros(2),
                           user_params={}, user_events={})
        p = regress_out_of_sample(model, np.array([7.0, 0.5]))
        assert p == WeibullParams(1.0, 1.0)

    def test_all_ones_features_give_unit_params(self):
        model = NewerModel(kind="newer", feature_names=["a", "b"],
                           hyperparams=Hyperparams(), beta=np.array([2.0, -3.0]),
                           gamma=np.array([0.7, 0.1]), user_params={}, user_events={})
        assert regress_out_of_sample(model, np.ones(2)) == WeibullParams(1.0, 1.0)

    def test_strong_regularization_pulls_params_to_regression(self):
        X, samples, _ = synthetic_instance(20, 200, seed=40, beta=[0.6, 0, 0, 0],
                                           gamma=[0.25, 0, 0, 0],
                                           scale_base=1.0, shape_base=1.0)
        model, _ = fit_newer(samples, X, Hyperparams(mu=1e4, eta=1e4,
                                                     alpha_beta=0.0, alpha_gamma=0.0),
                             FitOptions(min_events=1, max_outer=1500, tol=1e-12))
        for u in list(samples)[:5]:
            regressed = regress_out_of_sample(model, X.row(u))
            fitted = model.user_params[u]
            assert regressed.scale == pytest.approx(fitted.scale, rel=0.05)
            assert regressed.shape == pytest.approx(fitted.shape, rel=0.05)

    def test_rejects_nonpositive_features(self):
        model = NewerModel(kind="newer", feature_names=["a"],
                           hyperparams=Hyperparams(), beta=np.zeros(1), gamma=np.zeros(1),
                           user_params={}, user_events={})
        with pytest.raises(ValueError):
            regress_out_of_sample(model, np.array([0.0]))

    def test_param_averages(self):
        model = NewerModel(kind="weibull", feature_names=[], hyperparams=Hyperparams(),
                           beta=np.zeros(0), gamma=np.zeros(0),
                           user_params={"a": WeibullParams(1, 1), "b": WeibullParams(3, 2)},
                           user_events={"a": 5, "b": 5})
        assert mean_params(model) == WeibullParams(2.0, 1.5)
        assert median_params(model) == WeibullParams(2.0, 1.5)


class TestModelFile:
    def test_round_trip_is_lossless(self, tmp_path):
        X, samples, _ = synthetic_instance(8, 30, seed=50, beta=[0.3, 0, 0, 0])
        model, _ = fit_newer(samples, X, Hyperparams(), FitOptions(min_events=1))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = NewerModel.load(path)
        assert loaded.kind == model.kind
        assert loaded.feature_names == model.feature_names
        assert loaded.hyperparams == model.hyperparams
        assert np.array_equal(loaded.beta, model.beta)
        assert np.array_equal(loaded.gamma, model.gamma)
        assert loaded.user_params == model.user_params
        assert loaded.user_events == model.user_events

    def test_file_schema_fields(self, tmp_path):
        X, samples, _ = synthetic_instance(3, 12, seed=51)
        model, _ = fit_model("newer", samples, X, options=FitOptions(min_events=1))
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) >= {"schema_version", "feature_names", "hyperparams",
                            "beta", "gamma", "users"}
        assert set(doc["hyperparams"]) == {"mu", "eta", "alpha_beta", "alpha_gamma"}
        for rec in doc["users"]:
            assert set(rec) == {"id", "lambda", "k", "n_events"}

    def test_bad_file_raises_data_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            NewerModel.load(path)

    @pytest.mark.parametrize("name", ["beta", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficients_refused(self, name, bad):
        coefs = {"beta": np.zeros(2), "gamma": np.zeros(2)}
        coefs[name][0] = bad
        with pytest.raises(DataError, match=f"{name} must be finite"):
            NewerModel(kind="newer", feature_names=["f1", "f2"], hyperparams=Hyperparams(),
                       user_params={}, user_events={}, **coefs)

    def saved_doc(self, tmp_path):
        X, samples, _ = synthetic_instance(3, 12, seed=51)
        model, _ = fit_model("newer", samples, X, options=FitOptions(min_events=1))
        return model.to_json_dict()

    def test_nan_coefficient_in_file_refused(self, tmp_path):
        doc = self.saved_doc(tmp_path)
        doc["beta"][0] = math.nan
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))  # json writes NaN unless told not to
        with pytest.raises(DataError, match=rf"model file {path}: beta must be finite"):
            NewerModel.load(path)

    @pytest.mark.parametrize("field, value", [("lambda", math.inf), ("k", -1.0),
                                              ("lambda", "fast"), ("n_events", "many"),
                                              ("n_events", -3), ("n_events", 2.7),
                                              ("n_events", True)])
    def test_bad_user_record_names_file_and_user(self, tmp_path, field, value):
        doc = self.saved_doc(tmp_path)
        doc["users"][1][field] = value
        user = doc["users"][1]["id"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"model file {path}: bad record for user {user!r}"):
            NewerModel.load(path)

    def test_duplicate_user_refused(self, tmp_path):
        doc = self.saved_doc(tmp_path)
        user = doc["users"][0]["id"]
        doc["users"][1]["id"] = user  # two records, one user
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"model file {path}: duplicate user {user!r}"):
            NewerModel.load(path)


class TestSubcascadeFiles:
    def test_round_trip(self, tmp_path):
        samples = {
            "a": make_sample("a", [1.0, 2.5, 9.0]),
            "b": make_sample("b", [4.0]),
        }
        path = tmp_path / "subcascades.jsonl"
        write_subcascades_jsonl(path, samples)
        loaded = read_subcascades_jsonl(path)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"].delays, samples["a"].delays)

    def test_duplicate_user_rejected(self, tmp_path):
        path = tmp_path / "subcascades.jsonl"
        path.write_text('{"user": "a", "delays": [1]}\n{"user": "a", "delays": [2]}\n')
        with pytest.raises(DataError):
            read_subcascades_jsonl(path)

    @pytest.mark.parametrize("record", [
        '{"user": "b", "delays": ["x"]}',
        '{"user": "b", "delays": [1.0, -2.0]}',
        '{"user": "b", "delays": [1.0, NaN]}',
        '{"user": "b", "delays": [Infinity]}',
        '{"user": "b", "delays": []}',
        '{"user": "b", "delays": 4.0}',
        '{"user": "b", "delays": [[1.0, 2.0]]}',
        '{"user": "b", "delays": null}',
        '{"user": "b"}',
        '["b", [1.0]]',
        '{"user": "b", "delays": [1.0',
    ])
    def test_bad_record_names_file_and_line(self, tmp_path, record):
        path = tmp_path / "subcascades.jsonl"
        path.write_text('{"user": "a", "delays": [1.0]}\n\n' + record + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: bad subcascade record"):
            read_subcascades_jsonl(path)


class TestFitModelWrapper:
    def test_baseline_models_regress_scale(self):
        X, samples, truth = synthetic_instance(25, 150, seed=60, beta=[0.5, 0, 0, 0],
                                               scale_base=1.0, shape_base=1.0)
        model, _ = fit_model("exponential", samples, X, options=FitOptions(min_events=1))
        assert model.kind == "exponential"
        assert all(p.shape == 1.0 for p in model.user_params.values())
        # regression should track the generative scale trend
        hidden = list(samples)[0]
        predicted = regress_out_of_sample(model, X.row(hidden))
        assert predicted.scale == pytest.approx(truth[hidden].scale, rel=0.5)

    def test_cox_model_has_shared_shape(self):
        X, samples, _ = synthetic_instance(10, 100, seed=61)
        model, _ = fit_model("cox", samples, X, options=FitOptions(min_events=1))
        shapes = {p.shape for p in model.user_params.values()}
        assert len(shapes) == 1

    def test_unknown_kind_rejected(self):
        X, samples, _ = synthetic_instance(3, 10, seed=62)
        with pytest.raises(ValueError):
            fit_model("cauchy", samples, X)


def fit_outputs(kind, samples, X, opts):
    model, report = fit_model(kind, samples, X, options=opts)
    return (model.kind, model.feature_names, list(model.user_params.items()), model.user_events,
            model.beta.tobytes(), model.gamma.tobytes(), report.to_dict())


class TestWarmStart:
    @pytest.mark.parametrize("kind", ["exponential", "rayleigh", "cox"])
    def test_a_fit_that_would_ignore_it_refuses_it(self, kind):
        X, samples = uneven_instance()
        opts = FitOptions(min_events=1)
        warm, _ = fit_model("weibull", samples, X, options=opts)
        with pytest.raises(DataError, match=f"a {kind} fit takes no warm start"):
            fit_model(kind, samples, X, options=opts, warm_start=warm)

    def test_weibull_starts_from_the_warm_shapes(self):
        X, samples = uneven_instance()
        opts = FitOptions(min_events=1)
        cold, cold_report = fit_model("weibull", samples, X, options=opts)
        warm, warm_report = fit_model("weibull", samples, X, options=opts, warm_start=cold)
        assert warm_report.converged
        assert warm_report.iterations < cold_report.iterations
        for u, p in cold.user_params.items():
            assert warm.user_params[u].shape == pytest.approx(p.shape, rel=1e-9)
            assert warm.user_params[u].scale == pytest.approx(p.scale, rel=1e-9)


class TestTableInput:
    """Every fit reads a ``SubcascadeTable``; any other mapping is turned
    into one, so it must give the same fit, bit for bit."""

    @pytest.mark.parametrize("kind", ["newer", "weibull", "exponential", "rayleigh", "cox"])
    @pytest.mark.parametrize("min_events", [1, 3])
    def test_table_and_dict_fit_identically(self, kind, min_events):
        net, cascades = sim_world()
        table = extract_subcascades(cascades)
        assert isinstance(table, SubcascadeTable)
        X = extract_features(net, cascades)
        opts = FitOptions(min_events=min_events, max_outer=20)
        got = fit_outputs(kind, table, X, opts)
        assert got == fit_outputs(kind, dict(table), X, opts)
        assert got == fit_outputs(kind, list(table.values()), X, opts)
        fitted = {u for u, _ in got[2]}
        assert fitted == {u for u, s in table.items() if s.n >= min_events}
        if min_events > 1:
            assert len(fitted) < len(table)  # some users excluded

    @pytest.mark.parametrize("kind", ["newer", "weibull", "exponential", "rayleigh", "cox"])
    def test_missing_feature_row_refused_alike(self, kind):
        net, cascades = sim_world()
        table = extract_subcascades(cascades)
        X = extract_features(net, cascades)
        kept = [u for u, s in table.items() if s.n >= 3]
        X = X.subset([u for u in X.users if u != kept[1]])
        opts = FitOptions(min_events=3, max_outer=5)
        errors = []
        for samples in (table, dict(table)):
            if kind == "weibull":  # fits without features
                fit_model(kind, samples, X, options=opts)
                continue
            with pytest.raises(DataError, match="users without feature rows") as info:
                fit_model(kind, samples, X, options=opts)
            errors.append(str(info.value))
        assert len(set(errors)) <= 1
        assert all(repr(kept[1]) in e for e in errors)


class TestFittedUsers:
    def make(self):
        return NewerModel(kind="weibull", feature_names=[], hyperparams=Hyperparams(),
                          beta=np.zeros(0), gamma=np.zeros(0),
                          user_params={"b": WeibullParams(3.0, 2.0), "a": WeibullParams(1.0, 0.5)},
                          user_events={"b": 7})

    def test_mapping_behaviour(self):
        model = self.make()
        fitted = model.user_params
        assert isinstance(fitted, FittedUsers)
        assert list(fitted) == fitted.users == ["b", "a"]  # the given order, not sorted
        assert len(fitted) == 2 and "a" in fitted and "c" not in fitted
        assert fitted["a"] == WeibullParams(1.0, 0.5)
        assert fitted.get("c") is None
        assert fitted == {"b": WeibullParams(3.0, 2.0), "a": WeibullParams(1.0, 0.5)}
        with pytest.raises(TypeError):
            fitted["c"] = WeibullParams(1.0, 1.0)
        assert dict(model.user_events) == {"b": 7, "a": 0}  # a missing count is 0
        assert model.user_events is fitted.event_counts
        assert fitted.ids.tolist() == intern(["b", "a"]).tolist()

    def test_arrays_are_read_only(self):
        fitted = self.make().user_params
        for a in (fitted.ids, fitted.scales, fitted.shapes, fitted.events):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_replace_keeps_or_rebuilds_the_table(self):
        model = self.make()
        same = replace(model, beta=np.zeros(0))
        assert same.user_params is model.user_params
        changed = replace(model, user_params={**model.user_params, "a": WeibullParams(9.0, 1.0)})
        assert changed.user_params["a"] == WeibullParams(9.0, 1.0)
        assert dict(changed.user_events) == {"b": 7, "a": 0}

    def test_counts_without_parameters_refused(self):
        with pytest.raises(DataError, match="without parameters: \\['ghost'\\]"):
            NewerModel(kind="weibull", feature_names=[], hyperparams=Hyperparams(),
                       beta=np.zeros(0), gamma=np.zeros(0),
                       user_params={"a": WeibullParams(1.0, 1.0)},
                       user_events={"a": 3, "ghost": 2})

    @pytest.mark.parametrize("field", ["scales", "shapes"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_bad_value_names_the_user(self, field, bad):
        values = {"scales": np.array([1.0, 2.0]), "shapes": np.array([1.0, 2.0])}
        values[field][1] = bad
        with pytest.raises(ValueError, match=f"user 'y': {field[:-1]} must be a positive finite"):
            FittedUsers(["x", "y"], intern(["x", "y"]), values["scales"], values["shapes"],
                        np.array([5, 5]))


class TestArrayPath:
    """Between extraction and lookup, fits and dynamics tables run on user
    ids and arrays: no per-user parameter object, no name interned."""

    def test_no_per_user_objects_or_names(self, monkeypatch):
        net, cascades = sim_world()
        table = extract_subcascades(cascades)
        X = extract_features(net, cascades)
        built = []
        post_init = WeibullParams.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(WeibullParams, "__post_init__", counting)
        names = len(userids._IDS)
        for kind in MODEL_KINDS:
            model, _ = fit_model(kind, table, X, options=FitOptions(min_events=3, max_outer=5))
            ModelDynamics(model, X)
        assert built == []
        assert len(userids._IDS) == names
        ModelDynamics(model, X)("nobody")  # the counter works: a lookup builds one
        assert len(built) == 1

    @settings(max_examples=60, deadline=None)
    @given(world=worlds(), kind=st.sampled_from(MODEL_KINDS), min_events=st.integers(1, 2))
    def test_fitted_and_loaded_models_agree(self, world, kind, min_events):
        nodes, edges, cascades = world
        net = Network(nodes=nodes, edges=edges)
        table = extract_subcascades(cascades)
        X = extract_features(net, cascades)
        assert table.user_ids.tolist() == intern(table.users).tolist()
        assert X.user_ids.tolist() == intern(X.users).tolist()
        try:
            model, _ = fit_model(kind, table, X,
                                 options=FitOptions(min_events=min_events, max_outer=5))
        except DataError as exc:
            assert "no user has enough events" in str(exc)
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            model.save(path)
            loaded = NewerModel.load(path)
        assert loaded.to_json_dict() == model.to_json_dict()
        fitted, read = ModelDynamics(model, X), ModelDynamics(loaded, X)
        assert fitted._params.tobytes() == read._params.tobytes()
        assert fitted._covered.tobytes() == read._covered.tobytes()
