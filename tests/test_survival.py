import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadyn.survival import (
    EmpiricalSurvival,
    WeibullParams,
    empirical_survival_at,
    ks_statistic,
    weibull_hazard,
    weibull_pdf,
    weibull_survival,
    weibull_survival_inverse,
)

params_st = st.builds(
    WeibullParams,
    scale=st.floats(0.05, 50.0),
    shape=st.floats(0.2, 8.0),
)


class TestPdf:
    def test_exponential_origin_limit(self):
        # Exponential(1) density tends to 1 at the origin
        assert weibull_pdf(WeibullParams(1, 1), 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_exponential_at_one(self):
        assert weibull_pdf(WeibullParams(1, 1), 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_matches_negative_survival_derivative(self):
        # central finite difference of -S(t), step 1e-6
        p = WeibullParams(2, 3)
        h = 1e-6
        fd = -(weibull_survival(p, 1.5 + h) - weibull_survival(p, 1.5 - h)) / (2 * h)
        value = weibull_pdf(p, 1.5)
        assert value == pytest.approx(fd, rel=1e-7)
        assert value == pytest.approx(0.5533447595103295, rel=1e-12)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            weibull_pdf(WeibullParams(1, 1), 0.0)
        with pytest.raises(ValueError):
            weibull_pdf(WeibullParams(1, 1), -1.0)


class TestSurvival:
    def test_zero_time_is_one(self):
        assert weibull_survival(WeibullParams(3.7, 0.4), 0.0) == 1.0

    def test_rayleigh_at_scale(self):
        assert weibull_survival(WeibullParams(1, 2), 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_direct_value_against_quadrature(self):
        # 1 - integral of the pdf up to t, adaptive quadrature
        from scipy.integrate import quad

        p = WeibullParams(3, 0.8)
        integral, _ = quad(lambda t: weibull_pdf(p, t), 0, 5)
        value = weibull_survival(p, 5.0)
        assert value == pytest.approx(1.0 - integral, abs=1e-8)
        assert value == pytest.approx(0.22206153464944473, rel=1e-12)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            weibull_survival(WeibullParams(1, 1), -0.1)

    def test_strictly_decreasing(self):
        p = WeibullParams(2.0, 1.3)
        ts = np.linspace(0.1, 20, 50)
        vals = weibull_survival(p, ts)
        assert np.all(np.diff(vals) < 0)

    def test_python_number_is_one_at_zero_and_refused_when_not_finite(self):
        p = WeibullParams(3.7, 0.4)
        assert weibull_survival(p, 0.0) == 1.0
        assert weibull_survival(p, 0) == 1.0
        for bad in (-1e-9, -5.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t >= 0"):
                weibull_survival(p, bad)


class TestScalarSurvival:
    """A Python-number t takes the scalar branch (``math`` on floats), an
    array t the numpy branch; both evaluate exp(-exp(z)) with
    z = min(shape * (log t - log scale), 700)."""

    @given(params_st, st.floats(0.0, 1e12))
    @example(WeibullParams(1.0, 3.0), 5.122795091327945)  # z = 4.9: one ulp is 4 eps
    @example(WeibullParams(31.538087716434642, 7.624615293730926), 31.508205129707683)
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_array_branch(self, p, t):
        scalar = weibull_survival(p, t)
        array = float(weibull_survival(p, np.array([t]))[0])
        # numpy's log and exp may each round an ulp away from libm's, an
        # error of at most eps relative. z = shape * (log t - log scale):
        # the two logs of t differ by <= 2 eps |log t|, and the subtraction
        # and product round by <= eps |z| each side, so z differs by
        # |dz| <= 4 eps a, with a = shape * (|log t| + |log scale|) >= |z|
        # (a, not |z|: when t is near the scale the terms cancel, as in the
        # second example, where |z| = 0.007 but a = 26). The two inner exps
        # add 2 eps to w's relative error, and the outer exp multiplies that
        # by w and adds its own 2 eps, so the branches agree within
        # 4 eps (a + 1) max(1, w) relative; a subnormal result keeps fewer
        # digits than any relative bound
        eps = sys.float_info.epsilon
        a = p.shape * (abs(math.log(t)) + abs(math.log(p.scale))) if t > 0.0 else 0.0
        w = -math.log(array) if array > 0.0 else math.inf
        assert math.isclose(scalar, array, rel_tol=4 * eps * (a + 1.0) * max(1.0, w),
                            abs_tol=sys.float_info.min)
        assert isinstance(scalar, float)

    @given(params_st)
    def test_zero_time_is_exactly_one(self, p):
        assert weibull_survival(p, 0.0) == 1.0
        assert weibull_survival(p, np.zeros(1))[0] == 1.0

    @given(st.floats(0.05, 50.0), st.floats(2.0, 8.0), st.floats(0.0, 1.0))
    def test_clamp_region_is_zero_without_overflow(self, scale, shape, u):
        # log t from where shape * (log t - log scale) reaches the clamp, 700,
        # up to the largest float, where unclamped it would overflow exp
        lo = math.log(scale) + 700.0 / shape
        t = min(math.exp(lo + u * (math.log(sys.float_info.max) - lo)), sys.float_info.max)
        p = WeibullParams(scale, shape)
        assert weibull_survival(p, t) == 0.0  # math.exp raises OverflowError
        with np.errstate(over="raise"):  # exp(-exp(700)) underflows to 0, as meant
            assert weibull_survival(p, np.array([t]))[0] == 0.0

    @given(params_st,
           st.floats(max_value=-1e-300) | st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_rejects_negative_and_non_finite(self, p, t):
        with pytest.raises(ValueError, match="t >= 0"):
            weibull_survival(p, t)
        with pytest.raises(ValueError, match="t >= 0"):
            weibull_survival(p, np.array([t]))


class TestHazard:
    def test_exponential_constant(self):
        p = WeibullParams(4.0, 1.0)
        for t in (0.3, 2.0, 50.0):
            assert weibull_hazard(p, t) == pytest.approx(0.25, rel=1e-12)

    def test_rayleigh_value(self):
        assert weibull_hazard(WeibullParams(1, 2), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_equals_pdf_over_survival(self):
        p = WeibullParams(2, 3)
        t = 1.5
        ratio = weibull_pdf(p, t) / weibull_survival(p, t)
        assert weibull_hazard(p, t) == pytest.approx(ratio, rel=1e-12)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            weibull_hazard(WeibullParams(1, 1), 0.0)


class TestSurvivalInverse:
    def test_full_survival_is_time_zero(self):
        assert weibull_survival_inverse(WeibullParams(9.0, 0.3), 1.0) == 0.0

    def test_exponential_at_e_inverse(self):
        assert weibull_survival_inverse(WeibullParams(1, 1), math.exp(-1)) == pytest.approx(1.0, rel=1e-12)

    def test_against_bisection_oracle(self):
        p = WeibullParams(4, 0.7)
        lo, hi = 0.0, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if weibull_survival(p, mid) > 0.35:
                lo = mid
            else:
                hi = mid
        value = weibull_survival_inverse(p, 0.35)
        assert value == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert value == pytest.approx(4.28770904288651, rel=1e-12)

    def test_rejects_out_of_range(self):
        for s in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError):
                weibull_survival_inverse(WeibullParams(1, 1), s)

    @given(params_st, st.floats(1e-6, 1.0, exclude_max=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, p, s):
        t = weibull_survival_inverse(p, s)
        assert weibull_survival(p, t) == pytest.approx(s, rel=1e-9, abs=1e-12)


class TestIdentities:
    @given(params_st, st.floats(1e-3, 100.0))
    @settings(max_examples=300, deadline=None)
    def test_hazard_times_survival_is_pdf(self, p, t):
        f = weibull_pdf(p, t)
        hs = weibull_hazard(p, t) * weibull_survival(p, t)
        assert hs == pytest.approx(f, rel=1e-12, abs=1e-300)

    @given(params_st, st.floats(1e-3, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse_of_survival_is_identity(self, p, t):
        # Outside (1e-12, 1 - 1e-6) the float rounding of exp(-x) itself
        # costs more than the 1e-9 target, so those draws are skipped.
        s = weibull_survival(p, t)
        if 1e-12 < s < 1.0 - 1e-6:
            assert weibull_survival_inverse(p, s) == pytest.approx(t, rel=1e-9)

    def test_shape_one_reduces_to_exponential(self):
        p = WeibullParams(3.0, 1.0)
        for t in (0.5, 2.0, 9.0):
            assert weibull_survival(p, t) == pytest.approx(math.exp(-t / 3.0), rel=1e-12)
            assert weibull_pdf(p, t) == pytest.approx(math.exp(-t / 3.0) / 3.0, rel=1e-12)

    def test_shape_two_reduces_to_rayleigh(self):
        p = WeibullParams(2.0, 2.0)
        for t in (0.5, 2.0, 5.0):
            assert weibull_survival(p, t) == pytest.approx(math.exp(-((t / 2.0) ** 2)), rel=1e-12)
            assert weibull_hazard(p, t) == pytest.approx(t / 2.0, rel=1e-12)

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad

        rng = np.random.default_rng(11)
        for _ in range(25):
            p = WeibullParams(float(rng.uniform(0.2, 10)), float(rng.uniform(0.4, 5)))
            upper = weibull_survival_inverse(p, 1e-12)
            total, _ = quad(lambda t: weibull_pdf(p, t), 0, upper, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_array_matches_scalar(self):
        ts = np.array([0.0, 3.0, 10.0])
        for scale, shape in ((1.0, 1.0), (5.0, 2.5), (0.3, 0.7)):
            p = WeibullParams(scale, shape)
            values = weibull_survival(p, ts)
            assert values.shape == ts.shape
            for t, value in zip(ts, values):
                assert value == pytest.approx(weibull_survival(p, float(t)), rel=1e-14)


class TestParamsValidation:
    @pytest.mark.parametrize("scale,shape", [(0, 1), (-1, 1), (1, 0), (1, -2),
                                             (math.inf, 1), (1, math.nan)])
    def test_invalid_params_rejected(self, scale, shape):
        with pytest.raises(ValueError):
            WeibullParams(scale, shape)


class TestKsStatistic:
    def test_single_point_at_median(self):
        sample = EmpiricalSurvival.from_delays([math.log(2)])
        assert ks_statistic(WeibullParams(1, 1), sample) == pytest.approx(0.5, rel=1e-12)

    def test_sample_at_model_quantiles_is_tight(self):
        p = WeibullParams(2, 1.5)
        n = 99
        qs = [weibull_survival_inverse(p, 1.0 - i / (n + 1)) for i in range(1, n + 1)]
        stat = ks_statistic(p, EmpiricalSurvival.from_delays(qs))
        assert stat <= 1.0 / (n + 1) + 1e-12

    def test_large_seeded_sample_close_and_beats_exponential(self):
        from cascadyn.fitting import FitOptions, SubcascadeSample, fit_model

        rng = np.random.default_rng(123)
        p = WeibullParams(2, 1.5)
        u = 1.0 - rng.random(10000)
        draws = np.array([weibull_survival_inverse(p, s) for s in u])
        sample = EmpiricalSurvival.from_delays(draws)
        stat = ks_statistic(p, sample)
        assert stat < 0.02
        # the best-fit exponential is a strictly worse description
        exp_fit = fit_model("exponential",
                            {"u": SubcascadeSample("u", draws)},
                            options=FitOptions(min_events=1))[0].user_params["u"]
        assert ks_statistic(exp_fit, sample) > stat

    def test_invariant_under_duplication(self):
        p = WeibullParams(1.7, 0.9)
        base = [0.2, 0.9, 1.4, 3.0]
        s1 = ks_statistic(p, EmpiricalSurvival.from_delays(base))
        s2 = ks_statistic(p, EmpiricalSurvival.from_delays(base * 2))
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalSurvival.from_delays([])


class TestEmpiricalSurvival:
    def test_counting_examples(self):
        e = EmpiricalSurvival.from_delays([1, 2, 3])
        assert empirical_survival_at(e, 0.0) == 1.0
        assert empirical_survival_at(e, 2.0) == pytest.approx(2 / 3)
        assert empirical_survival_at(e, 10.0) == 0.0

    def test_nonincreasing(self):
        e = EmpiricalSurvival.from_delays([0.5, 0.5, 2.0, 7.0])
        ts = np.linspace(0, 8, 30)
        vals = [empirical_survival_at(e, t) for t in ts]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rejects_unsorted_construction(self):
        with pytest.raises(ValueError):
            EmpiricalSurvival((2.0, 1.0))

    def test_rejects_negative_t(self):
        e = EmpiricalSurvival.from_delays([1.0])
        with pytest.raises(ValueError):
            empirical_survival_at(e, -1.0)
