import contextlib
import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadyn.errors import DataError
from cascadyn.features import (
    DELAY_SHIFT,
    Cascade,
    CascadeArrays,
    CascadeEvent,
    Network,
    extract_features,
)
from cascadyn.fitting import (
    FeatureMatrix,
    Hyperparams,
    NewerModel,
    median_params,
    mean_params,
    regress_out_of_sample,
)
from cascadyn.predict import (
    BasicPredictor,
    ModelDynamics,
    Observations,
    PartialCascade,
    PrefixBatch,
    SamplingPredictor,
    _CURVE_BLOCK,
    _ITP_N0,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from cascadyn.survival import WeibullParams, weibull_survival
from cascadyn.userids import intern
from worlds import oracle_weibull_survival, worlds


def random_partial_cascade(rng, n_users=30, network_size=1000, gap_scale=20.0):
    users = [f"u{i}" for i in range(n_users)]
    dynamics = {
        u: WeibullParams(float(rng.uniform(5, 2000)), float(rng.uniform(0.5, 3.5)))
        for u in users
    }
    events = [CascadeEvent(users[0], None, 0.0)]
    t = 0.0
    for i in range(1, n_users):
        t += float(rng.exponential(gap_scale))
        parent = users[int(rng.integers(0, i))]
        events.append(CascadeEvent(users[i], parent, t))
    t_limit = t + float(rng.uniform(0, gap_scale))
    return PartialCascade("rc", events, t_limit, network_size), dynamics


def reference_size(pc, dynamics, t_e):
    """The basic model summed over every observed row, replying or not."""
    t_join = np.array([e.t for e in pc.events])
    replynum = np.array([float(sum(f.parent == e.user for f in pc.events)) for e in pc.events])
    scales = np.array([dynamics[e.user].scale for e in pc.events])
    shapes = np.array([dynamics[e.user].shape for e in pc.events])
    floor = 1.0 / pc.network_size
    deathrate = np.maximum(
        1.0 - oracle_weibull_survival(scales, shapes, pc.t_limit - t_join + DELAY_SHIFT), floor)
    fdrate = np.maximum(
        1.0 - oracle_weibull_survival(scales, shapes, t_e - t_join + DELAY_SHIFT), floor)
    return 1.0 + float(np.sum(replynum * (fdrate / deathrate))), deathrate


def first_events(prefixes, network_size):
    """A ``PartialCascade.first_events`` observation of each (cascade, count)."""
    return [PartialCascade.first_events(c, k, network_size) for c, k in prefixes]


def worked_example():
    """Two-level cascade engineered so deathrates come out 0.4 and 1/3."""
    t_limit = 4.0
    root_scale = 5.0 / (-math.log(0.6))   # S(4 - 0 + 1) = 0.6
    child_scale = 4.0 / (-math.log(2 / 3))  # S(4 - 1 + 1) = 2/3
    dynamics = {
        "r": WeibullParams(root_scale, 1.0),
        "a": WeibullParams(child_scale, 1.0),
        "b": WeibullParams(1.0, 1.0),
        "g": WeibullParams(1.0, 1.0),
    }
    events = [
        CascadeEvent("r", None, 0.0),
        CascadeEvent("a", "r", 1.0),
        CascadeEvent("b", "r", 2.0),
        CascadeEvent("g", "a", 3.0),
    ]
    return PartialCascade("worked", events, t_limit, 10 ** 6), dynamics


class TestBasicModel:
    def test_boundary_reproduces_observed_size(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pc, dyn = random_partial_cascade(rng)
            assert BasicPredictor(pc, dyn).size_at(pc.t_limit) == pytest.approx(float(pc.size))

    def test_worked_nine_node_example(self):
        pc, dyn = worked_example()
        assert BasicPredictor(pc, dyn).final_size() == pytest.approx(9.0, rel=1e-12)

    def test_deathrate_clamped_at_network_floor(self):
        # enormous scale: essentially no response mass by t_limit
        dyn = {"r": WeibullParams(1e9, 1.0), "a": WeibullParams(1e9, 1.0)}
        events = [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 1.0)]
        V = 100
        pc = PartialCascade("c", events, 1.0, V)
        predictor = BasicPredictor(pc, dyn)
        # deathrate floor 1/V makes the contribution replynum * fdrate * V
        fdrate = max(1.0 - weibull_survival(dyn["r"], 1.0 - 0.0 + DELAY_SHIFT), 1.0 / V)
        assert predictor.deathrate[0] == 1.0 / V
        assert predictor.size_at(1.0) == pytest.approx(1.0 + 1.0 * fdrate * V)
        assert math.isfinite(predictor.final_size())

    def test_final_size_is_large_horizon_limit(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pc, dyn = random_partial_cascade(rng)
            far = BasicPredictor(pc, dyn).size_at(1e18)
            assert BasicPredictor(pc, dyn).final_size() == pytest.approx(far, rel=1e-9)

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(3)
        pc, dyn = random_partial_cascade(rng)
        predictor = BasicPredictor(pc, dyn)
        ts = np.linspace(pc.t_limit, pc.t_limit + 1e5, 200)
        sizes = [predictor.size_at(t) for t in ts]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_rejects_horizon_before_t_limit(self):
        pc, dyn = worked_example()
        with pytest.raises(DataError):
            BasicPredictor(pc, dyn).size_at(pc.t_limit - 1.0)

    def test_rejects_nan_horizon(self):
        pc, dyn = worked_example()
        predictor = BasicPredictor(pc, dyn)
        with pytest.raises(DataError):
            predictor.size_at(float("nan"))

    def test_matches_reference_sum_over_all_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pc, dyn = random_partial_cascade(rng)
            predictor = BasicPredictor(pc, dyn)
            assert np.any(predictor.replynum == 0.0)  # rows that add nothing
            assert predictor.size_at(pc.t_limit) == float(pc.size)
            _, deathrate = reference_size(pc, dyn, pc.t_limit)
            assert len(predictor.deathrate) == pc.size
            np.testing.assert_allclose(predictor.deathrate, deathrate, rtol=1e-12, atol=0.0)
            for gap in (0.5, 1.0, 10.0, 100.0, 1e3, 1e4, 1e6):
                expected, _ = reference_size(pc, dyn, pc.t_limit + gap)
                assert predictor.size_at(pc.t_limit + gap) == pytest.approx(expected, rel=1e-12)

    def test_missing_dynamics_names_user(self):
        pc, dyn = worked_example()
        del dyn["b"]
        with pytest.raises(DataError, match="'b'"):
            BasicPredictor(pc, dyn).final_size()


class TestOutbreak:
    def test_threshold_already_reached(self):
        pc, dyn = worked_example()
        assert BasicPredictor(pc, dyn).outbreak_time(2) == pc.t_limit

    def test_unreachable_threshold_is_never(self):
        pc, dyn = worked_example()
        assert BasicPredictor(pc, dyn).outbreak_time(10 ** 7) is None

    def test_invalid_threshold(self):
        pc, dyn = worked_example()
        with pytest.raises(DataError):
            BasicPredictor(pc, dyn).outbreak_time(0)

    def test_outbreak_and_process_curve_agree(self):
        # the curve reaches the threshold by t iff the outbreak search
        # returns a time <= t, at matching 1 s resolution
        rng = np.random.default_rng(11)
        for _ in range(5):
            pc, dyn = random_partial_cascade(rng, n_users=15, network_size=300)
            predictor = BasicPredictor(pc, dyn)
            threshold = int(predictor.final_size() * 0.7) + 1
            horizon = 5000
            t_max = pc.t_limit + horizon
            outbreak = predictor.outbreak_time(threshold, t_max)
            grid = [pc.t_limit + d for d in range(horizon + 1)]
            curve = predictor.process_curve(grid)
            reached = next((t for t, s in zip(curve.times, curve.sizes)
                            if s >= threshold), None)
            assert outbreak == reached

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            pc, dyn = random_partial_cascade(rng, n_users=20, network_size=200)
            predictor = BasicPredictor(pc, dyn)
            final = predictor.final_size()
            threshold = int(pc.size + 0.5 * (final - pc.size)) + 1
            t_max = pc.t_limit + 20000.0
            fast = predictor.outbreak_time(threshold, t_max)
            slow = None
            for d in range(int(math.ceil(t_max - pc.t_limit)) + 1):
                if predictor.size_at(pc.t_limit + d) >= threshold:
                    slow = pc.t_limit + d
                    break
            assert fast == slow


class TestProcessCurve:
    def test_single_point_grid_is_observed_size(self):
        pc, dyn = worked_example()
        curve = BasicPredictor(pc, dyn).process_curve([pc.t_limit])
        assert curve.times == [pc.t_limit]
        assert curve.sizes[0] == pytest.approx(float(pc.size))

    def test_curve_is_monotone(self):
        rng = np.random.default_rng(5)
        pc, dyn = random_partial_cascade(rng)
        grid = np.linspace(pc.t_limit, pc.t_limit + 5e4, 50).tolist()
        curve = BasicPredictor(pc, dyn).process_curve(grid)
        assert all(b >= a for a, b in zip(curve.sizes, curve.sizes[1:]))

    def test_final_dominates_curve(self):
        rng = np.random.default_rng(6)
        pc, dyn = random_partial_cascade(rng)
        grid = np.linspace(pc.t_limit, pc.t_limit + 1e5, 20).tolist()
        curve = BasicPredictor(pc, dyn).process_curve(grid)
        assert BasicPredictor(pc, dyn).final_size() >= curve.sizes[-1] - 1e-9

    def test_rejects_unsorted_grid(self):
        pc, dyn = worked_example()
        with pytest.raises(DataError):
            BasicPredictor(pc, dyn).process_curve([pc.t_limit + 10, pc.t_limit])

    @pytest.mark.parametrize("bad_at", [0, 2])
    def test_refuses_a_grid_point_before_t_limit_naming_it(self, bad_at):
        pc, dyn = worked_example()
        grid = [pc.t_limit, pc.t_limit + 1.0, pc.t_limit + 2.0]
        grid[bad_at] = pc.t_limit - 0.5
        with pytest.raises(DataError, match=rf"horizon {pc.t_limit - 0.5} precedes"):
            BasicPredictor(pc, dyn).process_curve(grid)

    def test_refuses_nan_mid_grid_naming_it(self):
        pc, dyn = worked_example()
        grid = np.array([pc.t_limit, pc.t_limit + 1.0, np.nan, pc.t_limit + 3.0])
        with pytest.raises(DataError, match="horizon nan"):
            BasicPredictor(pc, dyn).process_curve(grid)

    def test_cut_without_replies_is_flat_at_the_observed_size(self):
        # the root alone has no replying row: every size is the observed one
        pc, dyn = worked_example()
        root = PartialCascade("root", pc.events[:1], 0.5, 1000)
        predictor = BasicPredictor(root, dyn)
        curve = predictor.process_curve([0.5, 10.0, 1e6])
        assert curve.sizes == [1.0, 1.0, 1.0]
        assert predictor.final_size() == 1.0
        assert predictor.outbreak_time(1) == 0.5
        assert predictor.outbreak_time(2) is None

    def test_grid_past_one_block_equals_size_at(self):
        pc, dyn = random_partial_cascade(np.random.default_rng(8), n_users=40)
        predictor = BasicPredictor(pc, dyn)
        rows = int(np.count_nonzero(pc.replynum))
        grid = np.linspace(pc.t_limit, pc.t_limit + 1e4, _CURVE_BLOCK // rows + 7)
        assert len(grid) * rows > _CURVE_BLOCK  # two blocks of horizons
        sizes = [predictor.size_at(t) for t in grid.tolist()]
        assert predictor.process_curve(grid).sizes == np.maximum.accumulate(sizes).tolist()


def replay_stream(events, dynamics, network_size, epsilon, query_times, rng):
    """Feed events into the sampling model, comparing against a basic replay
    at each event and at the extra query times."""
    sampler = SamplingPredictor(network_size, epsilon, dynamics)
    seen = []
    worst = 0.0
    for ev in events:
        sampler.feed_event(ev.user, ev.parent, ev.t)
        seen.append(ev)
        est = sampler.query_size(ev.t)
        basic = BasicPredictor(
            PartialCascade("replay", list(seen), ev.t, network_size), dynamics).final_size()
        worst = max(worst, abs(est - basic) / basic)
    for q in query_times:
        est = sampler.query_size(q)
        basic = BasicPredictor(
            PartialCascade("replay", list(seen), q, network_size), dynamics).final_size()
        worst = max(worst, abs(est - basic) / basic)
    return sampler, worst


class TestSamplingModel:
    def test_relative_error_bounded(self):
        rng = np.random.default_rng(7)
        for epsilon in (0.01, 0.1, 0.5):
            for _ in range(20):
                pc, dyn = random_partial_cascade(rng, n_users=25, network_size=300)
                queries = sorted(rng.uniform(pc.events[-1].t, pc.events[-1].t + 5e4, 5))
                _, worst = replay_stream(pc.events, dyn, 300, epsilon, queries, rng)
                assert worst <= epsilon

    def test_recalc_budget(self):
        rng = np.random.default_rng(8)
        epsilon = 0.1
        V = 300
        bound = math.ceil(math.log(V) / math.log(1 + epsilon)) + 1
        pc, dyn = random_partial_cascade(rng, n_users=40, network_size=V)
        sampler, _ = replay_stream(pc.events, dyn, V, epsilon,
                                   [pc.events[-1].t + 1e7], rng)
        for u in sampler.states:
            assert sampler.recalc_count(u) <= bound

    def test_huge_epsilon_never_recalculates_on_timer(self):
        rng = np.random.default_rng(9)
        pc, dyn = random_partial_cascade(rng, n_users=30)
        sampler = SamplingPredictor(pc.network_size, 1e9, dyn)
        for ev in pc.events:
            sampler.feed_event(ev.user, ev.parent, ev.t)
        sampler.query_size(pc.events[-1].t + 1e9)
        assert sampler.timer_recalcs == 0

    def test_rejects_out_of_order_events(self):
        dyn = {"a": WeibullParams(1, 1), "b": WeibullParams(1, 1)}
        sampler = SamplingPredictor(10, 0.1, dyn)
        sampler.feed_event("a", None, 5.0)
        with pytest.raises(DataError):
            sampler.feed_event("b", "a", 4.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            SamplingPredictor(10, 0.0, {})

    def test_rejects_unknown_parent(self):
        sampler = SamplingPredictor(10, 0.1, {"a": WeibullParams(1, 1), "b": WeibullParams(1, 1)})
        sampler.feed_event("a", None, 0.0)
        with pytest.raises(DataError):
            sampler.feed_event("b", "zzz", 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_event_time(self, bad):
        sampler = SamplingPredictor(10, 0.1, {"a": WeibullParams(1, 1), "b": WeibullParams(1, 1)})
        with pytest.raises(DataError, match=rf"'a'.* {bad}$"):
            sampler.feed_event("a", None, bad)
        sampler.feed_event("a", None, 0.0)  # the refused root left nothing behind
        with pytest.raises(DataError, match=rf"'b'.* {bad}$"):
            sampler.feed_event("b", "a", bad)
        assert list(sampler.states) == ["a"]
        assert sampler.query_size() == 1.0 and sampler.reply_updates == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_query_time(self, bad):
        sampler = SamplingPredictor(10, 0.1, {"a": WeibullParams(1, 1), "b": WeibullParams(1, 1)})
        sampler.feed_event("a", None, 0.0)
        sampler.feed_event("b", "a", 1.0)
        before = sampler.query_size()
        with pytest.raises(DataError, match=rf" {bad}$"):
            sampler.query_size(bad)
        assert sampler.query_size() == before

    def test_unserved_user_refused_as_model_dynamics_refuses_it(self):
        # no fitted users, so no fallback: only the feature table's "fresh" is served
        model = NewerModel(kind="newer", feature_names=["f1", "f2"], hyperparams=Hyperparams(),
                           beta=np.zeros(2), gamma=np.zeros(2), user_params={}, user_events={})
        dyn = ModelDynamics(model, TestModelDynamics().make_features())
        with pytest.raises(DataError) as expected:
            dyn("ghost")
        sampler = SamplingPredictor(10, 0.1, dyn)
        sampler.feed_event("fresh", None, 0.0)
        with pytest.raises(DataError) as got:
            sampler.feed_event("ghost", "fresh", 1.0)
        assert str(got.value) == str(expected.value)

    def test_non_finite_row_refused_as_model_dynamics_refuses_it(self):
        # "fresh" regresses to a NaN scale, as in TestModelDynamics
        model = TestModelDynamics().make_model()
        model.beta[0] = np.nan
        dyn = ModelDynamics(model, TestModelDynamics().make_features())
        with pytest.raises(ValueError) as expected:
            dyn("fresh")
        sampler = SamplingPredictor(10, 0.1, dyn)
        sampler.feed_event("fitted", None, 0.0)
        with pytest.raises(ValueError) as got:
            sampler.feed_event("fresh", "fitted", 1.0)
        assert str(got.value) == str(expected.value)

    def test_matches_observed_at_boundary(self):
        # with all replies just fed, querying at the last event time stays
        # within epsilon of the basic replay by construction; exactness holds
        # for the freshly refreshed subcascades
        rng = np.random.default_rng(10)
        pc, dyn = random_partial_cascade(rng, n_users=10)
        sampler = SamplingPredictor(pc.network_size, 0.25, dyn)
        for ev in pc.events:
            sampler.feed_event(ev.user, ev.parent, ev.t)
        est = sampler.query_size()
        basic = BasicPredictor(
            PartialCascade("x", pc.events, pc.events[-1].t, pc.network_size), dyn).final_size()
        assert est == pytest.approx(basic, rel=0.25)


@st.composite
def sampled_streams(draw):
    """(events, dynamics, network size, epsilon, later query times): one
    cascade of a random small world, whose timestamps tie often, with
    random per-user dynamics, and up to 60 queries spaced geometrically
    after the last event, enough to bring recalculations up to the budget."""
    _, _, cascades = draw(worlds(max_cascades=1).filter(lambda w: w[2]))
    events = cascades[0].events
    dynamics = {ev.user: WeibullParams(draw(st.floats(1.0, 1e5)), draw(st.floats(0.2, 5.0)))
                for ev in events}
    network_size = draw(st.integers(len(events), 10_000))
    epsilon = draw(st.sampled_from([0.01, 0.1, 0.5]) | st.floats(0.01, 2.0))
    offsets = np.geomspace(1.0, draw(st.floats(1.0, 1e9)), draw(st.integers(0, 60)))
    return events, dynamics, network_size, epsilon, (events[-1].t + offsets).tolist()


class TestSamplingProperties:
    @given(sampled_streams())
    @settings(max_examples=200, deadline=None)
    def test_within_epsilon_and_recalc_budget(self, stream):
        events, dynamics, network_size, epsilon, queries = stream
        sampler, worst = replay_stream(events, dynamics, network_size, epsilon, queries, None)
        assert worst <= epsilon
        budget = math.ceil(math.log(network_size) / math.log(1.0 + epsilon))
        assert all(sampler.recalc_count(ev.user) <= budget for ev in events)


    @given(sampled_streams())
    @settings(max_examples=100, deadline=None)
    def test_model_dynamics_matches_equal_mapping(self, stream):
        # the same parameters read by user id from a ModelDynamics table and
        # from a dict of WeibullParams give the same floats, so the same run
        events, dynamics, network_size, epsilon, queries = stream
        model = NewerModel(kind="newer", feature_names=[], hyperparams=Hyperparams(),
                           beta=np.zeros(0), gamma=np.zeros(0), user_params=dynamics,
                           user_events=dict.fromkeys(dynamics, 9))
        by_id = ModelDynamics(model, None)
        mapping = {u: by_id(u) for u in dynamics}
        assert mapping == dynamics
        a, b = (SamplingPredictor(network_size, epsilon, d) for d in (by_id, mapping))
        for ev in events:
            a.feed_event(ev.user, ev.parent, ev.t)
            b.feed_event(ev.user, ev.parent, ev.t)
            assert a.query_size() == b.query_size()
        for q in queries:
            assert a.query_size(q) == b.query_size(q)
        assert ([a.recalc_count(ev.user) for ev in events]
                == [b.recalc_count(ev.user) for ev in events])
        assert (a.reply_updates, a.timer_recalcs) == (b.reply_updates, b.timer_recalcs)


class TestModelDynamics:
    def make_model(self, kind="newer"):
        return NewerModel(
            kind=kind,
            feature_names=["f1", "f2"],
            hyperparams=Hyperparams(),
            beta=np.array([1.0, 0.0]),
            gamma=np.array([0.0, 0.5]),
            user_params={"fitted": WeibullParams(42.0, 2.0),
                         "other": WeibullParams(10.0, 1.0)},
            user_events={"fitted": 9, "other": 9},
        )

    def make_features(self):
        from cascadyn.fitting import FeatureMatrix

        return FeatureMatrix(users=["fitted", "fresh"], names=["f1", "f2"],
                             values=np.array([[2.0, 3.0], [4.0, 9.0]]))

    def test_fitted_params_win(self):
        dyn = ModelDynamics(self.make_model(), self.make_features())
        assert dyn("fitted") == WeibullParams(42.0, 2.0)

    def test_regression_for_unfitted_user(self):
        dyn = ModelDynamics(self.make_model(), self.make_features())
        p = dyn("fresh")
        assert p.scale == pytest.approx(4.0)       # exp(1.0 * ln 4)
        assert p.shape == pytest.approx(3.0)       # exp(0.5 * ln 9)

    def test_fallback_is_median_of_fitted(self):
        dyn = ModelDynamics(self.make_model(), None)
        p = dyn("nobody")
        assert p.scale == pytest.approx(26.0)
        assert p.shape == pytest.approx(1.5)

    def test_weibull_kind_averages(self):
        dyn = ModelDynamics(self.make_model("weibull"), self.make_features())
        p = dyn("fresh")
        assert p.scale == pytest.approx(26.0)
        assert p.shape == pytest.approx(1.5)

    def test_fixed_shape_kinds(self):
        for kind, shape in (("exponential", 1.0), ("rayleigh", 2.0), ("cox", 1.5)):
            dyn = ModelDynamics(self.make_model(kind), self.make_features())
            p = dyn("fresh")
            assert p.shape == pytest.approx(shape)
            assert p.scale == pytest.approx(4.0)

    def test_mismatched_feature_columns_rejected(self):
        from cascadyn.fitting import FeatureMatrix

        for names in (["f2", "f1"], ["f1", "g2"]):
            features = FeatureMatrix(users=["fresh"], names=names,
                                     values=np.array([[4.0, 9.0]]))
            with pytest.raises(DataError, match=rf"{names}.*\['f1', 'f2'\]"):
                ModelDynamics(self.make_model(), features)

    def test_no_source_raises_with_user_name(self):
        model = NewerModel(kind="newer", feature_names=[], hyperparams=Hyperparams(),
                           beta=np.zeros(0), gamma=np.zeros(0),
                           user_params={}, user_events={})
        dyn = ModelDynamics(model, None)
        with pytest.raises(DataError, match="ghost"):
            dyn("ghost")

    def test_fitted_user_outside_feature_table(self):
        # "other" is fitted but has no feature row; "nobody" has neither
        dyn = ModelDynamics(self.make_model(), self.make_features())
        assert dyn("other") == WeibullParams(10.0, 1.0)
        assert dyn("nobody") == WeibullParams(26.0, 1.5)

    def test_predictor_without_source_names_user(self):
        model = NewerModel(kind="newer", feature_names=["f1", "f2"], hyperparams=Hyperparams(),
                           beta=np.zeros(2), gamma=np.zeros(2), user_params={}, user_events={})
        dyn = ModelDynamics(model, self.make_features())
        events = [CascadeEvent("fresh", None, 0.0), CascadeEvent("ghost", "fresh", 1.0)]
        with pytest.raises(DataError, match="'ghost'"):
            BasicPredictor(PartialCascade("c", events, 2.0, 10), dyn)
        assert BasicPredictor(PartialCascade("c", events[:1], 2.0, 10), dyn).final_size() == 1.0

    def test_regressed_row_never_served_the_fallback(self):
        # a non-finite coefficient set after construction regresses to NaN;
        # the row stays the regression's, so the lookup fails loudly instead
        # of quietly handing out the median fallback
        model = self.make_model()
        model.beta[0] = np.nan
        dyn = ModelDynamics(model, self.make_features())
        assert dyn("nobody") == WeibullParams(26.0, 1.5)
        with pytest.raises(ValueError, match="scale"):
            dyn("fresh")

    def test_non_finite_row_never_served_as_a_size(self):
        # the setup of test_regressed_row_never_served_the_fallback: "fresh"
        # regresses to NaN, and the batch reads refuse it as dyn("fresh") does
        model = self.make_model()
        model.beta[0] = np.nan
        dyn = ModelDynamics(model, self.make_features())
        cascade = Cascade("c", [CascadeEvent("fitted", None, 0.0),
                                CascadeEvent("fresh", "fitted", 1.0),
                                CascadeEvent("other", "fresh", 2.0)])
        pc = PartialCascade.from_cascade(cascade, 2.0, 10)
        with pytest.raises(ValueError, match="scale must be a positive finite real, got nan"):
            BasicPredictor(pc, dyn)
        with pytest.raises(ValueError, match="scale must be a positive finite real, got nan"):
            PrefixBatch(first_events([(cascade, 1), (cascade, 3)], 10)).final_sizes(dyn)
        # rows that are finite are still served
        assert PrefixBatch(first_events([(cascade, 1)], 10)).final_sizes(dyn).tolist() == [1.0]
        assert BasicPredictor(PartialCascade.from_cascade(cascade, 0.5, 10),
                              dyn).final_size() == 1.0

    def test_feature_table_without_model_columns_rejected(self):
        features = FeatureMatrix(users=["fresh"], names=[], values=np.empty((1, 0)))
        with pytest.raises(DataError, match="columns"):
            ModelDynamics(self.make_model(), features)


def oracle_params(model, features, user):
    """The out-of-sample policy written per user, from the one-row regression."""
    if user in model.user_params:
        return model.user_params[user]
    if model.kind == "weibull":
        return mean_params(model)
    if user not in features:
        return median_params(model)
    regressed = regress_out_of_sample(model, features.row(user))
    shape = {"newer": regressed.shape, "cox": mean_params(model).shape,
             "exponential": 1.0, "rayleigh": 2.0}[model.kind]
    return WeibullParams(regressed.scale, shape)


def random_world(seed, kind):
    """A small cascade over users that are fitted, regressed from a feature
    row (some with a row and a fit), or served by the fallback."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    users = [f"u{i}" for i in range(n)]
    role = rng.integers(0, 3, size=n)  # 0 fitted, 1 feature row, 2 neither
    role[0] = 0
    with_row = [u for u, r in zip(users, role) if r == 1 or (r == 0 and rng.random() < 0.5)]
    features = FeatureMatrix(users=with_row, names=["f1", "f2"],
                             values=np.exp(rng.normal(0.0, 2.0, size=(len(with_row), 2))))
    shared = float(rng.uniform(0.3, 3.0))
    fitted = {u: WeibullParams(float(np.exp(rng.uniform(0, 9))),
                               shared if kind == "cox" else float(rng.uniform(0.3, 3.0)))
              for u, r in zip(users, role) if r == 0}
    model = NewerModel(kind=kind, feature_names=["f1", "f2"], hyperparams=Hyperparams(),
                       beta=rng.normal(3.0, 2.0, size=2), gamma=rng.normal(0.0, 0.5, size=2),
                       user_params=fitted, user_events={u: 9 for u in fitted})
    events = [CascadeEvent(users[0], None, 0.0)]
    t = 0.0
    for i in range(1, n):
        t += float(rng.exponential(50.0))
        events.append(CascadeEvent(users[i], users[int(rng.integers(0, i))], t))
    pc = PartialCascade("w", events, t + float(rng.uniform(0, 50.0)), int(rng.integers(n, 500)))
    return pc, model, features


KINDS = st.sampled_from(["newer", "weibull", "exponential", "rayleigh", "cox"])
FEATURE_NAMES = ("follower_count", "avg_follower_follower_count", "follower_avg_inflow_rate",
                 "follower_avg_retweet_rate", "historical_subcascade_count",
                 "avg_subcascade_size")


class TestTableProperties:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=KINDS)
    def test_table_matches_per_user_dict(self, seed, kind):
        pc, model, features = random_world(seed, kind)
        dyn = ModelDynamics(model, features)
        plain = {e.user: dyn(e.user) for e in pc.events}
        for user, params in plain.items():
            expected = oracle_params(model, features, user)
            assert params.scale == pytest.approx(expected.scale, rel=1e-12)
            assert params.shape == pytest.approx(expected.shape, rel=1e-12)
        table, per_user = BasicPredictor(pc, dyn), BasicPredictor(pc, plain)
        np.testing.assert_allclose(table.deathrate, per_user.deathrate, rtol=1e-12, atol=0.0)
        assert table.final_size() == pytest.approx(per_user.final_size(), rel=1e-12)
        for gap in (0.0, 1.0, 100.0, 1e4, 1e7):
            t_e = pc.t_limit + gap
            assert table.size_at(t_e) == pytest.approx(per_user.size_at(t_e), rel=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), points=st.integers(0, 400))
    def test_process_curve_equals_pointwise_queries(self, seed, points):
        rng = np.random.default_rng(seed)
        pc, dyn = random_partial_cascade(rng, n_users=int(rng.integers(1, 200)))
        predictor = BasicPredictor(pc, dyn)
        gaps = np.sort(rng.exponential(10 ** rng.uniform(0, 6), size=points))
        if points and rng.random() < 0.5:
            gaps[: int(rng.integers(1, points + 1))] = 0.0  # horizons at t_limit
        grid = (pc.t_limit + gaps).tolist()
        expected: list[float] = []
        for t in grid:
            expected.append(max(predictor.size_at(t), expected[-1]) if expected
                            else predictor.size_at(t))
        assert predictor.process_curve(grid).sizes == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), share=st.floats(0.0, 1.2))
    @example(seed=99835, share=0.08203125)  # t_max - t_limit rounds up past 373 s
    def test_outbreak_matches_integer_second_scan(self, seed, share):
        rng = np.random.default_rng(seed)
        pc, dyn = random_partial_cascade(rng, n_users=int(rng.integers(1, 25)),
                                         network_size=int(rng.integers(30, 300)))
        predictor = BasicPredictor(pc, dyn)
        final = predictor.final_size()
        threshold = max(1, int(pc.size + share * (final - pc.size)))
        span = int(rng.integers(0, 3000))
        t_max = pc.t_limit + span
        scan = next((pc.t_limit + d for d in range(span + 1)
                     if predictor.size_at(pc.t_limit + d) >= threshold), None)
        assert predictor.outbreak_time(threshold, t_max) == scan


class TestPartialCascade:
    def test_first_events_includes_timestamp_ties(self):
        events = [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 1.0),
                  CascadeEvent("b", "r", 1.0), CascadeEvent("c", "r", 2.0)]
        from cascadyn.features import Cascade

        cascade = Cascade("c", events)
        pc = PartialCascade.first_events(cascade, 2, 10)
        assert pc.size == 3  # the tie at t=1 comes along
        assert pc.t_limit == 1.0

    def test_t_limit_before_last_event_rejected(self):
        events = [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 5.0)]
        with pytest.raises(DataError):
            PartialCascade("c", events, 3.0, 10)

    @pytest.mark.parametrize("t_limit", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_t_limit_rejected(self, t_limit):
        events = [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 5.0)]
        with pytest.raises(DataError, match="not finite"):
            PartialCascade("c", events, t_limit, 10)


_FRESH = itertools.count()  # a new name prefix per drawn world


def outcome(fn):
    """What ``fn()`` returns, or the type and message of the DataError it raises."""
    try:
        return fn()
    except DataError as exc:
        return type(exc), str(exc)


@st.composite
def sliced_worlds(draw):
    """(cascade, dynamics, cut): a cascade with tied timestamps over users
    that are fitted, regressed from a feature row, served by the fallback or,
    when no user is fitted and so there is no fallback, uncovered. The
    ``ModelDynamics`` is built before the cascade's users outside its table
    are interned, or some of them; ``cut`` is an event time, a time between
    or beyond them, or non-finite."""
    n = draw(st.integers(1, 10))
    tag = next(_FRESH)
    users = [f"s{tag}-{i}" for i in range(n)]
    kinds = ["fitted", "regressed", "outside"] if draw(st.booleans()) else ["regressed", "outside"]
    roles = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    regressed = [u for u, r in zip(users, roles) if r == "regressed"]
    features = FeatureMatrix(users=regressed, names=["f1", "f2"],
                             values=np.exp(rng.normal(0.0, 1.0, size=(len(regressed), 2))))
    fitted = {u: WeibullParams(float(np.exp(rng.uniform(0, 7))), float(rng.uniform(0.3, 3.0)))
              for u, r in zip(users, roles) if r == "fitted"}
    model = NewerModel(kind="newer", feature_names=["f1", "f2"], hyperparams=Hyperparams(),
                       beta=rng.normal(3.0, 1.0, size=2), gamma=rng.normal(0.0, 0.3, size=2),
                       user_params=fitted, user_events={u: 9 for u in fitted})
    outside = [u for u, r in zip(users, roles) if r == "outside"]
    intern(draw(st.lists(st.sampled_from(outside), unique=True)) if outside else [])
    dyn = ModelDynamics(model, features)
    times = sorted(10.0 * t for t in draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    events = [CascadeEvent(users[0], None, times[0])]
    for i in range(1, n):
        events.append(CascadeEvent(users[i], users[draw(st.integers(0, i - 1))], times[i]))
    cut = draw(st.sampled_from(times) | st.floats(-10.0, 60.0)
               | st.sampled_from([math.inf, -math.inf, math.nan]))
    return Cascade("sliced", events), dyn, cut


def forecast(pc, dynamics):
    """Every ``BasicPredictor`` query on ``pc``."""
    predictor = BasicPredictor(pc, dynamics)
    t_limit = pc.t_limit
    return (predictor.final_size(),
            [predictor.size_at(t_limit + gap) for gap in (0.0, 0.5, 10.0, 1e3, 1e6)],
            predictor.outbreak_time(pc.size + 2, t_limit + 2000.0),
            predictor.process_curve(np.linspace(t_limit, t_limit + 500.0, 7).tolist()).sizes)


class TestSlicedObservation:
    @settings(max_examples=200, deadline=None)
    @given(world=sliced_worlds())
    def test_slices_equal_event_list_construction(self, world):
        cascade, dyn, cut = world
        plain = {}
        for e in cascade.events:
            params = outcome(lambda: dyn(e.user))
            if isinstance(params, WeibullParams):
                plain[e.user] = params
        cuts = [(lambda: PartialCascade.from_cascade(cascade, cut, 50), cut)]
        cuts += [(lambda k=k: PartialCascade.first_events(cascade, k, 50), e.t)
                 for k, e in enumerate(cascade.events, start=1)]
        for sliced, t_limit in cuts:
            got = outcome(sliced)
            want = outcome(lambda: PartialCascade(
                cascade.cascade_id, [e for e in cascade.events if e.t <= t_limit], t_limit, 50))
            assert got == want
            if not isinstance(want, PartialCascade):
                continue
            for name in ("times", "parent_positions", "user_ids", "replynum"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
            for name in ("times", "parent_positions", "user_ids"):
                assert np.shares_memory(getattr(got, name), getattr(cascade, name))
            # the table and a mapping serve the same floats
            expected = outcome(lambda: forecast(want, plain))
            for dynamics in (dyn, plain):
                assert outcome(lambda: forecast(got, dynamics)) == expected
                assert outcome(lambda: forecast(want, dynamics)) == expected


class TestQuietArithmetic:
    def test_no_floating_point_error_escapes(self):
        cascade = Cascade("tied", [
            CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 5.0),
            CascadeEvent("b", "a", 5.0), CascadeEvent("c", "b", 9.0)])
        model = NewerModel(kind="weibull", feature_names=[], hyperparams=Hyperparams(),
                           beta=np.zeros(0), gamma=np.zeros(0),
                           user_params={"r": WeibullParams(40.0, 1.5),
                                        "a": WeibullParams(300.0, 0.8),
                                        "b": WeibullParams(90.0, 2.0)},
                           user_events={"r": 9, "a": 9, "b": 9})
        dyn = ModelDynamics(model)
        plain = {u: dyn(u) for u in "rabc"}
        with np.errstate(all="raise"):
            for dynamics in (dyn, plain):
                for pc in (PartialCascade.first_events(cascade, 2, 100),
                           PartialCascade.from_cascade(cascade, 9.0, 100)):
                    predictor = BasicPredictor(pc, dynamics)
                    assert predictor.deathrate.shape == (pc.size,)
                    assert predictor.size_at(pc.t_limit) == float(pc.size)
                    predictor.size_at(pc.t_limit + 30.0)
                    predictor.final_size()
                    predictor.outbreak_time(pc.size + 1, pc.t_limit + 600.0)
                    predictor.process_curve([pc.t_limit, pc.t_limit, pc.t_limit + 50.0])
            PrefixBatch(first_events([(cascade, k) for k in range(1, 5)], 100)).final_sizes(dyn)

    def test_no_log_of_zero_beyond_two_to_the_53(self):
        # at t = 2**60 the 1 s shift rounds away, so the root, replied to at
        # its own timestamp, has an elapsed time of exactly 0 at the cut
        t = 2.0 ** 60
        cascade = Cascade("late", [CascadeEvent("r", None, t), CascadeEvent("a", "r", t)])
        model = NewerModel(kind="weibull", feature_names=[], hyperparams=Hyperparams(),
                           beta=np.zeros(0), gamma=np.zeros(0),
                           user_params={"r": WeibullParams(40.0, 1.5),
                                        "a": WeibullParams(300.0, 0.8)},
                           user_events={"r": 9, "a": 9})
        dyn = ModelDynamics(model)
        with np.errstate(all="raise"):
            batch = PrefixBatch(first_events([(cascade, 1), (cascade, 2)], 100)).final_sizes(dyn)
            basic = []
            for k in (1, 2):
                pc = PartialCascade.first_events(cascade, k, 100)
                predictor = BasicPredictor(pc, dyn)
                assert predictor.deathrate.shape == (pc.size,)
                assert predictor.size_at(t) == float(pc.size)
                # past the cut by whole float spacings (256 at 2**60), and
                # far past it, where the survival is below the smallest float
                later = [t + gap for gap in (512.0, 1024.0, 2048.0, 1e6)]
                assert len(set(later)) == 4 and min(later) > t
                sizes = [predictor.size_at(t_e) for t_e in later]
                basic.append(predictor.final_size())
                predictor.outbreak_time(pc.size + 1, t + 2048.0)
                curve = predictor.process_curve([t, *later]).sizes
                assert curve == [float(pc.size), *sizes]
        assert batch.tolist() == basic


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        records = [
            {"cascade": "c1", "t_limit": 5.0, "final": 12.5,
             "outbreak_t": 99.0, "curve": [[5.0, 4.0], [10.0, 8.0]]},
            {"cascade": "c2", "t_limit": 1.0, "final": 1.0},
            {"cascade": "c3", "t_limit": 1.0, "final": 1.0, "outbreak_t": None},
        ]
        path = tmp_path / "pred.jsonl"
        write_predictions_jsonl(path, records)
        loaded = read_predictions_jsonl(path)
        assert loaded[0]["cascade"] == "c1"
        assert loaded[0]["curve"] == [[5.0, 4.0], [10.0, 8.0]]
        # an outbreak time not predicted stays absent; "never" stays null
        assert "outbreak_t" not in loaded[1]
        assert loaded[2]["outbreak_t"] is None
        assert loaded[1]["curve"] == []

    def test_non_finite_value_refused(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        records = [{"cascade": "c1", "t_limit": 5.0, "final": 12.5},
                   {"cascade": "c2", "t_limit": 1.0, "final": float("nan")}]
        with pytest.raises(DataError, match="'c2'"):
            write_predictions_jsonl(path, records)
        assert "NaN" not in path.read_text(encoding="utf-8")


class TestPrefixBatch:
    @settings(max_examples=120, deadline=None)
    @given(world=worlds(), kind=KINDS, seed=st.integers(0, 2 ** 32 - 1))
    # the prefix of two events also observes the third, which shares the
    # cut's timestamp and replies to the second
    @example(world=(["r", "a", "b", "c"], [], [Cascade("tied", [
        CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 5.0),
        CascadeEvent("b", "a", 5.0), CascadeEvent("c", "r", 9.0)])]), kind="newer", seed=0)
    # adjacent cascades tied at the cut: the first ends, and the second
    # starts, at the cut's timestamp, so a prefix of the first must not
    # extend into the second
    @example(world=(["r", "a", "b", "s", "x", "y"], [], [
        Cascade("ends", [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 5.0),
                         CascadeEvent("b", "r", 5.0)]),
        Cascade("starts", [CascadeEvent("s", None, 5.0), CascadeEvent("x", "s", 5.0),
                           CascadeEvent("y", "x", 7.0)])]), kind="weibull", seed=1)
    def test_matches_basic_predictor(self, world, kind, seed):
        nodes, edges, cascades = world
        net = Network(nodes=nodes, edges=edges)
        rng = np.random.default_rng(seed)
        fitted = {u: WeibullParams(float(np.exp(rng.uniform(0, 9))), float(rng.uniform(0.3, 3)))
                  for i, u in enumerate(net.nodes) if i == 0 or rng.random() < 0.4}
        model = NewerModel(kind=kind, feature_names=list(FEATURE_NAMES),
                           hyperparams=Hyperparams(), beta=rng.normal(1.0, 1.0, size=6),
                           gamma=rng.normal(0.0, 0.3, size=6), user_params=fitted,
                           user_events={u: 9 for u in fitted})
        dyn = ModelDynamics(model, extract_features(net, cascades))
        # every prefix count, so ties at the cut (a reply at the cut's own
        # timestamp included) and whole cascades occur
        prefixes = [(c, k) for c in cascades for k in range(1, c.size + 1)]
        network_size = net.n_nodes + int(rng.integers(0, 50))
        batch = PrefixBatch(first_events(prefixes, network_size))
        sizes = batch.final_sizes(dyn)
        assert sizes.shape == (len(prefixes),)
        for (c, k), length, size in zip(prefixes, batch.lengths, sizes):
            pc = PartialCascade.first_events(c, k, network_size)
            assert length == pc.size
            expected = BasicPredictor(pc, dyn).final_size()
            assert size == pytest.approx(expected, rel=1e-12)

    def test_refuses_a_prefix_it_cannot_observe(self):
        pc, _ = worked_example()
        cascade = Cascade("worked", pc.events)
        for count in (0, 5):
            with pytest.raises(DataError, match=f"cannot observe {count} events"):
                PrefixBatch(first_events([(cascade, count)], 10))

    def test_uncovered_user_named(self):
        model = NewerModel(kind="newer", feature_names=["f1", "f2"], hyperparams=Hyperparams(),
                           beta=np.zeros(2), gamma=np.zeros(2), user_params={}, user_events={})
        features = FeatureMatrix(users=["fresh"], names=["f1", "f2"], values=np.ones((1, 2)))
        cascade = Cascade("c", [CascadeEvent("fresh", None, 0.0),
                                CascadeEvent("ghost", "fresh", 1.0)])
        with pytest.raises(DataError, match="'ghost'"):
            PrefixBatch(first_events([(cascade, 2)], 10)).final_sizes(
                ModelDynamics(model, features))

    def test_empty_batch(self):
        model = NewerModel(kind="weibull", feature_names=[], hyperparams=Hyperparams(),
                           beta=np.zeros(0), gamma=np.zeros(0),
                           user_params={"a": WeibullParams(1.0, 1.0)}, user_events={"a": 5})
        sizes = PrefixBatch(first_events([], 10)).final_sizes(ModelDynamics(model))
        assert sizes.dtype == float and sizes.shape == (0,)


class TestObservations:
    """Many cuts laid out as arrays observe what one ``PartialCascade`` per
    cut, built from the event list, observes: every event tied with a cut
    comes along."""

    @settings(max_examples=120, deadline=None)
    @given(world=worlds(), seed=st.integers(0, 2 ** 32 - 1))
    # the cut after "a" brings "b" along; the cut after the first cascade's
    # last event must not reach into the next, which starts at its time
    @example(world=(["r", "a", "b", "s", "x"], [], [
        Cascade("ends", [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 5.0),
                         CascadeEvent("b", "a", 5.0)]),
        Cascade("starts", [CascadeEvent("s", None, 5.0), CascadeEvent("x", "s", 5.0)])]),
        seed=0)
    def test_many_cuts_tie_as_event_lists_do(self, world, seed):
        _, _, cascades = world
        cuts = [(j, k) for j, c in enumerate(cascades) for k in range(1, c.size + 1)]
        order = np.random.default_rng(seed).permutation(len(cuts))
        which = np.array([cuts[i][0] for i in order], dtype=np.intp)
        counts = np.array([cuts[i][1] for i in order], dtype=np.intp)
        observations = Observations.first_events(CascadeArrays(cascades).take(which), counts, 20)
        singles = []
        for j, k in zip(which.tolist(), counts.tolist()):
            events, t_limit = cascades[j].events, cascades[j].events[k - 1].t
            singles.append(PartialCascade(cascades[j].cascade_id,
                                          [e for e in events if e.t <= t_limit], t_limit, 20))
        assert observations.lengths.tolist() == [pc.size for pc in singles]
        assert observations.t_limits.tolist() == [pc.t_limit for pc in singles]
        assert list(observations) == singles
        dynamics = {e.user: WeibullParams(40.0, 0.9) for c in cascades for e in c.events}
        table = ModelDynamics.of(dynamics)
        assert (PrefixBatch(observations).final_sizes(table).tobytes()
                == PrefixBatch(singles).final_sizes(table).tobytes())

    def test_refuses_a_count_it_cannot_observe(self):
        pc, _ = worked_example()
        cascades = CascadeArrays([Cascade("worked", pc.events)])
        for count in (0, 5):
            with pytest.raises(DataError, match=f"cannot observe {count} events of a size-4"):
                Observations.first_events(cascades, np.array([count]), 10)


def oracle_observation(pc, dynamics, horizons):
    """Final size and size at each horizon of one observation, summed row by
    row from ``weibull_survival`` with the rates floored at 1/|V|."""
    floor = 1.0 / pc.network_size
    final, sizes = 1.0, [1.0] * len(horizons)
    for e in pc.events:
        replies = sum(f.parent == e.user for f in pc.events)
        params = dynamics[e.user]
        death = max(1.0 - weibull_survival(params, pc.t_limit - e.t + DELAY_SHIFT), floor)
        final += replies / death
        for k, t_e in enumerate(horizons):
            rate = max(1.0 - weibull_survival(params, t_e - e.t + DELAY_SHIFT), floor)
            sizes[k] += replies * rate / death
    return final, sizes


@st.composite
def observation_batches(draw):
    """(observations, dynamics, threshold, span): cuts of a random tied world
    made by ``first_events`` (one-event cuts and ties at the cut included)
    and by ``from_cascade`` (at, between and past event times, so some cuts
    have no replying row), one network size, a mapping of per-user
    dynamics, an outbreak threshold and a search span in seconds."""
    _, _, cascades = draw(worlds(max_cascades=4).filter(lambda w: w[2]))
    network_size = draw(st.integers(12, 5000))
    observations = []
    for cascade in cascades:
        for k in draw(st.lists(st.integers(1, cascade.size), max_size=4)):
            observations.append(PartialCascade.first_events(cascade, k, network_size))
        cuts = st.sampled_from(cascade.times.tolist()) | st.floats(cascade.root.t,
                                                                   cascade.root.t + 80.0)
        for t in draw(st.lists(cuts, max_size=3)):
            observations.append(PartialCascade.from_cascade(cascade, t, network_size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users = sorted({e.user for pc in observations for e in pc.events})
    dynamics = {u: WeibullParams(float(np.exp(rng.uniform(0, 7))), float(rng.uniform(0.3, 3.0)))
                for u in users}
    return (draw(st.permutations(observations)), dynamics, draw(st.integers(1, 40)),
            draw(st.integers(0, 3000)))


def _tied_batch():
    """A one-event cut with no replying row, a cut that brings along the
    reply tied with it, and a cut between events, of one cascade."""
    cascade = Cascade("tied", [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 10.0),
                               CascadeEvent("b", "a", 10.0), CascadeEvent("c", "r", 20.0)])
    observations = [PartialCascade.first_events(cascade, 1, 50),
                    PartialCascade.first_events(cascade, 2, 50),
                    PartialCascade.from_cascade(cascade, 15.0, 50)]
    dynamics = {u: WeibullParams(30.0 + 10 * i, 0.8 + 0.3 * i) for i, u in enumerate("rabc")}
    return observations, dynamics, 4, 400


class TestSinglePath:
    @settings(max_examples=150, deadline=None)
    @given(batch=observation_batches())
    @example(batch=_tied_batch())
    def test_batch_matches_oracle_scan_and_one_cut_views(self, batch):
        observations, dynamics, threshold, span = batch
        table = ModelDynamics.of(dynamics)
        prefixes = PrefixBatch(observations)
        gaps = np.array([0.0, 0.5, 10.0, 1e3, 1e6])
        t_limits = np.array([pc.t_limit for pc in observations])
        finals = prefixes.final_sizes(table)
        sizes = prefixes.sizes_at(table, t_limits[:, None] + gaps)
        t_max = t_limits + span
        outbreaks = prefixes.outbreak_times(table, threshold, t_max)
        # the batch's own sizes at every second of the search span
        scan = prefixes.sizes_at(table, t_limits[:, None] + np.arange(span + 1.0))
        for j, pc in enumerate(observations):
            final, expected = oracle_observation(pc, dynamics, (pc.t_limit + gaps).tolist())
            assert finals[j] == pytest.approx(final, rel=1e-12)
            np.testing.assert_allclose(sizes[j], expected, rtol=1e-12, atol=0.0)
            assert sizes[j, 0] == float(pc.size)
            first = np.flatnonzero(scan[j] >= threshold)
            want = pc.t_limit + first[0] if first.size else np.nan
            np.testing.assert_equal(outbreaks[j], want)
            if first.size and first[0] > 0:  # the oracle crosses the threshold there too
                _, (before, at) = oracle_observation(pc, dynamics,
                                                     [want - 1.0, want])
                assert before <= threshold * (1 + 1e-12) and at >= threshold * (1 - 1e-12)
            for dyn in (table, dynamics):
                one = BasicPredictor(pc, dyn)
                assert one.final_size() == finals[j]
                assert [one.size_at(t) for t in pc.t_limit + gaps] == sizes[j].tolist()
                curve = one.process_curve(pc.t_limit + np.arange(span + 1.0))
                assert curve.sizes == np.maximum.accumulate(scan[j]).tolist()
                assert one.outbreak_time(threshold, t_max[j]) == (
                    None if np.isnan(want) else want)


def last_second(t_limit, t_max):
    """The largest integer d with t_limit + d <= t_max in floats."""
    d = math.floor(t_max - t_limit) + 1
    while t_limit + d > t_max:
        d -= 1
    return d


@contextlib.contextmanager
def counted_sums(limit=math.inf):
    """A list that gets one entry per size evaluation (``PrefixBatch._sums``
    call) while the context is open; the evaluation past ``limit`` fails,
    so a search that would not end fails instead."""
    calls, sums = [], PrefixBatch._sums

    def counting(self, t_e, out):
        calls.append(t_e)
        assert len(calls) <= limit, f"more than {limit} size evaluations"
        return sums(self, t_e, out)

    PrefixBatch._sums = counting
    try:
        yield calls
    finally:
        PrefixBatch._sums = sums


class TestOutbreakSearch:
    """The search evaluates the size at most bisection's count plus _ITP_N0
    times, plus once at the window's last second, and ends where a scan of
    every second does."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), share=st.floats(0.0, 1.2),
           log_span=st.floats(0.0, 5.3))
    def test_one_cut_within_step_bound_and_at_scan(self, seed, share, log_span):
        rng = np.random.default_rng(seed)
        pc, dyn = random_partial_cascade(rng, n_users=int(rng.integers(1, 25)),
                                         network_size=int(rng.integers(30, 300)))
        table = ModelDynamics.of(dyn)
        predictor = BasicPredictor(pc, table)
        threshold = max(1, int(pc.size + share * (predictor.final_size() - pc.size)))
        t_max = pc.t_limit + 10.0 ** log_span
        hi = last_second(pc.t_limit, t_max)
        with counted_sums() as calls:
            got = predictor.outbreak_time(threshold, t_max)
        assert len(calls) <= hi.bit_length() + _ITP_N0 + 1
        scan = predictor.sizes_at(table, pc.t_limit + np.arange(hi + 1.0)[None, :])[0]
        first = np.flatnonzero(scan >= threshold)
        assert got == (pc.t_limit + first[0] if first.size else None)

    @settings(max_examples=100, deadline=None)
    @given(batch=observation_batches())
    def test_batch_within_step_bound_and_at_scan(self, batch):
        observations, dynamics, threshold, span = batch
        table = ModelDynamics.of(dynamics)
        prefixes = PrefixBatch(observations)
        t_limits = np.array([pc.t_limit for pc in observations])
        t_max = t_limits + span
        with counted_sums() as calls:
            got = prefixes.outbreak_times(table, threshold, t_max)
        hi = max(map(last_second, t_limits.tolist(), t_max.tolist()), default=0)
        assert len(calls) <= hi.bit_length() + _ITP_N0 + 1
        scan = prefixes.sizes_at(table, t_limits[:, None] + np.arange(span + 1.0))
        for j, last in enumerate(map(last_second, t_limits.tolist(), t_max.tolist())):
            first = np.flatnonzero(scan[j, :last + 1] >= threshold)
            np.testing.assert_equal(got[j], t_limits[j] + first[0] if first.size else np.nan)


    def test_window_past_int64_seconds(self):
        # a finite t_max whose whole-second span overflows int64 or makes
        # 2**(bit length) overflow a float still ends at the first crossing
        events = [CascadeEvent("r", None, 0.0), CascadeEvent("a", "r", 10.0),
                  CascadeEvent("b", "r", 20.0)]
        table = ModelDynamics.of({u: WeibullParams(1e6, 0.5) for u in "rab"})
        pc = PartialCascade("c", events, 20.0, 100)
        batch = PrefixBatch([pc, PartialCascade("c", events[:2], 10.0, 100)])
        want = [BasicPredictor(pc, table).outbreak_time(4, 1e15),
                batch.outbreak_times(table, 4, 1e15)]
        assert want[0] == want[1][0] and not np.isnan(want[1]).any()
        for t_max in (1e200, float(np.finfo(float).max)):
            with np.errstate(all="raise"):
                assert BasicPredictor(pc, table).outbreak_time(4, t_max) == want[0]
                np.testing.assert_equal(batch.outbreak_times(table, 4, t_max), want[1])

    @pytest.mark.parametrize("shape,threshold,t_max", [
        (0.01, 8, 1e300),  # crossing near 1.2e28 s
        (0.02, 9, 9e18),  # crossing near 7.7e18 s, just short of 2**63
        (0.01, 8, float(np.finfo(float).max)),
    ])
    def test_crossing_past_2_53_seconds(self, shape, threshold, t_max):
        # floats there skip integers, so a search on them could stall with
        # b - a > 1 and no float strictly between; the search runs on ints
        events = [CascadeEvent("r", None, 0.0)] + [
            CascadeEvent(f"u{i}", "r", float(i + 1)) for i in range(5)]
        table = ModelDynamics.of({e.user: WeibullParams(1e9, shape) for e in events})
        pc = PartialCascade("c", events, 5.0, 100)
        predictor = BasicPredictor(pc, table)
        bound = last_second(pc.t_limit, t_max).bit_length() + _ITP_N0 + 1
        with counted_sums(bound):
            got = predictor.outbreak_time(threshold, t_max)
        assert got > 2.0 ** 53
        assert predictor.size_at(got) >= threshold > predictor.size_at(np.nextafter(got, 0.0))
        batch = PrefixBatch([pc, PartialCascade("c", events[:4], 3.0, 100)])
        with counted_sums(2 * bound):
            np.testing.assert_equal(batch.outbreak_times(table, threshold, t_max)[0], got)


class TestOwnDynamics:
    def test_one_cut_queries_use_the_predictors_table(self):
        # a batch query binds the table it is given; the one-cut queries
        # answer with the predictor's own table all the same
        pc, dyn = random_partial_cascade(np.random.default_rng(11), n_users=25)
        other = ModelDynamics.of({u: WeibullParams(p.scale * 7.0, p.shape)
                                  for u, p in dyn.items()})
        predictor = BasicPredictor(pc, dyn)
        t_e = pc.t_limit + 300.0

        def queries():
            return (predictor.final_size(), predictor.size_at(t_e),
                    predictor.outbreak_time(pc.size + 2, pc.t_limit + 1e7),
                    predictor.process_curve([pc.t_limit, t_e]))

        want = queries()
        for batch_query in (lambda: predictor.sizes_at(other, [[t_e]]),
                            lambda: predictor.final_sizes(other),
                            lambda: predictor.outbreak_times(other, pc.size + 2)):
            batch_query()
            assert queries() == want


class TestForecastFootprint:
    def test_one_forecast_leaves_two_tracked_objects(self):
        # a forecast keeps its partial cascade and its predictor, each one
        # container however many arrays it holds, so predictors kept alive
        # add little to the collector's young generation
        pc, dyn = random_partial_cascade(np.random.default_rng(3), n_users=40)
        cascade, table = Cascade("footprint", pc.events), ModelDynamics.of(dyn)
        t_limit = float(cascade.times[20])
        grid = np.linspace(t_limit, t_limit + 5000.0, 20).tolist()

        def forecast():
            pc = PartialCascade.from_cascade(cascade, t_limit, 1000)
            predictor = BasicPredictor(pc, table)
            predictor.final_size()
            predictor.outbreak_time(pc.size + 3)
            predictor.process_curve(grid)
            return predictor

        warm = forecast()  # the cascade's arrays are built on first use
        assert warm.outbreak_time(warm.pc.size + 3) > t_limit  # the search runs
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_objects(0)  # kept alive, so no id is reused
            seen = {id(o) for o in before}
            kept = forecast()
            after = gc.get_objects(0)
            new = [type(o).__name__ for o in after
                   if id(o) not in seen and all(o is not x for x in (before, seen, after))]
        finally:
            if enabled:
                gc.enable()
        assert len(new) <= 2, new
        assert kept.pc.events == cascade.events[:kept.pc.size]
