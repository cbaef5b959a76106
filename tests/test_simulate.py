import json
import math

import numpy as np
import pytest

from cascadyn.errors import DataError
from cascadyn.features import Cascade, extract_subcascades, write_cascades_jsonl
from cascadyn.fitting import FitOptions, SubcascadeSample, fit_model
from cascadyn.simulate import (
    SimConfig,
    dynamics_from_coefficients,
    gen_cascades,
    gen_feature_matrix,
    gen_network,
    gen_user_dynamics,
    read_true_params_json,
    sample_delays,
    write_true_params_json,
)
from cascadyn.survival import WeibullParams


def hill_exponent(values, tail_fraction=0.1):
    """Hill estimator of the power-law tail exponent."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    k = max(int(len(v) * tail_fraction), 10)
    tail = v[:k]
    x_min = tail[-1]
    return 1.0 + k / float(np.sum(np.log(tail / x_min)))


class TestGenNetwork:
    def test_single_node(self):
        net = gen_network(SimConfig(n_nodes=1, n_cascades=0))
        assert net.n_nodes == 1
        assert net.edges == []

    def test_determinism(self):
        cfg = SimConfig(n_nodes=200, n_cascades=0, seed=7)
        a = gen_network(cfg)
        b = gen_network(cfg)
        assert a.nodes == b.nodes
        assert a.edges == b.edges

    def test_different_seed_differs(self):
        a = gen_network(SimConfig(n_nodes=200, n_cascades=0, seed=7))
        b = gen_network(SimConfig(n_nodes=200, n_cascades=0, seed=8))
        assert a.edges != b.edges

    def test_tail_exponent_close_to_configured(self):
        cfg = SimConfig(n_nodes=10_000, n_cascades=0, degree_exponent=2.5,
                        min_degree=1, seed=5)
        net = gen_network(cfg)
        counts = [net.follower_count(u) for u in net.nodes]
        est = hill_exponent(counts)
        assert abs(est - 2.5) < 0.3

    def test_degree_bounds_respected(self):
        cfg = SimConfig(n_nodes=300, n_cascades=0, min_degree=3, max_degree=10, seed=1)
        net = gen_network(cfg)
        counts = [net.follower_count(u) for u in net.nodes]
        assert min(counts) >= 3
        assert max(counts) <= 10


class TestGenCascades:
    def test_zero_retweet_probability_gives_singletons(self):
        cfg = SimConfig(n_nodes=50, n_cascades=20, retweet_prob=0.0, seed=3)
        net = gen_network(cfg)
        cascades = gen_cascades(net, cfg)
        assert len(cascades) == 20
        assert all(c.size == 1 for c in cascades)

    def test_cascades_are_valid_trees(self):
        cfg = SimConfig(n_nodes=300, n_cascades=50, seed=4, retweet_scale=0.5)
        net = gen_network(cfg)
        for c in gen_cascades(net, cfg):
            # reconstructing validates all tree invariants
            Cascade(cascade_id=c.cascade_id, events=list(c.events))

    def test_determinism_bytes(self, tmp_path):
        cfg = SimConfig(n_nodes=150, n_cascades=30, seed=9)
        net = gen_network(cfg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_cascades_jsonl(p1, gen_cascades(net, cfg))
        write_cascades_jsonl(p2, gen_cascades(net, cfg))
        assert p1.read_bytes() == p2.read_bytes()

    def test_star_delays_are_exponential(self):
        # one root with 100 followers, p = 1, Exponential(1) dynamics
        n = 101
        width = max(len(str(n - 1)), 4)
        root = f"n{0:0{width}d}"
        from cascadyn.features import Network

        nodes = [f"n{i:0{width}d}" for i in range(n)]
        net = Network(nodes=nodes, edges=[(u, root) for u in nodes if u != root])
        params = {u: WeibullParams(1.0, 1.0) for u in nodes}
        cfg = SimConfig(n_nodes=n, n_cascades=200, retweet_prob=1.0, seed=11,
                        horizon=1e9, user_params=params)
        cascades = [c for c in gen_cascades(net, cfg, params) if c.root.user == root]
        assert cascades, "seeded roots never hit the hub"
        delays = []
        for c in cascades:
            for ev in c.events[1:]:
                if ev.parent == root:
                    delays.append(ev.t - c.root.t)
        mean = float(np.mean(delays))
        se = 1.0 / math.sqrt(len(delays))  # Exponential(1) std is 1
        assert abs(mean - 1.0) <= 3 * se

    def test_extracted_delays_match_event_arithmetic(self):
        cfg = SimConfig(n_nodes=200, n_cascades=30, seed=12, retweet_scale=0.5)
        net = gen_network(cfg)
        cascades = gen_cascades(net, cfg)
        samples = extract_subcascades(cascades)
        expected: dict[str, list[float]] = {}
        for c in cascades:
            join = {}
            for ev in c.events:
                if ev.parent is not None:
                    expected.setdefault(ev.parent, []).append(ev.t - join[ev.parent] + 1.0)
                join[ev.user] = ev.t
        for u, s in samples.items():
            assert np.allclose(s.delays, np.sort(expected[u]))

    def test_fit_recovers_ground_truth_from_pooled_delays(self):
        # large scales so the +1 s extraction shift is negligible
        truth = WeibullParams(5000.0, 1.3)
        rng = np.random.default_rng(13)
        draws = sample_delays(truth, 2000, rng) + 1.0
        params = fit_model("weibull", {"u": SubcascadeSample("u", draws)},
                           options=FitOptions(min_events=1))[0].user_params["u"]
        assert abs(params.scale - truth.scale) / truth.scale < 0.05
        assert abs(params.shape - truth.shape) / truth.shape < 0.05


class TestGroundTruthDynamics:
    def test_explicit_params_pass_through(self):
        cfg = SimConfig(n_nodes=3, n_cascades=0, seed=0,
                        user_params={"n0000": WeibullParams(1, 1),
                                     "n0001": WeibullParams(2, 2),
                                     "n0002": WeibullParams(3, 3)})
        net = gen_network(cfg)
        dyn = gen_user_dynamics(net, cfg)
        assert dyn["n0001"] == WeibullParams(2, 2)

    def test_coefficient_driven_params(self):
        cfg = SimConfig(n_nodes=100, n_cascades=0, seed=2,
                        beta_true=(0.4, 0, 0, 0, 0, 0),
                        gamma_true=(0.1, 0, 0, 0, 0, 0),
                        scale_base=100.0, shape_base=1.0)
        net = gen_network(cfg)
        dyn = gen_user_dynamics(net, cfg)
        for u in net.nodes:
            fol = net.follower_count(u) + 1.0
            assert dyn[u].scale == pytest.approx(100.0 * fol ** 0.4, rel=1e-9)
            assert dyn[u].shape == pytest.approx(fol ** 0.1, rel=1e-9)

    def test_wrong_length_coefficients_rejected(self):
        cfg = SimConfig(n_nodes=10, n_cascades=0, beta_true=(1.0,))
        net = gen_network(cfg)
        with pytest.raises(DataError):
            gen_user_dynamics(net, cfg)

    def test_true_params_file_round_trip(self, tmp_path):
        dyn = {"a": WeibullParams(1.5, 0.7), "b": WeibullParams(3600.0, 2.0)}
        path = tmp_path / "true.json"
        write_true_params_json(path, dyn, seed=5)
        assert read_true_params_json(path) == dyn


class TestSyntheticFeatures:
    def test_feature_matrix_shape_and_determinism(self):
        a = gen_feature_matrix(50, 4, seed=3)
        b = gen_feature_matrix(50, 4, seed=3)
        assert a.values.shape == (50, 4)
        assert np.array_equal(a.values, b.values)
        assert np.all(a.values > 0)

    def test_dynamics_from_coefficients(self):
        X = gen_feature_matrix(10, 2, seed=4)
        dyn = dynamics_from_coefficients(X, [1.0, 0.0], [0.0, 0.0], scale_base=2.0)
        for i, u in enumerate(X.users):
            assert dyn[u].scale == pytest.approx(2.0 * X.values[i, 0], rel=1e-12)
            assert dyn[u].shape == pytest.approx(1.0)


class TestSimConfig:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"n_nodes": 10, "n_cascades": 2, "seed": 42,
                                    "beta_true": [0.1, 0, 0, 0, 0, 0]}))
        cfg = SimConfig.from_json(path)
        assert cfg.n_nodes == 10
        assert cfg.beta_true == (0.1, 0, 0, 0, 0, 0)

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            SimConfig(n_nodes=0)
        with pytest.raises(DataError):
            SimConfig(degree_exponent=1.0)
        with pytest.raises(DataError):
            SimConfig(retweet_prob=1.5)
