"""Synthetic networks and ground-truth cascades from known per-user dynamics.

Everything is driven by a single 64-bit seed; per-cascade generators are
derived from (seed, cascade index) so outputs are identical regardless of
generation order. Response delays are drawn by inverse-transform sampling
through the shared survival code, so the simulator and the predictor agree
on the distribution by construction.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .features import FEATURE_SCHEMA, Cascade, CascadeEvent, Network, _name_lists
from .survival import WeibullParams, weibull_survival_inverse

__all__ = [
    "SimConfig",
    "gen_network",
    "gen_user_dynamics",
    "gen_cascades",
    "sample_delays",
    "gen_feature_matrix",
    "dynamics_from_coefficients",
    "write_true_params_json",
    "read_true_params_json",
]


@dataclass
class SimConfig:
    n_nodes: int = 2000
    n_cascades: int = 300
    degree_exponent: float = 2.5
    min_degree: int = 2
    max_degree: int | None = None
    retweet_scale: float = 0.3      # per-user accept prob ~ scale / sqrt(followers + 1)
    retweet_prob: float | None = None  # overrides the degree rule with a constant
    root_weighting: str = "uniform"  # "uniform" or "followers" (hub-started cascades)
    horizon: float = 3 * 86400.0
    seed: int = 0
    scale_base: float = 3600.0
    shape_base: float = 1.0
    beta_true: tuple[float, ...] | None = None   # over the feature schema
    gamma_true: tuple[float, ...] | None = None
    scale_noise_sigma: float = 0.0  # lognormal per-user dispersion around the link
    shape_noise_sigma: float = 0.0
    retweet_noise_sigma: float = 0.0  # lognormal per-user dispersion of retweet prob
    user_params: dict[str, WeibullParams] | None = None  # explicit override

    def __post_init__(self):
        if self.n_nodes < 1 or self.n_cascades < 0:
            raise DataError("node and cascade counts must be positive")
        if self.min_degree < 0:
            raise DataError("min_degree must be >= 0")
        if self.degree_exponent <= 1.0:
            raise DataError("degree exponent must exceed 1")
        if self.retweet_prob is not None and not (0.0 <= self.retweet_prob <= 1.0):
            raise DataError("retweet_prob must lie in [0, 1]")
        if self.root_weighting not in ("uniform", "followers"):
            raise DataError("root_weighting must be 'uniform' or 'followers'")
        if self.scale_base <= 0 or self.shape_base <= 0:
            raise DataError("scale_base and shape_base must be positive")
        if min(self.scale_noise_sigma, self.shape_noise_sigma,
               self.retweet_noise_sigma) < 0:
            raise DataError("noise sigmas must be nonnegative")

    @classmethod
    def from_json(cls, path) -> "SimConfig":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if "beta_true" in doc and doc["beta_true"] is not None:
            doc["beta_true"] = tuple(doc["beta_true"])
        if "gamma_true" in doc and doc["gamma_true"] is not None:
            doc["gamma_true"] = tuple(doc["gamma_true"])
        return cls(**doc)


def _node_name(i: int, width: int) -> str:
    return f"n{i:0{width}d}"


def _powerlaw_degrees(rng: np.random.Generator, n: int, exponent: float,
                      lo: int, hi: int) -> np.ndarray:
    """Integer degrees with tail p(d) ~ d^(-exponent) on [lo, hi]."""
    if lo < 1:
        lo = 1
    if hi < lo:
        raise DataError(f"max degree {hi} below min degree {lo}")
    a = exponent - 1.0
    u = rng.random(n)
    top = (hi + 1.0) / lo
    x = lo * (1.0 - u * (1.0 - top ** -a)) ** (-1.0 / a)
    return np.minimum(np.floor(x).astype(int), hi)


def gen_network(cfg: SimConfig) -> Network:
    """Directed follower graph whose follower counts follow the configured
    power law; each node's followers are sampled without replacement."""
    n = cfg.n_nodes
    width = max(len(str(n - 1)), 4)
    names = [_node_name(i, width) for i in range(n)]
    if n == 1:
        return Network(nodes=names, edges=[])
    rng = np.random.default_rng([cfg.seed, 0])
    hi = min(cfg.max_degree if cfg.max_degree is not None else n - 1, n - 1)
    degrees = _powerlaw_degrees(rng, n, cfg.degree_exponent, max(cfg.min_degree, 0), hi)
    followers = np.empty(int(degrees.sum()), dtype=np.int32)
    end = 0
    for i, d in enumerate(degrees.tolist()):
        if d == 0:
            continue
        pool = rng.permutation(n - 1)[:d]
        pool[pool >= i] += 1  # skip self
        followers[end:end + d] = pool
        end += d
    # zero-padded names sort as their numbers, so row i is node i
    followees = np.repeat(np.arange(n, dtype=np.int32), degrees)
    return Network._from_rows(names, followers, followees)


def gen_feature_matrix(n_users: int, n_features: int, seed: int,
                       spread: float = 1.0):
    """Synthetic strictly positive covariates, log-uniform on [-spread, spread]."""
    from .fitting import FeatureMatrix

    rng = np.random.default_rng([seed, 17])
    width = max(len(str(n_users - 1)), 4)
    users = [_node_name(i, width) for i in range(n_users)]
    values = np.exp(rng.uniform(-spread, spread, size=(n_users, n_features)))
    names = [f"x{j}" for j in range(n_features)]
    return FeatureMatrix(users=users, names=names, values=values)


def dynamics_from_coefficients(X, beta, gamma, *, scale_base: float = 1.0,
                               shape_base: float = 1.0) -> dict[str, WeibullParams]:
    """Ground-truth per-user parameters scale = base * exp(log x . beta),
    shape = base * exp(log x . gamma)."""
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    z = X.log_values
    scales = scale_base * np.exp(z @ beta)
    shapes = shape_base * np.exp(z @ gamma)
    return {
        u: WeibullParams(float(scales[i]), float(shapes[i]))
        for i, u in enumerate(X.users)
    }


def sample_delays(params: WeibullParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-transform draws through the survival inverse (one source of
    truth for the distribution)."""
    u = 1.0 - rng.random(n)  # uniform on (0, 1]
    return np.array([weibull_survival_inverse(params, float(s)) for s in u])


def _generation_features(net: Network) -> "np.ndarray":
    """Network-only covariates aligned to the feature schema; history columns
    sit at their smoothed floor of 1 (log 0 contribution)."""
    rows = np.ones((net.n_nodes, len(FEATURE_SCHEMA)))
    counts = net.follower_counts
    followee_rows = np.repeat(np.arange(net.n_nodes), counts)
    # integer sums are exact in float64, so no mean depends on summation order
    sums = np.bincount(followee_rows, weights=counts[net.follower_idx], minlength=net.n_nodes)
    rows[:, 0] = counts + 1.0
    has = counts > 0
    rows[has, 1] = sums[has] / counts[has] + 1.0
    return rows


def gen_user_dynamics(net: Network, cfg: SimConfig) -> dict[str, WeibullParams]:
    """Ground-truth behavioral dynamics for every node."""
    if cfg.user_params is not None:
        missing = [u for u in net.nodes if u not in cfg.user_params]
        if missing:
            raise DataError(f"explicit user_params misses nodes: {missing[:5]}")
        return dict(cfg.user_params)
    rows = _generation_features(net)
    r = rows.shape[1]
    beta = np.zeros(r) if cfg.beta_true is None else np.asarray(cfg.beta_true, dtype=float)
    gamma = np.zeros(r) if cfg.gamma_true is None else np.asarray(cfg.gamma_true, dtype=float)
    if beta.shape != (r,) or gamma.shape != (r,):
        raise DataError(f"beta_true/gamma_true must have length {r}")
    z = np.log(rows)
    scales = cfg.scale_base * np.exp(z @ beta)
    shapes = cfg.shape_base * np.exp(z @ gamma)
    if cfg.scale_noise_sigma > 0 or cfg.shape_noise_sigma > 0:
        rng = np.random.default_rng([cfg.seed, 3])
        scales = scales * np.exp(cfg.scale_noise_sigma * rng.standard_normal(net.n_nodes))
        shapes = shapes * np.exp(cfg.shape_noise_sigma * rng.standard_normal(net.n_nodes))
    return {
        u: WeibullParams(float(scales[i]), float(shapes[i]))
        for i, u in enumerate(net.nodes)
    }


def _retweet_probs(net: Network, cfg: SimConfig) -> dict[str, float]:
    """Per-user probability that one follower responds, optionally dispersed
    by unobserved per-user lognormal noise."""
    if cfg.retweet_prob is not None:
        base = np.full(net.n_nodes, cfg.retweet_prob)
    else:
        counts = net.follower_counts.astype(float)
        base = cfg.retweet_scale / np.sqrt(counts + 1.0)
    if cfg.retweet_noise_sigma > 0:
        rng = np.random.default_rng([cfg.seed, 4])
        base = base * np.exp(cfg.retweet_noise_sigma * rng.standard_normal(net.n_nodes))
    base = np.minimum(base, 1.0)
    return {u: float(base[i]) for i, u in enumerate(net.nodes)}


def gen_cascades(net: Network, cfg: SimConfig,
                 dynamics: dict[str, WeibullParams] | None = None) -> list[Cascade]:
    """Simulate cascades: when a user joins, each not-yet-infected follower
    independently responds with the user's retweet probability at a delay
    drawn from the user's Weibull law, truncated at the horizon."""
    if dynamics is None:
        dynamics = gen_user_dynamics(net, cfg)
    probs = _retweet_probs(net, cfg)
    root_rng = np.random.default_rng([cfg.seed, 1])
    if cfg.root_weighting == "followers":
        weights = net.follower_counts + 1.0
        weights /= weights.sum()
        roots = root_rng.choice(net.nodes, size=cfg.n_cascades, replace=True, p=weights)
    else:
        roots = root_rng.choice(net.nodes, size=cfg.n_cascades, replace=True)
    width = max(len(str(cfg.n_cascades - 1)), 4) if cfg.n_cascades else 4
    cascades = []
    # built here, not read from net.followers, so the network caches no name lists
    followers = _name_lists(net.nodes, net.follower_idx, net.follower_ptr)
    for j in range(cfg.n_cascades):
        rng = np.random.default_rng([cfg.seed, 2, j])
        cascades.append(_one_cascade(f"c{j:0{width}d}", str(roots[j]), followers, cfg,
                                     dynamics, probs, rng))
    return cascades


def _one_cascade(cascade_id: str, root: str, followers: dict[str, list[str]], cfg: SimConfig,
                 dynamics: dict[str, WeibullParams], probs: dict[str, float],
                 rng: np.random.Generator) -> Cascade:
    events = [CascadeEvent(user=root, parent=None, t=0.0)]
    infected = {root}
    pending: list[tuple[float, str, str]] = []
    _spawn_children(root, 0.0, followers[root], cfg, dynamics, probs, rng, pending)
    while pending:
        t, user, parent = heapq.heappop(pending)
        if user in infected:
            continue
        infected.add(user)
        events.append(CascadeEvent(user=user, parent=parent, t=t))
        _spawn_children(user, t, followers[user], cfg, dynamics, probs, rng, pending)
    return Cascade(cascade_id=cascade_id, events=events)


def _spawn_children(user: str, t_user: float, followers: list[str], cfg: SimConfig,
                    dynamics: dict[str, WeibullParams], probs: dict[str, float],
                    rng: np.random.Generator, pending: list) -> None:
    if not followers:
        return
    accept = rng.random(len(followers)) < probs[user]
    uniforms = rng.random(len(followers))
    params = dynamics[user]
    for idx, f in enumerate(followers):
        if not accept[idx]:
            continue
        delay = weibull_survival_inverse(params, 1.0 - uniforms[idx])
        t_child = t_user + delay
        if t_child <= cfg.horizon:
            heapq.heappush(pending, (t_child, f, user))


def write_true_params_json(path, dynamics: dict[str, WeibullParams], seed: int) -> None:
    doc = {
        "seed": seed,
        "users": [
            {"id": u, "lambda": p.scale, "k": p.shape}
            for u, p in sorted(dynamics.items())
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n", encoding="utf-8")


def read_true_params_json(path) -> dict[str, WeibullParams]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {rec["id"]: WeibullParams(rec["lambda"], rec["k"]) for rec in doc["users"]}
