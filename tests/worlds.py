"""Small random networks and cascade sets for property tests, plus copies of
the per-name loops the array passes replaced, kept here as oracles."""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from hypothesis import strategies as st

from cascadyn.errors import DataError
from cascadyn.features import SECONDS_PER_DAY, Cascade, CascadeEvent
from cascadyn.fitting import SubcascadeSample
from cascadyn.simulate import SimConfig, gen_cascades, gen_network
from cascadyn.survival import _EXP_CLAMP


@st.composite
def worlds(draw, max_nodes: int = 12, max_cascades: int = 6):
    """(nodes, edges, cascades): nodes in a drawn order, edges with repeats
    and isolated nodes possible, and zero or more cascades over the nodes
    whose timestamps are small multiples of 10 s, so many events tie."""
    n = draw(st.integers(1, max_nodes))
    names = [f"v{i:02d}" for i in range(n)]
    nodes = draw(st.permutations(names))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = [(names[a], names[b]) for a, b in draw(st.lists(pairs, max_size=3 * n))]
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    cascades = []
    for j in range(draw(st.integers(0, max_cascades))):
        users = draw(st.permutations(names))[:draw(st.integers(1, n))]
        times = sorted(10.0 * t for t in draw(st.lists(st.integers(0, 6), min_size=len(users),
                                                        max_size=len(users))))
        events = [CascadeEvent(users[0], None, times[0])]
        for i in range(1, len(users)):
            events.append(CascadeEvent(users[i], users[draw(st.integers(0, i - 1))], times[i]))
        cascades.append(Cascade(f"c{j}", events))
    return nodes, edges, cascades


def oracle_adjacency(nodes, edges):
    """Follower and followee name lists, as ``Network`` built them by loop."""
    followers = {u: [] for u in sorted(set(nodes))}
    followees = {u: [] for u in sorted(set(nodes))}
    for a, b in sorted(set(edges)):
        followers[b].append(a)
        followees[a].append(b)
    return followers, followees


def oracle_extract_subcascades(cascades, shift):
    delays: dict[str, list[float]] = {}
    for cascade in cascades:
        join_time = {}
        for ev in cascade.events:
            if ev.parent is not None:
                delays.setdefault(ev.parent, []).append(ev.t - join_time[ev.parent] + shift)
            join_time[ev.user] = ev.t
    return {u: SubcascadeSample(user=u, delays=np.asarray(sorted(ds)))
            for u, ds in sorted(delays.items())}


def oracle_extract_features(net, cascades) -> np.ndarray:
    cascades = list(cascades)
    posts_made = {u: 0 for u in net.nodes}
    retweets_made = {u: 0 for u in net.nodes}
    children = {u: 0 for u in net.nodes}
    t_min, t_max = math.inf, -math.inf
    for cascade in cascades:
        for ev in cascade.events:
            posts_made[ev.user] += 1
            t_min = min(t_min, ev.t)
            t_max = max(t_max, ev.t)
            if ev.parent is not None:
                retweets_made[ev.user] += 1
                children[ev.parent] += 1
    window_days = max((t_max - t_min) / SECONDS_PER_DAY, 1.0) if cascades else 1.0
    posts_received = {u: float(sum(posts_made[v] for v in net.followees[u])) for u in net.nodes}
    inflow_rate = {u: posts_received[u] / window_days for u in net.nodes}
    retweet_rate = {u: retweets_made[u] / max(posts_received[u], 1.0) for u in net.nodes}
    rows = np.empty((net.n_nodes, 6))
    for i, u in enumerate(net.nodes):
        fol = net.followers[u]
        if fol:
            weights = np.array([retweets_made[f] + 1.0 for f in fol])
            weights /= weights.sum()
            avg_fol_fol = float(weights @ [float(len(net.followers[f])) for f in fol])
            avg_inflow = float(weights @ [inflow_rate[f] for f in fol])
            avg_rt_rate = float(weights @ [retweet_rate[f] for f in fol])
        else:
            avg_fol_fol = avg_inflow = avg_rt_rate = 0.0
        n_sub = posts_made[u]
        avg_sub_size = children[u] / n_sub if n_sub else 0.0
        rows[i] = (len(fol) + 1.0, avg_fol_fol + 1.0, avg_inflow + 1.0, avg_rt_rate + 1.0,
                   n_sub + 1.0, avg_sub_size + 1.0)
    return rows


def oracle_weibull_survival(scales, shapes, ts) -> np.ndarray:
    """Survival exp(-(t/scale)^shape) of each row's own law, straight from
    the formula; 1 at t = 0."""
    ts, scales, shapes = (np.asarray(a, dtype=float) for a in (ts, scales, shapes))
    return np.exp(-((ts / scales) ** shapes))


def oracle_size_at(cascade, t) -> int:
    """``Cascade.size_at`` as the loop over events it replaced."""
    count = 0
    for ev in cascade.events:
        if ev.t > t:
            break
        count += 1
    return count


def oracle_design_row(cascade, prefix, net) -> np.ndarray:
    events = cascade.events[:prefix]
    t0 = events[0].t
    duration = events[-1].t - t0 + 1.0
    depth = {events[0].user: 0}
    followers = []
    for ev in events:
        followers.append(net.follower_count(ev.user))
        if ev.parent is not None:
            depth[ev.user] = depth[ev.parent] + 1
    depths = [depth[ev.user] for ev in events[1:]]
    row = [
        float(prefix),
        prefix / duration,
        net.follower_count(events[0].user) + 1.0,
        float(np.mean(followers)) + 1.0,
        (max(depths) if depths else 0) + 1.0,
        (float(np.mean(depths)) if depths else 0.0) + 1.0,
    ]
    return np.log(row)


def _oracle_finite(records, metric):
    records = list(records)
    if not records:
        raise DataError(f"{metric} needs at least one record")
    for r in records:
        if not (math.isfinite(r.truth) and math.isfinite(r.predicted)):
            raise DataError(f"{metric} requires finite values, got ({r.predicted}, "
                            f"{r.truth}) for cascade {r.cascade_id!r}")
    return records


def oracle_rmsle(records) -> float:
    """``rmsle`` as a loop over records, with its messages."""
    records = _oracle_finite(records, "rmsle")
    for r in records:
        if r.truth <= 0 or r.predicted <= 0:
            raise DataError(
                f"rmsle requires positive values, got ({r.predicted}, {r.truth}) "
                f"for cascade {r.cascade_id!r}"
            )
    sq = [(math.log(r.predicted) - math.log(r.truth)) ** 2 for r in records]
    return math.sqrt(sum(sq) / len(sq))


def oracle_sigma_precision(records, sigma) -> float:
    """``sigma_precision`` as a loop over records, with its messages."""
    if not (0.0 < sigma < 1.0):
        raise DataError(f"sigma must lie in (0, 1), got {sigma}")
    records = _oracle_finite(records, "sigma_precision")
    hits = sum(
        1 for r in records
        if r.truth * (1.0 - sigma) <= r.predicted <= r.truth * (1.0 + sigma)
    )
    return hits / len(records)


def oracle_lasso_cd(Z, y, alpha, *, warm=None, tol=1e-12, max_iter=10000):
    """The LASSO by cyclic coordinate descent with soft thresholding on a
    residual vector: each coordinate step takes two passes over the N rows.
    Returns the coefficients and whether a sweep moved every coordinate by
    at most ``tol`` relative to the largest one before ``max_iter`` sweeps."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    n, r = Z.shape
    col_sq = np.einsum("ij,ij->j", Z, Z) / n
    b = np.zeros(r) if warm is None else np.array(warm, dtype=float)
    resid = y - Z @ b
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(r):
            if col_sq[j] == 0.0:
                continue
            old = b[j]
            rho = float(Z[:, j] @ resid) / n + col_sq[j] * old
            new = math.copysign(max(abs(rho) - alpha, 0.0), rho) / col_sq[j]
            if new != old:
                resid += Z[:, j] * (old - new)
                b[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta <= tol * max(1.0, float(np.max(np.abs(b)))):
            return b, True
    return b, False


def oracle_power_sums(flat, m, log_scale, shape):
    """Per-user sums of w = (T/scale)^shape weighted by dz^0, dz^1 and dz^2,
    dz = log(T/scale), for users owning ``m`` entries each of the log delays
    ``flat``: one pass from the log scales and per-user shapes, each power
    formed and clamped on its own entry."""
    starts = np.cumsum(m) - m
    dz = flat - np.repeat(log_scale, m)
    w = np.repeat(shape, m)
    w *= dz
    np.minimum(w, _EXP_CLAMP, out=w)
    np.exp(w, out=w)
    s0 = np.add.reduceat(w, starts)
    w *= dz
    s1 = np.add.reduceat(w, starts)
    w *= dz
    return s0, s1, np.add.reduceat(w, starts)


@cache
def sim_world():
    """A small simulated network and its cascades of at least 5 events;
    shared, so callers must not modify them."""
    cfg = SimConfig(n_nodes=400, n_cascades=120, seed=31, retweet_scale=0.6,
                    scale_base=600.0, gamma_true=(0.15, 0, 0, 0, 0, 0),
                    horizon=5 * 86400.0)
    net = gen_network(cfg)
    return net, [c for c in gen_cascades(net, cfg) if c.size >= 5]
