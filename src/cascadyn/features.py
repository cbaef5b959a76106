"""Covariate extraction from the follower network and historical cascades.

Also owns the on-disk formats for networks (CSV), cascade logs (JSONL) and
feature tables (CSV), and the conversion of cascade logs into per-user
subcascade delay samples.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DataError
from .fitting import FeatureMatrix, SubcascadeSample

__all__ = [
    "CascadeEvent",
    "Cascade",
    "Network",
    "FEATURE_SCHEMA",
    "DELAY_SHIFT",
    "extract_subcascades",
    "extract_features",
    "filter_cascades",
    "read_network_csv",
    "write_network_csv",
    "read_cascades_jsonl",
    "write_cascades_jsonl",
    "write_features_csv",
    "read_features_csv",
]

# Raw parent-to-child gaps are shifted by +1 s so every delay is >= 1 even
# when parent and child share a timestamp. Prediction applies the same shift.
DELAY_SHIFT = 1.0

FEATURE_SCHEMA = (
    "follower_count",
    "avg_follower_follower_count",
    "follower_avg_inflow_rate",
    "follower_avg_retweet_rate",
    "historical_subcascade_count",
    "avg_subcascade_size",
)

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class CascadeEvent:
    user: str
    parent: str | None
    t: float


@dataclass
class Cascade:
    """A tree of infection events ordered by timestamp; the root comes first."""

    cascade_id: str
    events: list[CascadeEvent]

    def __post_init__(self):
        if not self.events:
            raise DataError(f"cascade {self.cascade_id!r} has no events")
        root = self.events[0]
        if root.parent is not None:
            raise DataError(f"cascade {self.cascade_id!r}: first event must be the root")
        seen: dict[str, float] = {}
        last_t = -math.inf
        for i, ev in enumerate(self.events):
            if not math.isfinite(ev.t):
                raise DataError(f"cascade {self.cascade_id!r}: non-finite timestamp")
            if ev.t < last_t:
                raise DataError(f"cascade {self.cascade_id!r}: timestamps must be nondecreasing")
            last_t = ev.t
            if ev.user in seen:
                raise DataError(f"cascade {self.cascade_id!r}: user {ev.user!r} appears twice")
            if i > 0:
                if ev.parent is None:
                    raise DataError(f"cascade {self.cascade_id!r}: multiple roots")
                if ev.parent not in seen:
                    raise DataError(
                        f"cascade {self.cascade_id!r}: event for {ev.user!r} references "
                        f"unknown parent {ev.parent!r}"
                    )
            seen[ev.user] = ev.t

    @property
    def size(self) -> int:
        return len(self.events)

    @property
    def root(self) -> CascadeEvent:
        return self.events[0]

    def size_at(self, t: float) -> int:
        """Number of events with timestamp <= t."""
        count = 0
        for ev in self.events:
            if ev.t > t:
                break
            count += 1
        return count


@dataclass
class Network:
    """Directed follower graph; an edge (a, b) means a follows b."""

    nodes: list[str]
    edges: list[tuple[str, str]]
    followers: dict[str, list[str]] = field(init=False)
    followees: dict[str, list[str]] = field(init=False)

    def __post_init__(self):
        node_set = set(self.nodes)
        for a, b in self.edges:
            if a == b:
                raise DataError(f"self-loop on node {a!r}")
            if a not in node_set or b not in node_set:
                raise DataError(f"edge ({a!r}, {b!r}) references unknown node")
        if not node_set:
            raise DataError("network must have at least one node")
        self.nodes = sorted(node_set)
        self.followers = {u: [] for u in self.nodes}
        self.followees = {u: [] for u in self.nodes}
        for a, b in sorted(set(self.edges)):
            self.followers[b].append(a)
            self.followees[a].append(b)
        self.edges = sorted(set(self.edges))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def follower_count(self, user: str) -> int:
        return len(self.followers[user])


def filter_cascades(cascades: Iterable[Cascade], min_size: int = 5) -> list[Cascade]:
    """Keep cascades with at least ``min_size`` events."""
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    return [c for c in cascades if c.size >= min_size]


def extract_subcascades(cascades: Iterable[Cascade],
                        shift: float = DELAY_SHIFT) -> dict[str, SubcascadeSample]:
    """Per-user response delays: for every non-root event, the gap between
    child and parent timestamps plus the shift, attributed to the parent."""
    delays: dict[str, list[float]] = {}
    for cascade in cascades:
        join_time = {}
        for ev in cascade.events:
            if ev.parent is not None:
                if ev.parent not in join_time:
                    raise DataError(
                        f"cascade {cascade.cascade_id!r}: unknown parent {ev.parent!r}"
                    )
                delays.setdefault(ev.parent, []).append(ev.t - join_time[ev.parent] + shift)
            join_time[ev.user] = ev.t
    return {
        u: SubcascadeSample(user=u, delays=np.asarray(sorted(ds)))
        for u, ds in sorted(delays.items())
    }


def extract_features(net: Network, cascades: Iterable[Cascade]) -> FeatureMatrix:
    """Behavioral covariates for every network node, add-one smoothed.

    Follower aggregates are weighted by each follower's historical retweet
    count (smoothed by +1 and normalized), since heavy retweeters contribute
    more to a user's observed dynamics.
    """
    cascades = list(cascades)
    posts_made: dict[str, int] = {u: 0 for u in net.nodes}
    retweets_made: dict[str, int] = {u: 0 for u in net.nodes}
    children: dict[str, int] = {u: 0 for u in net.nodes}
    t_min, t_max = math.inf, -math.inf
    for cascade in cascades:
        for ev in cascade.events:
            if ev.user not in posts_made:
                raise DataError(
                    f"cascade {cascade.cascade_id!r}: user {ev.user!r} absent from network"
                )
            posts_made[ev.user] += 1
            t_min = min(t_min, ev.t)
            t_max = max(t_max, ev.t)
            if ev.parent is not None:
                retweets_made[ev.user] += 1
                children[ev.parent] += 1
    window_days = max((t_max - t_min) / SECONDS_PER_DAY, 1.0) if cascades else 1.0

    posts_received = {
        u: float(sum(posts_made[v] for v in net.followees[u])) for u in net.nodes
    }
    inflow_rate = {u: posts_received[u] / window_days for u in net.nodes}
    retweet_rate = {
        u: retweets_made[u] / max(posts_received[u], 1.0) for u in net.nodes
    }

    rows = np.empty((net.n_nodes, len(FEATURE_SCHEMA)))
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
        rows[i] = (
            len(fol) + 1.0,
            avg_fol_fol + 1.0,
            avg_inflow + 1.0,
            avg_rt_rate + 1.0,
            n_sub + 1.0,
            avg_sub_size + 1.0,
        )
    return FeatureMatrix(users=list(net.nodes), names=list(FEATURE_SCHEMA), values=rows)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_network_csv(path, net: Network) -> None:
    """CSV with header ``follower,followee``; isolated nodes get a node-only
    row with an empty followee column so the node set round-trips."""
    connected = {a for a, _ in net.edges} | {b for _, b in net.edges}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["follower", "followee"])
        for a, b in net.edges:
            writer.writerow([a, b])
        for u in net.nodes:
            if u not in connected:
                writer.writerow([u, ""])


def read_network_csv(path) -> Network:
    edges: list[tuple[str, str]] = []
    nodes: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["follower", "followee"]:
            raise DataError(f"{path}: expected header 'follower,followee'")
        for row_no, row in enumerate(reader, start=2):
            if not row or not row[0]:
                continue
            if len(row) < 2 or not row[1]:
                nodes.add(row[0])
                continue
            edges.append((row[0], row[1]))
            nodes.add(row[0])
            nodes.add(row[1])
    if not nodes:
        raise DataError(f"{path}: no nodes")
    return Network(nodes=sorted(nodes), edges=edges)


def write_cascades_jsonl(path, cascades: Iterable[Cascade]) -> None:
    """One cascade per line: {"id": ..., "events": [{"u", "p", "t"}, ...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in cascades:
            rec = {
                "id": c.cascade_id,
                "events": [{"u": e.user, "p": e.parent, "t": e.t} for e in c.events],
            }
            fh.write(json.dumps(rec, allow_nan=False) + "\n")


def read_cascades_jsonl(path) -> list[Cascade]:
    out: list[Cascade] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                events = [
                    CascadeEvent(user=str(e["u"]),
                                 parent=None if e["p"] is None else str(e["p"]),
                                 t=float(e["t"]))
                    for e in rec["events"]
                ]
                out.append(Cascade(cascade_id=str(rec["id"]), events=events))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{line_no}: bad cascade record: {exc}") from exc
    return out


def write_features_csv(path, features: FeatureMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", *features.names])
        for i, u in enumerate(features.users):
            writer.writerow([u, *(repr(float(v)) for v in features.values[i])])


def read_features_csv(path) -> FeatureMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "user":
            raise DataError(f"{path}: expected a 'user' column first")
        names = header[1:]
        users: list[str] = []
        rows: list[list[float]] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                users.append(row[0])
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"{path}:{row_no}: bad feature row: {exc}") from exc
    return FeatureMatrix(users=users, names=names,
                         values=np.asarray(rows) if rows else np.empty((0, len(names))))
