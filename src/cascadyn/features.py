"""Covariate extraction from the follower network and historical cascades.

Also owns the on-disk formats for networks (CSV), cascade logs (JSONL) and
feature tables (CSV), and the conversion of cascade logs into per-user
subcascade delay samples.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .fitting import FeatureMatrix, SubcascadeTable, _read_only
from .userids import intern, join, names_of

__all__ = [
    "CascadeEvent",
    "Cascade",
    "Network",
    "CascadeArrays",
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


@dataclass(frozen=True, slots=True)
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

    @cached_property
    def times(self) -> np.ndarray:
        """Timestamp of each event, in event order (float64, read-only)."""
        return _read_only(np.fromiter((ev.t for ev in self.events), dtype=float,
                                      count=len(self.events)))

    @cached_property
    def parent_positions(self) -> np.ndarray:
        """Position in ``events`` of each event's parent, -1 for the root
        (int32, read-only). A parent always precedes its child."""
        position = {ev.user: i for i, ev in enumerate(self.events)}
        out = np.empty(len(self.events), dtype=np.int32)
        out[0] = -1
        try:
            out[1:] = [position[ev.parent] for ev in self.events[1:]]
        except KeyError:
            bad = next(ev.parent for ev in self.events[1:] if ev.parent not in position)
            raise DataError(f"cascade {self.cascade_id!r}: unknown parent {bad!r}") from None
        return _read_only(out)

    @cached_property
    def user_ids(self) -> np.ndarray:
        """Interned id of each event's user, in event order (int32, read-only)."""
        return _read_only(intern((ev.user for ev in self.events), len(self.events)))

    @cached_property
    def depths(self) -> np.ndarray:
        """Hops from the root to each event, 0 for the root (int32, read-only)."""
        depths = [0] * len(self.events)
        for i, p in enumerate(self.parent_positions.tolist()[1:], start=1):
            depths[i] = depths[p] + 1
        return _read_only(np.array(depths, dtype=np.int32))

    def size_at(self, t: float) -> int:
        """Number of events with timestamp <= t (every event for a NaN t)."""
        return int(np.searchsorted(self.times, t, side="right"))


class Network:
    """Directed follower graph; an edge (a, b) means a follows b.

    Nodes are kept sorted by name, and the deduplicated edges only as CSR
    arrays over node rows (the position in ``nodes``, found by
    ``index``): the followers of node row i are rows ``follower_idx[
    follower_ptr[i]:follower_ptr[i + 1]]``, ascending, and likewise for
    ``followee_ptr`` and ``followee_idx``. All four are int32 and read-only.
    The name lists ``followers`` and ``followees`` are built from them on
    first read, and ``edges`` on every read.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        nodes = sorted(set(nodes))
        index = {u: i for i, u in enumerate(nodes)}
        edges = set(edges)
        for a, b in edges:
            if a == b:
                raise DataError(f"self-loop on node {a!r}")
            if a not in index or b not in index:
                raise DataError(f"edge ({a!r}, {b!r}) references unknown node")
        if not nodes:
            raise DataError("network must have at least one node")
        self._set_rows(nodes, np.fromiter((index[a] for a, _ in edges), np.int32, len(edges)),
                       np.fromiter((index[b] for _, b in edges), np.int32, len(edges)))

    @classmethod
    def _from_rows(cls, nodes: list[str], src: np.ndarray, dst: np.ndarray) -> "Network":
        """The network of edges (nodes[src[k]], nodes[dst[k]]), from int32 rows;
        unchecked: nodes sorted and distinct, edges distinct, no self-loop."""
        net = cls.__new__(cls)
        net._set_rows(nodes, src, dst)
        return net

    def _set_rows(self, nodes: list[str], src: np.ndarray, dst: np.ndarray) -> None:
        self.nodes, self.index = nodes, {u: i for i, u in enumerate(nodes)}
        order = np.lexsort((dst, src))  # by follower row, then followee row
        src, dst = src[order], dst[order]
        self.followee_ptr = _offsets(src, len(nodes))
        self.followee_idx = _read_only(dst)
        self.follower_ptr = _offsets(dst, len(nodes))
        self.follower_idx = _read_only(src[np.argsort(dst, kind="stable")])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (self.nodes == other.nodes
                and np.array_equal(self.followee_ptr, other.followee_ptr)
                and np.array_equal(self.followee_idx, other.followee_idx))

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Every edge, sorted by name, as the followee CSR's rows are."""
        names = self.nodes
        followers = np.repeat(np.arange(len(names)), np.diff(self.followee_ptr))
        return [(names[a], names[b])
                for a, b in zip(followers.tolist(), self.followee_idx.tolist())]

    @cached_property
    def followers(self) -> dict[str, list[str]]:
        """Each node's followers, by name, ascending."""
        return _name_lists(self.nodes, self.follower_idx, self.follower_ptr)

    @cached_property
    def followees(self) -> dict[str, list[str]]:
        """The nodes each node follows, by name, ascending."""
        return _name_lists(self.nodes, self.followee_idx, self.followee_ptr)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def follower_count(self, user: str) -> int:
        i = self.index[user]
        return int(self.follower_ptr[i + 1] - self.follower_ptr[i])

    @property
    def follower_counts(self) -> np.ndarray:
        """Follower count of every node row."""
        return np.diff(self.follower_ptr)

    @cached_property
    def node_ids(self) -> np.ndarray:
        """Interned id of each node row's user (int32, read-only)."""
        return _read_only(intern(self.nodes, len(self.nodes)))

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Node row of each user id, -1 for a user outside the network."""
        return join(self.node_ids, ids)


def _offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of ``rows`` sorted ascending: entries of row i lie at
    ``[ptr[i], ptr[i + 1])``."""
    ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return _read_only(ptr)


def _name_lists(nodes: list[str], idx: np.ndarray, ptr: np.ndarray) -> dict[str, list[str]]:
    names = [nodes[j] for j in idx.tolist()]
    bounds = ptr.tolist()
    return {u: names[bounds[i]:bounds[i + 1]] for i, u in enumerate(nodes)}


def filter_cascades(cascades: Iterable[Cascade], min_size: int = 5) -> list[Cascade]:
    """Keep cascades with at least ``min_size`` events."""
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    return [c for c in cascades if c.size >= min_size]


class CascadeArrays(Sequence[Cascade]):
    """A list of cascades whose event arrays are laid end to end once, on
    first read, and then shared: subcascade and feature extraction, the
    log-linear design rows and a prediction batch over the same cascades
    read one copy.

    Cascade j owns ``sizes[j]`` entries of the flat arrays from
    ``starts[j]`` on: ``times``, ``parents`` (positions in the flat arrays,
    -1 for a root), ``user_ids`` and ``depths``. ``take`` selects cascades
    without copying those arrays, so a selection's entries need not be
    contiguous; the extractions read whole sets, ``positions`` any set.
    """

    def __init__(self, cascades: Iterable[Cascade]):
        self.cascades = list(cascades)
        self.sizes = np.fromiter((len(c.events) for c in self.cascades), np.intp,
                                 len(self.cascades))
        self.starts = np.cumsum(self.sizes) - self.sizes
        self._whole = None  # of a ``take``: the set whose flat arrays it reads
        self._arrays: dict[str, np.ndarray] = {}

    @classmethod
    def of(cls, cascades: Iterable[Cascade], *, whole: bool = False) -> "CascadeArrays":
        """``cascades`` itself when it is a set (with ``whole``, one that
        spans its own flat arrays, not a ``take``), else their flattening."""
        if isinstance(cascades, cls) and not (whole and cascades._whole is not None):
            return cascades
        return cls(cascades)

    def take(self, which: np.ndarray) -> "CascadeArrays":
        """The cascades at ``which``, reading this set's flat arrays."""
        view = copy.copy(self)
        view._whole = self._base
        view.cascades = [self.cascades[j] for j in which.tolist()]
        view.sizes, view.starts = self.sizes[which], self.starts[which]
        return view

    def __len__(self) -> int:
        return len(self.cascades)

    def __getitem__(self, j):
        return self.cascades[j]

    def __iter__(self):
        return iter(self.cascades)

    @property
    def _base(self) -> "CascadeArrays":
        return self if self._whole is None else self._whole

    def _flat(self, name: str) -> np.ndarray:
        """The flat array ``name`` of the set this one reads, built on first
        read from each cascade's own (read-only)."""
        base = self._base
        if name not in base._arrays:
            dtype = {"times": float, "parent_positions": np.intp}.get(name, np.int32)
            flat = np.concatenate([np.empty(0, dtype=dtype),
                                   *(getattr(c, name) for c in base.cascades)], dtype=dtype)
            if name == "parent_positions":  # to positions in the flat arrays
                flat += np.repeat(base.starts, base.sizes)
                flat[base.starts[base.sizes > 0]] = -1  # each cascade's root comes first
            base._arrays[name] = _read_only(flat)
        return base._arrays[name]

    times = property(lambda self: self._flat("times"))
    parents = property(lambda self: self._flat("parent_positions"))
    user_ids = property(lambda self: self._flat("user_ids"))
    depths = property(lambda self: self._flat("depths"))

    def positions(self, lengths: np.ndarray) -> np.ndarray:
        """Flat positions of the first ``lengths[j]`` events of each cascade
        j, laid end to end in this set's order."""
        shift = self.starts - (np.cumsum(lengths) - lengths)
        return np.arange(int(lengths.sum())) + np.repeat(shift, lengths)

    def network_rows(self, net: Network, at: np.ndarray | None = None) -> np.ndarray:
        """Network row of the user of each event at the flat positions
        ``at`` (every event by default); refuses a user outside ``net``,
        naming the first."""
        rows = net.rows_of(self.user_ids if at is None else self.user_ids[at])
        absent = np.flatnonzero(rows < 0)
        if absent.size:
            base, pos = self._base, int(absent[0] if at is None else at[absent[0]])
            j = int(np.searchsorted(base.starts, pos, side="right")) - 1
            cascade = base.cascades[j]
            raise DataError(f"cascade {cascade.cascade_id!r}: user "
                            f"{cascade.events[pos - base.starts[j]].user!r} absent from network")
        return rows


def extract_subcascades(cascades: Iterable[Cascade]) -> SubcascadeTable:
    """Per-user response delays: for every non-root event, the gap between
    child and parent timestamps plus ``DELAY_SHIFT``, attributed to the parent.

    Built in array passes over the cascades' user ids: the distinct users
    with replies are found by id with a mask, each named once, and ranked
    by name. An argsort by delay, then a stable one by rank, groups the
    delays by user in name order, sorted within each user. The first need
    not be stable, as tied delays are equal floats; the second sorts ranks
    of the narrowest unsigned type, which numpy radix-sorts up to 16 bits.
    """
    flat = CascadeArrays.of(cascades, whole=True)
    times, owner = flat.times, flat.parents
    child = owner >= 0
    owner = owner[child]  # each reply's parent position
    delays = times[child]
    delays -= times[owner]
    delays += DELAY_SHIFT
    owner_ids = flat.user_ids[owner]
    replied = np.zeros(int(owner_ids.max()) + 1 if owner_ids.size else 0, dtype=bool)
    replied[owner_ids] = True
    user_ids = np.flatnonzero(replied).astype(np.int32)
    names = names_of(user_ids)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    users = [names[i] for i in by_name]
    user_ids = user_ids[by_name]
    rank = np.zeros(len(replied), dtype=np.min_scalar_type(len(users)))
    rank[user_ids] = np.arange(len(users))
    sample_of = rank[owner_ids]
    order = np.argsort(delays)
    delays, sample_of = delays[order], sample_of[order]
    order = np.argsort(sample_of, kind="stable")
    delays = delays[order]
    offsets = np.zeros(len(users) + 1, dtype=np.intp)
    np.cumsum(np.bincount(sample_of, minlength=len(users)), out=offsets[1:])
    bad = np.flatnonzero(~((delays > 0.0) & (delays < math.inf)))  # NaN fails both
    if bad.size:
        user = users[int(np.searchsorted(offsets, bad[0], side="right")) - 1]
        raise DataError(f"user {user!r} has nonpositive or non-finite delays")
    return SubcascadeTable(users, offsets, delays, user_ids)


def extract_features(net: Network, cascades: Iterable[Cascade]) -> FeatureMatrix:
    """Behavioral covariates for every network node, add-one smoothed.

    Follower aggregates are weighted by each follower's historical retweet
    count (smoothed by +1 and normalized), since heavy retweeters contribute
    more to a user's observed dynamics.
    """
    flat = CascadeArrays.of(cascades, whole=True)
    n = net.n_nodes
    rows = flat.network_rows(net)
    times, parents = flat.times, flat.parents
    child = parents >= 0
    posts_made = np.bincount(rows, minlength=n)
    retweets_made = np.bincount(rows[child], minlength=n)
    children = np.bincount(rows[parents[child]], minlength=n)
    window_days = (max((times.max() - times.min()) / SECONDS_PER_DAY, 1.0)
                   if times.size else 1.0)

    # a node receives the posts of everyone it follows
    follower_rows = np.repeat(np.arange(n), np.diff(net.followee_ptr))
    posts_received = np.bincount(follower_rows, weights=posts_made[net.followee_idx],
                                 minlength=n)
    retweet_rate = retweets_made / np.maximum(posts_received, 1.0)

    # follower aggregates: each node's mean over its followers f, weighted by
    # retweets_made[f] + 1; the integer-valued sums are exact in float64
    fol = net.follower_idx
    followee_rows = np.repeat(np.arange(n), np.diff(net.follower_ptr))
    weights = retweets_made[fol] + 1.0
    total = np.bincount(followee_rows, weights=weights, minlength=n)
    total[total == 0.0] = 1.0  # no followers: every weighted sum is 0
    follower_counts = net.follower_counts

    def weighted(values: np.ndarray) -> np.ndarray:
        return np.bincount(followee_rows, weights=weights * values[fol], minlength=n) / total

    avg_sub_size = np.divide(children, posts_made, out=np.zeros(n), where=posts_made > 0)
    values = np.column_stack([
        follower_counts,
        weighted(follower_counts),
        weighted(posts_received) / window_days,
        weighted(retweet_rate),
        posts_made,
        avg_sub_size,
    ]) + 1.0
    return FeatureMatrix(users=list(net.nodes), names=list(FEATURE_SCHEMA), values=values,
                         ids=net.node_ids)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_network_csv(path, net: Network) -> None:
    """CSV with header ``follower,followee``; isolated nodes get a node-only
    row with an empty followee column so the node set round-trips."""
    isolated = (np.diff(net.followee_ptr) == 0) & (np.diff(net.follower_ptr) == 0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["follower", "followee"])
        writer.writerows(net.edges)
        writer.writerows([net.nodes[i], ""] for i in np.flatnonzero(isolated).tolist())


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
