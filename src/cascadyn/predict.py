"""Cascade-level prediction from per-user behavioral dynamics.

The basic model aggregates one term per observed user: the user's observed
reply count, divided by the fraction of their followers' responses expected
to have arrived by the observation horizon (deathrate), times the fraction
expected by the prediction horizon (fdrate). Both rates are floored at
1/|V| so no division can blow up.

The sampling estimator maintains the same final-size aggregate online while
recalculating each subcascade only when its deathrate could have grown by
more than a factor (1 + epsilon) since its last refresh, which caps the
relative error at epsilon and the per-subcascade recalculations at
ceil(log_{1+eps} |V|).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .features import DELAY_SHIFT, Cascade, CascadeEvent, flatten_prefixes
from .fitting import FeatureMatrix, NewerModel, mean_params, median_params, regress_params
from .survival import _EXP_CLAMP, WeibullParams, weibull_survival, weibull_survival_inverse

__all__ = [
    "PartialCascade",
    "ProcessCurve",
    "SubcascadeState",
    "BasicPredictor",
    "SamplingPredictor",
    "ModelDynamics",
    "write_predictions_jsonl",
    "read_predictions_jsonl",
    "DEFAULT_SEARCH_WINDOW",
]

DEFAULT_SEARCH_WINDOW = 30 * 86400.0  # binary search horizon beyond t_limit
_CURVE_BLOCK = 1 << 16  # process-curve buffer entries (horizons x replying rows)


@dataclass
class PartialCascade:
    """The observed prefix of a cascade up to t_limit, plus the network size."""

    cascade_id: str
    events: list[CascadeEvent]
    t_limit: float
    network_size: int

    def __post_init__(self):
        if self.network_size < 1:
            raise DataError("network size must be >= 1")
        if not self.events:
            raise DataError(f"partial cascade {self.cascade_id!r} has no events")
        Cascade(cascade_id=self.cascade_id, events=self.events)  # reuse tree validation
        if not math.isfinite(self.t_limit) or not self.t_limit >= self.events[-1].t:
            raise DataError(
                f"partial cascade {self.cascade_id!r}: t_limit {self.t_limit} is not finite "
                f"or precedes the last event"
            )

    @property
    def size(self) -> int:
        return len(self.events)

    @cached_property
    def rows(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Users, join times and reply counts of the observed rows, built once
        and shared, read-only, by every predictor on this cascade."""
        users = [e.user for e in self.events]
        position = {u: i for i, u in enumerate(users)}
        # the tree check in __post_init__ gives every later event a known parent
        parents = [position[e.parent] for e in self.events[1:]]
        replynum = np.bincount(parents, minlength=len(users)).astype(float)
        t_join = np.array([e.t for e in self.events])
        replynum.flags.writeable = False
        t_join.flags.writeable = False
        return users, t_join, replynum

    @classmethod
    def from_cascade(cls, cascade: Cascade, t_limit: float, network_size: int) -> "PartialCascade":
        events = [e for e in cascade.events if e.t <= t_limit]
        return cls(cascade.cascade_id, events, t_limit, network_size)

    @classmethod
    def first_events(cls, cascade: Cascade, count: int, network_size: int) -> "PartialCascade":
        if count < 1 or count > cascade.size:
            raise DataError(f"cannot observe {count} events of a size-{cascade.size} cascade")
        t_limit = cascade.events[count - 1].t
        # include every event tied with the cut timestamp
        events = [e for e in cascade.events if e.t <= t_limit]
        return cls(cascade.cascade_id, events, t_limit, network_size)


@dataclass
class ProcessCurve:
    """Predicted cumulative size at a sorted sequence of times."""

    times: list[float]
    sizes: list[float]

    def __post_init__(self):
        if len(self.times) != len(self.sizes):
            raise DataError("curve times and sizes must have the same length")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise DataError("curve times must be sorted")
        if any(b < a for a, b in zip(self.sizes, self.sizes[1:])):
            raise DataError("curve sizes must be nondecreasing")


def _resolve_dynamics(dynamics, user: str) -> WeibullParams:
    if isinstance(dynamics, Mapping):
        params = dynamics.get(user)
        if params is None:
            raise DataError(f"no behavioral dynamics for observed user {user!r}")
        return params
    try:
        return dynamics(user)
    except KeyError:
        raise DataError(f"no behavioral dynamics for observed user {user!r}") from None


class ModelDynamics:
    """Dynamics lookup for prediction: fitted per-user parameters first, then
    the model's out-of-sample policy, then a global fallback.

    Out-of-sample policy by model kind:
      newer        scale and shape both regressed from covariates
      cox          scale regressed, shape set to the mean fitted shape
      exponential  scale regressed, shape 1
      rayleigh     scale regressed, shape 2
      weibull      averaged fitted scale and shape

    The policy is applied once, at construction, into one table of scales
    and shapes: a row per feature-matrix user (keyed by the matrix's own
    index), a row per fitted user the matrix lacks, and a last row for every
    other user. A row no source covers is marked in ``_covered`` and refused
    on lookup.
    """

    def __init__(self, model: NewerModel, features: FeatureMatrix | None = None,
                 fallback: WeibullParams | None = None):
        if (features is not None and model.feature_names
                and list(features.names) != list(model.feature_names)):
            raise DataError(f"feature columns {list(features.names)} do not match the "
                            f"model's feature names {list(model.feature_names)}")
        self.model = model
        self.features = features
        if fallback is None and model.user_params:
            fallback = median_params(model)
        self.fallback = fallback
        self._build_table()

    def _build_table(self) -> None:
        model, features = self.model, self.features
        index = features.index if features is not None else {}
        n_features = len(index)
        extra = [u for u in model.user_params if u not in index]
        if extra:
            index = dict(index)
            index.update((u, n_features + i) for i, u in enumerate(extra))
        self._index = index
        self._other = len(index)  # the row of users outside the index
        scales = np.ones(len(index) + 1)
        shapes = np.ones(len(index) + 1)
        covered = np.zeros(len(index) + 1, dtype=bool)
        mean = mean_params(model) if model.user_params else None
        if model.kind == "weibull":
            if mean is not None:
                scales[:], shapes[:] = mean.scale, mean.shape
                covered[:] = True
        elif features is not None and model.feature_names and n_features:
            scales[:n_features], regressed_shapes = regress_params(model, features.log_values)
            if model.kind == "cox":
                shapes[:n_features] = mean.shape if mean is not None else 1.0
            elif model.kind == "exponential":
                shapes[:n_features] = 1.0
            elif model.kind == "rayleigh":
                shapes[:n_features] = 2.0
            else:
                shapes[:n_features] = regressed_shapes
            covered[:n_features] = True
        if self.fallback is not None:
            scales[~covered], shapes[~covered] = self.fallback.scale, self.fallback.shape
            covered[:] = True
        if model.user_params:
            rows = [index[u] for u in model.user_params]
            params = model.user_params.values()
            scales[rows] = [p.scale for p in params]
            shapes[rows] = [p.shape for p in params]
            covered[rows] = True
        self._scales, self._shapes, self._covered = scales, shapes, covered
        self._all_covered = bool(covered.all())  # always so when there is a fallback

    def __call__(self, user: str) -> WeibullParams:
        row = self._index.get(user, self._other)
        if not self._covered[row]:
            raise DataError(f"no behavioral dynamics for observed user {user!r}")
        return WeibullParams(float(self._scales[row]), float(self._shapes[row]))

    def _rows(self, users: Sequence[str]) -> np.ndarray:
        """The table row of each of ``users``."""
        index, other = self._index, self._other
        return np.fromiter((index.get(u, other) for u in users), dtype=np.intp, count=len(users))

    def _refuse_uncovered(self, rows: np.ndarray, users: Sequence[str]) -> None:
        if self._all_covered:
            return
        missing = np.flatnonzero(~self._covered[rows])
        if missing.size:
            raise DataError(f"no behavioral dynamics for observed user {users[missing[0]]!r}")

    def gather(self, users: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Scales and shapes of ``users``, one table row each."""
        rows = self._rows(users)
        self._refuse_uncovered(rows, users)
        return self._scales[rows], self._shapes[rows]


def _rates(t0, shapes, log_scales, floor, t_e, out):
    """Response rates max(1 - S(t_e - t0), floor) into ``out``, in place.

    S is the Weibull survival exp(-exp(min(shape * (log e - log scale),
    clamp))); an elapsed time e of exactly 0 gives log e = -inf and so S = 1.
    Callers that may pass such an e silence numpy's divide warning.
    """
    np.subtract(t_e, t0, out=out)
    np.log(out, out=out)
    out -= log_scales
    out *= shapes
    np.minimum(out, _EXP_CLAMP, out=out)
    np.exp(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, floor, out=out)


class BasicPredictor:
    """Prepared basic-model evaluator for one partial cascade.

    Per-user arrays are built once so repeated horizon queries (process
    curves, outbreak search) stay cheap. The public arrays (``users``,
    ``t_join``, ``replynum``, ``scales``, ``shapes``, ``deathrate``) hold one
    entry per observed row; ``deathrate`` is computed when read. ``users``,
    ``t_join`` and ``replynum`` are the partial cascade's read-only
    ``rows``, shared by every predictor built on it, and a ``ModelDynamics``
    fills ``scales`` and ``shapes`` with one table gather. The sums run over
    replying rows only: a row with no replies adds an exact zero, and on
    large cascades most rows have none. For those rows the join time minus
    ``time_shift``, the shape, the log scale and the reply count are kept
    contiguous, and every horizon query fills one preallocated buffer in
    place; a process curve fills one buffer row per horizon.

    The summed rows' deathrate is the rate the query routine itself returns
    at ``t_limit``, so at ``t_e == t_limit`` each fdrate / deathrate ratio is
    exactly 1 and the prediction reproduces the observed size bit for bit.
    """

    def __init__(self, pc: PartialCascade, dynamics, *, time_shift: float = DELAY_SHIFT):
        if not time_shift >= 0.0:
            raise DataError(f"time shift must be a nonnegative real, got {time_shift}")
        self.pc = pc
        self.time_shift = time_shift
        self.users, self.t_join, self.replynum = pc.rows
        if isinstance(dynamics, ModelDynamics):
            self.scales, self.shapes = dynamics.gather(self.users)
        else:
            params = [_resolve_dynamics(dynamics, u) for u in self.users]
            self.scales = np.array([p.scale for p in params])
            self.shapes = np.array([p.shape for p in params])
        self.floor = 1.0 / pc.network_size
        replying = self.replynum > 0.0
        self._t0 = self.t_join[replying] - time_shift
        self._shapes = self.shapes[replying]
        self._log_scales = np.log(self.scales[replying])
        self._replynum = self.replynum[replying]
        self._buf = np.empty_like(self._t0)
        self._deathrate = self._fdrate(pc.t_limit).copy()

    @property
    def deathrate(self) -> np.ndarray:
        """Rate at t_limit of every observed row, replying or not."""
        with np.errstate(divide="ignore"):
            return _rates(self.t_join - self.time_shift, self.shapes, np.log(self.scales),
                          self.floor, self.pc.t_limit, np.empty_like(self.t_join))

    @property
    def observed_size(self) -> int:
        return self.pc.size

    def _fdrate(self, t_e: float) -> np.ndarray:
        """Rates of the replying rows at horizon t_e, in the shared buffer."""
        args = (self._t0, self._shapes, self._log_scales, self.floor, t_e, self._buf)
        if t_e == self.pc.t_limit:
            # every t0 <= t_limit, so an elapsed time of 0 can occur here only
            with np.errstate(divide="ignore"):
                return _rates(*args)
        return _rates(*args)

    def size_at(self, t_e: float) -> float:
        """Predicted cumulative size at horizon t_e >= t_limit."""
        if not t_e >= self.pc.t_limit:  # also refuses NaN
            raise DataError(f"prediction horizon {t_e} precedes t_limit {self.pc.t_limit}")
        ratio = self._fdrate(t_e)
        # dividing the rates first makes the ratio exactly 1 at t_e == t_limit,
        # so the boundary prediction reproduces the observed size bit-exactly
        ratio /= self._deathrate
        ratio *= self._replynum
        return 1.0 + float(ratio.sum())

    def final_size(self) -> float:
        """Predicted final size: horizon at infinity, so fdrate is 1."""
        return 1.0 + float(np.sum(self._replynum / self._deathrate))

    def outbreak_time(self, threshold_size: int, t_max: float | None = None) -> float | None:
        """Earliest integer-second time the predicted size reaches the
        threshold; None when it never does within [t_limit, t_max]."""
        if threshold_size < 1:
            raise DataError(f"outbreak threshold must be >= 1, got {threshold_size}")
        t_limit = self.pc.t_limit
        if self.observed_size >= threshold_size:
            return t_limit
        if self.final_size() < threshold_size:
            return None
        if t_max is None:
            t_max = t_limit + DEFAULT_SEARCH_WINDOW
        span = int(math.ceil(t_max - t_limit))
        if span < 1 or self.size_at(t_limit + span) < threshold_size:
            return None
        lo, hi = 0, span  # size(t_limit + hi) >= threshold
        while lo < hi:
            mid = (lo + hi) // 2
            if self.size_at(t_limit + mid) >= threshold_size:
                hi = mid
            else:
                lo = mid + 1
        return t_limit + float(lo)

    def _sizes_at(self, times: np.ndarray) -> np.ndarray:
        """``size_at`` of every horizon in ``times``, each >= t_limit.

        Rates fill a (horizons x replying rows) buffer, a block of horizons
        at a time; each buffer row is summed as ``size_at`` sums its vector,
        so every entry equals the scalar query.
        """
        rows = self._t0.size
        out = np.zeros(len(times))
        if rows:
            block = max(1, _CURVE_BLOCK // rows)
            buf = np.empty((min(block, len(times)), rows))
            # an elapsed time of 0 can occur at t_e == t_limit only
            with np.errstate(divide="ignore"):
                for start in range(0, len(times), block):
                    t_e = times[start:start + block, None]
                    ratio = _rates(self._t0, self._shapes, self._log_scales, self.floor, t_e,
                                   buf[:len(t_e)])
                    ratio /= self._deathrate
                    ratio *= self._replynum
                    out[start:start + len(t_e)] = ratio.sum(axis=1)
        out += 1.0
        return out

    def process_curve(self, grid: Sequence[float]) -> ProcessCurve:
        grid = [float(t) for t in grid]
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise DataError("prediction grid must be sorted")
        times = np.array(grid)
        early = np.flatnonzero(~(times >= self.pc.t_limit))  # also refuses NaN
        if early.size:
            raise DataError(f"prediction horizon {grid[early[0]]} precedes "
                            f"t_limit {self.pc.t_limit}")
        sizes: list[float] = []
        for value in self._sizes_at(times).tolist():
            if sizes and value < sizes[-1]:
                value = sizes[-1]  # guard float wobble; the estimator is monotone
            sizes.append(value)
        return ProcessCurve(times=grid, sizes=sizes)


class PrefixBatch:
    """The observed prefixes of many cascades, flattened so that one pass per
    model gives every prefix's final size.

    Prefix j is the first ``count`` events of its cascade plus every later
    event tied with the cut, as ``PartialCascade.first_events`` observes it;
    ``t_limit`` is the cut's timestamp. The rows of all prefixes are sliced
    from each cascade's cached arrays and laid end to end: ``users`` (names),
    and, for the rows with replies only, the join time minus ``DELAY_SHIFT``,
    the reply count, the prefix's ``t_limit`` and the prefix the row belongs
    to. ``final_sizes`` resolves ``users`` to table rows once per table index,
    which every ``ModelDynamics`` built on one feature matrix shares, takes
    each replying row's deathrate with the kernel ``BasicPredictor`` uses,
    and sums each prefix with ``np.bincount``. The deathrates are bit for bit
    those of ``BasicPredictor``; only the order of the final sum differs.
    """

    def __init__(self, prefixes: Sequence[tuple[Cascade, int]], network_size: int):
        if network_size < 1:
            raise DataError("network size must be >= 1")
        self.floor = 1.0 / network_size
        self.size = len(prefixes)
        self.lengths = lengths = np.zeros(self.size, dtype=np.intp)  # observed rows
        t_limits = np.zeros(self.size)
        for j, (cascade, count) in enumerate(prefixes):
            if count < 1 or count > cascade.size:
                raise DataError(f"cannot observe {count} events of a size-{cascade.size} cascade")
            times = cascade.times
            t_limits[j] = times[count - 1]
            lengths[j] = np.searchsorted(times, t_limits[j], side="right")
        cascades = [cascade for cascade, _ in prefixes]
        self.users = [ev.user for cascade, k in zip(cascades, lengths.tolist())
                      for ev in cascade.events[:k]]
        prefix_of = np.repeat(np.arange(self.size), lengths)
        t_join, parents = flatten_prefixes(cascades, lengths)
        replynum = np.bincount(parents[parents >= 0], minlength=len(t_join))
        self._replying = np.flatnonzero(replynum)
        self._t0 = t_join[self._replying] - DELAY_SHIFT
        self._replynum = replynum[self._replying].astype(float)
        self._t_limit = t_limits[prefix_of[self._replying]]
        self._prefix_of = prefix_of[self._replying]
        self._table_index = self._table_rows = None

    def final_sizes(self, dynamics: ModelDynamics) -> np.ndarray:
        """Each prefix's ``BasicPredictor(pc, dynamics).final_size()``."""
        if self._table_index is not dynamics._index:
            self._table_index, self._table_rows = dynamics._index, dynamics._rows(self.users)
        dynamics._refuse_uncovered(self._table_rows, self.users)
        rows = self._table_rows[self._replying]
        deathrate = np.empty_like(self._t0)
        # every elapsed time is at least DELAY_SHIFT, so no log of 0 occurs
        _rates(self._t0, dynamics._shapes[rows], np.log(dynamics._scales[rows]),
               self.floor, self._t_limit, deathrate)
        return 1.0 + np.bincount(self._prefix_of, weights=self._replynum / deathrate,
                                 minlength=self.size)


# ---------------------------------------------------------------------------
# Sampling model
# ---------------------------------------------------------------------------

@dataclass
class SubcascadeState:
    """Book-keeping for one observed user's subcascade in the sampling model."""

    owner: str
    t_join: float
    params: WeibullParams
    replynum: int = 0
    deathrate: float = 1.0
    term: float = 0.0
    next_recalc: float = math.inf
    epoch: int = 0
    timer_recalcs: int = 0


class SamplingPredictor:
    """Streaming final-size estimator with lazy epsilon-bounded recalculation.

    Subcascades with no replies contribute zero and are never scheduled. A
    reply refreshes its parent immediately; otherwise a subcascade is only
    recalculated once the clock passes the time at which its deathrate could
    exceed (1 + epsilon) times the value used for its current term, found by
    inverting the owner's survival function. A min-heap over those times
    drives the lazy work.
    """

    def __init__(self, network_size: int, epsilon: float, dynamics, *,
                 time_shift: float = DELAY_SHIFT):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if network_size < 1:
            raise DataError("network size must be >= 1")
        self.network_size = network_size
        self.epsilon = epsilon
        self.dynamics = dynamics
        self.time_shift = time_shift
        self.floor = 1.0 / network_size
        self.states: dict[str, SubcascadeState] = {}
        self._heap: list[tuple[float, int, str, int]] = []
        self._seq = 0
        self._sum = 0.0
        self._root: str | None = None
        self._last_t = -math.inf
        self.reply_updates = 0
        self.timer_recalcs = 0

    def _deathrate(self, state: SubcascadeState, now: float) -> float:
        elapsed = now - state.t_join + self.time_shift
        return max(1.0 - weibull_survival(state.params, max(elapsed, 0.0)), self.floor)

    def _refresh(self, state: SubcascadeState, now: float) -> None:
        dr = self._deathrate(state, now)
        new_term = state.replynum / dr
        self._sum += new_term - state.term
        state.term = new_term
        state.deathrate = dr
        state.epoch += 1
        target = 1.0 - (1.0 + self.epsilon) * dr
        if target > 0.0:
            elapsed_at_target = weibull_survival_inverse(state.params, target)
            next_t = state.t_join + elapsed_at_target - self.time_shift
            if next_t <= now:
                next_t = float(np.nextafter(now, math.inf))
            state.next_recalc = next_t
            self._seq += 1
            heapq.heappush(self._heap, (next_t, self._seq, state.owner, state.epoch))
        else:
            state.next_recalc = math.inf

    def _process_due(self, now: float) -> None:
        while self._heap and self._heap[0][0] <= now:
            _, _, owner, epoch = heapq.heappop(self._heap)
            state = self.states[owner]
            if state.epoch != epoch:
                continue  # superseded by a later refresh
            self.timer_recalcs += 1
            state.timer_recalcs += 1
            self._refresh(state, now)

    def feed_event(self, user: str, parent: str | None, t: float) -> None:
        if t < self._last_t:
            raise DataError(f"event at {t} arrives out of order (last was {self._last_t})")
        if user in self.states:
            raise DataError(f"user {user!r} already joined the cascade")
        self._process_due(t)
        self._last_t = t
        params = _resolve_dynamics(self.dynamics, user)
        self.states[user] = SubcascadeState(owner=user, t_join=t, params=params)
        if parent is None:
            if self._root is not None:
                raise DataError("cascade already has a root")
            self._root = user
            self._sum += 1.0  # the root itself
            return
        if self._root is None:
            raise DataError("first event must be the root")
        parent_state = self.states.get(parent)
        if parent_state is None:
            raise DataError(f"event for {user!r} references unknown parent {parent!r}")
        parent_state.replynum += 1
        self.reply_updates += 1
        self._refresh(parent_state, t)

    def query_size(self, now: float | None = None) -> float:
        """Current estimate of the final cascade size at wall-clock ``now``
        (defaults to the last event time)."""
        if self._root is None:
            raise DataError("no events fed yet")
        if now is None:
            now = self._last_t
        if now < self._last_t:
            raise DataError(f"cannot query the past: {now} < {self._last_t}")
        self._process_due(now)
        return self._sum

    def recalc_count(self, user: str) -> int:
        state = self.states.get(user)
        return state.timer_recalcs if state is not None else 0

    @property
    def total_updates(self) -> int:
        """Term recomputations of both kinds (reply-driven and timer-driven)."""
        return self.reply_updates + self.timer_recalcs


# ---------------------------------------------------------------------------
# Prediction records on disk
# ---------------------------------------------------------------------------

def write_predictions_jsonl(path, records: Iterable[dict]) -> None:
    """One record per cascade:
    {"cascade", "t_limit", "final", "outbreak_t", "curve"}."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            try:
                line = json.dumps({
                    "cascade": rec["cascade"],
                    "t_limit": rec["t_limit"],
                    "final": rec["final"],
                    "outbreak_t": rec.get("outbreak_t"),
                    "curve": rec.get("curve", []),
                }, allow_nan=False)
            except ValueError as exc:
                raise DataError(f"prediction for cascade {rec['cascade']!r}: {exc}") from None
            fh.write(line + "\n")


def read_predictions_jsonl(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: bad prediction record: {exc}") from exc
    return out
