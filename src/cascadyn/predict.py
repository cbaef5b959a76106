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
import operator
from array import array
from contextlib import nullcontext, suppress
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .features import (
    DELAY_SHIFT,
    Cascade,
    CascadeEvent,
    _read_only,
    flat_events,
    flatten_prefixes,
    flatten_user_ids,
)
from .fitting import FeatureMatrix, NewerModel, regress_params
from .survival import WeibullParams, _survival
from .userids import by_id, lookup

__all__ = [
    "PartialCascade",
    "ProcessCurve",
    "BasicPredictor",
    "SamplingPredictor",
    "ModelDynamics",
    "write_predictions_jsonl",
    "read_predictions_jsonl",
    "DEFAULT_SEARCH_WINDOW",
]

DEFAULT_SEARCH_WINDOW = 30 * 86400.0  # binary search horizon beyond t_limit
_CURVE_BLOCK = 1 << 16  # process-curve buffer entries (horizons x replying rows)
# exp(-exp(x)) is at least exp(-708) ~ 3e-308, a normal float, for x up to
# log 708, and every rate past it rounds to 1 all the same
_RATE_CLAMP = math.log(708.0)


@dataclass
class PartialCascade:
    """The observed prefix of a cascade up to t_limit, plus the network size.

    Built from an event list, the events are validated as a ``Cascade``.
    ``from_cascade`` and ``first_events`` instead observe a time prefix of a
    cascade already validated, which needs no second tree check: ``events``
    is a slice of its events, and ``times``, ``parent_positions`` and
    ``user_ids`` are read-only views of its arrays.
    """

    cascade_id: str
    events: list[CascadeEvent]
    t_limit: float
    network_size: int
    _source: InitVar[Cascade | None] = None  # the cascade ``events`` is a time prefix of

    def __post_init__(self, _source: Cascade | None):
        if self.network_size < 1:
            raise DataError("network size must be >= 1")
        if not self.events:
            raise DataError(f"partial cascade {self.cascade_id!r} has no events")
        if _source is None:  # validate the tree; a time prefix of a cascade is valid
            _source = Cascade(cascade_id=self.cascade_id, events=self.events)
        self._cascade = _source
        self._replynum = None
        if not math.isfinite(self.t_limit) or not self.t_limit >= self.events[-1].t:
            raise DataError(
                f"partial cascade {self.cascade_id!r}: t_limit {self.t_limit} is not finite "
                f"or precedes the last event"
            )

    @property
    def size(self) -> int:
        return len(self.events)

    @property
    def times(self) -> np.ndarray:
        """Join time of each observed event (float64, read-only)."""
        return self._cascade.times[:len(self.events)]

    @property
    def parent_positions(self) -> np.ndarray:
        """Position of each observed event's parent, -1 for the root (int32, read-only)."""
        return self._cascade.parent_positions[:len(self.events)]

    @property
    def user_ids(self) -> np.ndarray:
        """Interned id of each observed event's user (int32, read-only)."""
        return self._cascade.user_ids[:len(self.events)]

    @property
    def replynum(self) -> np.ndarray:
        """Observed replies to each observed event (float64, read-only), built
        once and shared by every predictor on this cascade."""
        if self._replynum is None:
            counts = np.bincount(self.parent_positions[1:], minlength=len(self.events))
            self._replynum = _read_only(counts.astype(float))
        return self._replynum

    @classmethod
    def from_cascade(cls, cascade: Cascade, t_limit: float, network_size: int) -> "PartialCascade":
        # a NaN t_limit observes nothing, as no e.t <= NaN holds
        k = 0 if math.isnan(t_limit) else int(np.searchsorted(cascade.times, t_limit, "right"))
        return cls(cascade.cascade_id, cascade.events[:k], t_limit, network_size, cascade)

    @classmethod
    def first_events(cls, cascade: Cascade, count: int, network_size: int) -> "PartialCascade":
        if count < 1 or count > cascade.size:
            raise DataError(f"cannot observe {count} events of a size-{cascade.size} cascade")
        # include every event tied with the cut timestamp
        return cls.from_cascade(cascade, cascade.events[count - 1].t, network_size)


@dataclass
class ProcessCurve:
    """Predicted cumulative size at a sorted sequence of times."""

    times: list[float]
    sizes: list[float]

    def __post_init__(self):
        if len(self.times) != len(self.sizes):
            raise DataError("curve times and sizes must have the same length")
        if any(map(operator.lt, self.times[1:], self.times)):
            raise DataError("curve times must be sorted")
        if any(map(operator.lt, self.sizes[1:], self.sizes)):
            raise DataError("curve sizes must be nondecreasing")


def _no_dynamics(user: str) -> DataError:
    return DataError(f"no behavioral dynamics for observed user {user!r}")


def _resolver(dynamics):
    """user -> params from a mapping or callable; ``DataError`` if it has none."""
    find = dynamics.get if isinstance(dynamics, Mapping) else dynamics

    def resolve(user: str) -> WeibullParams:
        with suppress(KeyError):
            if (params := find(user)) is not None:
                return params
        raise _no_dynamics(user)
    return resolve


class ModelDynamics:
    """Dynamics lookup for prediction: fitted per-user parameters first, then
    the model's out-of-sample policy, then a global fallback (by default the
    median fitted scale and shape).

    Out-of-sample policy by model kind:
      newer        scale and shape both regressed from covariates
      cox          scale regressed, shape set to the mean fitted shape
      exponential  scale regressed, shape 1
      rayleigh     scale regressed, shape 2
      weibull      averaged fitted scale and shape

    The policy is applied once, at construction, from the model's and the
    feature matrix's arrays, joined by interned user id (``cascadyn.userids``)
    without reading a name: a table of scales and shapes gets a row per
    feature-matrix user, a row per fitted user the matrix lacks (found with
    a mask over the fitted ids), and a last row for every other user. The
    fitted scales and shapes are scattered into it by id, and it is then
    laid out by id, so a lookup is one take by id, and users interned later
    read the last row. A row no source covers is marked in ``_covered`` and
    refused on lookup. Whether every row is covered and finite is recorded
    once, so batch reads check one flag; a non-finite row (a coefficient
    made NaN after fitting) is refused as ``self(user)`` refuses it, never
    served as a NaN size.
    """

    def __init__(self, model: NewerModel, features: FeatureMatrix | None = None,
                 fallback: WeibullParams | None = None):
        if (features is not None and model.feature_names
                and list(features.names) != list(model.feature_names)):
            raise DataError(f"feature columns {list(features.names)} do not match the "
                            f"model's feature names {list(model.feature_names)}")
        self.model = model
        self.features = features
        self._build_table(fallback)

    def _build_table(self, fallback: WeibullParams | None) -> None:
        model, features = self.model, self.features
        fitted = model.user_params
        if features is None:
            ids, extra = np.empty(0, dtype=np.int32), fitted.ids
        else:
            ids, extra = features.user_ids, fitted.ids[features.rows_of(fitted.ids) < 0]
        n_features = len(ids)
        if extra.size:
            ids = np.concatenate([ids, extra])
        other = len(ids)  # the row of users outside the table
        row_of = by_id(ids, np.arange(other), other)
        scales = np.ones(other + 1)
        shapes = np.ones(other + 1)
        covered = np.zeros(other + 1, dtype=bool)
        if fallback is not None:
            fallback = fallback.scale, fallback.shape
        elif len(fitted):
            fallback = np.median(fitted.scales), np.median(fitted.shapes)
        mean_shape = np.mean(fitted.shapes) if len(fitted) else 1.0
        if model.kind == "weibull":
            if len(fitted):
                scales[:], shapes[:] = np.mean(fitted.scales), mean_shape
                covered[:] = True
        elif features is not None and model.feature_names and n_features:
            scales[:n_features], regressed_shapes = regress_params(model, features.log_values)
            if model.kind == "cox":
                shapes[:n_features] = mean_shape
            elif model.kind == "exponential":
                shapes[:n_features] = 1.0
            elif model.kind == "rayleigh":
                shapes[:n_features] = 2.0
            else:
                shapes[:n_features] = regressed_shapes
            covered[:n_features] = True
        if fallback is not None:
            scales[~covered], shapes[~covered] = fallback
            covered[:] = True
        rows = row_of[fitted.ids]
        scales[rows] = fitted.scales
        shapes[rows] = fitted.shapes
        covered[rows] = True
        # one (scale, shape) row per id, read with take(ids, axis=0, mode="clip")
        self._params = np.column_stack([scales, shapes])[row_of]
        self._covered = covered[row_of]
        self._all_served = bool(covered.all() and np.isfinite(scales).all()
                                and np.isfinite(shapes).all())

    def __call__(self, user: str) -> WeibullParams:
        return WeibullParams(*self._scale_shape(user))

    def _scale_shape(self, user: str) -> tuple[float, float]:
        """The scale and shape ``self(user)`` holds, not checked to be finite."""
        i = lookup(user)
        last = len(self._covered) - 1
        if i is None or i > last:
            i = last
        if not self._covered.item(i):
            raise _no_dynamics(user)
        return self._params.item(i, 0), self._params.item(i, 1)

    def _refuse_unserved(self, ids: np.ndarray, user_at) -> None:
        """For the first i whose id no source covers or whose row is not
        finite, raise the error ``self(user_at(i))`` raises."""
        if self._all_served:
            return
        served = self._covered.take(ids, mode="clip") & np.isfinite(self._take(ids)).all(axis=1)
        unserved = np.flatnonzero(~served)
        if unserved.size:
            self(user_at(int(unserved[0])))

    def _take(self, ids: np.ndarray) -> np.ndarray:
        """The (scale, shape) row of each id, covered or not."""
        return self._params.take(ids, axis=0, mode="clip")


def _rates(t0, shapes, log_scales, floor, t_e, out):
    """Response rates max(1 - S(t_e - t0), floor) into ``out``, in place.

    S is the Weibull survival exp(-exp(min(shape * (log e - log scale),
    log 708))), which never underflows; an elapsed time e of exactly 0 gives
    log e = -inf and so S = 1. Callers that may pass such an e silence
    numpy's divide warning.
    """
    np.subtract(t_e, t0, out=out)
    np.log(out, out=out)
    out -= log_scales
    out *= shapes
    np.minimum(out, _RATE_CLAMP, out=out)
    np.exp(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, floor, out=out)


class BasicPredictor:
    """Prepared basic-model evaluator for one partial cascade.

    Per-user arrays are built once so repeated horizon queries (process
    curves, outbreak search) stay cheap. The public arrays (``t_join``,
    ``replynum``, ``scales``, ``shapes``, ``deathrate``) hold one entry per
    observed row; ``deathrate`` is computed when read, and so is ``users``,
    the rows' names. ``t_join`` and ``replynum`` are the partial cascade's
    read-only arrays, shared by every predictor built on it, and a
    ``ModelDynamics`` fills ``scales`` and ``shapes`` with one table take by
    user id. The sums run over replying rows only: a row with no replies
    adds an exact zero, and on large cascades most rows have none. For those
    rows the join time minus ``DELAY_SHIFT``, the shape, the log scale and the
    reply count are kept contiguous, and every horizon query fills one
    preallocated buffer in place; a process curve fills one buffer row per
    horizon.

    The summed rows' deathrate is the rate the query routine itself returns
    at ``t_limit``, so at ``t_e == t_limit`` each fdrate / deathrate ratio is
    exactly 1 and the prediction reproduces the observed size bit for bit.
    """

    def __init__(self, pc: PartialCascade, dynamics):
        self.pc = pc
        self.t_join, self.replynum = pc.times, pc.replynum
        if isinstance(dynamics, ModelDynamics):
            ids = pc.user_ids
            dynamics._refuse_unserved(ids, lambda i: pc.events[i].user)
            params = dynamics._take(ids)
            self.scales, self.shapes = params[:, 0], params[:, 1]
        else:
            resolve = _resolver(dynamics)
            params = [resolve(e.user) for e in pc.events]
            self.scales = np.array([p.scale for p in params])
            self.shapes = np.array([p.shape for p in params])
        self.floor = 1.0 / pc.network_size
        replying = self.replynum > 0.0
        self._t0 = self.t_join[replying] - DELAY_SHIFT
        # every t_e >= t_join, so an elapsed time t_e - t0 of 0, whose log
        # warns, needs t0 == t_join: a shift below the spacing of floats
        # near some join time, which |t| * 2**-52 bounds
        t_abs = max(-float(self.t_join[0]), pc.t_limit)
        self._log0 = not DELAY_SHIFT > t_abs * 2.0 ** -52
        self._shapes = self.shapes[replying]
        self._log_scales = np.log(self.scales[replying])
        self._replynum = self.replynum[replying]
        self._buf = np.empty_like(self._t0)
        self._deathrate = self._fdrate(pc.t_limit).copy()

    @property
    def users(self) -> list[str]:
        return [e.user for e in self.pc.events]

    @property
    def deathrate(self) -> np.ndarray:
        """Rate at t_limit of every observed row, replying or not."""
        with np.errstate(divide="ignore"):
            return _rates(self.t_join - DELAY_SHIFT, self.shapes, np.log(self.scales),
                          self.floor, self.pc.t_limit, np.empty_like(self.t_join))

    @property
    def observed_size(self) -> int:
        return self.pc.size

    def _fdrate(self, t_e: float) -> np.ndarray:
        """Rates of the replying rows at horizon t_e, in the shared buffer."""
        args = (self._t0, self._shapes, self._log_scales, self.floor, t_e, self._buf)
        if self._log0 and t_e == self.pc.t_limit:
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
        return 1.0 + float((self._replynum / self._deathrate).sum())

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
        if not rows:
            return np.ones(len(times))
        out = np.empty(len(times))
        block = max(1, _CURVE_BLOCK // rows)
        buf = np.empty((min(block, len(times)), rows))
        with np.errstate(divide="ignore") if self._log0 else nullcontext():
            for start in range(0, len(times), block):
                t_e = times[start:start + block, None]
                ratio = _rates(self._t0, self._shapes, self._log_scales, self.floor, t_e,
                               buf[:len(t_e)])
                ratio /= self._deathrate
                ratio *= self._replynum
                ratio.sum(axis=1, out=out[start:start + len(t_e)])
        out += 1.0
        return out

    def process_curve(self, grid: Sequence[float]) -> ProcessCurve:
        times = np.array(grid, dtype=float)
        if (times[1:] < times[:-1]).any():
            raise DataError("prediction grid must be sorted")
        early = ~(times >= self.pc.t_limit)  # also refuses NaN
        if early.any():
            raise DataError(f"prediction horizon {float(times[early.argmax()])} precedes "
                            f"t_limit {self.pc.t_limit}")
        # the estimator is monotone; the running maximum guards float wobble
        sizes = np.maximum.accumulate(self._sizes_at(times))
        return ProcessCurve(times=times.tolist(), sizes=sizes.tolist())


class PrefixBatch:
    """The observed prefixes of many cascades, flattened so that one pass per
    model gives every prefix's final size.

    Prefix j is the first ``count`` events of its cascade plus every later
    event tied with the cut, as ``PartialCascade.first_events`` observes it;
    ``t_limit`` is the cut's timestamp. Each distinct cascade is laid end to
    end once, and a run-end index over equal timestamps within a cascade
    gives every prefix's cut and tie-extended length in one take. The rows
    of all prefixes are gathered from that layout and laid end to end: user
    ids, and, for the rows with replies only, the join time minus
    ``DELAY_SHIFT``, the reply count, the prefix's ``t_limit`` and the
    prefix the row belongs to. ``final_sizes`` takes each replying row's
    scale and shape from the ``ModelDynamics`` table by id, its deathrate
    with the kernel ``BasicPredictor`` uses, and sums each prefix with
    ``np.bincount``. The deathrates are bit for bit those of
    ``BasicPredictor``; only the order of the final sum differs.
    """

    def __init__(self, prefixes: Sequence[tuple[Cascade, int]], network_size: int):
        if network_size < 1:
            raise DataError("network size must be >= 1")
        self.floor = 1.0 / network_size
        self.size = n = len(prefixes)
        distinct = {id(cascade): cascade for cascade, _ in prefixes}
        self._cascades = cascades = list(distinct.values())
        slot = {key: i for i, key in enumerate(distinct)}
        which = np.fromiter((slot[id(cascade)] for cascade, _ in prefixes), np.intp, n)
        counts = np.fromiter((count for _, count in prefixes), np.intp, n)
        sizes = np.fromiter((c.size for c in cascades), np.intp, len(cascades))[which]
        bad = np.flatnonzero((counts < 1) | (counts > sizes))
        if bad.size:
            j = int(bad[0])
            raise DataError(f"cannot observe {counts[j]} events of a size-{sizes[j]} cascade")
        times, parents = flatten_prefixes(cascades)
        starts = parents < 0  # each cascade's root comes first
        # one past the last event tied with each event, within its cascade
        new_run = starts.copy()
        new_run[1:] |= times[1:] != times[:-1]
        run_end = np.append(np.flatnonzero(new_run)[1:], len(times))[np.cumsum(new_run) - 1]
        first = np.flatnonzero(starts)[which]
        cut = first + counts - 1
        t_limits = times[cut]
        self.lengths = lengths = run_end[cut] - first  # observed rows
        # row r of prefix j is event pos[r] = r + shift[r] of the layout, and
        # a reply's parent row within the prefix is its parent's position
        # minus the same shift
        shift = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
        self._pos = pos = np.arange(len(shift)) + shift
        parent_of = parents[pos]
        child = parent_of >= 0
        replynum = np.bincount(parent_of[child] - shift[child], minlength=len(pos))
        self._ids = flatten_user_ids(cascades)[pos]
        t_join = times[pos]
        prefix_of = np.repeat(np.arange(n), lengths)
        replying = np.flatnonzero(replynum)
        self._replying_ids = self._ids[replying]
        self._t0 = t_join[replying] - DELAY_SHIFT
        self._replynum = replynum[replying].astype(float)
        self._t_limit = t_limits[prefix_of[replying]]
        self._prefix_of = prefix_of[replying]
        # as in BasicPredictor: an elapsed time of 0 needs a shift below the
        # spacing of floats near some join time, which |t| * 2**-52 bounds
        t_abs = max(-float(t_join.min()), float(t_limits.max())) if n else 0.0
        self._log0 = not DELAY_SHIFT > t_abs * 2.0 ** -52

    def final_sizes(self, dynamics: ModelDynamics) -> np.ndarray:
        """Each prefix's ``BasicPredictor(pc, dynamics).final_size()``."""
        dynamics._refuse_unserved(
            self._ids,
            lambda row: flat_events(self._cascades, None, self._pos[row:row + 1])[0][1].user)
        params = dynamics._take(self._replying_ids)
        deathrate = np.empty_like(self._t0)
        with np.errstate(divide="ignore") if self._log0 else nullcontext():
            _rates(self._t0, params[:, 1], np.log(params[:, 0]), self.floor, self._t_limit,
                   deathrate)
        return 1.0 + np.bincount(self._prefix_of, weights=self._replynum / deathrate,
                                 minlength=self.size)


# ---------------------------------------------------------------------------
# Sampling model
# ---------------------------------------------------------------------------

class SamplingPredictor:
    """Streaming final-size estimator with lazy epsilon-bounded recalculation.

    Subcascades with no replies contribute zero and are never scheduled. A
    reply refreshes its parent immediately; otherwise a subcascade is only
    recalculated once the clock passes the time at which its deathrate could
    exceed (1 + epsilon) times the value used for its current term, found by
    inverting the owner's survival function. A min-heap of (time, row,
    epoch) over those times drives the lazy work. Each observed user has a
    row, ``states[user]``, in one flat array per field; their scale and shape
    are read once, when they join (from a ``ModelDynamics`` by user id).
    """

    def __init__(self, network_size: int, epsilon: float, dynamics):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if network_size < 1:
            raise DataError("network size must be >= 1")
        self.network_size = network_size
        self.epsilon = epsilon
        self.dynamics = dynamics
        if isinstance(dynamics, ModelDynamics):
            self._scale_shape = dynamics._scale_shape
        else:
            resolve, fields = _resolver(dynamics), operator.attrgetter("scale", "shape")
            self._scale_shape = lambda user: fields(resolve(user))
        self.floor = 1.0 / network_size
        self.states: dict[str, int] = {}  # user -> row, in join order
        self._t0, self._shape, self._log_scale = array("d"), array("d"), array("d")
        self._replynum, self._term = array("l"), array("d")
        self._epoch, self._recalcs = array("l"), array("l")
        self._heap: list[tuple[float, int, int]] = []
        self._sum = 0.0
        self._root: str | None = None
        self._last_t = -math.inf
        self.reply_updates = 0
        self.timer_recalcs = 0

    def _refresh(self, row: int, now: float) -> None:
        t0, shape, log_scale = self._t0[row], self._shape[row], self._log_scale[row]
        dr = max(1.0 - _survival(now - t0, log_scale, shape), self.floor)
        term = self._replynum[row] / dr
        self._sum += term - self._term[row]
        self._term[row] = term
        epoch = self._epoch[row] = self._epoch[row] + 1
        target = 1.0 - (1.0 + self.epsilon) * dr
        if target > 0.0:
            # the elapsed time at which survival falls to target
            next_t = t0 + math.exp(log_scale + math.log(-math.log(target)) / shape)
            if next_t <= now:
                next_t = math.nextafter(now, math.inf)
            heapq.heappush(self._heap, (next_t, row, epoch))

    def _process_due(self, now: float) -> None:
        heap, epochs = self._heap, self._epoch
        while heap and heap[0][0] <= now:
            _, row, epoch = heapq.heappop(heap)
            if epochs[row] != epoch:
                continue  # superseded by a later refresh
            self.timer_recalcs += 1
            self._recalcs[row] += 1
            self._refresh(row, now)

    def feed_event(self, user: str, parent: str | None, t: float) -> None:
        if not math.isfinite(t):
            raise DataError(f"event for {user!r} has a non-finite time {t}")
        if t < self._last_t:
            raise DataError(f"event at {t} arrives out of order (last was {self._last_t})")
        rows = self.states
        if user in rows:
            raise DataError(f"user {user!r} already joined the cascade")
        self._process_due(t)
        self._last_t = t
        scale, shape = self._scale_shape(user)
        if not (0.0 < scale < math.inf and 0.0 < shape < math.inf):
            WeibullParams(scale, shape)  # raises the error dynamics(user) raises
        if parent is None:
            if self._root is not None:
                raise DataError("cascade already has a root")
        elif self._root is None:
            raise DataError("first event must be the root")
        elif parent not in rows:
            raise DataError(f"event for {user!r} references unknown parent {parent!r}")
        rows[user] = len(rows)
        self._t0.append(t - DELAY_SHIFT)
        self._shape.append(shape)
        self._log_scale.append(math.log(scale))
        for field in (self._replynum, self._term, self._epoch, self._recalcs):
            field.append(0)
        if parent is None:
            self._root = user
            self._sum += 1.0  # the root itself
            return
        row = rows[parent]
        self._replynum[row] += 1
        self.reply_updates += 1
        self._refresh(row, t)

    def query_size(self, now: float | None = None) -> float:
        """Current estimate of the final cascade size at wall-clock ``now``
        (defaults to the last event time)."""
        if self._root is None:
            raise DataError("no events fed yet")
        if now is None:
            now = self._last_t
        if not math.isfinite(now):
            raise DataError(f"cannot query at a non-finite time {now}")
        if now < self._last_t:
            raise DataError(f"cannot query the past: {now} < {self._last_t}")
        self._process_due(now)
        return self._sum

    def recalc_count(self, user: str) -> int:
        row = self.states.get(user)
        return self._recalcs[row] if row is not None else 0

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
