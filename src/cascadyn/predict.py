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
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .features import (
    DELAY_SHIFT,
    Cascade,
    CascadeEvent,
    _read_only,
    flatten_prefixes,
    flatten_user_ids,
)
from .fitting import FeatureMatrix, NewerModel, regress_params
from .survival import WeibullParams, _survival
from .userids import by_id, intern, lookup

__all__ = [
    "PartialCascade",
    "ProcessCurve",
    "PrefixBatch",
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
        k = 0 if math.isnan(t_limit) else int(cascade.times.searchsorted(t_limit, "right"))
        return cls(cascade.cascade_id, cascade.events[:k], t_limit, network_size, cascade)

    @classmethod
    def first_events(cls, cascade: Cascade, count: int, network_size: int) -> "PartialCascade":
        events = cascade.events
        if count < 1 or count > len(events):
            raise DataError(f"cannot observe {count} events of a size-{len(events)} cascade")
        t, k = events[count - 1].t, count
        while k < len(events) and events[k].t == t:  # every event tied with the cut comes along
            k += 1
        return cls(cascade.cascade_id, events[:k], t, network_size, cascade)


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
    served as a NaN size. ``ModelDynamics.of`` makes a plain mapping of user
    names to ``WeibullParams`` such a table too.
    """

    def __init__(self, model: NewerModel, features: FeatureMatrix | None = None,
                 fallback: WeibullParams | None = None):
        if (features is not None and model.feature_names
                and list(features.names) != list(model.feature_names)):
            raise DataError(f"feature columns {list(features.names)} do not match the "
                            f"model's feature names {list(model.feature_names)}")
        self.model, self.features = model, features
        self._keys = None  # a mapping's table: its ids in order, then -1 for the last row
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
        # one (scale, shape, log scale) row per id, read with take(mode="clip")
        self._params = np.column_stack([scales, shapes, np.log(scales)])[row_of]
        self._covered = covered[row_of]
        self._all_served = bool(covered.all() and np.isfinite(scales).all()
                                and np.isfinite(shapes).all())

    @classmethod
    def of(cls, dynamics: "ModelDynamics | Mapping[str, WeibullParams]") -> "ModelDynamics":
        """``dynamics`` itself, or a table serving exactly a mapping's users,
        whose rows are kept in id order and found by binary search, so that
        it costs in proportion to the mapping, not to every interned id."""
        if isinstance(dynamics, cls):
            return dynamics
        self = cls.__new__(cls)
        self.model = self.features = None
        ids = intern(dynamics, len(dynamics))
        order = np.append(np.argsort(ids), len(ids))
        self._keys = np.append(ids, -1)[order]
        params = np.array([(p.scale, p.shape) for p in dynamics.values()] + [(1.0, 1.0)])
        self._params = np.column_stack([params, np.log(params[:, 0])])[order]
        self._covered, self._all_served = self._keys >= 0, False
        return self

    def _rows(self, ids):
        """The row of each id (an array or one int): past the table, and in a
        mapping's table for an id it lacks, its last row."""
        if self._keys is None:
            return ids
        at = self._keys[:-1].searchsorted(ids)
        return np.where(self._keys[at] == ids, at, len(self._keys) - 1)

    def __call__(self, user: str) -> WeibullParams:
        return WeibullParams(*self._scale_shape(user))

    def _scale_shape(self, user: str) -> tuple[float, float]:
        """The scale and shape ``self(user)`` holds, not checked to be finite."""
        i = lookup(user)
        if self._keys is not None and i is not None:
            i = int(self._rows(i))
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
        served = (self._covered.take(self._rows(ids), mode="clip")
                  & np.isfinite(self._take(ids)).all(axis=1))
        unserved = np.flatnonzero(~served)
        if unserved.size:
            self(user_at(int(unserved[0])))

    def _take(self, ids: np.ndarray) -> np.ndarray:
        """The (scale, shape, log scale) row of each id, covered or not."""
        return self._params.take(self._rows(ids), axis=0, mode="clip")


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


class PrefixBatch:
    """The observed rows of many ``PartialCascade`` observations, laid out
    so that one array pass per dynamics table evaluates the basic model on
    all of them; ``BasicPredictor`` is its one-cut view. One observation
    reads its partial cascade's arrays and cached reply counts without a
    copy; many are concatenated by ``flatten_prefixes``, so one ``bincount``
    counts every row's replies. Only replying rows are summed, as a row
    with no replies adds an exact zero.

    A query binds a ``ModelDynamics`` by user id (the last binding is kept).
    The deathrate is the rate the query kernel returns at t_limit, so each
    fdrate / deathrate ratio is exactly 1 at t_limit and the size there is
    the observed size. A final size sums its terms in row order
    (``bincount``), a size at a horizon adds the pairwise sum of the later
    rows to the first (``reduceat``); each reads its own observation's rows
    only, so an observation gets the same floats from any batch.
    """

    def __init__(self, observations: Sequence[PartialCascade]):
        self.observations = obs = list(observations)
        self.size = n = len(obs)
        # every t_e >= t_join, so an elapsed time t_e - t0 of 0, whose log
        # warns, needs t0 == t_join: a shift below the spacing of floats
        # near some join time, which t_abs * 2**-52 bounds
        if n == 1:
            (pc,) = obs
            network_size = pc.network_size
            self.lengths, self.t_limits = np.array([pc.size]), np.array([pc.t_limit])
            times, self._ids, replynum = pc.times, pc.user_ids, pc.replynum
            t_abs = max(-float(times[0]), pc.t_limit)
            self._obs_of = np.zeros(np.count_nonzero(replynum), dtype=np.intp)
            self._has_rows = self._starts = self._obs_of[:1]
        else:
            network_sizes = {pc.network_size for pc in obs} or {1}
            if len(network_sizes) > 1:
                raise DataError(f"observations of one batch must share a network size, "
                                f"got {sorted(network_sizes)}")
            network_size = network_sizes.pop()
            self.lengths = np.fromiter((pc.size for pc in obs), np.intp, n)
            self.t_limits = np.fromiter((pc.t_limit for pc in obs), float, n)
            sources = [pc._cascade for pc in obs]
            times, parents = flatten_prefixes(sources, self.lengths)
            self._ids = flatten_user_ids(sources, self.lengths)
            replynum = np.bincount(parents[parents >= 0], minlength=len(times)).astype(float)
            t_abs = max(-float(times.min()), float(self.t_limits.max())) if n else 0.0
            self._obs_of = np.repeat(np.arange(n), self.lengths)[replynum > 0.0]
            counts = np.bincount(self._obs_of, minlength=n)
            self._has_rows = np.flatnonzero(counts)  # observations with a replying row
            self._starts = (np.cumsum(counts) - counts)[self._has_rows]
        self.floor = 1.0 / network_size
        self._log0 = not DELAY_SHIFT > t_abs * 2.0 ** -52
        self._times = times
        replying = replynum > 0.0
        self._t0 = times[replying] - DELAY_SHIFT
        self._replynum = replynum[replying]
        self._replying_ids = self._ids[replying]
        self._t_limit = self._per_row(self.t_limits)
        self._bound_to = None

    def _per_row(self, values: np.ndarray) -> np.ndarray:
        """Per-observation values (last axis) spread to the replying rows."""
        return values if self.size == 1 else values[..., self._obs_of]

    def _user_at(self, row: int) -> str:
        ends = np.cumsum(self.lengths)
        j = int(np.searchsorted(ends, row, side="right"))
        return self.observations[j].events[row - int(ends[j] - self.lengths[j])].user

    def _bind(self, dynamics: ModelDynamics) -> tuple[np.ndarray, ...]:
        """The replying rows' shapes, log scales and deathrates, and every
        final size less the root; refuses the first row whose user
        ``dynamics`` lacks."""
        if self._bound_to is not dynamics:
            dynamics._refuse_unserved(self._ids, self._user_at)
            params = dynamics._take(self._replying_ids)
            shapes, log_scales = params[:, 1], params[:, 2]
            deathrate = self._rates(shapes, log_scales, self._t_limit, np.empty_like(self._t0))
            sums = np.bincount(self._obs_of, self._replynum / deathrate, self.size)
            self._bound_to, self._bound = dynamics, (shapes, log_scales, deathrate, sums)
        return self._bound

    def _rates(self, shapes, log_scales, t_e, out: np.ndarray) -> np.ndarray:
        if self._log0:
            with np.errstate(divide="ignore"):
                return _rates(self._t0, shapes, log_scales, self.floor, t_e, out)
        return _rates(self._t0, shapes, log_scales, self.floor, t_e, out)

    def _sums(self, bound, t_e, out: np.ndarray) -> np.ndarray:
        """Sizes less the root at horizons ``t_e`` spread to the replying
        rows: one per observation, a row of them per horizon of a block."""
        shapes, log_scales, deathrate, _ = bound
        # dividing the rates first makes the ratio exactly 1 at t_e == t_limit
        ratio = self._rates(shapes, log_scales, t_e, out)
        ratio /= deathrate
        ratio *= self._replynum
        if len(self._starts) == self.size:
            return np.add.reduceat(ratio, self._starts, axis=-1)
        sums = np.zeros(ratio.shape[:-1] + (self.size,))
        if len(self._starts):
            sums[..., self._has_rows] = np.add.reduceat(ratio, self._starts, axis=-1)
        return sums

    def deathrates(self, dynamics: ModelDynamics) -> np.ndarray:
        """Every row's rate at its observation's t_limit, replying or not."""
        self._bind(dynamics)
        params = dynamics._take(self._ids)
        with np.errstate(divide="ignore"):
            return _rates(self._times - DELAY_SHIFT, params[:, 1], params[:, 2],
                          self.floor, np.repeat(self.t_limits, self.lengths),
                          np.empty(len(self._times)))

    def final_sizes(self, dynamics: ModelDynamics) -> np.ndarray:
        """Each observation's predicted final size, where every fdrate is 1."""
        return 1.0 + self._bind(dynamics)[3]

    def sizes_at(self, dynamics: ModelDynamics, horizons) -> np.ndarray:
        """Each observation's predicted size at each of its horizons, none
        before its t_limit: one grid row per observation in ``horizons`` and
        in the result. Rates fill a (horizons x replying rows) buffer, a
        block of horizons at a time."""
        horizons = np.asarray(horizons, dtype=float)
        late = horizons >= self.t_limits[:, None]  # also refuses NaN
        if not late.all():
            j, k = np.unravel_index(late.argmin(), late.shape)
            raise DataError(f"prediction horizon {float(horizons[j, k])} precedes "
                            f"t_limit {float(self.t_limits[j])}")
        bound, out = self._bind(dynamics), np.empty_like(horizons)
        block = max(1, _CURVE_BLOCK // max(1, len(self._t0)))
        buf = np.empty((min(block, horizons.shape[1]), len(self._t0)))
        for start in range(0, horizons.shape[1], block):
            t_e = horizons[:, start:start + block].T
            sums = self._sums(bound, self._per_row(t_e), buf[:len(t_e)])
            np.add(sums.T, 1.0, out=out[:, start:start + len(t_e)])
        return out

    def outbreak_times(self, dynamics: ModelDynamics, threshold: int,
                       t_max=None) -> np.ndarray:
        """Each observation's earliest integer-second time at which its
        predicted size reaches ``threshold``, NaN where it does not within
        [t_limit, t_max] (by default t_limit + ``DEFAULT_SEARCH_WINDOW``).
        One bisection runs all searches: an ended one holds lo == hi, where
        the size is known to reach the threshold, so more steps keep it."""
        if threshold < 1:
            raise DataError(f"outbreak threshold must be >= 1, got {threshold}")
        if t_max is not None and not np.isfinite(t_max).all():
            raise DataError(f"outbreak search horizon {t_max} is not finite")
        bound = self._bind(dynamics)
        if 1.0 + max(bound[3].tolist(), default=-math.inf) < threshold:  # nor observed sizes
            return np.full(self.size, np.nan)
        t_limits, reached = self.t_limits, self.lengths >= threshold
        out = np.where(reached, t_limits, np.nan)
        hi = np.ceil((t_limits + DEFAULT_SEARCH_WINDOW if t_max is None else t_max) - t_limits)
        search = (1.0 + bound[3] >= threshold) > reached  # reachable, not reached yet
        search &= hi >= 1.0
        if not search.any():
            return out
        hi, buf = (hi * search).astype(np.int64), np.empty_like(self._t0)
        search &= 1.0 + self._sums(bound, self._per_row(t_limits + hi), buf) >= threshold
        hi *= search
        lo = np.zeros_like(hi)
        if self.size == 1:  # on plain ints, as array bookkeeping costs a step's sizes
            (t_limit,), (low,), (high,) = t_limits.tolist(), lo.tolist(), hi.tolist()
            while low < high:
                mid = (low + high) // 2
                if 1.0 + float(self._sums(bound, t_limit + mid, buf)[0]) >= threshold:
                    high = mid
                else:
                    low = mid + 1
            lo[0] = low
        for _ in range(int(hi.max()).bit_length() if self.size > 1 else 0):
            mid = (lo + hi) >> 1
            hit = 1.0 + self._sums(bound, self._per_row(t_limits + mid), buf) >= threshold
            hi, lo = np.where(hit, mid, hi), np.where(hit, lo, mid + 1)
        np.copyto(out, t_limits + lo, where=search)
        return out


class BasicPredictor(PrefixBatch):
    """The basic model on one partial cascade: the one-cut ``PrefixBatch``
    bound to one dynamics table, a ``ModelDynamics`` or a mapping of user
    names to ``WeibullParams`` (see ``ModelDynamics.of``), refusing here a
    user it cannot serve. Every query is the batch's own, so it equals a
    batch's answer for the same observation bit for bit, and a process
    curve equals ``size_at`` at each of its horizons.
    """

    def __init__(self, pc: PartialCascade, dynamics):
        super().__init__((pc,))
        self.pc = pc
        self._dynamics = ModelDynamics.of(dynamics)
        self._bind(self._dynamics)

    @property
    def replynum(self) -> np.ndarray:
        return self.pc.replynum

    @property
    def deathrate(self) -> np.ndarray:
        """Rate at t_limit of every observed row, replying or not."""
        return self.deathrates(self._dynamics)

    @property
    def observed_size(self) -> int:
        return self.pc.size

    def size_at(self, t_e: float) -> float:
        """Predicted cumulative size at horizon t_e >= t_limit."""
        if not t_e >= self.pc.t_limit:  # also refuses NaN
            raise DataError(f"prediction horizon {t_e} precedes t_limit {self.pc.t_limit}")
        return 1.0 + float(self._sums(self._bound, t_e, np.empty_like(self._t0))[0])

    def final_size(self) -> float:
        """Predicted final size: horizon at infinity, so fdrate is 1."""
        return 1.0 + float(self._bound[3][0])

    def outbreak_time(self, threshold_size: int, t_max: float | None = None) -> float | None:
        """Earliest integer-second time the predicted size reaches the
        threshold; None when it never does within [t_limit, t_max]."""
        t = float(self.outbreak_times(self._dynamics, threshold_size, t_max)[0])
        return None if math.isnan(t) else t

    def process_curve(self, grid: Sequence[float]) -> ProcessCurve:
        """Predicted sizes at the sorted horizons of ``grid``."""
        times = np.array(grid, dtype=float)
        # the estimator is monotone; the running maximum guards float wobble
        sizes = np.maximum.accumulate(self.sizes_at(self._dynamics, times[None, :])[0])
        return ProcessCurve(times=times.tolist(), sizes=sizes.tolist())


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
    are read once, when they join, by user id (see ``ModelDynamics.of``).
    """

    def __init__(self, network_size: int, epsilon: float, dynamics):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if network_size < 1:
            raise DataError("network size must be >= 1")
        self.network_size = network_size
        self.epsilon = epsilon
        self.dynamics = ModelDynamics.of(dynamics)
        self._scale_shape = self.dynamics._scale_shape
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
