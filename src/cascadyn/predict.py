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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .features import DELAY_SHIFT, Cascade, CascadeArrays, CascadeEvent, _read_only
from .fitting import FeatureMatrix, NewerModel, regress_params
from .survival import WeibullParams, _survival
from .userids import by_id, intern, lookup, names_of

__all__ = [
    "PartialCascade",
    "Observations",
    "ProcessCurve",
    "PrefixBatch",
    "BasicPredictor",
    "SamplingPredictor",
    "ModelDynamics",
    "write_predictions_jsonl",
    "read_predictions_jsonl",
    "DEFAULT_SEARCH_WINDOW",
]

DEFAULT_SEARCH_WINDOW = 30 * 86400.0  # outbreak search horizon beyond t_limit
# ITP's constants (see _itp_probe): kappa1 is _ITP_K1 over the first log
# width, and a search may take _ITP_N0 probes more than bisection would.
# On the benchmark world's cuts at 10-50% of each lifetime and thresholds
# 20-1000, 0.3 and 3 took 7.2-7.4 size evaluations per search, the one at
# the window's end included (at most 10), against bisection's 22.4
_ITP_K1 = 0.3
_ITP_N0 = 3
_CURVE_BLOCK = 1 << 16  # process-curve buffer entries (horizons x replying rows)
_ONE_START = _read_only(np.zeros(1, dtype=np.intp))  # a one-cut's one sum starts at row 0
# exp(-exp(x)) is at least exp(-708) ~ 3e-308, a normal float, for x up to
# log 708, and every rate past it rounds to 1 all the same
_RATE_CLAMP = math.log(708.0)


class PartialCascade:
    """The observed prefix of a cascade up to t_limit, plus the network size.

    A partial cascade holds the ``Cascade`` it observes and how many of its
    first events it sees. Built from an event list, that cascade is the list
    validated as a ``Cascade``; ``from_cascade`` and ``first_events`` instead
    observe a time prefix of a cascade already validated, which needs no
    second tree check. ``events`` is a slice of the cascade's events, built
    when read, and ``times``, ``parent_positions`` and ``user_ids`` are
    read-only views of its arrays.
    """

    __slots__ = ("t_limit", "network_size", "size", "_cascade")

    def __init__(self, cascade_id: str, events: list[CascadeEvent], t_limit: float,
                 network_size: int):
        _check_prefix(cascade_id, len(events), network_size)
        self._observe(Cascade(cascade_id=cascade_id, events=events), len(events), t_limit,
                      network_size)

    @classmethod
    def _prefix(cls, cascade: Cascade, count: int, t_limit: float,
                network_size: int) -> "PartialCascade":
        """The first ``count`` events of a validated cascade, observed up to
        ``t_limit``."""
        _check_prefix(cascade.cascade_id, count, network_size)
        self = cls.__new__(cls)
        self._observe(cascade, count, t_limit, network_size)
        return self

    def _observe(self, cascade: Cascade, count: int, t_limit: float, network_size: int):
        self._cascade, self.size, self.t_limit, self.network_size = (cascade, count, t_limit,
                                                                     network_size)
        if not math.isfinite(t_limit) or not t_limit >= cascade.events[count - 1].t:
            raise DataError(
                f"partial cascade {cascade.cascade_id!r}: t_limit {t_limit} is not finite "
                f"or precedes the last event"
            )

    def __eq__(self, other):
        if not isinstance(other, PartialCascade):
            return NotImplemented
        return ((self.cascade_id, self.events, self.t_limit, self.network_size)
                == (other.cascade_id, other.events, other.t_limit, other.network_size))

    def __repr__(self) -> str:
        return (f"PartialCascade({self.cascade_id!r}, size={self.size}, "
                f"t_limit={self.t_limit!r}, network_size={self.network_size})")

    @property
    def cascade_id(self) -> str:
        return self._cascade.cascade_id

    @property
    def events(self) -> list[CascadeEvent]:
        """The observed events: a new list at each read."""
        return self._cascade.events[:self.size]

    @property
    def times(self) -> np.ndarray:
        """Join time of each observed event (float64, read-only)."""
        return self._cascade.times[:self.size]

    @property
    def parent_positions(self) -> np.ndarray:
        """Position of each observed event's parent, -1 for the root (int32, read-only)."""
        return self._cascade.parent_positions[:self.size]

    @property
    def user_ids(self) -> np.ndarray:
        """Interned id of each observed event's user (int32, read-only)."""
        return self._cascade.user_ids[:self.size]

    @property
    def replynum(self) -> np.ndarray:
        """Observed replies to each observed event (float64, read-only), built
        at each read."""
        counts = np.bincount(self.parent_positions[1:], minlength=self.size)
        return _read_only(counts.astype(float))

    @classmethod
    def from_cascade(cls, cascade: Cascade, t_limit: float, network_size: int) -> "PartialCascade":
        return cls._prefix(cascade, _observed_count(cascade, t_limit), t_limit, network_size)

    @classmethod
    def first_events(cls, cascade: Cascade, count: int, network_size: int) -> "PartialCascade":
        return Observations.first_events(CascadeArrays([cascade]), np.array([count]),
                                         network_size)[0]


def _check_prefix(cascade_id: str, count: int, network_size: int) -> None:
    if network_size < 1:
        raise DataError("network size must be >= 1")
    if count < 1:
        raise DataError(f"partial cascade {cascade_id!r} has no events")


def _observed_count(cascade: Cascade, t_limit: float) -> int:
    """How many of the cascade's events a time cut at ``t_limit`` observes:
    those at or before it, none for a NaN t_limit, as no e.t <= NaN holds."""
    return 0 if math.isnan(t_limit) else int(cascade.times.searchsorted(t_limit, "right"))


class Observations(Sequence[PartialCascade]):
    """Observed prefixes of many cascades as arrays: observation i sees the
    first ``lengths[i]`` events of ``cascades[i]``, up to ``t_limits[i]``.
    ``cascades`` is a ``CascadeArrays`` (usually a ``take`` of one), so a
    ``PrefixBatch`` lays the observations out from its flat arrays; a
    ``PartialCascade`` is built only when an item is read.
    """

    def __init__(self, cascades: CascadeArrays, lengths: np.ndarray, t_limits: np.ndarray,
                 network_size: int):
        if network_size < 1:
            raise DataError("network size must be >= 1")
        self.cascades, self.lengths, self.t_limits = cascades, lengths, t_limits
        self.network_size = network_size

    @classmethod
    def first_events(cls, cascades: CascadeArrays, counts: np.ndarray,
                     network_size: int) -> "Observations":
        """Each cascade observed through its first ``counts[i]`` events up to
        the last one's time: every event tied with the cut comes along. One
        pass per event tied with a cut; ``PartialCascade.first_events`` is
        the one-cascade case."""
        bad = np.flatnonzero((counts < 1) | (counts > cascades.sizes))
        if bad.size:
            i = int(bad[0])
            raise DataError(f"cannot observe {counts[i]} events of a size-{cascades.sizes[i]} "
                            f"cascade")
        times = cascades.times
        lengths = counts.astype(np.intp)
        t_limits = times[cascades.starts + lengths - 1]
        while True:
            tied = np.flatnonzero(lengths < cascades.sizes)
            tied = tied[times[cascades.starts[tied] + lengths[tied]] == t_limits[tied]]
            if not tied.size:
                return cls(cascades, lengths, t_limits, network_size)
            lengths[tied] += 1

    @classmethod
    def at_times(cls, cascades: CascadeArrays, t_limits: np.ndarray,
                 network_size: int) -> "Observations":
        """Each cascade observed up to ``t_limits[i]``, as
        ``PartialCascade.from_cascade`` observes one."""
        lengths = np.fromiter(map(_observed_count, cascades, t_limits.tolist()), np.intp,
                              len(cascades))
        return cls(cascades, lengths, t_limits, network_size)

    @classmethod
    def of(cls, observations: Sequence[PartialCascade]) -> "Observations":
        """The arrays of a list of partial cascades, which must share a
        network size."""
        network_sizes = {pc.network_size for pc in observations} or {1}
        if len(network_sizes) > 1:
            raise DataError(f"observations of one batch must share a network size, "
                            f"got {sorted(network_sizes)}")
        n = len(observations)
        sources = {id(pc._cascade): pc._cascade for pc in observations}
        index = {key: j for j, key in enumerate(sources)}
        which = np.fromiter((index[id(pc._cascade)] for pc in observations), np.intp, n)
        return cls(CascadeArrays(sources.values()).take(which),
                   np.fromiter((pc.size for pc in observations), np.intp, n),
                   np.fromiter((pc.t_limit for pc in observations), float, n),
                   network_sizes.pop())

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> PartialCascade:
        return PartialCascade._prefix(self.cascades[i], self.lengths.item(i),
                                      self.t_limits.item(i), self.network_size)


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

    @classmethod
    def _checked(cls, times: list[float], sizes: list[float]) -> "ProcessCurve":
        """A curve whose caller has made its times sorted and its sizes
        nondecreasing, one of each per horizon, so not checked again."""
        curve = cls.__new__(cls)
        curve.times, curve.sizes = times, sizes
        return curve


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
    all of them; ``BasicPredictor`` is its one-cut view, which reads its
    partial cascade's arrays without a copy. The observations, given as
    ``Observations`` or as a list of partial cascades (turned into
    ``Observations``, kept as ``observations``), are gathered from their
    cascades' flat arrays, so one ``bincount`` counts every row's replies.
    Only replying rows are summed, as a row with no replies adds an exact
    zero.

    A query binds a ``ModelDynamics`` by user id (the last binding is kept).
    The deathrate is the rate the query kernel returns at t_limit, so each
    fdrate / deathrate ratio is exactly 1 at t_limit and the size there is
    the observed size. A final size sums its terms in row order
    (``bincount``), a size at a horizon adds the pairwise sum of the later
    rows to the first (``reduceat``); each reads its own observation's rows
    only, so an observation gets the same floats from any batch.
    """

    # slots, not a __dict__: a batch is one container, however many arrays
    # it holds, so predictors kept alive add little to the collector's work
    __slots__ = ("observations", "size", "lengths", "t_limits", "floor", "_ids", "_obs_of",
                 "_has_rows", "_starts", "_log0", "_times", "_t0", "_replynum",
                 "_replying_ids", "_t_limit", "_bound_to", "_shapes", "_log_scales",
                 "_deathrate", "_final")

    def __init__(self, observations: Sequence[PartialCascade]):
        if not isinstance(observations, Observations):
            observations = Observations.of(list(observations))
        self.observations = observations
        self.size = n = len(observations)
        self.lengths, self.t_limits = observations.lengths, observations.t_limits
        source = observations.cascades
        at = source.positions(self.lengths)
        times, parents = source.times[at], source.parents[at]
        child = parents >= 0
        # parents index the source's arrays; shift them to these rows
        local = parents[child] - (at[child] - np.flatnonzero(child))
        t_abs = max(-float(times.min()), float(self.t_limits.max())) if n else 0.0
        self._times, self._ids = times, source.user_ids[at]
        rows = self._lay_out(times, self._ids, local, t_abs, observations.network_size)
        self._obs_of = np.repeat(np.arange(n), self.lengths)[rows]
        counts = np.bincount(self._obs_of, minlength=n)
        self._has_rows = np.flatnonzero(counts)  # observations with a replying row
        self._starts = (np.cumsum(counts) - counts)[self._has_rows]
        self._t_limit = self._per_row(self.t_limits)

    def _lay_out(self, times, ids, parents, t_abs: float, network_size: int) -> np.ndarray:
        """Count each row's replies from ``parents``, the row of each reply's
        parent, and keep the join times, reply counts and user ids (read from
        ``times`` and ``ids``) of the rows with any, which it returns;
        ``t_abs`` bounds the magnitude of every join time and t_limit."""
        self.floor = 1.0 / network_size
        # every t_e >= t_join, so an elapsed time t_e - t0 of 0, whose log
        # warns, needs t0 == t_join: a shift below the spacing of floats
        # near some join time, which t_abs * 2**-52 bounds
        self._log0 = not DELAY_SHIFT > t_abs * 2.0 ** -52
        replynum = np.bincount(parents)
        rows = replynum.nonzero()[0]
        self._t0 = times[rows] - DELAY_SHIFT
        self._replynum = replynum[rows].astype(float)
        self._replying_ids = ids[rows]
        self._bound_to = None
        return rows

    def _per_row(self, values: np.ndarray) -> np.ndarray:
        """Per-observation values (last axis) spread to the replying rows."""
        return values if self.size == 1 else values[..., self._obs_of]

    def _user_at(self, row: int) -> str:
        return names_of(self._ids[row:row + 1])[0]

    def _bind(self, dynamics: ModelDynamics) -> None:
        """Bind ``dynamics``: the replying rows' shapes, log scales and
        deathrates, and every final size less the root; refuses the first
        row whose user ``dynamics`` lacks."""
        if self._bound_to is not dynamics:
            dynamics._refuse_unserved(self._ids, self._user_at)
            params = dynamics._take(self._replying_ids)
            self._shapes, self._log_scales = params[:, 1], params[:, 2]
            self._deathrate = self._rates(self._t_limit, np.empty_like(self._t0))
            terms = self._replynum / self._deathrate
            if self.size != 1:
                self._final = np.bincount(self._obs_of, terms, self.size)
            else:  # bincount's sum, in row order, without its bins
                self._final = np.add.accumulate(terms)[-1:] if len(terms) else np.zeros(1)
            self._bound_to = dynamics

    def _rates(self, t_e, out: np.ndarray) -> np.ndarray:
        if self._log0:
            with np.errstate(divide="ignore"):
                return _rates(self._t0, self._shapes, self._log_scales, self.floor, t_e, out)
        return _rates(self._t0, self._shapes, self._log_scales, self.floor, t_e, out)

    def _sums(self, t_e, out: np.ndarray) -> np.ndarray:
        """Sizes less the root at horizons ``t_e`` spread to the replying
        rows: one per observation, a row of them per horizon of a block."""
        # dividing the rates first makes the ratio exactly 1 at t_e == t_limit
        ratio = self._rates(t_e, out)
        ratio /= self._deathrate
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
        self._bind(dynamics)
        return 1.0 + self._final

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
        self._bind(dynamics)
        return self._sizes_at(horizons)

    def _sizes_at(self, horizons: np.ndarray) -> np.ndarray:
        """``sizes_at`` on checked horizons with the table bound: one size
        evaluation per block of horizons, so one for most grids."""
        n_horizons, n_rows = horizons.shape[1], len(self._t0)
        block = max(1, _CURVE_BLOCK // max(1, n_rows))
        if n_horizons <= block:
            sums = self._sums(self._per_row(horizons.T), np.empty((n_horizons, n_rows)))
            return np.add(sums.T, 1.0)
        out = np.empty_like(horizons)
        buf = np.empty((block, n_rows))
        for start in range(0, n_horizons, block):
            t_e = horizons[:, start:start + block].T
            sums = self._sums(self._per_row(t_e), buf[:len(t_e)])
            np.add(sums.T, 1.0, out=out[:, start:start + len(t_e)])
        return out

    def outbreak_times(self, dynamics: ModelDynamics, threshold: int,
                       t_max=None) -> np.ndarray:
        """Each observation's earliest integer-second time at which its
        predicted size reaches ``threshold``, NaN where it does not within
        [t_limit, t_max] (by default t_limit + ``DEFAULT_SEARCH_WINDOW``).

        Each search keeps an integer bracket (a, b] of seconds past t_limit,
        the size short of the threshold at a and reaching it at b, and
        probes where ``_itp_probe`` says: at most _ITP_N0 probes more than a
        bisection, after one evaluation at the window's last second. The
        size is monotone in time, so the search ends at the second a
        bisection ends at. One observation is searched on Python floats and
        ints, as is each window past 2^53 seconds, where floats skip
        integers; the others share one array pass per probe, where an ended
        search (b = a + 1) is projected onto its a, where the size is known
        to fall short of the threshold, so more probes keep it."""
        _check_search(threshold, t_max)
        self._bind(dynamics)
        if self.size == 1:
            t_max = None if t_max is None else np.asarray(t_max).item()
            return np.array([self._outbreak_time(threshold, t_max)])
        if 1.0 + max(self._final.tolist(), default=-math.inf) < threshold:  # nor observed sizes
            return np.full(self.size, np.nan)
        t_limits, reached = self.t_limits, self.lengths >= threshold
        out = np.where(reached, t_limits, np.nan)
        ends = np.broadcast_to(t_limits + DEFAULT_SEARCH_WINDOW if t_max is None else t_max,
                               t_limits.shape)
        hi = _last_second(t_limits, ends, _ARRAY)
        search = (1.0 + self._final >= threshold) > reached  # reachable, not reached yet
        search &= hi >= 1.0
        for j in np.flatnonzero(search & (hi >= _EXACT_SPAN)).tolist():
            one = PrefixBatch((self.observations[j],))
            out[j] = one.outbreak_times(dynamics, threshold, ends[j])[0]
        search &= hi < _EXACT_SPAN
        if not search.any():
            return out
        buf = np.empty_like(self._t0)
        t_e = t_limits + hi * search
        size = 1.0 + self._sums(self._per_row(t_e), buf)
        search &= size >= threshold
        (rows,) = np.nonzero(search)
        t_limits, b, final = t_limits[rows], hi[rows], 1.0 + self._final[rows]
        growth = final - self.lengths[rows]  # from the observed size, exact at t_limit
        z_b, z_t = (_cloglog((final - v) / growth, _ARRAY) for v in (size[rows], threshold))
        a, z_a = np.zeros_like(b), np.full_like(b, _Z_OBSERVED)
        # ceil(log2 b) is the bit length of b - 1
        kappa, reach = _ITP_K1 / np.log(b + 1.0), np.ldexp(1.0, np.frexp(b - 1.0)[1] + _ITP_N0 - 1)
        while (b - a > 1.0).any():
            d = _itp_probe(a, b, z_a, z_b, z_t, kappa, reach, _ARRAY)
            t_e[rows] = t_limits + d
            size = 1.0 + self._sums(self._per_row(t_e), buf)[rows]
            z, hit = _cloglog((final - size) / growth, _ARRAY), size >= threshold
            a, z_a = np.where(hit, a, d), np.where(hit, z_a, z)
            b, z_b = np.where(hit, d, b), np.where(hit, z, z_b)
            reach *= 0.5
        out[rows] = t_limits + b
        return out

    def _outbreak_time(self, threshold: int, t_max: float | None) -> float:
        """``outbreak_times`` of a one-observation batch on Python floats and
        ints, NaN for none."""
        final = 1.0 + self._final.item(0)
        if final < threshold:
            return math.nan
        t_limit, observed = self.t_limits.item(0), self.lengths.item(0)
        if observed >= threshold:
            return t_limit
        hi = _last_second(t_limit, t_limit + DEFAULT_SEARCH_WINDOW if t_max is None
                          else float(t_max))
        if hi < 1:
            return math.nan
        buf = np.empty_like(self._t0)
        size = 1.0 + self._sums(t_limit + hi, buf).item(0)
        if size < threshold:
            return math.nan
        growth = final - observed
        a, b, z_a = 0, hi, _Z_OBSERVED
        z_b, z_t = _cloglog((final - size) / growth), _cloglog((final - threshold) / growth)
        kappa, reach = _ITP_K1 / math.log(hi + 1.0), 1 << (hi - 1).bit_length() + _ITP_N0 - 1
        while b - a > 1:
            d = _itp_probe(a, b, z_a, z_b, z_t, kappa, reach)
            size = 1.0 + self._sums(t_limit + d, buf).item(0)
            z = _cloglog((final - size) / growth)
            if size >= threshold:
                b, z_b = d, z
            else:
                a, z_a = d, z
            reach >>= 1
        return t_limit + b


def _check_search(threshold: int, t_max) -> None:
    if threshold < 1:
        raise DataError(f"outbreak threshold must be >= 1, got {threshold}")
    if t_max is not None and not np.isfinite(t_max).all():
        raise DataError(f"outbreak search horizon {t_max} is not finite")


# log, elementwise max, elementwise min and floor, for _cloglog, _itp_probe
# and _last_second on Python floats and ints and on arrays
_SCALAR = (math.log, max, min, math.floor)
_ARRAY = (np.log, np.maximum, np.minimum, np.floor)
_FLOAT_MAX = float(np.finfo(float).max)
_EXACT_SPAN = 2.0 ** 53  # from here on, floats skip integers
_TINY = 2.0 ** -1000
# the share of the growth still ahead, clipped so that its complementary
# log-log is finite: from about -36.7 at the observed size to about 6.5
_Q_RANGE = (_TINY, 1.0 - 2.0 ** -53)


def _cloglog(q, ops=_SCALAR):
    """log(-log q) of q clipped to ``_Q_RANGE``, nondecreasing as q falls."""
    log, lower, upper, _ = ops
    return log(-log(upper(lower(q, _Q_RANGE[0]), _Q_RANGE[1])))


_Z_OBSERVED = _cloglog(1.0)


def _last_second(t_limit, end, ops=_SCALAR):
    """The largest integer d with t_limit + d <= end in floats, which a
    rounded end - t_limit can miss by one either way; a span past the
    largest float is cut to it. An int on ``_SCALAR``."""
    _, _, upper, floor = ops
    d = floor(upper(end - t_limit, _FLOAT_MAX))
    d -= t_limit + d > end
    d += t_limit + (d + 1) <= end
    return d


def _itp_probe(a, b, z_a, z_b, z_t, kappa, reach, ops=_SCALAR):
    """The next probe of a search for the first integer d at which the size
    reaches the threshold, in the bracket (a, b] with b - a >= 2: ITP's
    probe (Oliveira & Takahashi 2021, ACM TOMS 47(1)) on u = log(d + 1) and
    z = ``_cloglog`` of the share of the growth from the observed to the
    final size still ahead. A Weibull CDF is a line in those coordinates,
    so the size curve, steep near t_limit and flat across the window, is
    nearly one. z is ``z_a`` at a, ``z_b`` at b and ``z_t`` at the threshold.

    - interpolate: the regula falsi point between (u(a), z_a) and
      (u(b), z_b);
    - truncate: move it toward u's midpoint by at most kappa1 L^2, where
      L = u(b) - u(a) and ``kappa`` is kappa1, _ITP_K1 over the first L;
    - project: round it down to an integer within ``reach`` of both a and
      b, and strictly inside (a, b).

    A search that starts with reach 2^(ceil(log2 b) + _ITP_N0 - 1) at a = 0
    and halves it at each probe keeps b - a <= 2 reach, so it ends within
    ceil(log2 b) + _ITP_N0 probes. ``ops`` is ``_SCALAR``, on which a, b
    and reach are ints and so is the probe, or ``_ARRAY``, on which they
    are floats, exact below 2^53.
    """
    log, lower, upper, floor = ops
    ratio = (b + 1.0) / (a + 1.0)
    # z_a <= z_t <= z_b; a difference that rounds to 0 gives share 0
    share = (z_t - z_a) / lower(z_b - z_a, _TINY)
    delta = kappa * log(ratio)  # kappa1 L^2 as a share of L
    share = upper(lower(0.5, share - delta), share + delta)
    x = (a + 1.0) * ratio ** share  # d + 1
    # a live search has 2 <= b - a <= 2 reach, so the bounds meet; an ended
    # one (b = a + 1) gets a
    return floor(upper(lower(x - 0.5, lower(b - reach, a + 1)), upper(a + reach, b - 1)))


class BasicPredictor(PrefixBatch):
    """The basic model on one partial cascade: the one-cut ``PrefixBatch``
    bound to one dynamics table, a ``ModelDynamics`` or a mapping of user
    names to ``WeibullParams`` (see ``ModelDynamics.of``), refusing here a
    user it cannot serve. Its queries run the batch's kernel on the same
    rows, so each equals a batch's answer for the same observation bit for
    bit, and a process curve equals ``size_at`` at each of its horizons.

    It keeps only what its own queries read: ``pc``, its partial cascade,
    the replying rows laid out from one count of the prefix's parent
    positions, and the table bound at t_limit, a Python float. The batch's
    bookkeeping is left out; ``lengths`` and ``t_limits`` are built when a
    batch method reads them.
    """

    __slots__ = ("pc", "_dynamics")
    size = 1  # observations

    def __init__(self, pc: PartialCascade, dynamics):
        self.pc = pc
        cascade = pc._cascade  # its rows past the prefix are never read
        rows = self._lay_out(cascade.times, cascade.user_ids,
                             cascade.parent_positions[1:pc.size],
                             max(-cascade.times.item(0), pc.t_limit), pc.network_size)
        self._starts = _ONE_START[:len(rows)]
        self._t_limit = pc.t_limit
        self._dynamics = ModelDynamics.of(dynamics)
        self._bind(self._dynamics)

    lengths = property(lambda self: np.array([self.pc.size]))
    t_limits = property(lambda self: np.array([self.pc.t_limit]))
    _times = property(lambda self: self.pc.times)
    _ids = property(lambda self: self.pc.user_ids)

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
        self._bind(self._dynamics)  # a batch query may have bound another table
        return 1.0 + float(self._sums(t_e, np.empty_like(self._t0))[0])

    def final_size(self) -> float:
        """Predicted final size: horizon at infinity, so fdrate is 1."""
        self._bind(self._dynamics)
        return 1.0 + float(self._final[0])

    def outbreak_time(self, threshold_size: int, t_max: float | None = None) -> float | None:
        """Earliest integer-second time the predicted size reaches the
        threshold; None when it never does within [t_limit, t_max]."""
        _check_search(threshold_size, t_max)
        self._bind(self._dynamics)
        t = self._outbreak_time(threshold_size, t_max)
        return None if math.isnan(t) else t

    def process_curve(self, grid: Sequence[float]) -> ProcessCurve:
        """Predicted sizes at the sorted horizons of ``grid``, none before
        t_limit: one size evaluation over the grid as a column."""
        times = np.array(grid, dtype=float)
        points = times.tolist()
        before = self.pc.t_limit
        for t in points:
            if not t >= before:  # also refuses NaN
                what = (f"the one before it, {before}" if t >= self.pc.t_limit
                        else f"t_limit {self.pc.t_limit}")
                raise DataError(f"prediction horizon {t} precedes {what}")
            before = t
        self._bind(self._dynamics)
        # the estimator is monotone; the running maximum guards float wobble
        sizes = np.maximum.accumulate(self._sizes_at(times[None, :])[0])
        return ProcessCurve._checked(points, sizes.tolist())


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
    """One record per cascade: {"cascade", "t_limit", "final", "outbreak_t",
    "curve"}, where "outbreak_t" is written only when the record has it, so
    that a null there means "never" and a missing key "not predicted"."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            out = {"cascade": rec["cascade"], "t_limit": rec["t_limit"], "final": rec["final"]}
            if "outbreak_t" in rec:
                out["outbreak_t"] = rec["outbreak_t"]
            out["curve"] = rec.get("curve", [])
            try:
                line = json.dumps(out, allow_nan=False)
            except ValueError as exc:
                raise DataError(f"prediction for cascade {rec['cascade']!r}: {exc}") from None
            fh.write(line + "\n")


def _finite_number(text: str) -> float:
    value = float(text)  # "NaN", "Infinity" and "1e999" parse, to non-finite values
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _float_range_int(text: str) -> int:
    value = int(text)
    try:
        float(value)  # what a reader of the record does with it
    except OverflowError:
        raise ValueError(f"integer of {len(text)} characters is beyond float range") from None
    return value


def read_predictions_jsonl(path) -> list[dict]:
    """Records as ``write_predictions_jsonl`` writes them: NaN, infinities
    and integers beyond float range are refused."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line, parse_float=_finite_number,
                                      parse_int=_float_range_int,
                                      parse_constant=_finite_number))
            except ValueError as exc:  # a JSONDecodeError too
                raise DataError(f"{path}:{line_no}: bad prediction record: {exc}") from exc
    return out
