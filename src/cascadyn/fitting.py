"""Networked Weibull regression (NEWER) and the classic survival baselines.

The estimator jointly minimizes the negative Weibull log-likelihood of every
user's response delays plus two networked regression penalties that tie the
log parameters to log covariates:

    F = -sum_i l_i(scale_i, shape_i)
        + mu  * [ 1/(2N) ||log scale - log X @ beta||^2  + alpha_beta  ||beta||_1 ]
        + eta * [ 1/(2N) ||log shape - log X @ gamma||^2 + alpha_gamma ||gamma||_1 ]

Minimization is block coordinate descent in the order scale, shape, beta,
gamma. The scale/shape blocks separate per user into one-dimensional smooth
problems; beta/gamma are LASSO problems solved exactly by feature-sign
search on the Gram matrix of the log covariates, each solve certified by
its KKT conditions. One safeguarded Newton routine, run in lockstep over
users and capped by ``FitOptions.newton_max_iter``, solves the scale block
and the shape block.

The unpenalized baselines need no descent. At a fixed shape each user's
scale is closed form, and the likelihood profiled over those scales is
concave in the shape (Cohen 1965), so the same Newton routine fits
``weibull`` (a shape per user) and ``cox`` (one shared shape) exactly;
``exponential`` and ``rayleigh`` take the same closed-form scales at their
fixed shapes.

Every fit reads the delays through one kernel, ``_Segments.moments``: each
user's log delays are stored less that user's largest, y = log T - top <= 0,
and a pass returns the per-user sums of e^(k y), y e^(k y) and y^2 e^(k y).
Every sum of powers (T/scale)^k the fits need is one of these times
e^(k (top - log scale)), a factor clamped once per user.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, NumericsError
from .survival import _EXP_CLAMP, WeibullParams
from .userids import intern, join

__all__ = [
    "Hyperparams",
    "DEFAULT_HYPERPARAMS",
    "SubcascadeSample",
    "SubcascadeTable",
    "FeatureMatrix",
    "FitOptions",
    "FitReport",
    "FittedUsers",
    "NewerModel",
    "user_log_likelihood",
    "newer_objective",
    "smooth_partials",
    "lasso",
    "fit_newer",
    "fit_model",
    "regress_out_of_sample",
    "regress_params",
    "mean_params",
    "median_params",
    "read_subcascades_jsonl",
    "write_subcascades_jsonl",
]

SCALE_BOUNDS = (1e-6, 1e9)
SHAPE_BOUNDS = (1e-2, 50.0)

MODEL_KINDS = ("newer", "weibull", "exponential", "rayleigh", "cox")


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights; the documented defaults are mu=10, eta=10,
    alpha_beta=6e-5, alpha_gamma=8e-6."""

    mu: float = 10.0
    eta: float = 10.0
    alpha_beta: float = 6e-5
    alpha_gamma: float = 8e-6

    def __post_init__(self):
        for name in ("mu", "eta", "alpha_beta", "alpha_gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a nonnegative finite real, got {v}")


DEFAULT_HYPERPARAMS = Hyperparams()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class SubcascadeSample:
    """One user's observed response delays (seconds), sorted nondecreasing.

    Delays produced by the extraction pipeline carry a +1 s shift so they are
    all >= 1; the fitting math itself only requires strictly positive values.
    """

    user: str
    delays: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        if d.ndim != 1:
            raise DataError(f"user {self.user!r} has delays that are not a flat list")
        d = np.sort(d)
        if d.size == 0:
            raise DataError(f"user {self.user!r} has an empty delay sample")
        # sorted, so the ends decide: NaN and +inf sort last, -inf and 0 first
        if not (d[0] > 0 and math.isfinite(d[-1])):
            raise DataError(f"user {self.user!r} has nonpositive or non-finite delays")
        self.delays = d

    @property
    def n(self) -> int:
        return int(self.delays.size)


class SubcascadeTable(Mapping[str, SubcascadeSample]):
    """Every user's subcascade delays in flat arrays, read as a read-only
    mapping from user name to ``SubcascadeSample``, in name order.

    Row i is the user ``users[i]``, names sorted, whose interned id
    (``cascadyn.userids``) is ``user_ids[i]`` and whose delays, sorted
    nondecreasing, are ``delays[offsets[i]:offsets[i + 1]]``. The arrays are
    read-only. A ``SubcascadeSample`` is built only when an entry is read;
    the fits read the arrays, join feature rows by ``user_ids``, and share
    ``log_delays``, computed once per table.
    """

    def __init__(self, users: list[str], offsets: np.ndarray, delays: np.ndarray,
                 user_ids: np.ndarray):
        if len(user_ids) != len(users) or len(offsets) != len(users) + 1:
            raise DataError(f"a table of {len(users)} users needs as many ids and one "
                            f"more offset, got {len(user_ids)} and {len(offsets)}")
        self.users = users
        self.offsets, self.delays, self.user_ids = offsets, delays, user_ids
        for a in (offsets, delays, user_ids):
            _read_only(a)

    @classmethod
    def from_samples(cls, samples: Mapping[str, SubcascadeSample]) -> "SubcascadeTable":
        """The table of a mapping from user name to sample."""
        users = sorted(samples)
        offsets = np.zeros(len(users) + 1, dtype=np.intp)
        np.cumsum([samples[u].n for u in users], out=offsets[1:])
        delays = np.concatenate([np.empty(0), *(samples[u].delays for u in users)])
        return cls(users, offsets, delays, intern(users, len(users)))

    @property
    def counts(self) -> np.ndarray:
        """Number of delays of each user."""
        return np.diff(self.offsets)

    @cached_property
    def log_delays(self) -> np.ndarray:
        out = np.log(self.delays)
        out.flags.writeable = False
        return out

    @cached_property
    def _index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Positions in ``delays`` of the delays of ``rows``, laid end to end
        in their order."""
        counts = self.counts[rows]
        shift = self.offsets[rows] - (np.cumsum(counts) - counts)
        return np.arange(int(counts.sum())) + np.repeat(shift, counts)

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return iter(self.users)

    def __contains__(self, user) -> bool:
        return user in self._index

    def __getitem__(self, user: str) -> SubcascadeSample:
        i = self._index[user]
        return SubcascadeSample(user, self.delays[self.offsets[i]:self.offsets[i + 1]])


@dataclass
class FeatureMatrix:
    """Per-user covariate rows, strictly positive so log features are defined.

    ``user_ids`` holds each row's interned user id, and ``rows_of`` maps ids
    back to rows with one take. ``ids``, when given, must be those ids (as
    ``extract_features`` passes the network's); otherwise the names are
    interned on first read.
    """

    users: list[str]
    names: list[str]
    values: np.ndarray
    ids: InitVar[np.ndarray | None] = None

    def __post_init__(self, ids: np.ndarray | None):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape != (len(self.users), len(self.names)):
            raise DataError(
                f"feature matrix shape {self.values.shape} does not match "
                f"{len(self.users)} users x {len(self.names)} features"
            )
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise DataError("feature values must be strictly positive finite reals")
        if ids is not None:
            if ids.shape != (len(self.users),) or ids.dtype != np.int32:
                raise DataError(f"{len(self.users)} feature rows need as many int32 ids, "
                                f"got {ids.dtype} of shape {ids.shape}")
            self.__dict__["user_ids"] = _read_only(ids)
        if len(self.users) and np.bincount(self.user_ids).max() > 1:
            raise DataError("duplicate user in feature matrix")

    def row(self, user: str) -> np.ndarray:
        try:
            return self.values[self._index[user]]
        except KeyError:
            raise DataError(f"user {user!r} has no feature row") from None

    def __contains__(self, user: str) -> bool:
        return user in self._index

    @cached_property
    def _index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    @cached_property
    def user_ids(self) -> np.ndarray:
        """Interned id of each row's user (int32, read-only)."""
        return _read_only(intern(self.users, len(self.users)))

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row of each user id, -1 for a user without a row."""
        return join(self.user_ids, ids)

    def subset(self, users: Iterable[str]) -> "FeatureMatrix":
        users = list(users)
        rows = np.stack([self.row(u) for u in users]) if users else np.empty((0, len(self.names)))
        return FeatureMatrix(users=users, names=list(self.names), values=rows)

    @cached_property
    def log_values(self) -> np.ndarray:
        """Log of ``values``, taken on first read (read-only)."""
        return _read_only(np.log(self.values))


@dataclass
class FitOptions:
    """Stopping rules and the event floor of every fit.

    - ``tol`` (finite, >= 0): NEWER stops once an outer iteration changes
      the objective by at most ``tol`` relative. NEWER only.
    - ``max_outer`` (>= 1): cap on NEWER's outer iterations. NEWER only.
    - ``min_events`` (>= 0): users with fewer delays are left out of the fit.
    - ``newton_max_iter`` (>= 1): cap on the iterations of the safeguarded
      Newton routine: each of NEWER's scale and shape blocks, and the
      profile solve of weibull's shapes and of cox's shared shape.
    - ``lasso_tol`` (finite, >= 0): a LASSO solve is certified once its KKT
      conditions hold within ``lasso_tol`` relative to max(1, ||Z'y/N||_inf).
    - ``lasso_max_iter`` (>= 1): cap on each LASSO solve's active-set steps.
    """

    tol: float = 1e-7
    max_outer: int = 200
    min_events: int = 5
    newton_max_iter: int = 100
    lasso_tol: float = 1e-12
    lasso_max_iter: int = 10000

    def __post_init__(self):
        for name in ("tol", "lasso_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a nonnegative finite real, got {v}")
        for name, least in (("max_outer", 1), ("newton_max_iter", 1), ("lasso_max_iter", 1),
                            ("min_events", 0)):
            v = getattr(self, name)
            if not v >= least:
                raise ValueError(f"{name} must be at least {least}, got {v}")


@dataclass
class FitReport:
    """How a fit ended.

    - newer: ``objective_trace`` holds the objective before the descent and
      after each outer iteration, ``iterations`` counts those iterations,
      and ``converged`` says the last one changed the objective by at most
      ``FitOptions.tol`` relative. ``lasso_capped`` counts the LASSO solves
      (the beta and gamma blocks) that stopped at ``lasso_max_iter`` steps
      uncertified, their KKT conditions not met within ``lasso_tol``.
    - weibull and cox: ``objective_trace`` holds the one negative
      log-likelihood at the profile solve's answer, ``iterations`` counts
      that solve's Newton iterations (lockstep over users for weibull), and
      ``converged`` says it ended before ``newton_max_iter`` of them.
    - exponential and rayleigh: one objective, 0 iterations, converged.
    """

    objective_trace: list[float]
    converged: bool
    iterations: int
    lasso_capped: int = 0

    def to_dict(self) -> dict:
        return {
            "objective_trace": list(self.objective_trace),
            "converged": self.converged,
            "iterations": self.iterations,
            "lasso_capped": self.lasso_capped,
        }


class FittedUsers(Mapping[str, WeibullParams]):
    """Fitted users' Weibull parameters in flat arrays, read as a read-only
    mapping from user name to ``WeibullParams``, in fit order.

    Row i is the user ``users[i]``, whose interned id (``cascadyn.userids``)
    is ``ids[i]``, fitted to ``scales[i]`` and ``shapes[i]`` on ``events[i]``
    delays. The arrays are read-only, and a ``WeibullParams`` is built only
    when an entry is read. ``event_counts`` reads ``events`` as a mapping
    from user name to count.
    """

    def __init__(self, users: list[str], ids: np.ndarray, scales: np.ndarray,
                 shapes: np.ndarray, events: np.ndarray):
        if not len(ids) == len(scales) == len(shapes) == len(events) == len(users):
            raise DataError(f"{len(users)} fitted users need as many ids, scales, shapes "
                            f"and event counts")
        for name, values in (("scale", scales), ("shape", shapes)):
            bad = np.flatnonzero(~((values > 0.0) & (values < math.inf)))  # NaN fails both
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"user {users[i]!r}: {name} must be a positive finite real, "
                                 f"got {values[i]}")
        self.users = users
        self.ids, self.scales, self.shapes, self.events = (
            _read_only(a) for a in (ids, scales, shapes, events))

    @classmethod
    def from_dicts(cls, params: Mapping[str, WeibullParams],
                   events: Mapping[str, int]) -> "FittedUsers":
        """The table of ``params``, in its order, with each user's count in
        ``events`` (0 when absent); refuses a count for a user without
        parameters."""
        extra = [u for u in events if u not in params]
        if extra:
            raise DataError(f"event counts for users without parameters: {extra[:5]}")
        users = list(params)
        n = len(users)
        values = params.values()
        return cls(users, intern(users, n),
                   np.fromiter((p.scale for p in values), dtype=float, count=n),
                   np.fromiter((p.shape for p in values), dtype=float, count=n),
                   np.fromiter((events.get(u, 0) for u in users), dtype=np.intp, count=n))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    @cached_property
    def event_counts(self) -> Mapping[str, int]:
        return _EventCounts(self)

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return iter(self.users)

    def __contains__(self, user) -> bool:
        return user in self._index

    def __getitem__(self, user: str) -> WeibullParams:
        i = self._index[user]
        return WeibullParams(self.scales.item(i), self.shapes.item(i))


class _EventCounts(Mapping[str, int]):
    """A ``FittedUsers``' event counts, by user name."""

    def __init__(self, fitted: FittedUsers):
        self._fitted = fitted

    def __len__(self) -> int:
        return len(self._fitted)

    def __iter__(self):
        return iter(self._fitted)

    def __contains__(self, user) -> bool:
        return user in self._fitted

    def __getitem__(self, user: str) -> int:
        return self._fitted.events.item(self._fitted._index[user])


@dataclass
class NewerModel:
    """Fitted per-user Weibull parameters plus the regression coefficients.

    ``user_params`` is a ``FittedUsers`` table, and ``user_events`` its
    ``event_counts``: the fits build the table from their arrays, by user
    id. Plain mappings from name to parameters and to counts (a missing
    count is 0) are turned into one table at construction.
    """

    kind: str
    feature_names: list[str]
    hyperparams: Hyperparams
    beta: np.ndarray
    gamma: np.ndarray
    user_params: Mapping[str, WeibullParams]
    user_events: Mapping[str, int] | None = None
    schema_version: str = "1"

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        r = len(self.feature_names)
        if self.beta.shape != (r,) or self.gamma.shape != (r,):
            raise DataError("beta/gamma length must equal the feature schema length")
        for name, coef in (("beta", self.beta), ("gamma", self.gamma)):
            if not np.all(np.isfinite(coef)):
                raise DataError(f"{name} must be finite, got {coef.tolist()}")
        fitted, events = self.user_params, self.user_events
        if not (isinstance(fitted, FittedUsers)
                and (events is None or events is fitted.event_counts)):
            fitted = self.user_params = FittedUsers.from_dicts(fitted, events or {})
        self.user_events = fitted.event_counts

    def to_json_dict(self) -> dict:
        fitted = self.user_params
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "feature_names": list(self.feature_names),
            "hyperparams": {
                "mu": self.hyperparams.mu,
                "eta": self.hyperparams.eta,
                "alpha_beta": self.hyperparams.alpha_beta,
                "alpha_gamma": self.hyperparams.alpha_gamma,
            },
            "beta": self.beta.tolist(),
            "gamma": self.gamma.tolist(),
            "users": [
                {"id": u, "lambda": scale, "k": shape, "n_events": n}
                for u, scale, shape, n in zip(fitted.users, fitted.scales.tolist(),
                                              fitted.shapes.tolist(), fitted.events.tolist())
            ],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=1, allow_nan=False) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "NewerModel":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
        try:
            hp = Hyperparams(**doc["hyperparams"])
            users, events = {}, {}
            for rec in doc["users"]:
                user, n = rec["id"], rec["n_events"]
                if user in users:
                    raise DataError(f"duplicate user {user!r}")
                if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                    raise DataError(f"bad record for user {user!r}: n_events must be an "
                                    f"integer >= 0, got {n!r}")
                try:
                    users[user] = WeibullParams(rec["lambda"], rec["k"])
                except (TypeError, ValueError) as exc:
                    raise DataError(f"bad record for user {user!r}: {exc}") from None
                events[user] = n
            return cls(
                kind=doc.get("kind", "newer"),
                feature_names=list(doc["feature_names"]),
                hyperparams=hp,
                beta=np.asarray(doc["beta"], dtype=float),
                gamma=np.asarray(doc["gamma"], dtype=float),
                user_params=users,
                user_events=events,
                schema_version=str(doc["schema_version"]),
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"model file {path} is missing field: {exc}") from exc
        except ValueError as exc:  # DataError included
            raise DataError(f"model file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Likelihood and objective
# ---------------------------------------------------------------------------

def user_log_likelihood(p: WeibullParams, s: SubcascadeSample) -> float:
    """Log-likelihood of one user's delays under their Weibull law.

    m*log(shape) + (shape-1)*sum(log T) - m*shape*log(scale)
    - scale^(-shape) * sum(T^shape)
    """
    seg = _Segments(np.log(s.delays), np.array([s.n]))
    shape = np.array([p.shape], dtype=float)
    return float(seg.log_likelihoods(np.array([math.log(p.scale)]), shape,
                                     seg.moments(shape))[0])


def _as_table(samples) -> SubcascadeTable:
    """``samples`` as a table: a table as it is, a mapping from user name to
    sample, or an iterable of samples keyed by their users."""
    if isinstance(samples, SubcascadeTable):
        return samples
    if not isinstance(samples, Mapping):
        samples = {s.user: s for s in samples}
    return SubcascadeTable.from_samples(samples)


def _table_segments(table: SubcascadeTable, rows: np.ndarray) -> "_Segments":
    """A _Segments over the log delays of the table's ``rows``, in that order."""
    return _Segments(table.log_delays[table.positions(rows)], table.counts[rows])


def _model_segments(model: NewerModel, samples):
    """The model's users, a _Segments over their delays, and their scales
    and shapes as arrays in the same order."""
    table = _as_table(samples)
    fitted = model.user_params
    rows = join(table.user_ids, fitted.ids)
    if (rows < 0).any():
        raise DataError(f"user {fitted.users[int(np.argmax(rows < 0))]!r} has no subcascade "
                        f"sample")
    return fitted.users, _table_segments(table, rows), fitted.scales, fitted.shapes


def newer_objective(model: NewerModel, samples, X: FeatureMatrix | None = None) -> float:
    """Full objective F = G1 + mu*G2 + eta*G3 at the model's parameters.

    The sum runs over the model's fitted users; every one must have a sample,
    and a feature row whenever mu or eta is nonzero.
    """
    users, seg, scale, shape = _model_segments(model, samples)
    g1 = -float(np.sum(seg.log_likelihoods(np.log(scale), shape, seg.moments(shape))))
    hp = model.hyperparams
    if hp.mu == 0.0 and hp.eta == 0.0:
        return g1
    if X is None:
        raise DataError("feature matrix required when mu or eta is nonzero")
    return _penalized(g1, hp, X.subset(users).log_values, scale, shape, model.beta, model.gamma)


def _penalized(total: float, hp: Hyperparams, z: np.ndarray, scale: np.ndarray,
               shape: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> float:
    """``total`` plus mu*G2, then plus eta*G3, each left out at weight 0."""
    n = len(scale)
    for weight, alpha, param, coef in ((hp.mu, hp.alpha_beta, scale, beta),
                                       (hp.eta, hp.alpha_gamma, shape, gamma)):
        if weight > 0:
            pen = float(np.sum((np.log(param) - z @ coef) ** 2)) / (2.0 * n)
            total += weight * (pen + alpha * float(np.sum(np.abs(coef))))
    return total


def smooth_partials(model: NewerModel, samples, X: FeatureMatrix | None = None):
    """Closed-form partials of the smooth part of F w.r.t. each user's
    scale and shape, in the model's user order.

    Returns (users, d_scale, d_shape).
    """
    hp = model.hyperparams
    if (hp.mu > 0 or hp.eta > 0) and X is None:
        raise DataError("feature matrix required when mu or eta is nonzero")
    users, seg, scale, shape = _model_segments(model, samples)
    log_scale = np.log(scale)
    s0, s1, _ = seg.power_sums(log_scale, shape, seg.moments(shape))
    d_scale = (shape / scale) * (seg.m - s0)
    d_shape = -seg.m / shape - seg.sum_log + seg.m * log_scale + s1
    if hp.mu > 0 or hp.eta > 0:
        z = X.subset(users).log_values
        n = len(users)
        if hp.mu > 0:
            d_scale += (hp.mu / n) * (log_scale - z @ model.beta) / scale
        if hp.eta > 0:
            d_shape += (hp.eta / n) * (np.log(shape) - z @ model.gamma) / shape
    return users, d_scale, d_shape


# ---------------------------------------------------------------------------
# One-dimensional safeguarded Newton
# ---------------------------------------------------------------------------

def _newton_box(grad_hess, x0: np.ndarray, bounds: tuple[float, float],
                gtol: float | np.ndarray, max_iter: int) -> np.ndarray:
    """Per-entry minimizers on the box ``bounds`` of strictly convex functions
    of one variable, solved in lockstep; ``grad_hess`` maps an array of
    points, one per entry, to each entry's first and second derivatives.

    An entry whose derivative keeps one sign on the box returns that end.
    The others take Newton steps from ``x0``; a step that leaves the entry's
    bracket, or a nonpositive second derivative, falls back to bisection, so
    the bracket shrinks monotonically. An entry is done when its derivative
    is at most ``gtol`` (a scalar or one value per entry) in magnitude, when
    its Newton correction is below one ulp (bisecting there could jump back
    across a still-wide bracket), or when its bracket is within 1e-13
    relative. The loop ends once every entry is done, or after ``max_iter``
    iterations.
    """
    lo_x, hi_x = bounds
    lo = np.full(len(x0), lo_x)
    hi = np.full(len(x0), hi_x)
    at_lo = grad_hess(lo)[0] >= 0.0
    at_hi = grad_hess(hi)[0] <= 0.0
    x = np.clip(x0, lo_x, hi_x)
    done = at_lo | at_hi
    for _ in range(max_iter):
        if done.all():
            break
        g, h = grad_hess(x)
        done |= np.abs(g) <= gtol
        lo = np.where(~done & (g < 0), x, lo)
        hi = np.where(~done & (g > 0), x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / h
        newton = h > 0
        done |= newton & (step == x)
        step = np.where((step > lo) & (step < hi) & newton, step, 0.5 * (lo + hi))
        x = np.where(done, x, step)
        done |= hi - lo <= 1e-13 * np.maximum(1.0, np.abs(x))
    return np.where(at_lo, lo_x, np.where(at_hi, hi_x, x))


class _Segments:
    """Every user's log delays less that user's largest, laid end to end,
    with one reduction, ``moments``, so the per-user one-dimensional updates
    run vectorized across users.

    User i owns the ``m[i]`` entries of ``flat`` from ``starts[i]`` on: the
    values y = log T - ``top[i]`` <= 0 of that user's delays T, whose logs
    sum to ``sum_log[i]``. Per-user inputs must be float arrays.
    """

    def __init__(self, log_delays: np.ndarray, m: np.ndarray):
        self.m = m
        self.starts = np.cumsum(m) - m
        self.top = np.maximum.reduceat(log_delays, self.starts)
        self.flat = log_delays - np.repeat(self.top, m)
        self.sum_y = np.add.reduceat(self.flat, self.starts)
        self.sum_log = self.sum_y + m * self.top
        self.n_users = len(m)

    def moments(self, shape: np.ndarray):
        """Per-user sums a0, a1, a2 of w, w * y and w * y^2 over the
        entries y, w = exp(shape * y) <= 1, so no power overflows; ``shape``
        holds each user's shape, or one shape for all."""
        w = self.flat * shape if shape.size == 1 else np.repeat(shape, self.m) * self.flat
        np.exp(w, out=w)
        a0 = np.add.reduceat(w, self.starts)
        w *= self.flat
        a1 = np.add.reduceat(w, self.starts)
        w *= self.flat
        return a0, a1, np.add.reduceat(w, self.starts)

    def power_sums(self, log_scale: np.ndarray, shape: np.ndarray, moments):
        """Per-user sums of p, p * x and p * x^2 over the delays T, with
        x = log(T / scale) and p = (T / scale)^shape, from the ``moments``
        at ``shape``. x = y + d with d = top - log scale, so each sum is the
        factor f = exp(shape * d), clamped against overflow, times a sum of
        moments."""
        a0, a1, a2 = moments
        d = self.top - log_scale
        f = np.exp(np.minimum(shape * d, _EXP_CLAMP))
        return f * a0, f * (a1 + d * a0), f * (a2 + d * (2.0 * a1 + d * a0))

    def log_likelihoods(self, log_scale: np.ndarray, shape: np.ndarray,
                        moments) -> np.ndarray:
        """Each user's log-likelihood, from the ``moments`` at ``shape``."""
        return (self.m * np.log(shape) + (shape - 1.0) * self.sum_log
                - self.m * shape * log_scale - self.power_sums(log_scale, shape, moments)[0])


def _scale_block(seg: _Segments, shape: np.ndarray, a0: np.ndarray, targets: np.ndarray,
                 mu_over_n: float, max_iter: int) -> np.ndarray:
    """Per-user minimizers of the scale subproblem over u = log scale:

        m*shape*u + sum((T/e^u)^shape) + (mu/2N)(u - target)^2

    strictly convex in u, from ``a0``, the zeroth ``moments`` at ``shape``;
    closed form when mu = 0, else ``_newton_box``.
    """
    lse = shape * seg.top + np.log(a0)  # log sum(T^shape)
    bounds = math.log(SCALE_BOUNDS[0]), math.log(SCALE_BOUNDS[1])
    u_mle = np.clip((lse - np.log(seg.m)) / shape, *bounds)
    if mu_over_n == 0.0:
        return np.exp(u_mle)

    def grad_hess(u):
        s0 = np.exp(np.minimum(lse - shape * u, _EXP_CLAMP))
        return (seg.m * shape - shape * s0 + mu_over_n * (u - targets),
                shape * shape * s0 + mu_over_n)

    gtol = 1e-10 * np.maximum(1.0, seg.m)
    return np.exp(_newton_box(grad_hess, u_mle, bounds, gtol, max_iter))


def _shape_block(seg: _Segments, log_scale: np.ndarray, targets: np.ndarray,
                 eta_over_n: float, shape0: np.ndarray, max_iter: int) -> np.ndarray:
    """Per-user minimizers of the shape subproblem

        -m*log k - (k-1)*sum(log T) + m*k*log(scale) + sum((T/scale)^k)
        + (eta/2N)(log k - target)^2

    whose likelihood part is strictly convex in k, by ``_newton_box``."""

    def grad_hess(k):
        _, s1, s2 = seg.power_sums(log_scale, k, seg.moments(k))
        g = -seg.m / k - seg.sum_log + seg.m * log_scale + s1
        h = seg.m / (k * k) + s2
        if eta_over_n > 0.0:
            log_k = np.log(k)
            g = g + eta_over_n * (log_k - targets) / k
            h = h + eta_over_n * (1.0 - (log_k - targets)) / (k * k)
        return g, h

    gtol = 1e-10 * np.maximum(1.0, seg.m)
    return _newton_box(grad_hess, shape0, SHAPE_BOUNDS, gtol, max_iter)


# ---------------------------------------------------------------------------
# LASSO subsolver
# ---------------------------------------------------------------------------

def lasso(Z: np.ndarray, y: np.ndarray, alpha: float, *,
          warm: np.ndarray | None = None, tol: float = 1e-12,
          max_iter: int = 10000) -> tuple[np.ndarray, bool]:
    """Minimize (1/2N)||y - Z b||^2 + alpha*||b||_1 by feature-sign search
    (Lee, Battle, Raina & Ng 2007), on the Gram matrix Z'Z/N and the
    correlations Z'y/N, each formed once.

    The active set is the nonzero coordinates, starting from ``warm``'s,
    with their signs. A step solves the active block's quadratic at those
    signs and moves toward its minimizer, stopping where a coordinate
    first reaches 0 and leaving it out; once the active coordinates are
    optimal, the inactive coordinate that most violates its optimality
    condition joins, with the sign of its gradient. Every step lowers the
    objective. When the active block is singular and its quadratic is
    unbounded below, the step walks along the block's null space until a
    coordinate reaches 0, so the solve also ends at an optimum when N < r.
    An all-zero column moves no prediction, so its coefficient is 0.

    Returns the coefficients and whether they are certified: the KKT
    conditions hold within ``tol`` relative to max(1, ||Z'y/N||_inf) after
    at most ``max_iter`` steps.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    n, r = Z.shape
    gram = Z.T @ Z / n
    corr = Z.T @ y / n
    live = np.diag(gram) > 0.0
    b = np.zeros(r) if warm is None else np.where(live, warm, 0.0)
    kkt_tol = tol * max(1.0, float(np.max(np.abs(corr), initial=0.0)))
    for step in range(max_iter + 1):
        grad = corr - gram @ b  # minus the gradient of the smooth part
        active = b != 0.0
        sign = np.sign(b)
        off = float(np.max(np.abs(grad - alpha * sign)[active], initial=0.0))
        excess = np.where(active | ~live, 0.0, np.abs(grad) - alpha)
        if max(off, float(np.max(excess, initial=0.0))) <= kkt_tol:
            return b, True
        if step == max_iter:
            break
        if off <= kkt_tol:
            j = int(np.argmax(excess))
            active[j] = True
            sign[j] = math.copysign(1.0, grad[j])
        at = np.flatnonzero(active)
        sign = sign[at]
        rhs = grad[at] - alpha * sign  # minus the gradient of the signed quadratic
        w, v = np.linalg.eigh(gram[np.ix_(at, at)])
        null = w <= w[-1] * len(at) * np.finfo(float).eps
        slope = v[:, null].T @ rhs
        if np.max(np.abs(slope), initial=0.0) > kkt_tol:
            move, reach = v[:, null] @ slope, math.inf  # unbounded below
        else:
            move, reach = v[:, ~null] @ ((v[:, ~null].T @ rhs) / w[~null]), 1.0
        cur = b[at]
        with np.errstate(divide="ignore", invalid="ignore"):
            stops = np.where(sign * move < 0.0, -cur / move, math.inf)
        k = int(np.argmin(stops))
        reach = min(reach, float(stops[k]))
        if not math.isfinite(reach):
            break
        new = cur + reach * move
        new[sign * new <= 0.0] = 0.0
        if reach == stops[k]:
            new[k] = 0.0
        b[at] = new
    return b, False


# ---------------------------------------------------------------------------
# NEWER coordinate descent
# ---------------------------------------------------------------------------

def fit_newer(samples, X: FeatureMatrix | None = None,
              hyperparams: Hyperparams = DEFAULT_HYPERPARAMS,
              options: FitOptions | None = None,
              warm_start: NewerModel | None = None) -> tuple[NewerModel, FitReport]:
    """Fit the networked Weibull regression by block coordinate descent.

    Users with fewer than ``options.min_events`` delays are excluded from the
    likelihood; they can later be served by ``regress_out_of_sample``. Block
    order per outer iteration is scale, shape, beta, gamma, and the returned
    objective trace is nonincreasing.
    """
    opts = options or FitOptions()
    table = _as_table(samples)
    needs_features = hyperparams.mu > 0 or hyperparams.eta > 0
    if needs_features and X is None:
        raise DataError("fit_newer with nonzero mu/eta requires a feature matrix")

    enough = table.counts >= opts.min_events
    if X is not None:
        feature_rows = _feature_rows(X, table, np.arange(len(table)))
        rows = np.argsort(feature_rows)  # in feature-matrix row order
        rows = rows[enough[rows]]
    else:
        rows = np.flatnonzero(enough)
    if not rows.size:
        raise DataError("no user has enough events to fit")

    n = len(rows)
    users = [table.users[i] for i in rows.tolist()]
    seg = _table_segments(table, rows)
    m = seg.m
    z = np.log(X.values[feature_rows[rows]]) if X is not None else None
    r = len(X.names) if X is not None else 0

    scale = np.add.reduceat(table.delays, table.offsets[:-1])[rows] / m  # mean delays
    shape = np.ones(n)
    beta = np.zeros(r)
    gamma = np.zeros(r)
    if warm_start is not None:
        if X is not None and list(warm_start.feature_names) != list(X.names):
            raise DataError("warm-start model has a different feature schema")
        warm = warm_start.user_params
        at = join(warm.ids, table.user_ids[rows])
        hit = at >= 0
        scale[hit] = warm.scales[at[hit]]
        shape[hit] = warm.shapes[at[hit]]
        if r and warm_start.beta.shape == (r,):
            beta = warm_start.beta.copy()
            gamma = warm_start.gamma.copy()
    scale = np.clip(scale, *SCALE_BOUNDS)
    shape = np.clip(shape, *SHAPE_BOUNDS)

    mu_over_n = hyperparams.mu / n
    eta_over_n = hyperparams.eta / n

    def objective(lis: np.ndarray) -> float:
        """The penalized objective, from the per-user likelihoods at the
        current scales and shapes."""
        if not np.all(np.isfinite(lis)):
            bad = users[int(np.argmin(np.isfinite(lis)))]
            raise NumericsError(f"non-finite likelihood for user {bad!r}", bad)
        total = _penalized(-float(np.sum(lis)), hyperparams, z, scale, shape, beta, gamma)
        if not math.isfinite(total):
            raise NumericsError("non-finite objective during descent")
        return total

    # the moments at the current shapes: one pass per outer iteration serves
    # its objective, the shape safeguard and the next scale block
    moments = seg.moments(shape)
    trace = [objective(seg.log_likelihoods(np.log(scale), shape, moments))]
    converged = False
    iterations = lasso_capped = 0
    for _ in range(opts.max_outer):
        iterations += 1
        scale_targets = z @ beta if hyperparams.mu > 0 else np.zeros(n)
        scale = _scale_block(seg, shape, moments[0], scale_targets, mu_over_n,
                             opts.newton_max_iter)
        log_scale = np.log(scale)

        shape_targets = z @ gamma if hyperparams.eta > 0 else np.zeros(n)
        new_shape = _shape_block(seg, log_scale, shape_targets, eta_over_n,
                                 shape, opts.newton_max_iter)
        new_moments = seg.moments(new_shape)
        lis = seg.log_likelihoods(log_scale, new_shape, new_moments)
        # belt-and-braces for the monotone trace: never accept a per-user shape
        # that scores worse than the one it replaces; a user's likelihood reads
        # that user's delays alone, so the accepted ones are the objective's
        if eta_over_n > 0.0:
            old_lis = seg.log_likelihoods(log_scale, shape, moments)
            accept = (-lis + eta_over_n / 2.0 * (np.log(new_shape) - shape_targets) ** 2
                      <= -old_lis + eta_over_n / 2.0 * (np.log(shape) - shape_targets) ** 2)
            new_shape, lis = np.where(accept, new_shape, shape), np.where(accept, lis, old_lis)
            new_moments = tuple(np.where(accept, new, old)
                                for new, old in zip(new_moments, moments))
        shape, moments = new_shape, new_moments

        if hyperparams.mu > 0:
            beta, certified = lasso(z, np.log(scale), hyperparams.alpha_beta, warm=beta,
                                    tol=opts.lasso_tol, max_iter=opts.lasso_max_iter)
            lasso_capped += not certified
        if hyperparams.eta > 0:
            gamma, certified = lasso(z, np.log(shape), hyperparams.alpha_gamma, warm=gamma,
                                     tol=opts.lasso_tol, max_iter=opts.lasso_max_iter)
            lasso_capped += not certified

        current = objective(lis)
        previous = trace[-1]
        trace.append(current)
        if abs(previous - current) <= opts.tol * max(1.0, abs(previous)):
            converged = True
            break

    model = NewerModel(
        kind="newer" if needs_features else "weibull",
        feature_names=list(X.names) if X is not None else [],
        hyperparams=hyperparams,
        beta=beta,
        gamma=gamma,
        user_params=FittedUsers(users, table.user_ids[rows], scale, shape, m),
    )
    return model, FitReport(objective_trace=trace, converged=converged, iterations=iterations,
                            lasso_capped=lasso_capped)


def regress_params(model: NewerModel, log_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regressed scales exp(log x . beta) and shapes exp(log x . gamma) for
    the rows of ``log_x``, each clipped to its fitting box in log space."""
    log_scale = np.clip(log_x @ model.beta, math.log(SCALE_BOUNDS[0]), math.log(SCALE_BOUNDS[1]))
    log_shape = np.clip(log_x @ model.gamma, math.log(SHAPE_BOUNDS[0]), math.log(SHAPE_BOUNDS[1]))
    return np.exp(log_scale), np.exp(log_shape)


def regress_out_of_sample(model: NewerModel, x) -> WeibullParams:
    """Parameters for a user never fitted: ``regress_params`` on one row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(model.feature_names),):
        raise DataError(
            f"feature row of length {x.size} does not match schema of "
            f"{len(model.feature_names)}"
        )
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("feature values must be strictly positive")
    scale, shape = regress_params(model, np.log(x)[None, :])
    return WeibullParams(float(scale[0]), float(shape[0]))


def mean_params(model: NewerModel) -> WeibullParams:
    fitted = model.user_params
    if not len(fitted):
        raise DataError("model has no fitted users to average")
    return WeibullParams(float(np.mean(fitted.scales)), float(np.mean(fitted.shapes)))


def median_params(model: NewerModel) -> WeibullParams:
    fitted = model.user_params
    if not len(fitted):
        raise DataError("model has no fitted users")
    return WeibullParams(float(np.median(fitted.scales)), float(np.median(fitted.shapes)))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

_FIXED_SHAPES = {"exponential": 1.0, "rayleigh": 2.0}


def _kept_rows(table: SubcascadeTable, opts: FitOptions) -> np.ndarray:
    """Rows, in name order, of the users with at least ``opts.min_events`` delays."""
    rows = np.flatnonzero(table.counts >= opts.min_events)
    if not rows.size:
        raise DataError("no user has enough events to fit")
    return rows


def _feature_rows(X: FeatureMatrix, table: SubcascadeTable, rows: np.ndarray) -> np.ndarray:
    """Feature row of the user of each of the table's ``rows``, joined by
    user id; refuses users the matrix lacks."""
    x_rows = X.rows_of(table.user_ids[rows])
    missing = rows[x_rows < 0][:5].tolist()
    if missing:
        raise DataError(f"users without feature rows: {[table.users[i] for i in missing]}")
    return x_rows


def check_warm_start(kind: str) -> None:
    """Refuse a warm start for a kind whose fit would ignore it: only
    newer's descent and weibull's shape solves start from one."""
    if kind not in ("newer", "weibull"):
        raise DataError(f"a {kind} fit takes no warm start; only newer and weibull do")


def _closed_form_scales(seg: _Segments, shape: np.ndarray):
    """Each user's maximum-likelihood scale at ``shape``, clipped to its
    box, and the negative log-likelihood there, from one ``moments`` pass.

    At a fixed shape k a user's best scale is (sum(T^k) / m)^(1/k), with
    sum(T^k) = e^(k top) a0.
    """
    moments = seg.moments(shape)
    bounds = math.log(SCALE_BOUNDS[0]), math.log(SCALE_BOUNDS[1])
    log_scale = np.clip(seg.top + (np.log(moments[0]) - np.log(seg.m)) / shape, *bounds)
    objective = -float(np.sum(seg.log_likelihoods(log_scale, shape, moments)))
    if not math.isfinite(objective):
        raise NumericsError("non-finite objective at the closed-form scales")
    return np.exp(log_scale), objective


def _fit_profile(seg: _Segments, shared: bool, shape0: np.ndarray, max_iter: int):
    """Exact maximum-likelihood Weibull fit, one shape per user or one
    shared by all, with each user's scale in closed form.

    The negative log-likelihood profiled over the closed-form scales
    (``_closed_form_scales``) has the derivative
    -m/k - sum(y) + m * sum(T^k y) / sum(T^k) in k, with y as in
    ``_Segments``, and a second derivative of m/k^2 plus m times the
    variance of y under the weights T^k: it is strictly convex.
    ``_newton_box`` solves each user's derivative, or their sum for the
    shared shape, from ``shape0``; a NaN there starts from Menon's (1963)
    moment estimate pi / (sd(log T) sqrt(6)), pooled over users for the
    shared shape. Returns the scales, the shapes, the objective, the Newton
    iterations run and whether the solve ended before ``max_iter`` of them.
    """
    m, sum_y = seg.m, seg.sum_y
    unset = np.isnan(shape0)
    if unset.any():
        var = np.maximum(np.add.reduceat(seg.flat * seg.flat, seg.starts) / m - (sum_y / m) ** 2,
                         0.0)
        if shared:
            var = np.sum(m * var) / np.sum(m)
        with np.errstate(divide="ignore"):
            shape0 = np.where(unset, math.pi / np.sqrt(6.0 * var), shape0)
    calls = 0

    def grad_hess(k):
        nonlocal calls
        calls += 1
        a0, a1, a2 = seg.moments(k)
        mean = a1 / a0
        g = m * mean - m / k - sum_y
        h = m / (k * k) + m * (a2 / a0 - mean * mean)
        return (np.sum(g), np.sum(h)) if shared else (g, h)

    gtol = 1e-10 * (np.sum(m) if shared else np.maximum(1.0, m))
    shape = _newton_box(grad_hess, shape0, SHAPE_BOUNDS, gtol, max_iter)
    iterations = calls - 2  # the first two read the box's ends
    if shared:
        shape = np.repeat(shape, seg.n_users)
    scale, objective = _closed_form_scales(seg, shape)
    return scale, shape, objective, iterations, iterations < max_iter


def fit_model(kind: str, samples, X: FeatureMatrix | None = None,
              hyperparams: Hyperparams = DEFAULT_HYPERPARAMS,
              options: FitOptions | None = None,
              warm_start: NewerModel | None = None) -> tuple[NewerModel, FitReport]:
    """Fit any model kind into the common model container.

    weibull fits each user's shape and cox one shape shared by all users,
    each exactly, by Newton on the likelihood profiled over the closed-form
    per-user scales (``_fit_profile``); exponential and rayleigh fix every
    shape to 1 or 2 with the closed-form scale. A warm start seeds newer's
    descent, or weibull's shape solves with the model's shapes; other kinds
    refuse one. Baselines other than weibull get scale-regression
    coefficients via unpenalized least squares on log features so they can
    serve out-of-sample users; weibull keeps zero coefficients, as it
    serves them averaged parameters, and fits without feature rows. The
    shape policy (fixed, shared, or averaged) is applied at lookup time by
    kind.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if warm_start is not None:
        check_warm_start(kind)
    opts = options or FitOptions()
    if kind == "newer":
        return fit_newer(samples, X, hyperparams, opts, warm_start)
    table = _as_table(samples)
    rows = _kept_rows(table, opts)
    seg = _table_segments(table, rows)
    if kind in _FIXED_SHAPES:
        shape = np.full(seg.n_users, _FIXED_SHAPES[kind])
        scale, objective = _closed_form_scales(seg, shape)
        iterations, converged = 0, True
    else:
        shape0 = np.full(1 if kind == "cox" else seg.n_users, np.nan)
        if warm_start is not None:
            warm = warm_start.user_params
            at = join(warm.ids, table.user_ids[rows])
            shape0[at >= 0] = np.clip(warm.shapes[at[at >= 0]], *SHAPE_BOUNDS)
        scale, shape, objective, iterations, converged = _fit_profile(
            seg, kind == "cox", shape0, opts.newton_max_iter)
    names = list(X.names) if X is not None else []
    beta, gamma = np.zeros(len(names)), np.zeros(len(names))
    if X is not None and kind != "weibull":
        z = np.log(X.values[_feature_rows(X, table, rows)])
        beta, *_ = np.linalg.lstsq(z, np.log(scale), rcond=None)
    model = NewerModel(
        kind=kind,
        feature_names=names,
        hyperparams=hyperparams,
        beta=beta,
        gamma=gamma,
        user_params=FittedUsers([table.users[i] for i in rows.tolist()], table.user_ids[rows],
                                scale, shape, table.counts[rows]),
    )
    report = FitReport(objective_trace=[objective], converged=converged, iterations=iterations)
    return model, report


# ---------------------------------------------------------------------------
# Subcascade sample files
# ---------------------------------------------------------------------------

def write_subcascades_jsonl(path, samples) -> None:
    """One record per user: {"user": id, "delays": [seconds, ...]}."""
    table = _as_table(samples)
    bounds = table.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for i, user in enumerate(table.users):
            rec = {"user": user, "delays": table.delays[bounds[i]:bounds[i + 1]].tolist()}
            fh.write(json.dumps(rec, allow_nan=False) + "\n")


def read_subcascades_jsonl(path) -> dict[str, SubcascadeSample]:
    out: dict[str, SubcascadeSample] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                sample = SubcascadeSample(user=str(rec["user"]),
                                          delays=np.asarray(rec["delays"], dtype=float))
            except (KeyError, TypeError, ValueError) as exc:  # JSON and DataError too
                raise DataError(f"{path}:{line_no}: bad subcascade record: {exc}") from exc
            if sample.user in out:
                raise DataError(f"{path}:{line_no}: duplicate user {sample.user!r}")
            out[sample.user] = sample
    return out
