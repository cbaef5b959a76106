"""Networked Weibull regression (NEWER) and the classic survival baselines.

The estimator jointly minimizes the negative Weibull log-likelihood of every
user's response delays plus two networked regression penalties that tie the
log parameters to log covariates:

    F = -sum_i l_i(scale_i, shape_i)
        + mu  * [ 1/(2N) ||log scale - log X @ beta||^2  + alpha_beta  ||beta||_1 ]
        + eta * [ 1/(2N) ||log shape - log X @ gamma||^2 + alpha_gamma ||gamma||_1 ]

Minimization is block coordinate descent in the order scale, shape, beta,
gamma. The scale/shape blocks separate per user into one-dimensional smooth
problems solved by safeguarded Newton; beta/gamma are LASSO problems solved
by cyclic coordinate descent with soft thresholding, on covariance updates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, NumericsError
from .survival import _EXP_CLAMP, WeibullParams
from .userids import intern

__all__ = [
    "Hyperparams",
    "DEFAULT_HYPERPARAMS",
    "SubcascadeSample",
    "FeatureMatrix",
    "FitOptions",
    "FitReport",
    "NewerModel",
    "user_log_likelihood",
    "newer_objective",
    "smooth_partials",
    "lasso_cd",
    "fit_newer",
    "fit_baseline",
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
BASELINE_KINDS = ("exponential", "rayleigh", "cox_shared_shape", "plain_weibull")


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


@dataclass
class FeatureMatrix:
    """Per-user covariate rows, strictly positive so log features are defined."""

    users: list[str]
    names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape != (len(self.users), len(self.names)):
            raise DataError(
                f"feature matrix shape {self.values.shape} does not match "
                f"{len(self.users)} users x {len(self.names)} features"
            )
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise DataError("feature values must be strictly positive finite reals")
        self._index = {u: i for i, u in enumerate(self.users)}
        if len(self._index) != len(self.users):
            raise DataError("duplicate user in feature matrix")

    def row(self, user: str) -> np.ndarray:
        try:
            return self.values[self._index[user]]
        except KeyError:
            raise DataError(f"user {user!r} has no feature row") from None

    def __contains__(self, user: str) -> bool:
        return user in self._index

    @property
    def index(self) -> Mapping[str, int]:
        """Row of each user; shared, not copied, so callers must not modify it."""
        return self._index

    @cached_property
    def user_ids(self) -> np.ndarray:
        """Interned id of each row's user (int32, read-only)."""
        ids = intern(self.users, len(self.users))
        ids.flags.writeable = False
        return ids

    def subset(self, users: Iterable[str]) -> "FeatureMatrix":
        users = list(users)
        rows = np.stack([self.row(u) for u in users]) if users else np.empty((0, len(self.names)))
        return FeatureMatrix(users=users, names=list(self.names), values=rows)

    @property
    def log_values(self) -> np.ndarray:
        return np.log(self.values)


@dataclass
class FitOptions:
    tol: float = 1e-7
    max_outer: int = 200
    min_events: int = 5
    newton_max_iter: int = 100
    lasso_tol: float = 1e-12
    lasso_max_iter: int = 10000


@dataclass
class FitReport:
    """The objective after each outer iteration, whether it settled, and how
    many LASSO solves (NEWER's beta and gamma blocks) stopped at
    ``FitOptions.lasso_max_iter`` sweeps without meeting ``lasso_tol``."""

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


@dataclass
class NewerModel:
    """Fitted per-user Weibull parameters plus the regression coefficients."""

    kind: str
    feature_names: list[str]
    hyperparams: Hyperparams
    beta: np.ndarray
    gamma: np.ndarray
    user_params: dict[str, WeibullParams]
    user_events: dict[str, int]
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

    def to_json_dict(self) -> dict:
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
                {
                    "id": u,
                    "lambda": p.scale,
                    "k": p.shape,
                    "n_events": self.user_events.get(u, 0),
                }
                for u, p in self.user_params.items()
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
                user = rec["id"]
                try:
                    users[user] = WeibullParams(rec["lambda"], rec["k"])
                    events[user] = int(rec["n_events"])
                except (TypeError, ValueError) as exc:
                    raise DataError(f"bad record for user {user!r}: {exc}") from None
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
    seg = _Segments([np.log(s.delays)])
    return float(seg.log_likelihoods(np.array([math.log(p.scale)]), np.array([p.shape]))[0])


def _as_sample_map(samples) -> dict[str, SubcascadeSample]:
    if isinstance(samples, Mapping):
        return dict(samples)
    return {s.user: s for s in samples}


def _model_segments(model: NewerModel, samples):
    """The model's users, a _Segments over their delays, and their scales
    and shapes as arrays in the same order."""
    sample_map = _as_sample_map(samples)
    users = list(model.user_params)
    for u in users:
        if u not in sample_map:
            raise DataError(f"user {u!r} has no subcascade sample")
    seg = _Segments([np.log(sample_map[u].delays) for u in users])
    scale = np.array([model.user_params[u].scale for u in users])
    shape = np.array([model.user_params[u].shape for u in users])
    return users, seg, scale, shape


def newer_objective(model: NewerModel, samples, X: FeatureMatrix | None = None) -> float:
    """Full objective F = G1 + mu*G2 + eta*G3 at the model's parameters.

    The sum runs over the model's fitted users; every one must have a sample,
    and a feature row whenever mu or eta is nonzero.
    """
    users, seg, scale, shape = _model_segments(model, samples)
    g1 = _pooled_objective(seg, scale, shape)
    hp = model.hyperparams
    if hp.mu == 0.0 and hp.eta == 0.0:
        return g1
    if X is None:
        raise DataError("feature matrix required when mu or eta is nonzero")
    z = X.subset(users).log_values
    n = len(users)
    g2 = float(np.sum((np.log(scale) - z @ model.beta) ** 2)) / (2.0 * n)
    g2 += hp.alpha_beta * float(np.sum(np.abs(model.beta)))
    g3 = float(np.sum((np.log(shape) - z @ model.gamma) ** 2)) / (2.0 * n)
    g3 += hp.alpha_gamma * float(np.sum(np.abs(model.gamma)))
    return g1 + hp.mu * g2 + hp.eta * g3


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
    s0, s1, _ = seg.power_sums(log_scale, shape)
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

def _newton_bisect_root(grad_hess, x0: float, lo: float, hi: float, max_iter: int) -> float:
    """Minimizer on [lo, hi] of a strictly convex function, given a callable
    returning its first and second derivatives at a point.

    An end of the interval is returned when the derivative keeps one sign
    on it; otherwise Newton steps from x0 that leave the bracket, or a
    nonpositive second derivative, fall back to bisection, and the bracket
    shrinks monotonically either way.
    """
    if grad_hess(lo)[0] >= 0.0:
        return lo
    if grad_hess(hi)[0] <= 0.0:
        return hi
    x = min(max(x0, lo), hi)
    for _ in range(max_iter):
        g, h = grad_hess(x)
        if g < 0.0:
            lo = x
        elif g > 0.0:
            hi = x
        else:
            return x
        step = x - g / h if h > 0.0 else math.nan  # nan forces bisection
        if step == x:
            # the Newton correction is below one ulp of x: converged; a
            # bisection here could jump back across a still-wide bracket
            return x
        x = step if lo < step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            return x
    return x


class _Segments:
    """Flat concatenation of every user's log delays with segment reductions,
    so the per-user one-dimensional updates run vectorized across users."""

    def __init__(self, log_t_list: list[np.ndarray]):
        self.flat = np.concatenate(log_t_list)
        self.m = np.array([len(v) for v in log_t_list])
        self.starts = np.concatenate([[0], np.cumsum(self.m)[:-1]])
        self.sum_log = np.add.reduceat(self.flat, self.starts)
        self.n_users = len(log_t_list)

    def expand(self, per_user: np.ndarray) -> np.ndarray:
        return np.repeat(per_user, self.m)

    def lse(self, shape: np.ndarray) -> np.ndarray:
        """Per-user logsumexp of shape * log T."""
        z = self.expand(shape) * self.flat
        zmax = np.maximum.reduceat(z, self.starts)
        sums = np.add.reduceat(np.exp(z - self.expand(zmax)), self.starts)
        return zmax + np.log(sums)

    def power_sums(self, log_scale: np.ndarray, shape: np.ndarray):
        """Per-user sums of (T/scale)^shape weighted by (log(T/scale))^{0,1,2}."""
        dz = self.flat - self.expand(log_scale)
        w = np.exp(np.minimum(self.expand(shape) * dz, _EXP_CLAMP))
        s0 = np.add.reduceat(w, self.starts)
        s1 = np.add.reduceat(w * dz, self.starts)
        s2 = np.add.reduceat(w * dz * dz, self.starts)
        return s0, s1, s2

    def log_likelihoods(self, log_scale: np.ndarray, shape: np.ndarray) -> np.ndarray:
        s0, _, _ = self.power_sums(log_scale, shape)
        return (self.m * np.log(shape) + (shape - 1.0) * self.sum_log
                - self.m * shape * log_scale - s0)


def _pooled_objective(seg: _Segments, scale: np.ndarray, shape: np.ndarray) -> float:
    """Negative log-likelihood summed over every user."""
    return -float(np.sum(seg.log_likelihoods(np.log(scale), shape)))


def _scale_block(seg: _Segments, shape: np.ndarray, targets: np.ndarray,
                 mu_over_n: float, max_iter: int) -> np.ndarray:
    """Per-user minimizers of the scale subproblem over u = log scale:

        m*shape*u + sum((T/e^u)^shape) + (mu/2N)(u - target)^2

    strictly convex in u; closed form when mu = 0, else safeguarded Newton
    run in lockstep across users.
    """
    lse = seg.lse(shape)
    lo_u, hi_u = math.log(SCALE_BOUNDS[0]), math.log(SCALE_BOUNDS[1])
    u_mle = (lse - np.log(seg.m)) / shape
    if mu_over_n == 0.0:
        return np.exp(np.clip(u_mle, lo_u, hi_u))

    def grad(u):
        s0 = np.exp(np.minimum(lse - shape * u, _EXP_CLAMP))
        return seg.m * shape - shape * s0 + mu_over_n * (u - targets), s0

    lo = np.full(seg.n_users, lo_u)
    hi = np.full(seg.n_users, hi_u)
    g_lo, _ = grad(lo)
    g_hi, _ = grad(hi)
    at_lo = g_lo >= 0.0
    at_hi = g_hi <= 0.0
    u = np.clip(u_mle, lo_u, hi_u)
    done = at_lo | at_hi
    for _ in range(max_iter):
        g, s0 = grad(u)
        done = done | (np.abs(g) <= 1e-10 * np.maximum(1.0, seg.m))
        if np.all(done):
            break
        lo = np.where(~done & (g < 0), u, lo)
        hi = np.where(~done & (g > 0), u, hi)
        h = shape * shape * s0 + mu_over_n
        with np.errstate(divide="ignore", invalid="ignore"):
            step = u - g / h
        step = np.where((step > lo) & (step < hi) & (h > 0), step, 0.5 * (lo + hi))
        u = np.where(done, u, step)
        done = done | (hi - lo <= 1e-13 * np.maximum(1.0, np.abs(u)))
    u = np.where(at_lo, lo_u, np.where(at_hi, hi_u, u))
    return np.exp(u)


def _shape_block(seg: _Segments, log_scale: np.ndarray, targets: np.ndarray,
                 eta_over_n: float, shape0: np.ndarray, max_iter: int) -> np.ndarray:
    """Per-user minimizers of the shape subproblem

        -m*log k - (k-1)*sum(log T) + m*k*log(scale) + sum((T/scale)^k)
        + (eta/2N)(log k - target)^2

    whose likelihood part is strictly convex in k."""

    def grad_hess(k):
        _, s1, s2 = seg.power_sums(log_scale, k)
        g = -seg.m / k - seg.sum_log + seg.m * log_scale + s1
        h = seg.m / (k * k) + s2
        if eta_over_n > 0.0:
            log_k = np.log(k)
            g = g + eta_over_n * (log_k - targets) / k
            h = h + eta_over_n * (1.0 - (log_k - targets)) / (k * k)
        return g, h

    lo_k, hi_k = SHAPE_BOUNDS
    lo = np.full(seg.n_users, lo_k)
    hi = np.full(seg.n_users, hi_k)
    g_lo, _ = grad_hess(lo)
    g_hi, _ = grad_hess(hi)
    at_lo = g_lo >= 0.0
    at_hi = g_hi <= 0.0
    k = np.clip(shape0, lo_k, hi_k)
    done = at_lo | at_hi
    for _ in range(max_iter):
        g, h = grad_hess(k)
        done = done | (np.abs(g) <= 1e-10 * np.maximum(1.0, seg.m))
        if np.all(done):
            break
        lo = np.where(~done & (g < 0), k, lo)
        hi = np.where(~done & (g > 0), k, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = k - g / h
        step = np.where((step > lo) & (step < hi) & (h > 0), step, 0.5 * (lo + hi))
        k = np.where(done, k, step)
        done = done | (hi - lo <= 1e-13 * np.maximum(1.0, np.abs(k)))
    return np.where(at_lo, lo_k, np.where(at_hi, hi_k, k))


# ---------------------------------------------------------------------------
# LASSO subsolver
# ---------------------------------------------------------------------------

def lasso_cd(Z: np.ndarray, y: np.ndarray, alpha: float, *,
             warm: np.ndarray | None = None, tol: float = 1e-12,
             max_iter: int = 10000) -> tuple[np.ndarray, bool]:
    """Minimize (1/2N)||y - Z b||^2 + alpha*||b||_1 by cyclic coordinate
    descent with soft thresholding, on covariance updates (Friedman, Hastie
    & Tibshirani 2010): the Gram matrix Z'Z/N is formed once, and the
    gradient Z'(y - Z b)/N is kept as r values that each changed coordinate
    updates through its Gram column, so a sweep costs O(r^2), not O(N r).

    Returns the coefficients and whether a sweep moved every coordinate by
    at most ``tol`` relative to the largest one before ``max_iter`` sweeps.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    n, r = Z.shape
    b = np.zeros(r) if warm is None else np.array(warm, dtype=float)
    gram = (Z.T @ Z / n).tolist()
    grad = (Z.T @ (y - Z @ b) / n).tolist()
    coef = b.tolist()
    # small r: plain floats beat numpy's per-call overhead
    for _ in range(max_iter):
        max_delta = 0.0
        for j, col in enumerate(gram):
            g_jj = col[j]
            old = coef[j]
            rho = grad[j] + g_jj * old
            # an all-zero column moves no prediction, so its penalty alone sets it to 0
            new = math.copysign(max(abs(rho) - alpha, 0.0), rho) / g_jj if g_jj else 0.0
            if new != old:
                step = old - new
                grad = [g + c * step for g, c in zip(grad, col)]
                coef[j] = new
                max_delta = max(max_delta, abs(step))
        if max_delta <= tol * max(1.0, max(map(abs, coef), default=0.0)):
            return np.array(coef), True
    return np.array(coef), False


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
    sample_map = _as_sample_map(samples)
    needs_features = hyperparams.mu > 0 or hyperparams.eta > 0
    if needs_features and X is None:
        raise DataError("fit_newer with nonzero mu/eta requires a feature matrix")

    if X is not None:
        users = [u for u in X.users if u in sample_map and sample_map[u].n >= opts.min_events]
        missing = [u for u in sample_map if u not in X]
        if missing:
            raise DataError(f"users without feature rows: {missing[:5]}")
    else:
        users = sorted(u for u in sample_map if sample_map[u].n >= opts.min_events)
    if not users:
        raise DataError("no user has enough events to fit")

    n = len(users)
    delays = [sample_map[u].delays for u in users]
    seg = _Segments([np.log(d) for d in delays])
    m = seg.m
    z = X.subset(users).log_values if X is not None else None
    r = len(X.names) if X is not None else 0

    scale = np.add.reduceat(np.concatenate(delays), seg.starts) / m  # mean delays
    shape = np.ones(n)
    beta = np.zeros(r)
    gamma = np.zeros(r)
    if warm_start is not None:
        if X is not None and list(warm_start.feature_names) != list(X.names):
            raise DataError("warm-start model has a different feature schema")
        for i, u in enumerate(users):
            p = warm_start.user_params.get(u)
            if p is not None:
                scale[i] = p.scale
                shape[i] = p.shape
        if r and warm_start.beta.shape == (r,):
            beta = warm_start.beta.copy()
            gamma = warm_start.gamma.copy()
    scale = np.clip(scale, *SCALE_BOUNDS)
    shape = np.clip(shape, *SHAPE_BOUNDS)

    mu_over_n = hyperparams.mu / n
    eta_over_n = hyperparams.eta / n

    def objective() -> float:
        lis = seg.log_likelihoods(np.log(scale), shape)
        if not np.all(np.isfinite(lis)):
            bad = users[int(np.argmin(np.isfinite(lis)))]
            raise NumericsError(f"non-finite likelihood for user {bad!r}", bad)
        total = -float(np.sum(lis))
        if hyperparams.mu > 0:
            pen = float(np.sum((np.log(scale) - z @ beta) ** 2)) / (2.0 * n)
            total += hyperparams.mu * (pen + hyperparams.alpha_beta * float(np.sum(np.abs(beta))))
        if hyperparams.eta > 0:
            pen = float(np.sum((np.log(shape) - z @ gamma) ** 2)) / (2.0 * n)
            total += hyperparams.eta * (pen + hyperparams.alpha_gamma * float(np.sum(np.abs(gamma))))
        if not math.isfinite(total):
            raise NumericsError("non-finite objective during descent")
        return total

    trace = [objective()]
    converged = False
    iterations = lasso_capped = 0
    for _ in range(opts.max_outer):
        iterations += 1
        scale_targets = z @ beta if hyperparams.mu > 0 else np.zeros(n)
        scale = _scale_block(seg, shape, scale_targets, mu_over_n, opts.newton_max_iter)

        shape_targets = z @ gamma if hyperparams.eta > 0 else np.zeros(n)
        new_shape = _shape_block(seg, np.log(scale), shape_targets, eta_over_n,
                                 shape, opts.newton_max_iter)
        # belt-and-braces for the monotone trace: never accept a per-user
        # shape that scores worse than the one it replaces
        if eta_over_n > 0.0:
            old_obj = -seg.log_likelihoods(np.log(scale), shape) \
                + eta_over_n / 2.0 * (np.log(shape) - shape_targets) ** 2
            new_obj = -seg.log_likelihoods(np.log(scale), new_shape) \
                + eta_over_n / 2.0 * (np.log(new_shape) - shape_targets) ** 2
            shape = np.where(new_obj <= old_obj, new_shape, shape)
        else:
            shape = new_shape

        if hyperparams.mu > 0:
            beta, settled = lasso_cd(z, np.log(scale), hyperparams.alpha_beta, warm=beta,
                                     tol=opts.lasso_tol, max_iter=opts.lasso_max_iter)
            lasso_capped += not settled
        if hyperparams.eta > 0:
            gamma, settled = lasso_cd(z, np.log(shape), hyperparams.alpha_gamma, warm=gamma,
                                      tol=opts.lasso_tol, max_iter=opts.lasso_max_iter)
            lasso_capped += not settled

        current = objective()
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
        user_params={u: WeibullParams(float(scale[i]), float(shape[i])) for i, u in enumerate(users)},
        user_events={u: int(m[i]) for i, u in enumerate(users)},
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
    scales = [p.scale for p in model.user_params.values()]
    shapes = [p.shape for p in model.user_params.values()]
    if not scales:
        raise DataError("model has no fitted users to average")
    return WeibullParams(float(np.mean(scales)), float(np.mean(shapes)))


def median_params(model: NewerModel) -> WeibullParams:
    scales = [p.scale for p in model.user_params.values()]
    shapes = [p.shape for p in model.user_params.values()]
    if not scales:
        raise DataError("model has no fitted users")
    return WeibullParams(float(np.median(scales)), float(np.median(shapes)))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

_FIXED_SHAPES = {"exponential": 1.0, "rayleigh": 2.0}


def _kept_samples(samples, opts: FitOptions) -> dict[str, SubcascadeSample]:
    sample_map = _as_sample_map(samples)
    kept = {u: s for u, s in sorted(sample_map.items()) if s.n >= opts.min_events}
    if not kept:
        raise DataError("no user has enough events to fit")
    return kept


def _fit_restricted(kind: str, kept: dict[str, SubcascadeSample], opts: FitOptions):
    """Scales and shapes, in ``kept`` order, of a fixed- or shared-shape
    baseline, with its objective trace and whether the trace settled."""
    seg = _Segments([np.log(s.delays) for s in kept.values()])
    if kind == "cox_shared_shape":
        return _fit_cox(seg, opts)
    shape = np.full(seg.n_users, _FIXED_SHAPES[kind])
    scale = _scale_block(seg, shape, np.zeros(seg.n_users), 0.0, opts.newton_max_iter)
    return scale, shape, [_pooled_objective(seg, scale, shape)], True


def _fit_cox(seg: _Segments, opts: FitOptions):
    """Alternate the closed-form per-user scales at the current shared shape
    with the pooled likelihood's shared shape at those scales, solved to
    convergence, until the objective settles to a relative 1e-10 or
    ``opts.max_outer`` rounds have run."""
    n = seg.n_users
    zeros = np.zeros(n)
    m_total = float(np.sum(seg.m))
    shape = np.ones(n)
    scale = _scale_block(seg, shape, zeros, 0.0, opts.newton_max_iter)
    trace = [_pooled_objective(seg, scale, shape)]
    for _ in range(opts.max_outer):
        scale = _scale_block(seg, shape, zeros, 0.0, opts.newton_max_iter)
        log_scale = np.log(scale)
        offset = float(np.sum(seg.m * log_scale - seg.sum_log))

        def grad_hess(k):
            _, s1, s2 = seg.power_sums(log_scale, np.full(n, k))
            return offset - m_total / k + float(np.sum(s1)), m_total / (k * k) + float(np.sum(s2))

        shared = _newton_bisect_root(grad_hess, float(shape[0]), *SHAPE_BOUNDS,
                                     opts.newton_max_iter)
        shape = np.full(n, shared)
        trace.append(_pooled_objective(seg, scale, shape))
        if abs(trace[-2] - trace[-1]) <= 1e-10 * max(1.0, abs(trace[-2])):
            return scale, shape, trace, True
    return scale, shape, trace, False


def fit_baseline(kind: str, samples, X: FeatureMatrix | None = None,
                 options: FitOptions | None = None) -> dict[str, WeibullParams]:
    """Per-user parameters under the restricted baseline families.

    exponential and rayleigh fix every shape to 1 or 2 with the closed-form
    scale; cox_shared_shape alternates the per-user closed-form scales with
    a shared shape solved to convergence at those scales; plain_weibull is
    the unregularized fit.
    """
    opts = options or FitOptions()
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}")
    kept = _kept_samples(samples, opts)
    if kind == "plain_weibull":
        model, _ = fit_newer(kept, None, Hyperparams(0.0, 0.0, 0.0, 0.0), opts)
        return dict(model.user_params)
    scale, shape, _, _ = _fit_restricted(kind, kept, opts)
    return {u: WeibullParams(float(scale[i]), float(shape[i])) for i, u in enumerate(kept)}


def fit_model(kind: str, samples, X: FeatureMatrix | None = None,
              hyperparams: Hyperparams = DEFAULT_HYPERPARAMS,
              options: FitOptions | None = None,
              warm_start: NewerModel | None = None) -> tuple[NewerModel, FitReport]:
    """Fit any model kind into the common model container.

    Baselines get scale-regression coefficients via unpenalized least squares
    on log features so they can serve out-of-sample users; their shape policy
    (fixed, shared, or averaged) is applied at lookup time by kind.
    """
    opts = options or FitOptions()
    if kind == "newer":
        return fit_newer(samples, X, hyperparams, opts, warm_start)
    if kind == "weibull":
        model, report = fit_newer(samples, None, Hyperparams(0.0, 0.0, 0.0, 0.0), opts,
                                  warm_start)
        if X is not None:
            model = replace(model, feature_names=list(X.names),
                            beta=np.zeros(len(X.names)), gamma=np.zeros(len(X.names)))
        return model, report

    if kind not in ("exponential", "rayleigh", "cox"):
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    kept = _kept_samples(samples, opts)
    users = list(kept)
    scale, shape, trace, converged = _fit_restricted(
        "cox_shared_shape" if kind == "cox" else kind, kept, opts)
    if X is not None:
        missing = [u for u in users if u not in X]
        if missing:
            raise DataError(f"users without feature rows: {missing[:5]}")
        beta, *_ = np.linalg.lstsq(X.subset(users).log_values, np.log(scale), rcond=None)
        names = list(X.names)
        gamma = np.zeros(len(names))
    else:
        names, beta, gamma = [], np.zeros(0), np.zeros(0)
    model = NewerModel(
        kind=kind,
        feature_names=names,
        hyperparams=hyperparams,
        beta=beta,
        gamma=gamma,
        user_params={u: WeibullParams(float(scale[i]), float(shape[i])) for i, u in enumerate(users)},
        user_events={u: kept[u].n for u in users},
    )
    report = FitReport(objective_trace=trace, converged=converged, iterations=len(trace) - 1)
    return model, report


# ---------------------------------------------------------------------------
# Subcascade sample files
# ---------------------------------------------------------------------------

def write_subcascades_jsonl(path, samples) -> None:
    """One record per user: {"user": id, "delays": [seconds, ...]}."""
    sample_map = _as_sample_map(samples)
    with open(path, "w", encoding="utf-8") as fh:
        for user in sorted(sample_map):
            rec = {"user": user, "delays": sample_map[user].delays.tolist()}
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
