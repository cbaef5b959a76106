"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end and a parent. The layer is the part of
the name before the first dot (``simulate``, ``features``, ``fitting``,
``evaluate``, ``predict``); ``bench.setup`` and ``bench.pass`` are the roots.
Counters are attributed to the root that was open when they were recorded.

Spans come only from this directory: around the calls a workload makes
directly, and, for the calls ``run_experiment`` makes, from wrappers that
``evaluate_wrappers`` installs over the names ``cascadyn.evaluate`` imported.
The untraced run uses ``NULL`` and installs no wrapper.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SETUP_ROOT = "bench.setup"
PASS_ROOT = "bench.pass"


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), None, parent])
        tracer._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._open.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer of the untraced run: records nothing."""

    enabled = False

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass

    def defer(self, fn) -> None:
        pass


NULL = NullTracer()


class Tracer:
    """Spans and counters of the traced run, kept in memory until ``write``."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.maxima: dict[str, float] = {}
        self._deferred: list[tuple[int, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _root(self) -> int:
        if not self._open:
            raise RuntimeError("counter recorded outside a root span")
        return self._open[0]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self._root()][name] += value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def defer(self, fn) -> None:
        """Run ``fn(tracer)`` after the traced phase, attributing its counters
        to the current root, so counting costs no time inside any span."""
        self._deferred.append((self._root(), fn))

    def run_deferred(self) -> None:
        for root, fn in self._deferred:
            self._open.append(root)
            try:
                fn(self)
            finally:
                self._open.pop()
        self._deferred.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def summary(self) -> dict:
        """Per-layer totals over one set-up plus the mean traced pass.

        Returns span time and self time by span name, self time by layer,
        counters, maxima, and the mean self and child time of the pass root.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        root_of = [0] * len(spans)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent is None:
                root_of[i] = i
            else:
                child_time[parent] += end - start
                root_of[i] = root_of[parent]
        passes = [i for i, s in enumerate(spans) if s[3] is None and s[0] == PASS_ROOT]
        weight = {}
        for i, s in enumerate(spans):
            if s[3] is None:
                weight[i] = 1.0 / len(passes) if s[0] == PASS_ROOT else 1.0
        time_by_name: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            w = weight[root_of[i]]
            duration = end - start
            time_by_name[name] += w * duration
            self_by_name[name] += w * (duration - child_time[i])
            self_by_layer[name.split(".", 1)[0]] += w * (duration - child_time[i])
        counts: dict[str, float] = defaultdict(float)
        for root, per_root in self.counts.items():
            for name, value in per_root.items():
                counts[name] += weight[root] * value
        n = max(len(passes), 1)
        return {
            "time": dict(time_by_name),
            "self_by_name": dict(self_by_name),
            "self": dict(self_by_layer),
            "counts": dict(counts),
            "maxima": dict(self.maxima),
            "root": {
                "self_s": sum(spans[i][2] - spans[i][1] - child_time[i] for i in passes) / n,
                "children_s": sum(child_time[i] for i in passes) / n,
            },
        }


@contextmanager
def evaluate_wrappers(tracer: Tracer, min_events: int):
    """Wrap the names ``cascadyn.evaluate`` imported so the calls
    ``run_experiment`` makes get spans; every wrapper forwards unchanged.

    A name that no longer exists is skipped: its span reads as absent.
    """
    import cascadyn.evaluate as evaluate

    saved: list[tuple[object, str, object]] = []

    def replace(owner, name, make):
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            return
        saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def wrap_subcascades(fn):
        def extract_subcascades(*args, **kwargs):
            with tracer.span("features.extract_subcascades"):
                samples = fn(*args, **kwargs)
            tracer.defer(lambda t: count_samples(t, samples, min_events))
            return samples
        return extract_subcascades

    def wrap_features(fn):
        def extract_features(*args, **kwargs):
            with tracer.span("features.extract_features"):
                feats = fn(*args, **kwargs)
            tracer.count("features.calls")
            return feats
        return extract_features

    def wrap_fit(fn):
        def fit_model(kind, *args, **kwargs):
            return traced_fit(tracer, fn, kind, *args, **kwargs)
        return fit_model

    def wrap_basic(cls):
        def basic_predictor(pc, dynamics, *args, **kwargs):
            with tracer.span("predict.build"):
                predictor = cls(pc, dynamics, *args, **kwargs)
            tracer.defer(lambda t: count_rows(t, pc, dynamics))
            return predictor
        return basic_predictor

    def wrap_loglinear_fit(descriptor):
        fn = descriptor.__func__

        def fit(cls, *args, **kwargs):
            with tracer.span("evaluate.loglinear_fit"):
                return fn(cls, *args, **kwargs)
        return classmethod(fit)

    def wrap_loglinear_predict(fn):
        def predict_final(self, *args, **kwargs):
            with tracer.span("evaluate.loglinear_predict"):
                return fn(self, *args, **kwargs)
        return predict_final

    replace(evaluate, "extract_subcascades", wrap_subcascades)
    replace(evaluate, "extract_features", wrap_features)
    replace(evaluate, "fit_model", wrap_fit)
    replace(evaluate, "BasicPredictor", wrap_basic)
    loglinear = getattr(evaluate, "LogLinearModel", None)
    if isinstance(loglinear, type):
        if isinstance(loglinear.__dict__.get("fit"), classmethod):
            replace(loglinear, "fit", wrap_loglinear_fit)
        replace(loglinear, "predict_final", wrap_loglinear_predict)
    try:
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def traced_fit(tracer, fit_model, kind, *args, **kwargs):
    """Call ``fit_model`` under a ``fitting.fit.<kind>`` span and count the
    solver's iterations, convergence and fitted users."""
    with tracer.span(f"fitting.fit.{kind}"):
        model, report = fit_model(kind, *args, **kwargs)
    tracer.count("fitting.fits")
    tracer.count("fitting.converged", bool(report.converged))
    tracer.count(f"fitting.iterations.{kind}", report.iterations)
    tracer.count("fitting.users_fitted", len(model.user_params))
    return model, report


def count_samples(tracer, samples, min_events: int) -> None:
    tracer.count("features.calls")
    tracer.count("features.users_with_samples", len(samples))
    tracer.count("features.users_min_events",
                 sum(1 for s in samples.values() if s.n >= min_events))


def count_rows(tracer, pc, dynamics) -> None:
    """Observed rows, rows with replies, and where each row's dynamics come
    from: fitted parameters, regression on a feature row, or the fallback."""
    model = getattr(dynamics, "model", None)
    fitted = getattr(model, "user_params", None)
    if fitted is None:
        fitted = dynamics if isinstance(dynamics, dict) else {}
    features = getattr(dynamics, "features", None)
    parents = set()
    for ev in pc.events:
        if ev.parent is not None:
            parents.add(ev.parent)
        if ev.user in fitted:
            tracer.count("predict.lookups.fitted")
        elif features is not None and ev.user in features:
            tracer.count("predict.lookups.regressed")
        else:
            tracer.count("predict.lookups.fallback")
    tracer.count("predict.observed_rows", len(pc.events))
    tracer.count("predict.rows_with_replies", len(parents))
