"""Outside-in tracer: spans around the public entry points of each layer.

Nothing under ``src/`` is edited.  ``install`` replaces the entry points
of every layer with timing wrappers at run time, in each namespace that
binds them (``cli`` and ``switching`` import ``sample_excursions`` by
name).  Each thread keeps its own span stack because ``reproduce table2``
runs replications in a thread pool when ``EXCURSIA_THREADS`` is above 1.  A span's self time is its duration
minus the time covered by child spans of the same thread.

Layer metrics are derived from the spans in ``Tracer.metrics``; their
names match ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict

import numpy as np


def model_slug(spec: str) -> str:
    """``matern_half_integer(nu=2.5)`` -> ``matern-nu2.5``; ``excursion:diffusion(d=2)``
    -> ``excursion-diffusion-d2``."""
    spec = spec.replace("matern_half_integer", "matern")
    for old, new in ((":", "-"), ("(", "-"), (")", ""), ("=", ""), ("_", "-")):
        spec = spec.replace(old, new)
    return spec


# Models and switching laws the workloads draw from; each gets its own
# per-model metrics.
DIVISOR_SLUGS = [f"diffusion-d{d}" for d in range(1, 11)] + [
    "random-acceleration",
    "shifted-gaussian-alpha0",
    "matern-nu2.5",
    "generalized-laplace-alpha1",
]
SIZE_BIASED_SLUGS = ["excursion-diffusion-d2", "divisor-matern-nu2.5"]


class _Frame:
    __slots__ = ("name", "child", "tally")

    def __init__(self, name):
        self.name = name
        self.child = 0.0  # seconds covered by child spans
        self.tally = None  # counts made while the span is open

    def bump(self, key, value):
        if self.tally is None:
            self.tally = defaultdict(float)
        self.tally[key] += value

    def get(self, key):
        return self.tally[key] if self.tally else 0.0


class _ThreadLog:
    """One thread's span stack and totals; merged when metrics are read."""

    __slots__ = ("stack", "calls", "total", "self_time", "counts")

    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)


class Tracer:
    """Per-thread span stacks; per-thread totals keep locks off the hot path."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = []

    def log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    def enclosing(self, name):
        """Innermost open frame called ``name`` on this thread, or None."""
        for frame in reversed(self.log().stack):
            if frame.name == name:
                return frame
        return None

    def span(self, name, fn, on_exit=None):
        """Wrap ``fn`` in a span; ``on_exit(log, frame, seconds, args, kwargs, result)``
        runs after the span closes, outside its timing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self.log()
            stack = log.stack
            frame = _Frame(name)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dt
                log.calls[name] += 1
                log.total[name] += dt
                log.self_time[name] += dt - frame.child
            if on_exit is not None:
                on_exit(log, frame, dt, args, kwargs, result)
            return result

        return wrapper

    # -- derived metrics ----------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric; a layer that did no work reports 0."""
        c, tot, slf, n = (defaultdict(float) for _ in range(4))
        with self._lock:
            for log in self._logs:
                for merged, part in ((c, log.counts), (tot, log.total), (slf, log.self_time), (n, log.calls)):
                    for key, value in part.items():
                        merged[key] += value

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for slug in DIVISOR_SLUGS:
            draws = c[f"draws.{slug}"]
            out[f"samplers.divisor.draws_per_s.{slug}"] = ratio(draws, c[f"draw_s.{slug}"])
            out[f"samplers.divisor.uniforms_per_draw.{slug}"] = ratio(c[f"uniforms.{slug}"], draws)
        out["samplers.divisor.self_s"] = slf["samplers.divisor"]
        out["samplers.compound.self_s"] = slf["samplers.compound"]
        out["samplers.compound.divisors_per_draw"] = ratio(c["compound.divisors"], c["compound.values"])
        out["laplace.transform.evals"] = n["laplace.transform"]
        out["laplace.transform.ms_per_eval"] = 1e3 * ratio(tot["laplace.transform"], n["laplace.transform"])
        out["laplace.find_pole.evals_per_pole"] = ratio(c["find_pole.evals"], n["laplace.find_pole"])
        out["laplace.find_pole.ms"] = 1e3 * ratio(tot["laplace.find_pole"], n["laplace.find_pole"])
        out["laplace.build.ms"] = 1e3 * ratio(tot["laplace.build"], n["laplace.build"])
        out["slepian.e0.calls"] = n["slepian.e0"]
        out["slepian.e0.points_per_call"] = ratio(c["e0.points"], n["slepian.e0"])
        out["slepian.e0.self_s"] = slf["slepian.e0"]
        out["slepian.validate_iia.ms"] = 1e3 * ratio(tot["slepian.validate_iia"], n["slepian.validate_iia"])
        out["persistency.tail_exponent.self_s"] = slf["persistency.tail_exponent"]
        out["persistency.tail_exponent.samples_per_s"] = ratio(c["tail.samples"], tot["persistency.tail_exponent"])
        # CPU time of the replications over the pool's capacity (wall x threads)
        out["persistency.replication.parallel_eff"] = ratio(c["ci.cpu_seconds"], c["ci.thread_seconds"])
        out["switching.estimate.self_s"] = slf["switching.estimate"]
        for slug in SIZE_BIASED_SLUGS:
            out[f"switching.size_biased.draws_per_accept.{slug}"] = ratio(
                c[f"sb_draws.{slug}"], c[f"sb_accepted.{slug}"]
            )
        out["cli.self_s"] = slf["cli"]
        return out


def _size(size):
    return 1 if size is None else int(np.prod(size))


def install(tracer: Tracer):
    """Wrap every layer's entry points.  Call before the first command:
    objects built earlier keep references to the unwrapped methods."""
    from excursia import cli, laplace, persistency, samplers, slepian, switching

    # samplers --------------------------------------------------------------
    def draw_exit(log, frame, dt, args, kwargs, result):
        slug = model_slug(args[0].model.spec_string())
        n = _size(args[2] if len(args) > 2 else kwargs.get("size"))
        log.counts[f"draws.{slug}"] += n
        log.counts[f"draw_s.{slug}"] += dt
        log.counts[f"uniforms.{slug}"] += frame.get("uniforms")
        sb = tracer.enclosing("switching.size_biased")
        if sb is not None:
            sb.bump("divisor_draws", n)

    samplers.DivisorSampler.draw = tracer.span("samplers.divisor", samplers.DivisorSampler.draw, draw_exit)

    uniform01 = samplers.RngStream.uniform01

    @functools.wraps(uniform01)
    def counted_uniform01(self, size=None):
        frame = tracer.enclosing("samplers.divisor")
        if frame is not None:
            frame.bump("uniforms", _size(size))
        return uniform01(self, size)

    samplers.RngStream.uniform01 = counted_uniform01

    def compound_exit(log, frame, dt, args, kwargs, result):
        values, counts = result
        log.counts["compound.values"] += values.size
        log.counts["compound.divisors"] += int(counts.sum())

    compound = tracer.span("samplers.compound", samplers.sample_excursions, compound_exit)
    for module in (samplers, cli, switching):
        module.sample_excursions = compound

    # laplace ---------------------------------------------------------------
    evaluator = laplace.LaplaceEvaluator
    evaluator.for_survival = classmethod(tracer.span("laplace.build", evaluator.__dict__["for_survival"].__func__))

    def transform_exit(log, frame, dt, args, kwargs, result):
        pole = tracer.enclosing("laplace.find_pole")
        if pole is not None:
            pole.bump("evals", 1)

    def pole_exit(log, frame, dt, args, kwargs, result):
        log.counts["find_pole.evals"] += frame.get("evals")

    evaluator.transform = tracer.span("laplace.transform", evaluator.transform, transform_exit)
    evaluator.find_pole = tracer.span("laplace.find_pole", evaluator.find_pole, pole_exit)

    # slepian (covariance r/dr/one_minus_r2 run only inside e0) ---------------
    def e0_exit(log, frame, dt, args, kwargs, result):
        t = args[1] if len(args) > 1 else kwargs["t"]
        log.counts["e0.points"] += 1 if isinstance(t, float) else np.size(t)

    slepian.e0 = tracer.span("slepian.e0", slepian.e0, e0_exit)
    slepian.validate_iia = tracer.span("slepian.validate_iia", slepian.validate_iia)

    # persistency -----------------------------------------------------------
    def fit_exit(log, frame, dt, args, kwargs, result):
        log.counts["tail.samples"] += np.size(args[0] if args else kwargs["samples"])

    persistency.tail_exponent = tracer.span("persistency.tail_exponent", persistency.tail_exponent, fit_exit)

    # with a thread pool the calling thread waits inside tail_exponent_ci; the
    # span keeps that wait out of the caller's self time
    ci = tracer.span("persistency.tail_exponent_ci", persistency.tail_exponent_ci)

    @functools.wraps(persistency.tail_exponent_ci)
    def traced_ci(sampler, n, k, reps, rng, threads=1):
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            return ci(sampler, n, k, reps, rng, threads=threads)
        finally:
            counts = tracer.log().counts
            counts["ci.cpu_seconds"] += time.process_time() - cpu0
            counts["ci.thread_seconds"] += (time.perf_counter() - t0) * max(1, int(threads))

    persistency.tail_exponent_ci = traced_ci

    # switching -------------------------------------------------------------
    for name in ("estimate_expectation", "estimate_stationary_covariance"):
        setattr(switching, name, tracer.span("switching.estimate", getattr(switching, name)))

    def with_traced_size_biased(factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            dist = factory(*args, **kwargs)
            if dist.size_biased_draw is None:
                return dist
            slug = model_slug(dist.label)

            def sb_exit(log, frame, dt, a, kw, result):
                log.counts[f"sb_draws.{slug}"] += frame.get("divisor_draws")
                log.counts[f"sb_accepted.{slug}"] += _size(a[1] if len(a) > 1 else kw.get("size"))

            sb = tracer.span("switching.size_biased", dist.size_biased_draw, sb_exit)
            return dataclasses.replace(dist, size_biased_draw=sb)

        return traced_factory

    for name in [n for n in vars(switching) if n.endswith("_switching")]:
        setattr(switching, name, with_traced_size_biased(getattr(switching, name)))

    # cli -------------------------------------------------------------------
    cli.main = tracer.span("cli", cli.main)
