"""Per-layer tracing of cdf_mise, installed from the benchmark's side.

The tracer replaces the public functions of each cdf_mise module (and
the callables that target and kernel descriptors carry) by wrappers that
time every call.  Every module attribute bound to the same function
object is replaced, so calls between modules are seen too, and
`uninstall()` puts the originals back.

Layers are the package's modules: numerics, distributions, kernels,
mise, bandwidth, estimator, cli and charts.  A span's self time is its
duration minus the time of the spans it encloses; self times are summed
per layer online with a stack, so nothing per call has to be kept for
them.  Spans at coarse boundaries (CLI commands, searches, Monte Carlo
cells, mise() calls, ISE replications) are kept in memory and written
out by `write()` at the end; the hot leaves (characteristic functions,
kernel transforms, integrands, special functions) are aggregated into
call, point and time counters instead, which keeps both memory and the
tracer's own cost bounded.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numerics", "distributions", "kernels", "mise", "bandwidth",
          "estimator", "cli", "charts")
MISE_ROUTES = ("h0", "linear_segment", "closed_form_normal_normal",
               "closed_form_normal_sinc", "sinc_fourier", "fourier")
FOURIER_ROUTES = ("sinc_fourier", "fourier")
ISE_KINDS = ("empirical", "normal", "trapezoidal", "sinc")
KEPT_SPANS = ("cli", "bandwidth.search", "bandwidth.efficiency_curve",
              "estimator.cell", "estimator.ise", "estimator.draw_sample", "mise.call")


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Installs timing wrappers into cdf_mise and turns them into metrics."""

    def __init__(self):
        self.stack = [[0.0, None]]  # [child time, kept-span id] per open span
        self.active = Counter()     # open spans per name, for outermost totals
        self.patches = []
        self.reset()
        self.mods = {name: importlib.import_module(f"cdf_mise.{name}") for name in LAYERS}
        self.package = importlib.import_module("cdf_mise")

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up, say)."""
        self.stack[0][0] = 0.0
        self.totals = defaultdict(float)
        self.calls = Counter()
        self.points = Counter()
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.spans = []
        self.wrapped_calls = 0

    # -- span recording ---------------------------------------------------

    def span(self, name: str, fn, points=None, keep_durations=False,
             on_enter=None, on_exit=None):
        """Wrap fn so that each call is a span called `name`.

        points(*args) counts the work of one call; on_enter() returns a
        value handed to on_exit(args, result, dt, value) after the call.
        """
        layer = name.split(".")[0]
        keep = name.startswith(KEPT_SPANS)
        stack, active = self.stack, self.active

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            if keep:
                frame[1] = len(self.spans)
                self.spans.append([name, stack[-1][1], 0.0, 0.0])
            stack.append(frame)
            active[name] += 1
            entered = on_enter() if on_enter is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                active[name] -= 1
                stack[-1][0] += dt
                self.self_time[layer] += dt - frame[0]
                self.calls[name] += 1
                self.wrapped_calls += 1
                outer = not active[name]
                if outer:
                    self.totals[name] += dt
                if keep:
                    self.spans[frame[1]][2:] = (t0, t1)
            if points is not None and outer:
                self.points[name] += points(*args, **kwargs)
            if keep_durations:
                self.durations[name].append(dt)
            if on_exit is not None:
                on_exit(args, result, dt, entered)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span, from the benchmark's side."""
        return self.span(name, fn, keep_durations=True)(*args, **kwargs)

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for mod in (self.package, *self.mods.values()):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.patches.append((mod, attr, original))

    def _wrap_function(self, module: str, attr: str, name: str, **kw) -> None:
        original = getattr(self.mods[module], attr)
        self._replace(original, self.span(name, original, **kw))

    def install(self) -> None:
        m = self.mods

        # numerics: integrate (with its integrand counted and timed in the
        # layer that wrote the integrand), fixed panels, special functions.
        integrate = m["numerics"].integrate

        def integrate_traced(f, lower, upper, *args, **kwargs):
            layer = f.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                layer = "numerics"
            counted = self.span(f"{layer}.integrand", f)
            before = self.calls[f"{layer}.integrand"]
            try:
                return integrate(counted, lower, upper, *args, **kwargs)
            finally:
                self.calls["numerics.integrand.evals"] += (
                    self.calls[f"{layer}.integrand"] - before)

        self._replace(integrate, self.span("numerics.integrate", integrate_traced))
        self._wrap_function("numerics", "gauss_panels", "numerics.panels",
                            points=lambda fvec, edges, *a, **k: 7 * (len(edges) - 1))
        self._wrap_function("numerics", "gauss_kronrod_panels", "numerics.panels",
                            points=lambda fvec, edges, *a, **k: 15 * (len(edges) - 1))
        for attr in ("sine_integral", "std_normal_cdf"):
            self._wrap_function("numerics", attr, "numerics.special",
                                points=lambda x, *a, **k: _size(x))

        # distributions: descriptors carry their cf, cdf and sampler.
        def traced_dist(dist):
            if hasattr(dist.cf, "__wrapped__"):
                return dist
            return dataclasses.replace(
                dist,
                cf=self.span("distributions.cf", dist.cf, points=lambda t: _size(t)),
                cdf=self.span("distributions.cdf", dist.cdf, points=lambda x: _size(x)))

        for attr in ("make_jdlvp", "make_normal"):
            original = getattr(m["distributions"], attr)
            self._replace(original, self._post(original, traced_dist))
        self._wrap_function("distributions", "sample", "distributions.sample")

        # kernels: descriptors carry ft and the integrated kernel K.
        def traced_kernel(kernel):
            if hasattr(kernel.ft, "__wrapped__"):
                return kernel
            return dataclasses.replace(
                kernel,
                ft=self.span("kernels.ft", kernel.ft, points=lambda t: _size(t)),
                integrated_fn=self.span("kernels.integrated", kernel.integrated_fn,
                                        points=lambda x: _size(x)))

        original = m["kernels"].kernel_by_name
        self._replace(original, self._post(original, traced_kernel))

        # mise: route mix, per-call latency, integrand evaluations per call.
        def mise_exit(args, report, dt, evals_before):
            route = "h0" if report.h == 0.0 else report.method
            self.calls[f"mise.route.{route}"] += 1
            self.totals[f"mise.route.{route}"] += dt
            if route in FOURIER_ROUTES:
                self.calls["mise.fourier.evals"] += (
                    self.calls["numerics.integrand.evals"] - evals_before)
                self.calls["mise.fourier.calls"] += 1

        self._wrap_function("mise", "mise", "mise.call", keep_durations=True,
                            on_enter=lambda: self.calls["numerics.integrand.evals"],
                            on_exit=mise_exit)

        # bandwidth: searches and the mise() calls each one spends.
        def search_exit(args, result, dt, mise_calls_before):
            self.calls["bandwidth.search.mise_calls"] += (
                self.calls["mise.call"] - mise_calls_before)

        self._wrap_function("bandwidth", "optimal_bandwidth", "bandwidth.search",
                            keep_durations=True, on_enter=lambda: self.calls["mise.call"],
                            on_exit=search_exit)
        self._wrap_function("bandwidth", "efficiency_curve", "bandwidth.efficiency_curve")

        # estimator: sampling, F_nh evaluation, ISE by kind, Monte Carlo cells.
        self._wrap_function("estimator", "draw_sample", "estimator.draw_sample")

        def ecdf_points(sample, kernel, h, x):
            return _size(x) * sample.n if h > 0.0 else 0

        self._wrap_function("estimator", "estimate_cdf", "estimator.estimate_cdf",
                            points=ecdf_points)

        def ise_exit(args, result, dt, _):
            sample, kernel, h = args[:3]
            kind = "empirical" if h == 0.0 else kernel.name
            self.totals[f"estimator.ise.{kind}"] += dt

        self._wrap_function("estimator", "ise", "estimator.ise", keep_durations=True,
                            on_exit=ise_exit)
        self._wrap_function("estimator", "monte_carlo_mise", "estimator.cell",
                            keep_durations=True)

        # cli and charts: file writes and SVG rendering.
        self._wrap_function("cli", "_write_csv", "cli.write")
        self._wrap_function("cli", "_write_atomic", "cli.write")
        self._wrap_function("charts", "line_chart", "charts.svg")

    def _post(self, fn, transform):
        def wrapper(*args, **kwargs):
            return transform(fn(*args, **kwargs))
        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches.clear()

    # -- output -----------------------------------------------------------

    def metrics(self, wall_s: float, setup: dict, pool_overhead_s: float,
                ops_per_s: float) -> dict:
        """Every per-layer metric, by name, as (value, unit)."""
        c, t, p, d = self.calls, self.totals, self.points, self.durations

        def pct(name, q, scale):
            xs = sorted(d[name])
            if not xs:
                return 0.0
            if q == 50:
                return statistics.median(xs) * scale
            # the 99th percentile needs ten samples beyond it
            return xs[int(0.99 * len(xs))] * scale if len(xs) >= 1000 else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "numerics.integrate.calls": (c["numerics.integrate"], "count"),
            "numerics.integrand.evals": (c["numerics.integrand.evals"], "count"),
            "numerics.integrate.s": (t["numerics.integrate"], "s"),
            "numerics.panels.nodes": (p["numerics.panels"], "count"),
            "numerics.panels.s": (t["numerics.panels"], "s"),
            "numerics.special.s": (t["numerics.special"], "s"),
            "distributions.cf.calls": (c["distributions.cf"], "count"),
            "distributions.cf.points": (p["distributions.cf"], "count"),
            "distributions.cf.s": (t["distributions.cf"], "s"),
            "distributions.cdf.points": (p["distributions.cdf"], "count"),
            "distributions.cdf.s": (t["distributions.cdf"], "s"),
            "distributions.sample.s": (t["distributions.sample"], "s"),
            "kernels.ft.calls": (c["kernels.ft"], "count"),
            "kernels.ft.points": (p["kernels.ft"], "count"),
            "kernels.ft.s": (t["kernels.ft"], "s"),
            "kernels.integrated.points": (p["kernels.integrated"], "count"),
            "kernels.integrated.s": (t["kernels.integrated"], "s"),
            "mise.calls": (c["mise.call"], "count"),
            "mise.s": (t["mise.call"], "s"),
            "mise.call_p50_us": (pct("mise.call", 50, 1e6), "us"),
            "mise.call_p99_us": (pct("mise.call", 99, 1e6), "us"),
        }
        for route in MISE_ROUTES:
            out[f"mise.route.{route}.calls"] = (c[f"mise.route.{route}"], "count")
            out[f"mise.route.{route}.s"] = (t[f"mise.route.{route}"], "s")
        out.update({
            "mise.integrand_evals_per_call": (
                ratio(c["mise.fourier.evals"], c["mise.fourier.calls"]), "ratio"),
            "bandwidth.searches": (c["bandwidth.search"], "count"),
            "bandwidth.search.s": (t["bandwidth.search"], "s"),
            "bandwidth.search_p50_s": (pct("bandwidth.search", 50, 1.0), "s"),
            "bandwidth.efficiency_curve.s": (t["bandwidth.efficiency_curve"], "s"),
            "bandwidth.mise_calls_per_search": (
                ratio(c["bandwidth.search.mise_calls"], c["bandwidth.search"]), "ratio"),
            "estimator.draw_sample.s": (t["estimator.draw_sample"], "s"),
            "estimator.ise.s": (t["estimator.ise"], "s"),
        })
        for kind in ISE_KINDS:
            out[f"estimator.ise.{kind}.s"] = (t[f"estimator.ise.{kind}"], "s")
        out.update({
            "estimator.ise.calls": (c["estimator.ise"], "count"),
            "estimator.ise_p50_ms": (pct("estimator.ise", 50, 1e3), "ms"),
            "estimator.estimate_cdf.points": (p["estimator.estimate_cdf"], "count"),
            "estimator.estimate_cdf.bytes": (8 * p["estimator.estimate_cdf"], "B"),
            "estimator.cell_p50_s": (pct("estimator.cell", 50, 1.0), "s"),
            "estimator.pool.overhead_s": (pool_overhead_s, "s"),
        })
        for command in ("figure2", "figure3", "optimal-bandwidth", "mc-validate"):
            out[f"cli.{command}.s"] = (t[f"cli.{command}"], "s")
        out["cli.write.s"] = (t["cli.write"], "s")
        out["charts.svg.s"] = (t["charts.svg"], "s")
        out["setup.import_s"] = (setup["import_s"], "s")
        out["setup.tables_s"] = (setup["tables_s"], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        out["bench.self_s"] = (max(0.0, wall_s - self.stack[0][0]), "s")
        out["trace.ops_per_s"] = (ops_per_s, "1/s")
        out["trace.wrapped_calls"] = (self.wrapped_calls, "count")
        return out

    def write(self, path) -> None:
        """Kept spans as JSON lines, then one line of aggregated counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls), "points": dict(self.points),
                                 "totals": dict(self.totals),
                                 "self_s": dict(self.self_time)}) + "\n")
