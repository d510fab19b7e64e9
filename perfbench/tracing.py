"""Layer-boundary spans for one benchmark child process, and the per-layer
metrics derived from them.

Tracing is installed from the benchmark's own files: every public function
that one ``fracmotion`` module imports from another is replaced, in the
importing module's namespace only, by a wrapper that records a span.  Calls
inside a module keep their direct binding and stay unwrapped.  Three kinds of
boundary are not plain imports and are wrapped explicitly:

- the callables that ``planar_law`` and ``line_law`` hand out
  (``PlanarLaw.ac_density``, ``LineLaw.density``), which the CLI and the
  verify layer call once per point;
- the public methods of ``CountDistribution``, whose objects cross from the
  counting layer into motion (``sample``) and densities (``pmf``);
- ``fracmotion.motion.endpoint_arrays``, which the verify suite imports
  lazily inside ``run_default_suite``.

The six checks of the default verify suite are also wrapped in the verify
namespace so that their times can be reported; their spans belong to the
verify layer, so layer self time is unaffected.

A span is ``(name, start_ns, end_ns, parent)``; its layer is the first
component of its name.  Spans stay in memory and are written once, at the
end of the process, tagged with the child's run id.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import statistics
import time
from collections import Counter
from pathlib import Path

LAYERS = ("specfun", "counting", "motion", "densities", "verify", "cli")

VERIFY_CHECKS = (
    "law_agreement",
    "mc_gof",
    "empirical_cf",
    "eigenfunction_residual",
    "telegraph_residual",
    "pgf_ode_residual",
)

# Per-point density evaluators, keyed by the law name used in the metrics.
POINT_SPANS = {
    "planar": "densities.planar",
    "planar-const": "densities.planar_density_const_rate",
    "line": "densities.line",
    "line-classical": "densities.classical_line_density",
    "flight": "densities.flight_unconditional",
    "mixture": "densities.mixture_density",
}

SPAN_FIELDS = ("run_id", "index", "parent", "name", "start_ns", "end_ns")


class Tracer:
    """In-memory span recorder for one process (no threads)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._tables: dict = {}

    def wrap(self, name, fn, post=None):
        """Return ``fn`` recording a span called ``name`` per call.

        ``post(index, result)`` runs after the span has closed and returns
        the value handed to the caller.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if post is not None:
                result = post(index, result)
            return result

        return traced

    def table_builder(self, fn):
        """Wrap ``count_distribution``: a call that hands out a table object
        not seen before built it (the function is an lru_cache), and its
        span is renamed ``counting.table_build``."""

        def post(index, dist):
            if id(dist) not in self._tables:
                self._tables[id(dist)] = dist
                name, start, end, parent = self.spans[index]
                self.spans[index] = ("counting.table_build", start, end, parent)
            return dist

        return self.wrap("counting.count_distribution", fn, post)

    def support_size(self) -> int:
        """Largest support among the tables built (tables grow on demand)."""
        return max((d.support_size for d in self._tables.values()), default=0)

    def write(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SPAN_FIELDS)
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((self.run_id, index, parent, name, start, end))


def install(tracer: Tracer, fm: dict) -> None:
    """Wrap every cross-module boundary of the imported package ``fm``
    (module short name -> module object)."""
    owner = {m.__name__: short for short, m in fm.items()}

    def layer_of(obj):
        return owner.get(getattr(obj, "__module__", None))

    def traced(layer, attr, fn):
        if attr == "count_distribution":
            return tracer.table_builder(fn)
        if attr == "planar_law":
            return tracer.wrap("densities.planar_law", fn, post=lambda _, law: dataclasses.replace(
                law, ac_density=tracer.wrap("densities.planar", law.ac_density)))
        if attr == "line_law":
            return tracer.wrap("densities.line_law", fn, post=lambda _, law: dataclasses.replace(
                law, density=tracer.wrap("densities.line", law.density)))
        if attr == "endpoint_arrays":
            def count_rows(_, cols):
                tracer.counters["motion.rows"] += int(cols.n.size)
                tracer.counters["motion.segments"] += int(cols.n.sum()) + int(cols.n.size)
                return cols

            return tracer.wrap("motion.endpoint_arrays", fn, post=count_rows)
        return tracer.wrap(f"{layer}.{attr}", fn)

    for short in ("counting", "densities", "motion", "verify", "cli"):
        module = fm[short]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            layer = layer_of(obj)
            if layer is not None and layer != short:
                setattr(module, attr, traced(layer, attr, obj))

    motion = fm["motion"]
    motion.endpoint_arrays = traced("motion", "endpoint_arrays", motion.endpoint_arrays)
    verify = fm["verify"]
    for check in VERIFY_CHECKS:
        setattr(verify, check, tracer.wrap(f"verify.{check}", getattr(verify, check)))
    dist_cls = fm["counting"].CountDistribution
    for method in ("sample", "sample_many", "pmf", "cdf"):
        setattr(dist_cls, method, tracer.wrap(f"counting.{method}", getattr(dist_cls, method)))


def read_spans(path: Path) -> list:
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [(name, int(start), int(end), int(parent))
                for _run, _index, parent, name, start, end in rows]


def _quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(spans: list, counters: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced process, plus the per-point
    durations (microseconds) of each density law for pooling across
    processes."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s = Counter()
    total_s = Counter()
    calls = Counter()
    layer_calls = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        dur = (end - start) * 1e-9
        own = dur - child_ns[index] * 1e-9
        layer = name.split(".", 1)[0]
        self_s[layer] += own
        self_s[name] += own
        total_s[name] += dur
        calls[name] += 1
        layer_calls[layer] += 1

    def per_call_us(name):
        return total_s[name] / calls[name] * 1e6 if calls[name] else 0.0

    def per_s(count, name):
        return counters.get(count, 0) / total_s[name] if total_s[name] else 0.0

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for fn in ("log_gamma_pos", "log_mittag_leffler", "wright_series"):
        m[f"specfun.{fn}.calls"] = calls[f"specfun.{fn}"]
        m[f"specfun.{fn}.us_per_call"] = per_call_us(f"specfun.{fn}")
    for fn in ("mittag_leffler", "bessel_j"):
        m[f"specfun.{fn}.calls"] = calls[f"specfun.{fn}"]
    m["counting.table_builds"] = calls["counting.table_build"]
    m["counting.table_build_s"] = total_s["counting.table_build"]
    m["counting.sample_calls"] = calls["counting.sample"]
    m["counting.sample_self_s"] = self_s["counting.sample"]
    m["counting.cumulative_rate.calls"] = calls["counting.cumulative_rate"]
    m["motion.calls"] = layer_calls["motion"]
    m["motion.endpoints_per_s"] = per_s("motion.rows", "motion.endpoint_arrays")
    m["motion.segments_per_s"] = per_s("motion.segments", "motion.endpoint_arrays")
    m["motion.conditioned_endpoints_s"] = total_s["motion.conditioned_endpoints"]
    m["densities.calls"] = layer_calls["densities"]
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = total_s[f"verify.{check}"]
    m["trace.spans"] = len(spans)
    points = {law: [] for law in POINT_SPANS}
    span_law = {span: law for law, span in POINT_SPANS.items()}
    for name, start, end, _parent in spans:
        law = span_law.get(name)
        if law is not None:
            points[law].append((end - start) * 1e-3)
    return m, points


def point_metrics(points: dict) -> dict:
    """p50/p99 of the pooled per-point durations of each density law."""
    m = {}
    for law, durations in points.items():
        m[f"densities.{law}.us_per_point.p50"] = _quantile(durations, 0.50)
        m[f"densities.{law}.us_per_point.p99"] = _quantile(durations, 0.99)
    return m


def median_metrics(per_child: list) -> dict:
    return {key: statistics.median(m[key] for m in per_child) for key in per_child[0]}
