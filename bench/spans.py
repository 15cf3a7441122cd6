"""Outside-in span recorder for the traced run, and the per-layer metrics.

``SpanRecorder.install`` wraps every public function and public method of
the seven layer modules of ``cstarpow`` and rebinds each wrapped name in every
loaded ``cstarpow.*`` namespace.  The modules import each other's names with
``from .x import y``, so patching only the defining module would miss calls
between modules.  Closures that a layer function returns are wrapped when
they are returned.  Generator functions are left unwrapped: their work runs
lazily inside the caller's span.

A span is ``[name, start, end, parent, rss_rise_kb]``: the parent is the index
of the enclosing span (-1 at top level), and ``rss_rise_kb`` is the growth of
the process's high-water RSS while this span was the innermost one.  Spans
are kept in memory, in parallel arrays of about 36 bytes a span, and written
out when the job ends.  That storage is part of the RSS rise of whatever span
is innermost; the traced run reports how far tracing raised each job's peak
as ``trace.rss_overhead_mb``.

The aggregation functions below run in the benchmark's parent process on the
written spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import statistics
import sys
import time
from array import array

PACKAGE = "cstarpow"
LAYERS = ("linalg", "algebra", "structure", "groups", "crossed",
          "induction", "classify")

# Functions whose inclusive time and call count are reported (the name is
# ``<layer>.<qualified name>``).
FUNCTIONS = (
    "structure.minimal_central_projections",
    "structure.spanned_algebra",
    "structure.commutant",
    "linalg.nullspace",
    "linalg.op_norm",
    "linalg.orthonormal_columns",
    "algebra.tensor_algebra",
    "algebra.power_map",
    "algebra.symmetric_power_basis",
    "algebra.FdCStarAlgebra.embed",
    "algebra.FdCStarAlgebra.multiply",
    "crossed.convolve",
    "crossed.integrated_form",
    "crossed.corner_embedding",
    "crossed.CovariantPair.apply",
    "crossed.GroupAction.fixed_space",
    "induction.induce",
    "induction.commutant_restriction",
    "groups.sn_irrep",
    "groups.young_subgroup",
    "classify.wedderburn_comparison",
    "classify.schur_weyl_rep",
    "classify.schur_weyl_injectivity_check",
    "classify.homogeneous_components",
)

COMMUTANT = "structure.commutant"
NULLSPACE = "linalg.nullspace"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SpanRecorder:
    """Records one span per call of a wrapped layer function."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("I")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.rss_rises = array("q")
        self._stack: list[int] = []
        self._rss = _maxrss_kb()

    def _wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, rises = self.parents, self.rss_rises
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rss = _maxrss_kb()
            if stack:
                rises[stack[-1]] += rss - self._rss
            self._rss = rss
            i = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            rises.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                rss = _maxrss_kb()
                rises[i] += rss - self._rss
                self._rss = rss
                stack.pop()
            return self._wrap_closures(result)

        return functools.update_wrapper(traced, fn)

    def _wrap_closures(self, result):
        """Wrap closures a layer function returns, alone or in a list.

        ``classify`` hands back power maps and their homogeneous components
        as closures; their work is layer work done after the call returns.
        """
        if isinstance(result, list) and result \
                and inspect.isfunction(result[0]):
            return [self._wrap_closures(f) for f in result]
        if inspect.isfunction(result) and "<locals>" in result.__qualname__ \
                and result.__module__.startswith(PACKAGE + "."):
            layer = result.__module__.rsplit(".", 1)[1]
            if layer in LAYERS:
                return self._wrap(result, f"{layer}.{result.__qualname__}")
        return result

    def _wrap_class(self, cls, prefix: str) -> list[str]:
        names = []
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                wrapped = type(value)(self._wrap(value.__func__, name))
            elif isinstance(value, property) and value.fget is not None:
                wrapped = property(self._wrap(value.fget, name), value.fset,
                                   value.fdel, value.__doc__)
            elif inspect.isfunction(value) \
                    and not inspect.isgeneratorfunction(value):
                wrapped = self._wrap(value, name)
            else:
                continue
            setattr(cls, attr, wrapped)
            names.append(name)
        return names

    def install(self) -> list[str]:
        """Wrap the layers' public callables; return the span names."""
        names = []
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") \
                        or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    names.extend(self._wrap_class(value, f"{layer}.{attr}"))
                elif callable(value) and not inspect.isgeneratorfunction(value):
                    replacements[id(value)] = (value,
                                               self._wrap(value, f"{layer}.{attr}"))
                    names.append(f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return names

    def dump(self, path: str, main_s: float, installed: list[str]):
        spans = [[self.names[n], start, end, parent, rise]
                 for n, start, end, parent, rise in zip(
                     self.name_ids, self.starts, self.ends, self.parents,
                     self.rss_rises)]
        with open(path, "w") as fh:
            json.dump({"main_s": main_s, "installed": installed,
                       "spans": spans}, fh)


# ---------------------------------------------------------------------------
# aggregation

def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - _covered(start, end, children.get(i, ()))
            for i, (name, start, end, parent, *_) in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def job_stats(spans) -> dict:
    """Per-layer and per-function totals of one job's spans."""
    stats = {"covered_s": 0.0, "commutant_nullspace": 0}
    for layer in LAYERS:
        stats[f"{layer}.self_s"] = 0.0
        stats[f"{layer}.calls"] = 0
        stats[f"{layer}.rss_rise_kb"] = 0
    for fn in FUNCTIONS:
        stats[f"{fn}.s"] = 0.0
        stats[f"{fn}.calls"] = 0
    tracked = set(FUNCTIONS)
    for i, ((name, start, end, parent, rss_kb), own) in enumerate(
            zip(spans, self_times(spans))):
        layer = layer_of(name)
        stats[f"{layer}.self_s"] += own
        stats[f"{layer}.calls"] += 1
        stats[f"{layer}.rss_rise_kb"] += rss_kb
        if parent < 0:
            stats["covered_s"] += end - start
        elif name == NULLSPACE and spans[parent][0] == COMMUTANT:
            stats["commutant_nullspace"] += 1
        if name in tracked:
            stats[f"{name}.calls"] += 1
            if not _inside_same_name(spans, i):
                stats[f"{name}.s"] += end - start
    return stats


def _inside_same_name(spans, i: int) -> bool:
    """Whether span ``i`` is nested in another span of the same function."""
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def pass_metrics(jobs: list[dict], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload.

    ``jobs`` holds one ``job_stats`` result per job, each with the job's
    traced ``main_s`` and ``rss_overhead_mb`` (traced minus untraced
    high-water RSS) added; ``untraced_s`` is the untraced time of the same
    jobs.  Times and counts are summed over the jobs; RSS figures are the
    largest over the jobs, as peak RSS is.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(j[f"{layer}.self_s"] for j in jobs)
        out[f"{layer}.calls"] = sum(j[f"{layer}.calls"] for j in jobs)
        out[f"{layer}.rss_rise_mb"] = max(
            j[f"{layer}.rss_rise_kb"] for j in jobs) / 1024.0
    for fn in FUNCTIONS:
        out[f"{fn}.s"] = sum(j[f"{fn}.s"] for j in jobs)
        out[f"{fn}.calls"] = sum(j[f"{fn}.calls"] for j in jobs)
    commutants = out[f"{COMMUTANT}.calls"]
    out["structure.nullspace_per_commutant"] = (
        sum(j["commutant_nullspace"] for j in jobs) / commutants
        if commutants else 0.0)
    traced_s = sum(j["main_s"] for j in jobs)
    out["trace.coverage"] = sum(j["covered_s"] for j in jobs) / traced_s
    out["trace.overhead"] = traced_s / untraced_s
    out["trace.rss_overhead_mb"] = max(j["rss_overhead_mb"] for j in jobs)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced passes."""
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.rss_rise_mb"] = "MB"
    for fn in FUNCTIONS:
        units[f"{fn}.s"] = "s"
        units[f"{fn}.calls"] = "count"
    units["structure.nullspace_per_commutant"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    units["trace.rss_overhead_mb"] = "MB"
    return units
