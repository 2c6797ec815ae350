"""Outside-in tracing of robustfit's public functions.

``Tracer.install()`` replaces each traced function in every module namespace
that calls it (``ransac`` imports the solver and geometry functions by name,
``solvers`` and ``subspace`` do the same with ``linalg``, so wrapping only the
defining module would record nothing) and the ``ProblemSetup`` methods on the
class. ``uninstall()`` puts the originals back. The package source is never
edited.

Each span records its name, start, end, parent span and run id (the index
of its top-level span: one ``run_ransac`` call, bench trial or set-up step)
in flat arrays that stay in memory until ``write()``. A span's self time is its
duration minus the time covered by its child spans; spans of one thread
never overlap, so that is the sum of the children's durations.

Counts are taken at the same boundaries: degenerate samples and candidates
per minimal solve, accepted models per run, LO calls that raised the score,
and IRLS iterations through the solvers' existing ``trace=`` list.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array

import robustfit
from robustfit import bench, fileio, linalg, ransac, solvers, subspace, synth
from robustfit.exceptions import DegenerateSampleError, EstimationFailedError

# (span name, function, namespaces whose global lookup reaches it).
FUNCTION_SPANS = (
    ("ransac.run_ransac", ransac.run_ransac, (robustfit, bench)),
    ("ransac.draw_minimal_sample", ransac.draw_minimal_sample, (ransac,)),
    ("ransac.local_optimize", ransac.local_optimize, (ransac,)),
    ("solvers.fundamental_7pt", solvers.fundamental_7pt, (ransac,)),
    ("solvers.homography_4pt", solvers.homography_4pt, (ransac,)),
    ("solvers.dlt_refit", solvers.dlt_refit, (ransac,)),
    ("solvers.rank2_project", solvers.rank2_project, (ransac,)),
    ("linalg.solve_cubic_real", linalg.solve_cubic_real, (solvers,)),
    ("linalg.least_eigvecs", linalg.least_eigvecs, (linalg, subspace)),
    ("geometry.model_residuals", ransac.model_residuals, (ransac, bench)),
    ("geometry.denormalize_model", ransac.denormalize_model, (ransac,)),
    ("subspace.dpcp_irls", subspace.dpcp_irls, (ransac,)),
    ("subspace.dpcp_irls_group", subspace.dpcp_irls_group, (ransac, subspace)),
    ("subspace.huber_irls", subspace.huber_irls, (ransac,)),
    ("bench.run_trial", bench.run_trial, (bench,)),
    ("fileio.correspondences_to_text", fileio.correspondences_to_text, (fileio,)),
    ("fileio.parse_correspondences_text", fileio.parse_correspondences_text, (fileio,)),
    ("fileio.records_to_csv", fileio.records_to_csv, (fileio,)),
    ("synth.synth_dataset", synth.synth_dataset, (synth,)),
)

METHOD_SPANS = (
    ("ransac.ProblemSetup", "__init__"),
    ("ransac.minimal_solve", "minimal_solve"),
    ("ransac.score", "score"),
    ("ransac.refit", "refit"),
)

SPAN_NAMES = tuple(name for name, *_ in FUNCTION_SPANS + METHOD_SPANS)

SPAN_STATS = (("calls", "count"), ("us_p50", "us"), ("share", "ratio"), ("self_share", "ratio"))

# (name, unit) of the counts and ratios taken at the span boundaries.
COUNT_METRICS = (
    ("subspace.irls_iters_mean", "count"),
    ("subspace.irls_iters_max", "count"),
    ("subspace.irls_iters.base", "count"),
    ("ransac.degenerate_ratio", "ratio"),
    ("ransac.degenerate_ratio.base", "count"),
    ("ransac.candidates_per_sample", "ratio"),
    ("ransac.candidates_per_sample.base", "count"),
    ("ransac.hypothesis_yield", "ratio"),
    ("ransac.hypothesis_yield.base", "count"),
    ("ransac.lo_gain_ratio", "ratio"),
    ("ransac.lo_gain_ratio.base", "count"),
    ("ransac.refits_per_lo", "ratio"),
    ("ransac.refits_per_lo.base", "count"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        f"{span}.{stat}": unit for span in SPAN_NAMES for stat, unit in SPAN_STATS
    }
    units.update(COUNT_METRICS)
    units["bench.pool_efficiency"] = "ratio"
    units["bench.pool_efficiency.base"] = "s"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")  # run id: index of the span's top-level ancestor
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.degenerate = 0
        self.candidates = 0
        self.accepted = 0
        self.lo_gains = 0
        self.irls_iters: list[int] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records one span called ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, clock = self._stack, time.perf_counter
        span_name, start, end, parent, run = (
            self.span_name, self.start, self.end, self.parent, self.run
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(stack[0] if stack else idx)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_minimal_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                candidates = fn(*args, **kwargs)
            except DegenerateSampleError:
                self.degenerate += 1
                raise
            self.candidates += len(candidates)
            return candidates

        return wrapper

    def _count_accepted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                report = fn(*args, **kwargs)
            except EstimationFailedError as exc:
                self.accepted += len(exc.report.score_history)
                raise
            self.accepted += len(report.score_history)
            return report

        return wrapper

    def _count_lo_gain(self, fn):
        @functools.wraps(fn)
        def wrapper(scored, *args, **kwargs):
            best = fn(scored, *args, **kwargs)
            self.lo_gains += best.score > scored.score
            return best

        return wrapper

    def _count_irls(self, fn):
        """Pass a fresh ``trace`` list when the caller gave none; its length
        less the initial objective is the iteration count. Nested solver calls
        receive the caller's list, so each refit is counted once."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("trace") is not None:
                return fn(*args, **kwargs)
            objectives: list[float] = []
            bound.arguments["trace"] = objectives
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self.irls_iters.append(len(objectives) - 1)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        counters = {
            "ransac.run_ransac": self._count_accepted,
            "ransac.local_optimize": self._count_lo_gain,
            "subspace.dpcp_irls": self._count_irls,
            "subspace.dpcp_irls_group": self._count_irls,
            "subspace.huber_irls": self._count_irls,
        }
        for name, fn, namespaces in FUNCTION_SPANS:
            inner = counters[name](fn) if name in counters else fn
            wrapped = self.span(name, inner)
            for module in namespaces:
                self._patch(module, fn.__name__, wrapped)
        for name, attr in METHOD_SPANS:
            method = getattr(ransac.ProblemSetup, attr)
            if attr == "minimal_solve":
                method = self._count_minimal_solve(method)
            self._patch(ransac.ProblemSetup, attr, self.span(name, method))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        """Per-span (duration, self time) in seconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[idx]
        return dur, [d - c for d, c in zip(dur, child)]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Span statistics over ``wall_s`` seconds, plus counts and ratios."""
        dur, self_time = self.durations()
        by_name: dict[int, list[int]] = {}
        for idx, nid in enumerate(self.span_name):
            by_name.setdefault(nid, []).append(idx)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            idxs = by_name.get(self._name_ids.get(name, -1), [])
            out[f"{name}.calls"] = len(idxs)
            out[f"{name}.us_p50"] = (
                statistics.median(dur[i] for i in idxs) * 1e6 if idxs else 0.0
            )
            out[f"{name}.share"] = sum(dur[i] for i in idxs) / wall_s
            out[f"{name}.self_share"] = sum(self_time[i] for i in idxs) / wall_s

        def ratio(num: float, base: float) -> float:
            return num / base if base else 0.0

        iters = self.irls_iters
        out["subspace.irls_iters_mean"] = ratio(sum(iters), len(iters))
        out["subspace.irls_iters_max"] = max(iters, default=0)
        out["subspace.irls_iters.base"] = len(iters)
        samples = out["ransac.minimal_solve.calls"]
        lo_calls = out["ransac.local_optimize.calls"]
        for name, num, base in (
            ("ransac.degenerate_ratio", self.degenerate, samples),
            ("ransac.candidates_per_sample", self.candidates, samples),
            ("ransac.hypothesis_yield", self.accepted, self.candidates),
            ("ransac.lo_gain_ratio", self.lo_gains, lo_calls),
            ("ransac.refits_per_lo", out["ransac.refit.calls"], lo_calls),
        ):
            out[name] = ratio(num, base)
            out[f"{name}.base"] = base
        return out

    def write(self, path) -> None:
        """One line per span: run id, span id, parent id, name, start, end (us)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("run\tspan\tparent\tname\tstart_us\tend_us\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"{self.run[idx]}\t{idx}\t{self.parent[idx]}\t"
                    f"{self.names[self.span_name[idx]]}\t"
                    f"{(self.start[idx] - t0) * 1e6:.1f}\t{(self.end[idx] - t0) * 1e6:.1f}\n"
                )
