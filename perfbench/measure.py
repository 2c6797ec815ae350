"""One benchmark run: set-up, timed phases, correctness checks and metrics."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from tracing import SPAN_NAMES, Tracer, per_layer_metric_units
from workloads import WORKLOADS, Call

SETUP_REPEATS = 3  # set-up is repeated and its median reported
P90_MIN_CALLS = 100  # run_ms_p90 needs ten samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "iter_us_p50": "us",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    cycles: list[list[Call]]
    wall_s: float

    @property
    def calls(self) -> list[Call]:
        return [call for cycle in self.cycles for call in cycle]

    def run_ms(self) -> list[float]:
        return [c.wall_ms for c in self.calls if math.isfinite(c.wall_ms)]

    def iter_us(self) -> list[float]:
        return [c.wall_ms * 1e3 / c.iterations for c in self.calls if c.iterations]


@dataclass
class Measured:
    """What one mode of the run measured."""

    metrics: dict  # the JSON metrics: name -> value
    units: dict
    phases: list[Phase]
    problems: list[str]  # failed determinism checks
    # Figures printed and saved beside the metrics: name -> (value, unit, samples).
    report: dict = field(default_factory=dict)
    tracer: Tracer | None = None


@dataclass
class Result:
    summary: dict  # the last output line
    full: dict  # summary plus environment, extra figures and checks
    lines: list[str]  # human-readable report
    tracer: Tracer | None


def timed(workload, state: dict, seconds: float, jobs: int) -> Phase:
    """Closed loop: whole cycles, back to back, until ``seconds`` have passed."""
    cycles = []
    t0 = time.perf_counter()
    while True:
        cycles.append([call for step in workload.steps(state, jobs) for call in step()])
        if time.perf_counter() - t0 >= seconds:
            return Phase(cycles, time.perf_counter() - t0)


def timed_pairs(workload, state: dict, traced_state: dict, seconds: float,
                tracer: Tracer) -> tuple[Phase, Phase]:
    """Like :func:`timed` with one job, but every step runs twice in a row,
    untraced and then traced, so both sides see the same machine load."""
    untraced, traced = Phase([], 0.0), Phase([], 0.0)
    while True:
        untraced.cycles.append([])
        traced.cycles.append([])
        for plain, instrumented in zip(workload.steps(state, 1),
                                       workload.steps(traced_state, 1)):
            t0 = time.perf_counter()
            untraced.cycles[-1] += plain()
            untraced.wall_s += time.perf_counter() - t0
            with tracer:
                t0 = time.perf_counter()
                traced.cycles[-1] += instrumented()
                traced.wall_s += time.perf_counter() - t0
        if untraced.wall_s >= seconds:
            return untraced, traced


def determinism_problems(reference: list[Call], warmups: list[Call],
                         phases: list[Phase]) -> list[str]:
    """Every call must repeat the fingerprint of its config in ``reference``."""
    expected = {c.config: c.fingerprint for c in reference}
    problems = []
    for label, calls in [("warm-up", warmups)] + [
        (f"phase {i}", p.calls) for i, p in enumerate(phases)
    ]:
        for call in calls:
            if call.fingerprint != expected.get(call.config):
                problems.append(f"{label}: call {call.config} differs from its first result")
    return problems


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int, blas_thread_vars: tuple[str, ...]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {v: os.environ.get(v) for v in blas_thread_vars},
        "nproc": nproc,
        "cpu_model": cpu_model(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, seed: int, seconds: float, jobs: int, import_s: float) -> Measured:
    setup_times, warmups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        warmups.append(workload.warmup(state))
        setup_times.append(time.perf_counter() - t0)
    phase = timed(workload, state, seconds, jobs)
    run_ms, iter_us = phase.run_ms(), phase.iter_us()
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "runs_per_s": len(phase.calls) / phase.wall_s,
        "run_ms_p50": statistics.median(run_ms) if run_ms else None,
        "iter_us_p50": statistics.median(iter_us) if iter_us else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    # Accuracy over the distinct calls of one cycle. It is deterministic for
    # a seed but varies across seeds far beyond any bound the metrics may
    # have, because some calls return a wrong model; so it is reported here,
    # and wrong models are gated through ``failed``.
    errors = [c.error_px for c in phase.cycles[0] if math.isfinite(c.error_px)]
    report = {
        "setup_s": (metrics["setup_s"], "s", SETUP_REPEATS),
        "runs_per_s": (metrics["runs_per_s"], "1/s", len(phase.calls)),
        "run_ms_p50": (metrics["run_ms_p50"], "ms", len(run_ms)),
        "iter_us_p50": (metrics["iter_us_p50"], "us", len(iter_us)),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", 1),
        "error_px_mean": (statistics.fmean(errors) if errors else None, "px", len(errors)),
        "import_s": (import_s, "s", 1),
        "timed_s": (phase.wall_s, "s", len(phase.cycles)),
    }
    if len(run_ms) >= P90_MIN_CALLS:
        report["run_ms_p90"] = (float(np.percentile(run_ms, 90)), "ms", len(run_ms))
    return Measured(metrics, END_TO_END_UNITS, [phase],
                    determinism_problems(phase.cycles[0], warmups, [phase]), report)


def per_layer(workload, seed: int, seconds: float, jobs: int) -> Measured:
    # Spans recorded in pool workers do not come back, so the traced phase
    # and its untraced twin run with one job; the pool efficiency comes from
    # a third, untraced phase with the workload's own job count. The traced
    # workload is its own set-up (synthesis, text round trip) plus its steps.
    state = workload.setup(seed)
    warmups = [workload.warmup(state)]
    pool = timed(workload, state, seconds, jobs) if jobs > 1 else None
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced_state = workload.setup(seed)
        setup_wall = time.perf_counter() - t0
    untraced, traced = timed_pairs(workload, state, traced_state, seconds, tracer)
    traced_wall = setup_wall + traced.wall_s
    phases = [untraced, traced] + ([pool] if pool else [])

    metrics = tracer.layer_metrics(traced_wall)
    base = jobs * pool.wall_s if pool else 0.0
    metrics["bench.pool_efficiency"] = sum(pool.run_ms()) / 1e3 / base if pool else 0.0
    metrics["bench.pool_efficiency.base"] = base
    traced_p50 = statistics.median(traced.run_ms())
    untraced_p50 = statistics.median(untraced.run_ms())
    metrics["trace.overhead"] = traced_p50 / untraced_p50
    report = {
        "traced_run_ms_p50": (traced_p50, "ms", len(traced.calls)),
        "untraced_run_ms_p50": (untraced_p50, "ms", len(untraced.calls)),
        "traced_wall_s": (traced_wall, "s", len(tracer.start)),
        "self_share_sum": (sum(metrics[f"{s}.self_share"] for s in SPAN_NAMES), "ratio",
                           len(SPAN_NAMES)),
    }
    return Measured(metrics, per_layer_metric_units(), phases,
                    determinism_problems(untraced.cycles[0], warmups, phases), report, tracer)


def stress_check(workload: str, m: dict) -> str:
    """Whether the traced run shows the share the workload was chosen for."""
    if workload == "hyp-bound":
        hyp = sum(m[f"ransac.{s}.share"] for s in ("draw_minimal_sample", "minimal_solve", "score"))
        lo = m["ransac.local_optimize.share"]
        ok = hyp >= 0.8 and lo <= 0.05
        text = f"sample+solve+score share {hyp:.3f} >= 0.8, local_optimize share {lo:.3f} <= 0.05"
    elif workload == "lo-sweep":
        lo = m["ransac.local_optimize.share"]
        ok = lo >= 0.3
        text = f"local_optimize share {lo:.3f} >= 0.3"
    else:
        below_root = [s for s in SPAN_NAMES if s.startswith("ransac.") and s != "ransac.run_ransac"]
        top = max(below_root, key=lambda s: m[f"{s}.share"])
        ok = top == "ransac.score"
        text = f"largest ransac share below the root is {top} ({m[top + '.share']:.3f})"
    return f"stress check {'PASS' if ok else 'MISS'}: {text}"


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        blas_thread_vars: tuple[str, ...]) -> Result:
    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    jobs = min(workload.max_jobs, nproc)
    env = environment(nproc, blas_thread_vars)
    env["jobs"] = jobs
    env["loadavg_1m_start"] = os.getloadavg()[0]
    if trace:
        m = per_layer(workload, seed, seconds, jobs)
    else:
        m = end_to_end(workload, seed, seconds, jobs, import_s)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    calls = [c for p in m.phases for c in p.calls]
    failures = sorted({c.failure for c in calls if c.failure is not None})
    failed = sum(c.failure is not None for c in calls)
    summary = {
        "correct": not m.problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": m.units[k]} for k, v in m.metrics.items()},
    }
    m.report["fail_rate"] = (failed / len(calls), "ratio", len(calls))

    lines = [f"workload {name} seed {seed} trace {int(trace)} jobs {jobs}"]
    lines += [f"{k} = {_fmt(v)} {m.units[k]}" for k, v in m.metrics.items() if k not in m.report]
    lines += [f"{k} = {_fmt(v)} {unit}  (n={n})" for k, (v, unit, n) in m.report.items()]
    lines += [f"failure: {reason}" for reason in failures]
    if trace:
        lines.append(stress_check(name, m.metrics))
    lines += [f"determinism: {p}" for p in m.problems] or ["determinism: all repeats identical"]

    full = {**summary, "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "env": env, "report": {k: {"value": v, "unit": u, "n": n}
                                   for k, (v, u, n) in m.report.items()},
            "failures": failures, "determinism_problems": m.problems}
    json.dumps(full)  # fail here, not after printing, if anything is not serializable
    return Result(summary, full, lines, m.tracer)
