"""Alternating parent/change benchmark pairs, summarized into one JSON file.

Run from the root of a checkout::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH.json

``--parent`` and ``--change`` each name a git revision; each is exported
with ``git archive`` into ``--workdir`` (the committed files only, as a fresh
clone would have them), and the report records its commit hash and the tree
hashes of ``src`` and ``perfbench``. The workloads and the run length come
from the change's ``BENCHMARK.json``. Each of the 10 pairs runs
``perfbench/run.py`` once on each side with the same workload and seed
(301-310); the side that runs first alternates from pair to pair, so a drift
in machine speed falls on both. Seeds run outer and workloads inner, for the
same reason. ``hyp-bound`` also gets one pair on the confirmation seed
20261017. Then each side runs the tier-1 suite once, for its wall time and
the time of ``test_c8_threshold_sensitivity``.

The output holds, per workload and end-to-end metric: each side's median
and IQR/median, the change/parent ratio of the medians, how many pairs the
change won (ties count for neither side) and a verdict (``gain``,
``regressed`` or ``neutral``, see ``summarize``); per pair: each side's
``failed``, ``attempted``, ``correct`` and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

PAIRS = 10
FIRST_SEED = 301
CONFIRMATION = ("hyp-bound", 20261017)
C8 = "tests/test_acceptance.py::test_c8_threshold_sensitivity"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(revision: str, dest: Path) -> tuple[Path, dict]:
    """Revision exported into ``dest``, and the hashes that identify it."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=False)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    ident = {"revision": revision, "commit": commit,
             "src_tree": git("rev-parse", f"{commit}:src"),
             "perfbench_tree": git("rev-parse", f"{commit}:perfbench")}
    return dest.resolve(), ident


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its final JSON line plus its wall time."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_s": round(time.perf_counter() - t0, 1),
    }


def pair(roots: dict, workload: str, seed: int, seconds: float, parent_first: bool) -> dict:
    order = ("parent", "change") if parent_first else ("change", "parent")
    runs = {side: bench(roots[side], workload, seed, seconds) for side in order}
    print(f"{workload} seed {seed}: " + ", ".join(
        f"{side} run_ms_p50 {runs[side]['metrics']['run_ms_p50']:.1f} failed "
        f"{runs[side]['failed']}/{runs[side]['attempted']}" for side in order), flush=True)
    return {"seed": seed, "first": order[0], **runs}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (``name``, ``better``,
    ``bound``): each side's median and IQR/median, the change/parent ratio,
    the change's wins and a verdict. ``gain``: the change wins at least 9 of
    10 pairs and the medians differ, in its favour, by more than the parent's
    IQR. ``regressed``: the change's median is worse than the parent's by
    more than ``bound`` times the parent's median. Otherwise ``neutral``."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        p = [r["parent"]["metrics"][name] for r in pairs]
        c = [r["change"]["metrics"][name] for r in pairs]
        p_med, p_iqr = spread(p)
        c_med, c_iqr = spread(c)
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
        improvement = sign * (p_med - c_med)
        if 10 * wins >= 9 * len(pairs) and improvement > p_iqr:
            verdict = "gain"
        elif -improvement > metric["bound"] * abs(p_med):
            verdict = "regressed"
        else:
            verdict = "neutral"
        out[name] = {
            "parent_median": p_med,
            "parent_iqr_over_median": round(p_iqr / p_med, 4) if p_med else 0.0,
            "change_median": c_med,
            "change_iqr_over_median": round(c_iqr / c_med, 4) if c_med else 0.0,
            "ratio": round(c_med / p_med, 4) if p_med else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "verdict": verdict,
        }
    return out


def tier1(root: Path) -> dict:
    """Tier-1 suite: wall time, pass/fail counts and the c8 test's time."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    wall = time.perf_counter() - t0
    summary = out.stdout.strip().splitlines()[-1]
    c8 = re.search(r"([\d.]+)s call\s+" + re.escape(C8), out.stdout)
    return {
        "wall_s": round(wall, 1),
        "summary": summary,
        "exit_code": out.returncode,
        "c8_s": float(c8.group(1)) if c8 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workdir", type=Path, default=Path(".bench_pairs"),
                    help="where revisions are exported; must not exist yet")
    args = ap.parse_args(argv)

    roots, idents = {}, {}
    for side in ("parent", "change"):
        roots[side], idents[side] = checkout(getattr(args, side), args.workdir / side)
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    pairs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(PAIRS):
        for w in workloads:
            pairs[w].append(pair(roots, w, FIRST_SEED + i, seconds, i % 2 == 0))
    results = {w: {"summary": summarize(pairs[w], spec["end_to_end"]), "pairs": pairs[w]}
               for w in workloads}
    w, seed = CONFIRMATION
    confirmation = {"workload": w, **pair(roots, w, seed, seconds, True)}
    confirmation["ratios"] = {
        name: round(confirmation["change"]["metrics"][name]
                    / confirmation["parent"]["metrics"][name], 4)
        for name in (m["name"] for m in spec["end_to_end"])
    }

    report = {
        "command": " ".join([Path(sys.argv[0]).name] + (argv or sys.argv[1:])),
        "parent": idents["parent"],
        "change": idents["change"],
        "seconds": seconds,
        "seeds": [FIRST_SEED, FIRST_SEED + PAIRS - 1],
        "environment": {
            "python": platform.python_version(),
            "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                    capture_output=True, text=True).stdout.strip(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "workloads": results,
        "confirmation": confirmation,
        "tier1": {side: tier1(roots[side]) for side in ("parent", "change")},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
