"""Check that two revisions give the same result on every benchmark call,
and report per seed what differs.

Run from the root of a checkout::

    python3 tools/same_results.py --parent HEAD~1 --change HEAD

Each revision is exported with ``bench_pairs``' ``checkout`` (``git archive``
of the committed files) into ``--workdir``. For each seed, each side runs one
cycle of every workload through its own ``perfbench/workloads.py``: the
workload's ``setup(seed)`` and then all of its ``steps(state, 1)``, with one
job and one BLAS thread. A call is its fingerprint (the model bytes, inlier
count and sample digest of a direct call, the masked records-CSV row of a
sweep record), its failure and its validation error.

Every seed runs. Per workload and seed, one line gives the calls whose
fingerprint differs, the failures on each side, and the validation error of
the calls that are finite on both sides: mean and median per side, and how
many of those calls the change made worse and better. The last line is
``SAME`` when every call's config, fingerprint and failure match, with exit
code 0, or ``DIFFERENT`` with the first difference, its workload, seed and
config, and exit code 1.

The default seeds are the benchmark's tuning seed 1, the ``bench_pairs``
seeds 301-310 and the confirmation seed 20261017. They take about five
minutes on a 2-core machine, which keeps this check out of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_SEEDS = (1, *range(301, 311), 20261017)

# Runs inside an exported revision: one JSON line per (seed, workload).
RUNNER = r"""
import json, sys
import workloads
for seed in json.loads(sys.argv[1]):
    for name, workload in workloads.WORKLOADS.items():
        state = workload.setup(seed)
        configs = state.get("configs")
        calls = [call for step in workload.steps(state, 1) for call in step()]
        print(json.dumps({"seed": seed, "workload": name, "calls": [
            {"config": repr(configs[c.config]) if configs else c.config,
             "fingerprint": repr(c.fingerprint), "failure": c.failure,
             "error_px": c.error_px}
            for c in calls]}), flush=True)
"""


def _bench_pairs():
    path = Path(__file__).resolve().parent / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cycles(root: Path, seeds: list[int]) -> list[dict]:
    """One cycle of every workload per seed, in the revision exported at ``root``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(seeds)], cwd=root,
                         env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]


def first_difference(parent: list[dict], change: list[dict]) -> str | None:
    """The first call whose fingerprint or failure differs, described; None
    when both sides ran the same workloads and seeds with the same calls."""
    for p, c in zip(parent, change):
        where = f"workload {p['workload']} seed {p['seed']}"
        if (p["workload"], p["seed"]) != (c["workload"], c["seed"]):
            return f"{where}: the change ran workload {c['workload']} seed {c['seed']}"
        if len(p["calls"]) != len(c["calls"]):
            return f"{where}: {len(p['calls'])} calls on the parent, {len(c['calls'])} on the change"
        for i, (pc, cc) in enumerate(zip(p["calls"], c["calls"])):
            for key in ("config", "fingerprint", "failure"):
                if pc[key] != cc[key]:
                    return (f"{where} call {i} config {pc['config']}: {key} differs\n"
                            f"  parent: {pc[key]}\n  change: {cc[key]}")
    if len(parent) != len(change):
        return f"{len(parent)} workload cycles on the parent, {len(change)} on the change"
    return None


def cycle_report(parent: dict, change: dict) -> str:
    """One line comparing one workload cycle of both sides, call by call."""
    pairs = list(zip(parent["calls"], change["calls"]))
    differ = sum(p["fingerprint"] != c["fingerprint"] for p, c in pairs)
    failed = [sum(call["failure"] is not None for call in side["calls"])
              for side in (parent, change)]
    errors = [(p["error_px"], c["error_px"]) for p, c in pairs
              if math.isfinite(p["error_px"]) and math.isfinite(c["error_px"])]
    line = (f"{parent['workload']} seed {parent['seed']}: {differ} of {len(pairs)} calls differ, "
            f"failed {failed[0]} -> {failed[1]}")
    if not errors:
        return line + ", no call with a finite error on both sides"
    before, after = zip(*errors)
    worse = sum(c > p for p, c in errors)
    better = sum(c < p for p, c in errors)
    return (f"{line}, error over {len(errors)} calls: "
            f"mean {statistics.fmean(before):.6g} -> {statistics.fmean(after):.6g} px, "
            f"median {statistics.median(before):.6g} -> {statistics.median(after):.6g} px, "
            f"{worse} worse, {better} better")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    ap.add_argument("--workdir", type=Path, default=Path(".bench_pairs/same_results"),
                    help="where revisions are exported; must not exist yet")
    args = ap.parse_args(argv)

    checkout = _bench_pairs().checkout
    roots = {}
    for side in ("parent", "change"):
        roots[side], ident = checkout(getattr(args, side), args.workdir / side)
        print(f"{side}: {ident['revision']} = {ident['commit']}", flush=True)
    runs = {"parent": [], "change": []}
    for seed in args.seeds:
        cycles = {side: run_cycles(roots[side], [seed]) for side in runs}
        for parent, change in zip(cycles["parent"], cycles["change"]):
            print(cycle_report(parent, change), flush=True)
        for side in runs:
            runs[side] += cycles[side]
    difference = first_difference(runs["parent"], runs["change"])
    if difference is not None:
        print(f"DIFFERENT: {difference}", flush=True)
        return 1
    calls = sum(len(r["calls"]) for r in runs["change"])
    print(f"SAME: {calls} calls over {len(args.seeds)} seeds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
