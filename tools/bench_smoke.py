"""CI smoke benchmark: tiny grid, writes BENCH_smoke.json.

Usage:  python tools/bench_smoke.py [--out PATH] [--trace PATH]

Evaluates a handful of small cells through the execution layer (tasks
backend, in-process) and records cells evaluated, wall seconds, and the
scheduler's handoff / probe-poll / wakeup counters — reset at the start
of the run so the numbers cover exactly this grid, never counters leaked
from an earlier run in the same process.  Small enough for every CI run;
the numbers give a commit-over-commit perf trajectory without the cost
of the full benchmark suite.

The run also exercises the shared evaluation store: one cold autotune
fills a fresh :class:`~repro.tuning.EvalStore`, a warm rerun on the same
store must answer every configuration for free, and the hit/executed
counts land in BENCH_smoke.json (a regression here means the store key
or read-through broke).  The store itself is written to ``--eval-store``
so CI can upload it as an artifact.

``--trace`` additionally runs the grid under a :mod:`repro.obs` tracer
and writes a Chrome trace-event JSON (Perfetto-viewable) that CI uploads
as an artifact.

Before the grid, ``sim_vs_ref`` times one fixed virtual run (NEW on
UMD-Cluster, p=32, N=640, T=4, W=2, fixed steps skipped as the tuner
runs it; best of 3) and divides it by the median wall of
``numpy.fft.fftn`` on one 32^3 complex array timed around those runs.
The ratio is a simulator-overhead number that carries across hosts,
where a raw wall does not; ``tools/check_perf_smoke.py`` holds it under
a ceiling.  It runs before the counters are reset, so they still cover
only what follows.

Finally the run exercises the fault-tolerant execution path end to end:
a pooled grid is started with the ``REPRO_EXEC_CHAOS`` kill-once hook
armed, so the first worker hard-exits mid-grid; the pool must respawn
and complete the grid anyway, and a resumed run against the same result
store must finish with **zero** re-simulated cells (pure store
read-through).  Both counts land in BENCH_smoke.json — a nonzero
re-simulation count means salvage or resume broke.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import clear_cache  # noqa: E402
from repro.core import ProblemShape  # noqa: E402
from repro.core.api import run_case  # noqa: E402
from repro.core.variants import baseline_params, get_variant  # noqa: E402
from repro.exec import ResultStore, evaluate_cells  # noqa: E402
from repro.machine import UMD_CLUSTER  # noqa: E402
from repro.tuning import EvalStore, autotune  # noqa: E402
from repro.obs import (  # noqa: E402
    Tracer,
    reset_sched_totals,
    sched_totals,
    tracing,
    write_trace,
)

GRID = {"UMD-Cluster": [(4, 32), (8, 32)], "Hopper": [(4, 32)]}
BUDGET = 6
TUNE_SHAPE = ProblemShape(64, 64, 64, 4)
#: the fixed virtual run behind sim_vs_ref
SIM_SHAPE = ProblemShape(640, 640, 640, 32)


def sim_vs_ref(repeats: int = 3, ref_calls: int = 5) -> dict:
    """Best-of-``repeats`` wall of one virtual run over the median wall
    of a 32^3 ``numpy.fft.fftn``, sampled before and after each run."""
    spec = get_variant("NEW")
    params = baseline_params(spec, SIM_SHAPE).replace(T=4, W=2)
    rng = np.random.default_rng(0)
    field = rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal(
        (32, 32, 32))
    ref: list[float] = []
    sim: list[float] = []

    def sample_ref() -> None:
        for _ in range(ref_calls):
            t0 = time.perf_counter()
            np.fft.fftn(field)
            ref.append(time.perf_counter() - t0)

    for _ in range(repeats):
        sample_ref()
        t0 = time.perf_counter()
        run_case(spec, UMD_CLUSTER, SIM_SHAPE, params,
                 include_fixed_steps=False)
        sim.append(time.perf_counter() - t0)
    sample_ref()
    ref_s = statistics.median(ref)
    return {
        "run": "NEW UMD-Cluster p32 N640 T4 W2, fixed steps skipped",
        "sim_s": round(min(sim), 4),
        "ref_s": round(ref_s, 6),
        "sim_vs_ref": round(min(sim) / ref_s, 1),
    }


def warm_vs_cold_tune(store_path: str) -> dict:
    """Cold autotune fills the store; a warm rerun must be all hits."""
    evals = EvalStore()
    t0 = time.perf_counter()
    cold = autotune("NEW", UMD_CLUSTER, TUNE_SHAPE, eval_store=evals)
    cold_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = autotune("NEW", UMD_CLUSTER, TUNE_SHAPE, eval_store=evals)
    warm_wall = time.perf_counter() - t0
    evals.save(store_path)
    return {
        "shape": "64x64x64 p4",
        "cold_executed": cold.session.executed_evaluations,
        "warm_executed": warm.session.executed_evaluations,
        "store_hits": evals.hits,
        "store_records": len(evals),
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
    }


def chaos_resume_check() -> dict:
    """Kill a worker mid-grid, finish anyway, resume with zero re-sims.

    The kill is the ``REPRO_EXEC_CHAOS`` kill-once hook (one worker
    hard-exits before its first item); the pool must respawn, resubmit
    the lost items, and complete the grid.  A second run against the
    same result store is the crash-resume path: it must be answered
    entirely by read-through — ``pool.items == 0``.
    """
    cells = [(4, 32), (8, 32)]
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "store")
        clear_cache()
        os.environ["REPRO_EXEC_CHAOS"] = f"kill-once:@{tmp}"
        try:
            killed = Tracer(rank_spans=False)
            with tracing(killed):
                evaluate_cells("UMD-Cluster", cells, jobs=2,
                               max_evaluations=BUDGET, store=store)
        finally:
            del os.environ["REPRO_EXEC_CHAOS"]
        chaos_fired = (Path(tmp) / "chaos-killed").exists()

        clear_cache()  # simulate a fresh process: only the store survives
        resumed = Tracer(rank_spans=False)
        with tracing(resumed):
            evaluate_cells("UMD-Cluster", cells, jobs=2,
                           max_evaluations=BUDGET, store=store)
    clear_cache()
    return {
        "worker_killed": chaos_fired,
        "pool_respawns": int(killed.counters.get("pool.respawns", 0)),
        "cells_after_kill": int(killed.counters.get("pool.items", 0)),
        "resume_resimulated_cells": int(resumed.counters.get("pool.items", 0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_smoke.json"))
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="also write a Chrome trace of the grid run")
    ap.add_argument("--eval-store", default=str(ROOT / "smoke_evals.jsonl"),
                    metavar="PATH",
                    help="where the warm-vs-cold tune saves its eval store")
    args = ap.parse_args(argv)

    sim = sim_vs_ref()
    clear_cache()
    reset_sched_totals()
    tracer = Tracer(rank_spans=False, meta={"command": "bench_smoke"})
    t0 = time.perf_counter()
    evaluated = 0
    with tracing(tracer):
        for platform, cells in GRID.items():
            evaluate_cells(platform, cells, jobs=1, max_evaluations=BUDGET)
            evaluated += len(cells)
    wall = time.perf_counter() - t0
    totals = sched_totals()
    tune = warm_vs_cold_tune(args.eval_store)
    chaos = chaos_resume_check()

    payload = {
        "benchmark": "smoke grid (tasks backend, serial)",
        "cells_evaluated": evaluated,
        "budget": BUDGET,
        "wall_s": round(wall, 3),
        "scheduler_handoffs": totals.handoffs,
        "scheduler_probe_polls": totals.probe_polls,
        "scheduler_wakeups": totals.wakeups,
        "sim_vs_ref": sim["sim_vs_ref"],
        "sim_run": sim,
        "host_cores": os.cpu_count(),
        "eval_store": tune,
        "fault_tolerance": chaos,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if args.trace:
        n = write_trace(tracer, args.trace)
        print(f"trace: {n} records -> {args.trace}")
    if tune["warm_executed"] != 0:
        print(f"FAIL: warm tune executed {tune['warm_executed']} "
              "simulations; the eval store should have answered them all",
              file=sys.stderr)
        return 1
    if not chaos["worker_killed"]:
        print("FAIL: the chaos hook never killed a worker; the recovery "
              "path went unexercised", file=sys.stderr)
        return 1
    if chaos["resume_resimulated_cells"] != 0:
        print(f"FAIL: resuming after the worker kill re-simulated "
              f"{chaos['resume_resimulated_cells']} cell(s); the result "
              "store should have answered them all", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
