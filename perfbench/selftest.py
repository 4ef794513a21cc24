"""Smoke-size self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload, timed and traced, prints a last line with
exactly the result keys and every metric named in ``BENCHMARK.json``
with its unit, and that each workload's correctness gate counts a
deliberately wrong answer as a failed op.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        PROBLEMS.append(what)


def check_outputs(spec: dict) -> None:
    from layers import PER_LAYER

    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == {k: u for k, (u, _b) in PER_LAYER.items()},
           "BENCHMARK.json per_layer matches the metrics the traced run "
           "reports")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=str(ROOT), timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} trace={trace}: no JSON result "
                              f"(exit {proc.returncode}): "
                              f"{proc.stderr[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(proc.returncode == 0
                   and set(result) == {"correct", "attempted", "failed",
                                       "metrics"}
                   and got == want
                   and all(isinstance(v["value"], (int, float))
                           for v in result["metrics"].values())
                   and result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: every {section} metric with "
                   f"its unit, all checks passed")


def check_gates() -> None:
    """Each gate must count a wrong answer as a failed op."""
    from workloads import AppTurbulence, GridTune, ServeWarm, TraceRun

    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))

    app = AppTurbulence(1, ROOT, work)
    app.setup()
    out = app.op()
    app.check(out * (1 + 1e-6))
    expect(app.failed == 1, "app-turbulence: a perturbed step fails the "
                            "oracle")

    from repro.exec import ResultStore, evaluate_cells

    grid = GridTune(1, ROOT, work)
    grid.setup()
    cell = evaluate_cells("UMD-Cluster", [(4, 32)], max_evaluations=4)[0]
    store = ResultStore(work / "cells")
    store.put(cell)
    cell.times = dict(cell.times, NEW=cell.times["NEW"] * (1 + 1e-9))
    grid.check(([cell], store, [], work / "grid-tmp"))
    expect(grid.failed == 1, "grid-tune: a moved virtual time fails the "
                             "re-simulation")

    serve = ServeWarm(1, ROOT, work, traced=True)
    serve.setup()
    try:
        cell_key = serve.CELLS[0]
        wrong = dict(serve.expected[cell_key], T=-1)
        serve.check((cell_key, 200, {"plan": {"params": wrong}}))
        serve.check((cell_key, 503, {"error": "draining"}))
        serve.check(serve.op(cell_key))
    finally:
        serve.close()
    expect(serve.failed == 2 and serve.attempted == 3,
           "serve-warm: wrong params and a non-200 fail, a real hit passes")

    trace = TraceRun(1, ROOT, work)
    trace.setup()
    try:
        tracer = trace.op()
        tracer.add_span("extra", "not in the file", 0.0, 1.0)
        trace.check(tracer)
    finally:
        trace.close()
    expect(trace.failed == 1, "trace-run: a file missing a span fails the "
                              "reload check")
    shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gates()
    check_outputs(spec)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
