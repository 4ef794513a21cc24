"""One benchmark for the whole system: four workloads, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload app-turbulence --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (see ``layers.py``) and reports per-layer self
times and counts instead.  Either way every operation's output is
checked, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform as pyplatform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metric -> unit (every workload reports all of them); op
#: times are in units of the in-run reference (``workloads.Reference``)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ops_per_ref": "1/ref",
}

#: set-up samples per timed run, each in a fresh process
SETUP_PROBES = 5
#: share of a traced run spent on untraced operations (the overhead base)
UNTRACED_SHARE = 0.3

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in 0..100)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[k]


def make_workload(name: str, seed: int, traced: bool):
    from workloads import WORKLOADS

    workdir = HERE / "out" / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, ROOT, workdir, traced)


def host_record() -> dict:
    """Facts that let ``*_vs_*`` ratios carry across hosts."""
    import numpy as np

    llc = 0
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        llc = max(llc, int(size.rstrip("KM")) * scale)
    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "python": pyplatform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": llc,
    }


def setup_probe(name: str, seed: int) -> int:
    """Child side of a set-up sample: set up, say so, clean up."""
    w = make_workload(name, seed, traced=False)
    try:
        w.setup()
        print("ready", flush=True)
    finally:
        w.close()
    return 0


def setup_samples(name: str, seed: int, count: int) -> list[float]:
    """Process start to first measured op, each in a fresh process."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return samples


def tail_label(samples: int, q: float) -> str:
    """Name the workload's fixed tail percentile, and say when fewer than
    ten samples lie beyond it."""
    beyond = samples - math.ceil(q / 100 * samples)
    label = "max" if q >= 100 else f"p{q:g}"
    if beyond < 10:
        label += f" ({beyond} samples beyond it, fewer than 10)"
    return label


def timed_run(w, seconds: float) -> dict:
    from workloads import Reference

    w.setup()
    ref = Reference()
    t0 = time.perf_counter()
    ops = w.loop(seconds, nullcontext, ref)
    loop_s = time.perf_counter() - t0
    w.finish()
    rss = w.rss_mb if w.rss_mb is not None else w.peak_rss_mb()
    # after the run, so the probes' processes never count as its peak
    setups = setup_samples(w.name, w.seed, SETUP_PROBES)
    clients = getattr(w, "CLIENTS", 1)
    walls = [wall for _t0, _t1, wall in ops]
    scaled = [wall / ref.around(a, b, w.ref_mean) for a, b, wall in ops]
    print(f"ops: {len(ops)} x {w.op_text} in {loop_s:.2f} s "
          f"(checks included); tail = {tail_label(len(ops), w.tail_q)}")
    print(f"raw: op p50 {statistics.median(walls) * 1e3:.3f} ms, tail "
          f"{percentile(walls, w.tail_q) * 1e3:.3f} ms, "
          f"{clients * len(walls) / sum(walls):.3f} ops/s; reference "
          f"{statistics.median(w for _, w in ref.samples) * 1e3:.4f} ms "
          f"(median of {len(ref.samples)})")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for key, value in w.layer_values().items():
        print(f"{key}: {value!r}")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "op_p50_ref": statistics.median(scaled),
        "op_tail_ref": percentile(scaled, w.tail_q),
        "ops_per_ref": clients * len(scaled) / sum(scaled),
    }


def traced_run(w, seconds: float, seed: int) -> tuple[dict, bool]:
    from layers import PREDICTED_ACTIVE, Notes, layer_metrics, targets
    from ledger import LAYERS, Ledger

    from repro.obs.registry import scoped_registry
    from repro.simmpi.engine import TOTALS

    w.setup()
    untraced = [wall for _a, _b, wall in
                w.loop(seconds * UNTRACED_SHARE, nullcontext)]
    base = w.baselines()

    ledger = Ledger()
    notes = Notes()
    tgts = targets(notes)
    sched = [0, 0, 0]

    @contextmanager
    def op_span():
        before = (TOTALS.handoffs, TOTALS.probe_polls, TOTALS.wakeups)
        with ledger.op():
            yield
        for i, value in enumerate(
                (TOTALS.handoffs, TOTALS.probe_polls, TOTALS.wakeups)):
            sched[i] += value - before[i]

    ledger.install(tgts)
    try:
        with scoped_registry() as registry:
            traced = [wall for _a, _b, wall in
                      w.loop(seconds * (1 - UNTRACED_SHARE), op_span)]
    finally:
        ledger.uninstall()
    w.finish()

    host = host_record()
    metrics = layer_metrics(ledger, notes, registry, sched, base,
                            w.layer_values(), untraced, traced, host)

    ok = True
    print(f"coverage on {w.name} (calls per op; predicted active/idle):")
    for layer in LAYERS:
        calls = ledger.calls.get(layer, 0)
        active = layer in PREDICTED_ACTIVE[w.name]
        verdict = "ok" if (calls > 0) == active else "PREDICTION FAILED"
        print(f"  {layer:7s} {'active' if active else 'idle':6s} "
              f"{calls / len(ledger.op_walls):12.1f}  {verdict}")
    for t in tgts:
        if w.name in t.fires_on and ledger.fired(t.where) == 0:
            ok = False
            print(f"error: wrapper {t.where} never fired on {w.name}",
                  file=sys.stderr)
    wall = sum(ledger.op_walls)
    print(f"attribution of {wall:.3f} s over {len(ledger.op_walls)} ops:")
    for layer in (*LAYERS, "bench"):
        share = 100 * ledger.self_s.get(layer, 0.0) / wall
        print(f"  {layer:7s} {share:6.2f} %")
    meta = {"workload": w.name, "seed": seed, "seed_used": w.seed_used,
            **host}
    out = HERE / "out" / f"trace-{w.name}-seed{seed}.jsonl"
    n = ledger.write(out, meta)
    print(f"spans: {n} written to {out.relative_to(ROOT)} "
          f"({ledger.dropped} over the in-memory cap)")
    return metrics, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    w = make_workload(args.workload, args.seed, bool(args.trace))
    host = host_record()
    print(f"workload {w.name}, seed {args.seed} "
          f"({'drives the inputs' if w.seed_used else 'unused: fixed inputs'})"
          f", {args.seconds:g} s, trace {args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    try:
        if args.trace:
            from layers import PER_LAYER

            values, wrappers_ok = traced_run(w, args.seconds, args.seed)
            units = {k: unit for k, (unit, _better) in PER_LAYER.items()}
        else:
            values, wrappers_ok = timed_run(w, args.seconds), True
            units = END_TO_END
    finally:
        w.close()
    for line in w.failures:
        print(f"check failed: {line}", file=sys.stderr)
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": w.failed == 0 and wrappers_ok,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
