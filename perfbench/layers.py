"""What the traced run wraps, what it predicts, and the per-layer metrics.

Layers are the program's packages.  Each :class:`~ledger.Target` names
a function where its caller looks it up and the workloads on which it
must fire; a wrapper that never fires there fails the traced run.
Every per-layer metric is reported on every workload, per measured op
(an idle layer reads 0), so the counts of two runs compare exactly.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from ledger import LAYERS, Ledger, Target

APP, GRID = "app-turbulence", "grid-tune"
SERVE, TRACE = "serve-warm", "trace-run"

#: layers predicted to record calls on each workload; all others must
#: record exactly none
PREDICTED_ACTIVE = {
    APP: {"fft", "core", "simmpi", "apps"},
    GRID: {"core", "simmpi", "tuning", "exec", "obs"},
    SERVE: {"serve", "exec"},
    TRACE: {"core", "simmpi", "obs"},
}

#: per-layer metric -> (unit, better); every value is per measured op
#: unless it is a ratio, a median, a percentage or a host fact
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    "fft.exec_calls": ("count", "lower"),
    "fft.exec_s": ("s", "lower"),
    "fft.exec_flops": ("flop", "lower"),
    "fft.vs_numpy": ("x", "lower"),
    "fft.plans_built": ("count", "lower"),
    "fft.wisdom_hits": ("count", "higher"),
    "core.pack_s": ("s", "lower"),
    "core.unpack_s": ("s", "lower"),
    "core.mover_bytes": ("B", "lower"),
    "core.mover_vs_copy": ("x", "higher"),
    "core.scatter_s": ("s", "lower"),
    "core.gather_s": ("s", "lower"),
    "core.api_s": ("s", "lower"),
    "simmpi.runs": ("count", "lower"),
    "simmpi.run_p50_s": ("s", "lower"),
    "simmpi.progress_s": ("s", "lower"),
    "simmpi.progress_calls": ("count", "lower"),
    "simmpi.ialltoall_s": ("s", "lower"),
    "simmpi.ialltoall_calls": ("count", "lower"),
    "simmpi.handoffs": ("count", "lower"),
    "simmpi.probe_polls": ("count", "lower"),
    "simmpi.wakeups": ("count", "lower"),
    "tuning.evals": ("count", "lower"),
    "tuning.executed": ("count", "lower"),
    "tuning.useful_ratio": ("ratio", "higher"),
    "tuning.evalstore_save_s": ("s", "lower"),
    "tuning.evalstore_records": ("count", "lower"),
    "tuning.virtual_speedup_new": ("x", "higher"),
    "tuning.virtual_tuning_s": ("virtual_s", "lower"),
    "exec.cell_s": ("s", "lower"),
    "exec.store_put_s": ("s", "lower"),
    "exec.store_puts": ("count", "lower"),
    "exec.store_get_s": ("s", "lower"),
    "exec.store_gets": ("count", "lower"),
    "serve.handle_s": ("s", "lower"),
    "serve.http_s": ("s", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.non_200": ("count", "lower"),
    "serve.sim_runs": ("count", "lower"),
    "obs.spans": ("count", "lower"),
    "obs.record_s": ("s", "lower"),
    "obs.export_s": ("s", "lower"),
    "obs.export_bytes": ("B", "lower"),
    "apps.numpy_pair_s": ("s", "lower"),
    "apps.vs_numpy": ("x", "lower"),
    "apps.oracle_error": ("ratio", "lower"),
    "bench.self_s": ("s", "lower"),
    "bench.unattributed_pct": ("%", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "host.cores": ("count", "higher"),
    "host.llc_mb": ("MB", "higher"),
    "host.copyto_gbps": ("GB/s", "higher"),
}


@dataclass
class Notes:
    """Computed counts the wrappers collect beside their spans."""

    fft_shapes: Counter = field(default_factory=Counter)
    flops: float = 0.0
    mover_bytes: int = 0
    mover_copies: int = 0
    evals: int = 0
    executed: int = 0
    export_bytes: int = 0

    def fft(self, ledger, args, kwargs, result) -> None:
        plan, x = args[0], args[1]
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        self.fft_shapes[(x.shape, axis)] += 1
        self.flops += plan.flop_estimate * (x.size // plan.n)

    def pack(self, ledger, args, kwargs, result) -> None:
        # staging buffer, then one chunk per destination: two tile writes
        self.mover_bytes += 2 * args[0].nbytes
        self.mover_copies += 2

    def unpack(self, ledger, args, kwargs, result) -> None:
        self.mover_bytes += sum(chunk.nbytes for chunk in args[0])
        self.mover_copies += 1

    def tuner_run(self, ledger, args, kwargs, result) -> None:
        if kwargs.get("include_fixed_steps", True) is False:
            self.executed += 1

    def autotune(self, ledger, args, kwargs, result) -> None:
        self.evals += result.evaluations

    def export(self, ledger, args, kwargs, result) -> None:
        self.export_bytes += os.path.getsize(args[1])


def targets(notes: Notes) -> list[Target]:
    return [
        # fft: the 1-D kernels and the local transposes
        Target("repro.fft.plan:Plan1D.execute", "fft", "fft.execute",
               (APP,), notes.fft),
        Target("repro.core.plan:xyz_to_xzy", "fft", "fft.transpose", (APP,)),
        Target("repro.core.plan:xyz_to_zxy", "fft", "fft.transpose", ()),
        # core: the movers, slab scatter/gather and the API entry points
        Target("repro.core.plan:ffty_pack_real", "core", "core.pack",
               (APP,), notes.pack),
        Target("repro.core.plan:unpack_fftx_real", "core", "core.unpack",
               (APP,), notes.unpack),
        Target("repro.core.api:scatter_slabs", "core", "core.scatter", (APP,)),
        Target("repro.core.api:gather_spectrum", "core", "core.gather",
               (APP,)),
        Target("repro.apps.turbulence:parallel_fft3d", "core", "core.api",
               (APP,)),
        Target("repro.apps.turbulence:parallel_ifft3d", "core", "core.api",
               (APP,)),
        Target("repro.core.api:run_case", "core", "core.api", (APP, TRACE)),
        Target("repro.tuning.tuner:run_case", "core", "core.api", (GRID,),
               notes.tuner_run),
        # simmpi: the engine run and the pipeline's progression calls
        Target("repro.core.api:run_spmd", "simmpi", "simmpi.run_spmd",
               (APP, GRID, TRACE)),
        Target("repro.simmpi.comm:SimContext.progress_phases", "simmpi",
               "simmpi.progress", (APP, GRID, TRACE)),
        Target("repro.simmpi.comm:Communicator.ialltoall", "simmpi",
               "simmpi.ialltoall", (APP, GRID, TRACE)),
        # tuning
        Target("repro.bench.runner:autotune", "tuning", "tuning.autotune",
               (GRID,), notes.autotune),
        Target("repro.tuning.evalstore:EvalStore.save", "tuning",
               "tuning.evalstore_save", (GRID,)),
        # exec
        Target("repro.exec:evaluate_cells", "exec", "exec.evaluate_cells",
               (GRID,)),
        Target("repro.exec.pool:evaluate_cell", "exec", "exec.cell", (GRID,)),
        Target("repro.exec.store:ResultStore.put", "exec", "exec.store_put",
               (GRID,)),
        Target("repro.exec.store:ResultStore.get", "exec", "exec.store_get",
               (GRID, SERVE)),
        # serve: the client call and the server's request handling
        Target("repro.serve:request_plan", "serve", "serve.request", (SERVE,)),
        Target("repro.serve.server:PlanServer.handle_plan", "serve",
               "serve.handle_plan", (SERVE,)),
        # obs
        Target("repro.obs:write_trace", "obs", "obs.write_trace", (TRACE,),
               notes.export),
        Target("repro.obs.export:emit_rank_spans", "obs", "obs.rank_spans",
               (TRACE,)),
        Target("repro.obs.metrics:run_metrics", "obs", "obs.run_metrics",
               (GRID,)),
        # apps
        Target("repro.apps.turbulence:TurbulenceDriver.step", "apps",
               "apps.step", (APP,)),
    ]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def copyto_bps(nbytes: int, min_s: float = 0.05) -> float:
    """Median ``np.copyto`` bytes written per second at one array size."""
    import numpy as np

    src = np.ones(max(nbytes // 16, 1), dtype=np.complex128)
    dst = np.empty_like(src)
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            np.copyto(dst, src)
        if time.perf_counter() - t0 >= min_s / 5 or reps >= 1 << 16:
            break
        reps *= 2
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.copyto(dst, src)
        walls.append((time.perf_counter() - t0) / reps)
    return src.nbytes / statistics.median(walls)


def _numpy_fft_s(shapes: Counter) -> float:
    """numpy.fft.fft time for the recorded call shapes and counts."""
    import numpy as np

    rng = np.random.default_rng(0)
    total = 0.0
    for (shape, axis), count in shapes.items():
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        walls = []
        for _ in range(7):
            t0 = time.perf_counter()
            np.fft.fft(x, axis=axis)
            walls.append(time.perf_counter() - t0)
        total += count * _median(walls)
    return total


def layer_metrics(ledger: Ledger, notes: Notes, registry, sched, base,
                  workload_values, untraced, traced,
                  host) -> dict[str, float]:
    """Every per-layer metric from one traced run (see README.md)."""
    ops = len(ledger.op_walls)

    def per(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def registry_total(name: str) -> float:
        fam = registry.snapshot().get(name)
        return sum(v for _k, v in fam["samples"]) if fam else 0.0

    m = dict.fromkeys(PER_LAYER, 0.0)  # an idle layer reads 0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per(ledger.self_s.get(layer, 0.0))
        m[f"{layer}.calls"] = per(ledger.calls.get(layer, 0))

    exec_s = ledger.total("fft.execute")
    m["fft.exec_calls"] = per(ledger.count("fft.execute"))
    m["fft.exec_s"] = per(exec_s)
    m["fft.exec_flops"] = per(notes.flops)
    m["fft.vs_numpy"] = ratio(exec_s, _numpy_fft_s(notes.fft_shapes))
    m["fft.plans_built"] = per(registry_total("fft_plans_built_total"))
    m["fft.wisdom_hits"] = per(registry_total("fft_wisdom_hits_total"))

    pack_s = ledger.self_time("core.pack")
    unpack_s = ledger.self_time("core.unpack")
    m["core.pack_s"] = per(pack_s)
    m["core.unpack_s"] = per(unpack_s)
    m["core.mover_bytes"] = per(notes.mover_bytes)
    copy_rate = 0.0
    if notes.mover_copies:
        copy_rate = copyto_bps(notes.mover_bytes // notes.mover_copies)
    m["core.mover_vs_copy"] = ratio(ratio(notes.mover_bytes,
                                          pack_s + unpack_s), copy_rate)
    m["core.scatter_s"] = per(ledger.total("core.scatter"))
    m["core.gather_s"] = per(ledger.total("core.gather"))
    m["core.api_s"] = per(ledger.self_time("core.api"))

    m["simmpi.runs"] = per(ledger.count("simmpi.run_spmd"))
    m["simmpi.run_p50_s"] = _median(ledger.durations("simmpi.run_spmd"))
    m["simmpi.progress_s"] = per(ledger.total("simmpi.progress"))
    m["simmpi.progress_calls"] = per(ledger.count("simmpi.progress"))
    m["simmpi.ialltoall_s"] = per(ledger.total("simmpi.ialltoall"))
    m["simmpi.ialltoall_calls"] = per(ledger.count("simmpi.ialltoall"))
    m["simmpi.handoffs"], m["simmpi.probe_polls"], m["simmpi.wakeups"] = (
        per(v) for v in sched)

    m["tuning.evals"] = per(notes.evals)
    m["tuning.executed"] = per(notes.executed)
    m["tuning.useful_ratio"] = ratio(notes.executed, notes.evals)
    m["tuning.evalstore_save_s"] = per(ledger.total("tuning.evalstore_save"))

    m["exec.cell_s"] = per(ledger.total("exec.cell"))
    m["exec.store_put_s"] = per(ledger.total("exec.store_put"))
    m["exec.store_puts"] = per(ledger.count("exec.store_put"))
    m["exec.store_get_s"] = per(ledger.total("exec.store_get"))
    m["exec.store_gets"] = per(ledger.count("exec.store_get"))

    handle_s = ledger.total("serve.handle_plan")
    m["serve.handle_s"] = per(handle_s)
    m["serve.http_s"] = per(max(ledger.total("serve.request") - handle_s, 0))
    m["serve.requests"] = per(ledger.count("serve.request"))

    m["obs.export_s"] = per(ledger.total("obs.write_trace"))
    m["obs.export_bytes"] = per(notes.export_bytes)

    m.update(base)
    m.update(workload_values)
    if m["apps.numpy_pair_s"]:
        m["apps.vs_numpy"] = _median(untraced) / m["apps.numpy_pair_s"]

    wall = sum(ledger.op_walls)
    m["bench.self_s"] = per(ledger.self_s.get("bench", 0.0))
    m["bench.unattributed_pct"] = 100 * ratio(ledger.self_s.get("bench", 0.0),
                                              wall)
    m["bench.trace_overhead_pct"] = 100 * (
        ratio(_median(traced), _median(untraced)) - 1)
    m["host.cores"] = float(host["host_cores"])
    m["host.llc_mb"] = host["llc_bytes"] / 2 ** 20
    m["host.copyto_gbps"] = copyto_bps(64 * 2 ** 20) / 1e9
    return {k: float(v) for k, v in m.items()}
