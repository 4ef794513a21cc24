"""Application-workload benchmark: write BENCH_apps.json.

Usage:  python tools/bench_apps.py [--steps N] [--out PATH]

Proves the `repro.apps` traffic story (PR 10) end to end:

1. **plan reuse** — a Poisson app on an *anisotropic* grid (three
   distinct 1-D plan sizes) under EXHAUSTIVE planning effort, warmup=0
   so step 1 pays the full cold planning bill.  Recorded: first-step
   wall vs steady p50 (the plan/wisdom-reuse speedup, must be >= 1.5x)
   and the registry proof that steps 2..N built **zero** new plans
   (`fft_plans_built_total` stays at the step-1 count) while a warm
   rerun in the same process builds none at all.
2. **warm plan server** — a real :class:`~repro.serve.PlanServer` is
   warmed by one cold request, then the app resolves its plan through
   ``--plan-server``: the fetch must run **zero** client-side
   simulations and leave the server's `sim_runs_total` untouched.
3. **cold local tuning** — the same app resolves the same cell through
   a local tuning session instead; recorded as the startup price a warm
   server saves (warm fetch wall vs local tuning wall).
4. **apps sweep** — all three drivers run once; steady-state
   transforms/sec and the serial-oracle error are recorded and must
   pass.
5. **1-D kernels** — the turbulence app at 64^3 on p=8 (the shape of
   perfbench's ``app-turbulence``) with every ``Plan1D.execute`` call
   recorded.  Recorded: kernel calls per step, which must be exactly
   one per axis, rank and transform (the whole-slab passes), and
   ``kernel_vs_numpy`` — ``Plan1D.execute`` against ``numpy.fft`` at
   exactly those call shapes and counts, best-of-N walls, interleaved
   in the same run.

The JSON keeps raw counters so the trajectory is comparable across
commits, same shape discipline as BENCH_serve.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.apps import APPS, AppConfig, PoissonDriver, TurbulenceDriver  # noqa: E402
from repro.core.params import ProblemShape  # noqa: E402
from repro.fft import FORWARD, GLOBAL_WISDOM, Plan1D, clear_plan_cache  # noqa: E402
from repro.machine.platforms import get_platform  # noqa: E402
from repro.obs.registry import MetricsRegistry, scoped_registry  # noqa: E402
from repro.serve import PlanServer, ServeConfig, request_plan, wait_for_plan  # noqa: E402

PLATFORM = "UMD-Cluster"
SERVE_P, SERVE_N = 4, 32
KERNEL_P, KERNEL_N = 8, 64
KERNEL_STEPS, KERNEL_REPS = 3, 25  # measured app steps; best-of-N per shape


def reg_total(reg: MetricsRegistry, name: str) -> float:
    fam = reg.snapshot().get(name)
    return sum(v for _, v in fam["samples"]) if fam else 0.0


def bench_plan_reuse(steps: int) -> dict:
    """Phase 1: cold-plan first step vs plan/wisdom-reuse steady state."""
    platform = get_platform(PLATFORM)
    shape = ProblemShape(24, 30, 36, 4)
    # Cold process state: no wisdom, no shared kernels.
    GLOBAL_WISDOM.forget()
    clear_plan_cache()
    cfg = AppConfig(shape=shape, platform=platform, steps=steps, warmup=0,
                    plan_effort="exhaustive")
    with scoped_registry(MetricsRegistry()) as reg:
        res = PoissonDriver(cfg).run()
        plans_built = reg_total(reg, "fft_plans_built_total")
        wisdom_hits = reg_total(reg, "fft_wisdom_hits_total")
    assert res.numerics_ok, f"numerics failed: {res.numerics_error}"
    # One plan per distinct 1-D size (the inverse rides the forward
    # pipeline via conjugation); everything after step 1 is wisdom.
    assert plans_built <= 3, f"{plans_built} plans built for 3 sizes"
    speedup = res.plan_reuse_speedup
    assert speedup >= 1.5, (
        f"plan-reuse speedup {speedup:.2f}x < 1.5x "
        f"(first {res.first_step_s:.4f}s, p50 {res.step_p50_s:.4f}s)"
    )
    # A warm rerun in the same process must replan nothing at all.
    with scoped_registry(MetricsRegistry()) as reg2:
        warm_cfg = AppConfig(shape=shape, platform=platform, steps=3,
                             warmup=0, plan_effort="exhaustive")
        warm = PoissonDriver(warm_cfg).run()
        warm_plans = reg_total(reg2, "fft_plans_built_total")
    assert warm_plans == 0, f"warm rerun built {warm_plans} plans"
    print(f"  first step {res.first_step_s * 1e3:.1f}ms, steady p50 "
          f"{res.step_p50_s * 1e3:.1f}ms -> {speedup:.2f}x reuse speedup; "
          f"{int(plans_built)} plans built, warm rerun 0")
    return {
        "app": "poisson",
        "shape": [24, 30, 36],
        "p": 4,
        "plan_effort": "exhaustive",
        "steps": steps,
        "first_step_s": round(res.first_step_s, 5),
        "steady_p50_s": round(res.step_p50_s, 5),
        "steady_p95_s": round(res.step_p95_s, 5),
        "speedup": round(speedup, 3),
        "plans_built": int(plans_built),
        "wisdom_hits": int(wisdom_hits),
        "warm_rerun_plans_built": int(warm_plans),
        "warm_rerun_p50_s": round(warm.step_p50_s, 5),
    }


def bench_serve_phases(tmp: Path, budget: int, steps: int) -> tuple[dict, dict]:
    """Phases 2+3: warm plan-server fetch vs cold local tuning."""
    platform = get_platform(PLATFORM)
    shape = ProblemShape(SERVE_N, SERVE_N, SERVE_N, SERVE_P)
    server_reg = MetricsRegistry()
    with scoped_registry(server_reg):
        server = PlanServer(ServeConfig(
            root=str(tmp / "store"), default_budget=budget,
        ))
    url = server.start()
    try:
        # Warm the store with one cold request (the serve-plane price).
        t0 = time.monotonic()
        code, body = request_plan(url, PLATFORM, SERVE_P, SERVE_N)
        if code == 202:
            wait_for_plan(url, body["job"], timeout=600)
        cold_tune_wall = round(time.monotonic() - t0, 4)

        server_sims_before = reg_total(server_reg, "sim_runs_total")
        cfg = AppConfig(shape=shape, platform=platform, steps=steps,
                        warmup=1, plan_server=url)
        res = PoissonDriver(cfg).run()
        server_sims = reg_total(server_reg, "sim_runs_total") - server_sims_before
    finally:
        server.stop()
    assert res.plan.source == "server"
    assert res.plan.sim_runs == 0, (
        f"warm fetch ran {res.plan.sim_runs} client simulations"
    )
    assert res.plan.provenance.get("simulations") == 0
    assert server_sims == 0, f"server simulated {server_sims} runs when warm"
    assert res.numerics_ok
    warm = {
        "cell": [SERVE_P, SERVE_N],
        "budget": budget,
        "cold_tune_wall_s": cold_tune_wall,
        "fetch_wall_s": round(res.plan.wall_s, 4),
        "client_sim_runs": res.plan.sim_runs,
        "server_sim_runs_during_app": int(server_sims),
        "transforms_per_sec": round(res.transforms_per_sec, 2),
        "step_p50_s": round(res.step_p50_s, 5),
        # Simulated seconds per step are a deterministic function of the
        # tuned params + pipeline code -> the guard's tight 5% bound.
        "virtual_step_s": round(res.virtual_step_s, 6),
        "virtual_transforms_per_sec": round(
            res.transforms_per_step / res.virtual_step_s, 2),
    }
    print(f"  warm fetch {warm['fetch_wall_s']}s (0 simulations), steady "
          f"{warm['transforms_per_sec']} transforms/s")

    # Phase 3: resolve the same cell with a local tuning session.
    t0 = time.monotonic()
    cfg = AppConfig(shape=shape, platform=platform, steps=steps,
                    warmup=1, budget=budget)
    res_local = PoissonDriver(cfg).run()
    assert res_local.plan.source == "tuned"
    assert res_local.plan.sim_runs > 0, "local tuning simulated nothing"
    assert res_local.numerics_ok
    cold = {
        "cell": [SERVE_P, SERVE_N],
        "budget": budget,
        "resolve_wall_s": round(res_local.plan.wall_s, 4),
        "sim_runs": res_local.plan.sim_runs,
        "transforms_per_sec": round(res_local.transforms_per_sec, 2),
        "step_p50_s": round(res_local.step_p50_s, 5),
        "virtual_step_s": round(res_local.virtual_step_s, 6),
        "total_wall_s": round(time.monotonic() - t0, 4),
    }
    startup_speedup = cold["resolve_wall_s"] / max(warm["fetch_wall_s"], 1e-9)
    print(f"  cold local tuning {cold['resolve_wall_s']}s "
          f"({cold['sim_runs']} simulations) -> warm startup "
          f"{startup_speedup:.1f}x faster")
    warm["startup_speedup_vs_local"] = round(startup_speedup, 2)
    return warm, cold


def bench_apps_sweep(steps: int) -> list[dict]:
    """Phase 4: every driver once, throughput + oracle error."""
    platform = get_platform(PLATFORM)
    out = []
    for name, cls in sorted(APPS.items()):
        cfg = AppConfig(shape=ProblemShape(16, 16, 16, 4), platform=platform,
                        steps=steps, warmup=1)
        res = cls(cfg).run()
        assert res.numerics_ok, f"{name}: error {res.numerics_error}"
        out.append({
            "app": name,
            "shape": [16, 16, 16],
            "p": 4,
            "transforms_per_sec": round(res.transforms_per_sec, 2),
            "step_p50_s": round(res.step_p50_s, 5),
            "step_p95_s": round(res.step_p95_s, 5),
            "virtual_step_s": round(res.virtual_step_s, 6),
            "numerics_error": float(f"{res.numerics_error:.3e}"),
        })
        print(f"  {name}: {out[-1]['transforms_per_sec']} transforms/s, "
              f"err {out[-1]['numerics_error']:.1e}")
    return out


def _best_pair(ours, ref, reps: int) -> tuple[float, float]:
    """Best-of-``reps`` walls of two callables, interleaved."""
    best_ours = best_ref = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        ours()
        t1 = time.perf_counter()
        ref()
        t2 = time.perf_counter()
        best_ours, best_ref = min(best_ours, t1 - t0), min(best_ref, t2 - t1)
    return best_ours, best_ref


def bench_kernel(steps: int, reps: int) -> dict:
    """Phase 5: the 1-D kernels at the pipeline's real call shapes."""
    platform = get_platform(PLATFORM)
    shape = ProblemShape(KERNEL_N, KERNEL_N, KERNEL_N, KERNEL_P)
    calls: Counter = Counter()
    execute = Plan1D.execute

    def recording(plan, x, axis=-1, normalize=False):
        calls[(plan.n, plan.sign, x.shape, axis)] += 1
        return execute(plan, x, axis, normalize)

    cfg = AppConfig(shape=shape, platform=platform, steps=steps, warmup=1)
    Plan1D.execute = recording
    try:
        res = TurbulenceDriver(cfg).run()
    finally:
        Plan1D.execute = execute
    assert res.numerics_ok, f"numerics failed: {res.numerics_error}"
    per_step = sum(calls.values()) / (cfg.warmup + cfg.steps)
    # one call per axis, rank and transform: the whole-slab passes
    expected = 3 * shape.p * res.transforms_per_step
    assert per_step == expected, f"{per_step} kernel calls per step, not {expected}"

    rng = np.random.default_rng(0)
    ours_s = numpy_s = 0.0
    shapes = []
    for (n, sign, xshape, axis), count in sorted(calls.items()):
        plan = Plan1D(n, sign)
        x = rng.standard_normal(xshape) + 1j * rng.standard_normal(xshape)
        if sign == FORWARD:
            ref = lambda: np.fft.fft(x, axis=axis)  # noqa: E731
        else:
            ref = lambda: np.fft.ifft(x, axis=axis, norm="forward")  # noqa: E731
        ours, theirs = _best_pair(lambda: plan.execute(x, axis=axis), ref, reps)
        ours_s += count * ours
        numpy_s += count * theirs
        shapes.append({"n": n, "sign": sign, "shape": list(xshape),
                       "axis": axis, "calls": count, "kernel": plan.kernel_name})
    ratio = ours_s / numpy_s
    print(f"  {per_step:g} kernel calls per step (expected {expected}); "
          f"Plan1D.execute {ratio:.2f}x numpy.fft at those shapes")
    return {
        "app": "turbulence",
        "shape": [KERNEL_N] * 3,
        "p": KERNEL_P,
        "steps": cfg.warmup + cfg.steps,
        "transforms_per_step": res.transforms_per_step,
        "kernel_calls_per_step": per_step,
        "call_shapes": shapes,
        "best_of": reps,
        "kernel_s_per_step": round(ours_s / (cfg.warmup + cfg.steps), 6),
        "numpy_s_per_step": round(numpy_s / (cfg.warmup + cfg.steps), 6),
        "kernel_vs_numpy": round(ratio, 3),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=12,
                    help="measured steps for the plan-reuse phase")
    ap.add_argument("--serve-steps", type=int, default=5,
                    help="measured steps for the serve/local phases")
    ap.add_argument("--budget", type=int, default=4,
                    help="tuning budget for the serve/local phases")
    ap.add_argument("--out", default="BENCH_apps.json")
    args = ap.parse_args()

    print("plan reuse: cold exhaustive planning vs wisdom-warm steady state")
    plan_reuse = bench_plan_reuse(args.steps)

    print("plan server: warm fetch vs cold local tuning")
    with tempfile.TemporaryDirectory(prefix="bench_apps_") as tmp:
        warm, cold = bench_serve_phases(Path(tmp), args.budget,
                                        args.serve_steps)

    print("apps sweep: all drivers")
    apps = bench_apps_sweep(args.serve_steps)

    print("1-D kernels: whole-slab calls vs numpy.fft at the same shapes")
    kernel = bench_kernel(KERNEL_STEPS, KERNEL_REPS)

    payload = {
        "benchmark": "application workloads: plan reuse + serve-plane startup",
        "platform": PLATFORM,
        "plan_reuse": plan_reuse,
        "warm_plan_server": warm,
        "cold_local": cold,
        "apps": apps,
        "kernel": kernel,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"ok  ->  {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
