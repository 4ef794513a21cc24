"""Perf-smoke guard: fail CI when the smoke benchmark regresses.

Usage:  python tools/check_perf_smoke.py [--fresh BENCH_smoke.json]
                                         [--baseline PATH]
                                         [--counter-tol 0.05]
                                         [--wall-tol 3.0]

Compares a freshly produced BENCH_smoke.json (``tools/bench_smoke.py``)
against the committed baseline and enforces two kinds of bounds:

* **Scheduler counters** (``scheduler_handoffs``, ``scheduler_probe_polls``,
  ``scheduler_wakeups``) are deterministic functions of the codebase —
  the same grid always schedules the same way — so the fresh run may not
  exceed the baseline by more than ``--counter-tol`` (default 5%, pure
  headroom for intentional small churn).  *Decreases* are improvements
  and always pass; when one lands, refresh the baseline in the same PR
  so the guard tightens behind it.

* **Wall seconds** vary with host and load, so ``wall_s`` only guards
  against catastrophic slowdowns: the fresh wall must stay under
  ``--wall-tol`` times the baseline (default 3x — loose enough for a CI
  runner vs a laptop, tight enough to catch an accidental O(n) -> O(n^2)
  in the scheduler).

* **Metrics-registry overhead** (DESIGN.md §5.12): when a fresh
  ``BENCH_obs.json`` (``tools/bench_obs.py``) is present, its
  ``registry`` measurement — the bench-smoke grid with the registry
  disabled vs enabled — must stay within ``--registry-tol`` percent
  (default 5%).  The registry's hot path is a handful of dict updates
  per pool item, so a breach means instrumentation crept into an inner
  loop.  The same file's ``export`` measurement must keep
  ``export_vs_run`` (one traced run's Chrome ``write_trace`` wall over
  the untraced ``run_case`` wall, timed in alternation) at or below
  ``EXPORT_VS_RUN_MAX``.  A missing ``BENCH_obs.json`` skips both
  checks (the counter and wall guards above never require it).

* **Application workloads** (DESIGN.md §5.15): when a fresh
  ``BENCH_apps.json`` (``tools/bench_apps.py``) is present, three
  checks run.  The plan-reuse speedup must stay >= ``--apps-speedup``
  (default 1.5x — a wall-clock *ratio* on one host, so it transfers
  across hosts).  The warm plan-server steady-state *virtual*
  throughput (simulated transforms per simulated second — a
  deterministic function of the tuned params and pipeline code, like
  the scheduler counters) may not drop more than ``--apps-tol``
  (default 5%) below the committed baseline.  And the warm-plan
  steady-state *wall* throughput only guards catastrophic slowdowns:
  it may not drop below ``1 / --wall-tol`` of the committed baseline
  (throughput is inverse wall, so the cross-host slack applies
  reciprocally).  Its 1-D kernel phase is held to two more bounds:
  exactly one kernel call per axis, rank and transform in an app step
  (the whole-slab FFT passes; a per-tile call creeping back shows up as
  a count, not a timing), and ``Plan1D.execute`` at most
  ``KERNEL_VS_NUMPY_MAX`` times ``numpy.fft`` at the same call shapes
  (a same-run ratio, so it transfers across hosts).  A missing
  ``BENCH_apps.json`` skips the checks.

* **Plan-server connections** (DESIGN.md §5.13): when
  ``BENCH_serve.json`` (``tools/bench_serve.py``) is present at the
  repository root, its server-side connection counts must be exact:
  one connection for the sequential warm-latency phase and one per
  client for the throughput phase.  Clients keep their connections
  alive; a count above that means a client path went back to a
  connection per request.  Counts carry across hosts, walls do not.

The baseline is read from ``git show HEAD:BENCH_smoke.json`` when
available (so running the guard after regenerating the file still
compares against what is committed), falling back to ``--baseline``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ceiling on BENCH_apps.json's kernel_vs_numpy (Plan1D.execute over
#: numpy.fft at the pipeline's call shapes, best-of-N in one run)
KERNEL_VS_NUMPY_MAX = 4.0

#: ceiling on BENCH_obs.json's export_vs_run (trace export wall over the
#: untraced run wall of the same problem, same run)
EXPORT_VS_RUN_MAX = 2.0

COUNTERS = (
    "scheduler_handoffs",
    "scheduler_probe_polls",
    "scheduler_wakeups",
)


def load_baseline(path: Path) -> tuple[dict, str]:
    """The committed baseline: git HEAD's copy if possible, else the file."""
    try:
        proc = subprocess.run(
            ["git", "show", f"HEAD:{path.name}"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return json.loads(proc.stdout), f"git HEAD:{path.name}"
    except (OSError, ValueError):
        pass
    return json.loads(path.read_text()), str(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", default=str(ROOT / "BENCH_smoke.json"),
                    help="freshly generated smoke numbers to check")
    ap.add_argument("--baseline", default=str(ROOT / "BENCH_smoke.json"),
                    help="committed baseline (default: the git HEAD copy "
                         "of BENCH_smoke.json, falling back to this path)")
    ap.add_argument("--counter-tol", type=float, default=0.05, metavar="F",
                    help="allowed fractional increase in scheduler "
                         "counters (default 0.05)")
    ap.add_argument("--wall-tol", type=float, default=3.0, metavar="F",
                    help="allowed wall_s multiple of the baseline "
                         "(default 3.0; cross-host guard)")
    ap.add_argument("--obs", default=str(ROOT / "BENCH_obs.json"),
                    help="fresh observability numbers; the registry "
                         "overhead check is skipped when absent")
    ap.add_argument("--registry-tol", type=float, default=5.0, metavar="PCT",
                    help="allowed metrics-registry wall overhead in "
                         "percent (default 5.0)")
    ap.add_argument("--apps", default=str(ROOT / "BENCH_apps.json"),
                    help="fresh application-workload numbers; the apps "
                         "checks are skipped when absent")
    ap.add_argument("--apps-speedup", type=float, default=1.5, metavar="F",
                    help="required plan-reuse speedup (default 1.5)")
    ap.add_argument("--apps-tol", type=float, default=0.05, metavar="F",
                    help="allowed fractional drop in warm-plan virtual "
                         "throughput vs baseline (default 0.05)")
    args = ap.parse_args(argv)

    try:
        fresh = json.loads(Path(args.fresh).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read fresh numbers {args.fresh!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        base, base_src = load_baseline(Path(args.baseline))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {args.baseline!r}: {exc}",
              file=sys.stderr)
        return 2

    failures = []
    for key in COUNTERS:
        if key not in base or key not in fresh:
            continue
        limit = base[key] * (1.0 + args.counter_tol)
        status = "OK" if fresh[key] <= limit else "FAIL"
        print(f"{status}: {key}: {fresh[key]} vs baseline {base[key]} "
              f"(limit {limit:.0f})")
        if fresh[key] > limit:
            failures.append(
                f"{key} regressed: {fresh[key]} > {base[key]} "
                f"* {1 + args.counter_tol:g}"
            )
    if "wall_s" in base and "wall_s" in fresh:
        limit = base["wall_s"] * args.wall_tol
        status = "OK" if fresh["wall_s"] <= limit else "FAIL"
        print(f"{status}: wall_s: {fresh['wall_s']} vs baseline "
              f"{base['wall_s']} (limit {limit:.3f})")
        if fresh["wall_s"] > limit:
            failures.append(
                f"wall_s regressed: {fresh['wall_s']} > {base['wall_s']} "
                f"* {args.wall_tol:g}"
            )
    obs_path = Path(args.obs)
    if obs_path.exists():
        try:
            obs = json.loads(obs_path.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read obs numbers {args.obs!r}: {exc}",
                  file=sys.stderr)
            return 2
        registry = obs.get("registry")
        if registry is not None:
            pct = registry["overhead_pct"]
            status = "OK" if pct <= args.registry_tol else "FAIL"
            print(f"{status}: registry overhead: {pct:+.1f}% "
                  f"(limit {args.registry_tol:g}%, "
                  f"off {registry['off_s']}s on {registry['on_s']}s)")
            if pct > args.registry_tol:
                failures.append(
                    f"metrics registry overhead {pct:+.1f}% exceeds "
                    f"{args.registry_tol:g}% of bench-smoke wall"
                )
        export = obs.get("export")
        if export is not None:
            ratio = export["export_vs_run"]
            status = "OK" if ratio <= EXPORT_VS_RUN_MAX else "FAIL"
            print(f"{status}: trace export vs run: {ratio}x "
                  f"(ceiling {EXPORT_VS_RUN_MAX:g}x, export "
                  f"{export['export_s']}s run {export['run_s']}s)")
            if ratio > EXPORT_VS_RUN_MAX:
                failures.append(
                    f"trace export {ratio}x the untraced run, above "
                    f"{EXPORT_VS_RUN_MAX:g}x"
                )
    else:
        print(f"skip: registry overhead ({args.obs} not present)")
    apps_path = Path(args.apps)
    if apps_path.exists():
        try:
            apps = json.loads(apps_path.read_text())
            apps_base, apps_base_src = load_baseline(apps_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read apps numbers {args.apps!r}: {exc}",
                  file=sys.stderr)
            return 2
        # 1. host-independent: plan-reuse speedup floor.
        speedup = apps["plan_reuse"]["speedup"]
        status = "OK" if speedup >= args.apps_speedup else "FAIL"
        print(f"{status}: apps plan-reuse speedup: {speedup}x "
              f"(floor {args.apps_speedup:g}x)")
        if speedup < args.apps_speedup:
            failures.append(
                f"plan-reuse speedup {speedup}x below {args.apps_speedup:g}x"
            )
        # 2. deterministic: warm-plan virtual throughput within 5% of
        # the committed baseline (simulated time has no host noise).
        vtps = apps["warm_plan_server"]["virtual_transforms_per_sec"]
        base_vtps = apps_base["warm_plan_server"]["virtual_transforms_per_sec"]
        floor = base_vtps * (1.0 - args.apps_tol)
        status = "OK" if vtps >= floor else "FAIL"
        print(f"{status}: apps warm virtual throughput: {vtps} vs baseline "
              f"{base_vtps} (floor {floor:.2f})")
        if vtps < floor:
            failures.append(
                f"warm-plan virtual throughput regressed >"
                f"{100 * args.apps_tol:g}%: {vtps} < {base_vtps}"
            )
        # 3. cross-host: warm-plan wall throughput vs committed baseline
        # (throughput is inverse wall, so the wall slack applies as 1/x).
        tps = apps["warm_plan_server"]["transforms_per_sec"]
        base_tps = apps_base["warm_plan_server"]["transforms_per_sec"]
        floor = base_tps / args.wall_tol
        status = "OK" if tps >= floor else "FAIL"
        print(f"{status}: apps warm steady throughput: {tps} vs baseline "
              f"{base_tps} (floor {floor:.2f})")
        if tps < floor:
            failures.append(
                f"warm-plan steady throughput regressed: {tps} < "
                f"{base_tps} / {args.wall_tol:g}"
            )
        # 4. exact: one kernel call per axis, rank and transform.
        kernel = apps.get("kernel", {})
        calls = kernel.get("kernel_calls_per_step")
        want = 3 * kernel.get("p", 0) * kernel.get("transforms_per_step", 0)
        status = "OK" if calls == want and want else "FAIL"
        print(f"{status}: apps kernel calls per step: {calls} "
              f"(exactly {want}: one per axis, rank and transform)")
        if status == "FAIL":
            failures.append(f"kernel calls per step {calls} != {want}")
        # 5. same-run ratio: the 1-D kernels against numpy.fft.
        ratio = kernel.get("kernel_vs_numpy", float("inf"))
        status = "OK" if ratio <= KERNEL_VS_NUMPY_MAX else "FAIL"
        print(f"{status}: apps Plan1D.execute vs numpy.fft: {ratio}x "
              f"(ceiling {KERNEL_VS_NUMPY_MAX:g}x)")
        if ratio > KERNEL_VS_NUMPY_MAX:
            failures.append(
                f"1-D kernels {ratio}x numpy.fft, above "
                f"{KERNEL_VS_NUMPY_MAX:g}x"
            )
        print(f"apps baseline: {apps_base_src}")
    else:
        print(f"skip: application workloads ({args.apps} not present)")
    serve_path = ROOT / "BENCH_serve.json"
    if serve_path.exists():
        try:
            serve = json.loads(serve_path.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {serve_path}: {exc}", file=sys.stderr)
            return 2
        throughput = serve["throughput"]
        for phase, got, want in (
            ("warm latency", serve["warm_latency"].get("connections_opened"), 1),
            ("throughput", throughput.get("connections_opened"),
             throughput["clients"]),
        ):
            status = "OK" if got == want else "FAIL"
            print(f"{status}: serve {phase} connections: {got} "
                  f"(exactly {want})")
            if got != want:
                failures.append(
                    f"serve {phase} phase opened {got} connections, not {want}"
                )
    else:
        print(f"skip: plan-server connections ({serve_path} not present)")
    print(f"baseline: {base_src}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        print("perf smoke guard failed; if the regression is intended, "
              "regenerate BENCH_smoke.json in the same PR", file=sys.stderr)
        return 1
    print("perf smoke guard passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
