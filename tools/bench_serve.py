"""Plan-server benchmark: write BENCH_serve.json.

Usage:  python tools/bench_serve.py [--budget B] [--clients N] [--out PATH]

Proves the PR-8 serving story end to end against a real
:class:`~repro.serve.PlanServer` (real HTTP, threaded handlers):

1. **cold miss** — one request tunes the cell through a background job
   (wall time recorded as the price of a miss).
2. **warm-hit latency** — the same plan is requested ``--samples``
   times sequentially; p50/p95/p99 request latency is recorded, and the
   server registry must show **zero** simulated runs for the whole
   phase (plans come from the store, not the simulator).
3. **concurrent throughput** — ``--clients`` threads each fire
   ``--per-client`` warm requests at once; total requests/second is
   recorded along with the single-flight proof from the cold phase
   (exactly one tuning job despite ``--clients`` racing first posts).
4. **kill-and-restart recovery** (PR-9) — a real ``repro serve``
   subprocess SIGKILLs itself mid-job at the worst crash point (stores
   flushed, journal still says running); a restart over the same root
   must replay the job to DONE under its original id.  Recorded: the
   recovery wall (restart to plan served), replayed-job count, and the
   proof that recovery **re-simulated zero evaluations**; the restarted
   server then drains cleanly on SIGTERM (exit 0).

Phases 2 and 3 run on fresh client threads and record
``connections_opened``, counted on the server side: clients keep their
connections alive, so the sequential phase opens exactly one and the
throughput phase one per client (``tools/check_perf_smoke.py`` holds
both counts; unlike the walls they carry across hosts).

The JSON keeps the raw counters so the trajectory is comparable across
commits, same shape discipline as BENCH_dist.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import clear_cache  # noqa: E402
from repro.obs.registry import MetricsRegistry, scoped_registry  # noqa: E402
from repro.serve import (  # noqa: E402
    PlanServer,
    ServeConfig,
    request_plan,
    wait_for_plan,
)

PLATFORM = "UMD-Cluster"
P, N = 4, 32


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    idx = min(int(round(q * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[idx]


def sim_runs(reg: MetricsRegistry) -> float:
    fam = reg.snapshot().get("sim_runs_total")
    return sum(v for _, v in fam["samples"]) if fam else 0.0


def spawn_serve(root: Path, budget: int,
                extra_env: dict | None = None) -> tuple:
    """A real ``repro serve`` subprocess; returns (proc, url)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--root", str(root), "--budget", str(budget)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline()
    assert "plan server listening on " in line, (
        f"no URL from serve: {line!r} / {proc.stderr.read()!r}"
    )
    return proc, line.split("listening on ", 1)[1].split()[0]


def prom_metric(text: str, name: str) -> float:
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith(name) and not line.startswith("#")
    )


def bench_recovery(tmp: Path, budget: int) -> dict:
    """Phase 4: SIGKILL a serve process mid-job, restart, replay."""
    from repro.dist.protocol import fetch_text
    from repro.serve import wait_for_plan

    root = tmp / "recovery_store"
    chaos = {"REPRO_SERVE_CHAOS": f"kill-once:job-@{tmp}"}
    proc, url = spawn_serve(root, budget, chaos)
    t0 = time.monotonic()
    try:
        code, body = request_plan(url, PLATFORM, P, N)
        assert code == 202
        job_id = body["job"]
        proc.wait(timeout=600)  # the chaos hook SIGKILLs mid-job
        assert proc.returncode == -signal.SIGKILL, proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    killed_after = round(time.monotonic() - t0, 4)

    t1 = time.monotonic()
    proc2, url2 = spawn_serve(root, budget, chaos)
    try:
        done = wait_for_plan(url2, job_id, timeout=600)
        recovery_wall = round(time.monotonic() - t1, 4)
        assert done["recovered"] is True, "job did not come back via replay"
        text = fetch_text(url2, "/metrics")
        replayed = prom_metric(text, "serve_jobs_recovered_total")
        resims = prom_metric(text, "sim_runs_total")
        assert replayed >= 1, "no job replayed from the journal"
        assert resims == 0, f"recovery re-simulated {resims} evaluations"
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=120)
    assert proc2.returncode == 0, "drained shutdown did not exit 0"
    print(f"  killed mid-job after {killed_after}s; restart replayed "
          f"{int(replayed)} job(s) to DONE in {recovery_wall}s "
          f"(0 re-simulations)")
    return {
        "killed_after_s": killed_after,
        "recovery_wall_s": recovery_wall,
        "replayed_jobs": int(replayed),
        "resimulated_evals": int(resims),
        "drained_exit_code": proc2.returncode,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=4)
    ap.add_argument("--samples", type=int, default=200,
                    help="sequential warm requests for the latency phase")
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--per-client", type=int, default=50)
    ap.add_argument("--out", default="BENCH_serve.json")
    args = ap.parse_args()

    clear_cache()
    reg = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="bench_serve_") as tmp:
        with scoped_registry(reg):
            server = PlanServer(ServeConfig(
                root=str(Path(tmp) / "store"), default_budget=args.budget,
            ))
        url = server.start()
        try:
            # -- 1. cold miss: racing first posts, then one tuning job --
            print(f"cold miss: {args.clients} concurrent first requests")
            barrier = threading.Barrier(args.clients)
            first: list = [None] * args.clients

            def cold(i: int) -> None:
                barrier.wait()
                first[i] = request_plan(url, PLATFORM, P, N)

            threads = [threading.Thread(target=cold, args=(i,))
                       for i in range(args.clients)]
            t0 = time.monotonic()
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            # stragglers may land after the job finished and see a warm
            # 200 — fine; the single-flight proof is one job id + the
            # enqueued counter below
            jobs = {body["job"] for code, body in first if code == 202}
            assert len(jobs) == 1, f"single-flight broken: {jobs}"
            wait_for_plan(url, jobs.pop(), timeout=600)
            cold_wall = round(time.monotonic() - t0, 4)
            enqueued = reg.value("serve_jobs_enqueued_total")
            assert enqueued == 1, f"{enqueued} jobs for one plan key"
            print(f"  tuned in {cold_wall}s, {int(enqueued)} job "
                  f"for {args.clients} clients")

            # -- 2. warm-hit latency, sequential ------------------------
            sims_before = sim_runs(reg)
            conns_before = server.http.connections_opened
            lat: list[float] = []

            def sequential() -> None:
                for _ in range(args.samples):
                    t = time.perf_counter()
                    code, _body = request_plan(url, PLATFORM, P, N)
                    lat.append(time.perf_counter() - t)
                    assert code == 200

            th = threading.Thread(target=sequential)
            th.start()
            th.join()
            assert len(lat) == args.samples, "sequential client failed"
            warm = {
                "samples": args.samples,
                "connections_opened":
                    server.http.connections_opened - conns_before,
                "p50_ms": round(percentile(lat, 0.50) * 1e3, 3),
                "p95_ms": round(percentile(lat, 0.95) * 1e3, 3),
                "p99_ms": round(percentile(lat, 0.99) * 1e3, 3),
                "mean_ms": round(statistics.mean(lat) * 1e3, 3),
            }
            warm_sims = sim_runs(reg) - sims_before
            assert warm_sims == 0, f"warm phase simulated {warm_sims} runs"
            print(f"  warm hits: p50 {warm['p50_ms']}ms  "
                  f"p99 {warm['p99_ms']}ms  (0 simulations, "
                  f"{warm['connections_opened']} connection(s))")

            # -- 3. concurrent warm throughput --------------------------
            total = args.clients * args.per_client
            barrier = threading.Barrier(args.clients)
            errors: list[str] = []

            def hammer() -> None:
                barrier.wait()
                for _ in range(args.per_client):
                    code, _b = request_plan(url, PLATFORM, P, N)
                    if code != 200:
                        errors.append(f"code {code}")

            threads = [threading.Thread(target=hammer)
                       for _ in range(args.clients)]
            conns_before = server.http.connections_opened
            t0 = time.monotonic()
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            wall = time.monotonic() - t0
            assert not errors, errors[:3]
            throughput = {
                "clients": args.clients,
                "connections_opened":
                    server.http.connections_opened - conns_before,
                "requests": total,
                "wall_s": round(wall, 4),
                "requests_per_s": round(total / wall, 1),
            }
            print(f"  {total} concurrent warm requests in "
                  f"{throughput['wall_s']}s -> "
                  f"{throughput['requests_per_s']} req/s over "
                  f"{throughput['connections_opened']} connection(s)")
        finally:
            server.stop()

        # -- 4. kill-and-restart recovery (subprocess, real signals) ----
        print("recovery: SIGKILL a serve process mid-job, restart, replay")
        recovery = bench_recovery(Path(tmp), args.budget)

    payload = {
        "benchmark": "plan server: cold single-flight + warm-hit latency",
        "platform": PLATFORM,
        "cell": [P, N],
        "budget": args.budget,
        "cold": {
            "clients": args.clients,
            "wall_s": cold_wall,
            "tuning_jobs": int(enqueued),
        },
        "warm_latency": warm,
        "warm_simulations": warm_sims,
        "throughput": throughput,
        "recovery": recovery,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"ok  ->  {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
