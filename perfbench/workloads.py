"""The benchmark's four workloads and their correctness gates.

Each workload runs the program only through its public entry points.
``setup`` does everything before the first measured operation; ``op``
is one measured operation and returns what ``check`` verifies outside
the timed region.  A failed check is counted, never raised, so one bad
answer cannot abort a run.  Library functions are called through their
modules (``rexec.evaluate_cells``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import bisect
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy as np

PLATFORM = "UMD-Cluster"


class Reference:
    """Host-speed yardstick timed in the same run as the ops.

    On a shared host, raw walls drift by 10-20% from run to run, and
    within a run, while the program stays the same.  ``numpy.fft.fftn``
    of a fixed 32^3 complex array drifts with them, so an op's wall
    divided by the reference timed around it compares across runs (and
    hosts) where raw walls do not.  It is sampled every ``period``
    seconds, inside long ops too: a timer signal runs the sample in the
    main thread, and :meth:`spent` gives the sampling time to subtract
    from an op's wall.
    """

    def __init__(self, calls: int = 3, period: float = 0.25) -> None:
        self.x = np.random.default_rng(0).standard_normal((32, 32, 32)) + 0j
        self.calls, self.period = calls, period
        #: (time, wall) of every reference call, in time order
        self.samples: list[tuple[float, float]] = []
        self.intervals: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(self.calls):
            t0 = time.perf_counter()
            np.fft.fftn(self.x)
            self.samples.append((t0, time.perf_counter() - t0))
        self.intervals.append((start, time.perf_counter()))

    def spent(self, t0: float, t1: float) -> float:
        """Sampling time inside ``[t0, t1]`` (samples never straddle it)."""
        total = 0.0
        for start, end in reversed(self.intervals):
            if start < t0:
                break
            if end <= t1:
                total += end - start
        return total

    def around(self, t0: float, t1: float, mean: bool,
               margin: float = 3.0) -> float:
        """Median (or mean) reference wall within ``margin`` seconds of
        ``[t0, t1]``; see :attr:`Workload.ref_mean`."""
        if not self.samples:  # a run shorter than one sampling period
            self.sample()
        times = [t for t, _ in self.samples]
        stat = statistics.fmean if mean else statistics.median
        while True:
            lo = bisect.bisect_left(times, t0 - margin)
            hi = bisect.bisect_right(times, t1 + margin)
            if hi > lo:
                return stat(w for _, w in self.samples[lo:hi])
            margin *= 2

    @contextmanager
    def sampling(self):
        """Sample every ``period`` seconds while the block runs (main
        thread only: the timer's handler runs there)."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Workload:
    """Base: a seeded workload with counted correctness checks."""

    name = ""
    #: what one measured op is (printed with the op count)
    op_text = ""
    #: whether the seed changes the inputs (recorded in the output)
    seed_used = True
    #: fixed tail percentile: at least ten samples lie beyond it at the
    #: op counts a run of the benchmark's length produces
    tail_q = 90.0
    #: scale ops by the mean reference around them instead of the
    #: median.  A workload that keeps both vCPUs busy loses time in
    #: proportion to what the host steals from them, which only the mean
    #: sees; a single-threaded one is steadier against the median.
    ref_mean = False
    #: peak RSS is read after this many ops (or at the end of a shorter
    #: run): uncollected cyclic garbage makes the peak creep with the op
    #: count, which varies with host speed
    rss_ops = 50

    def __init__(self, seed: int, root: Path, workdir: Path,
                 traced: bool = False) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rss_mb: float | None = None

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    # -- hooks ---------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks that span all operations."""

    def close(self) -> None:
        """Release processes and files; safe to call twice."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def baselines(self) -> dict[str, float]:
        """Untraced reference timings measured in the traced run."""
        return {}

    def layer_values(self) -> dict[str, float]:
        """Per-op values only the workload knows (traced run)."""
        return {}

    def loop(self, seconds: float, op_span: Callable[[], ContextManager],
             ref: Reference | None = None) -> list[tuple[float, float, float]]:
        """Closed loop of ops for about ``seconds``; returns each op's
        start, end and wall net of reference samples.  Another op starts
        only while at least half an average iteration fits, so the long
        ``grid-tune`` op runs the same number of times on every run."""
        ops: list[tuple[float, float, float]] = []
        start = time.perf_counter()
        with ref.sampling() if ref is not None else nullcontext():
            while True:
                try:
                    with op_span():
                        t0 = time.perf_counter()
                        out = self.op()
                        t1 = time.perf_counter()
                except Exception as exc:  # a failed op, not an aborted run
                    self.record(False, f"op raised {exc!r}")
                else:
                    ops.append((t0, t1, t1 - t0 - (ref.spent(t0, t1) if ref
                                                   else 0.0)))
                    if len(ops) == self.rss_ops:
                        self.rss_mb = self.peak_rss_mb()
                    self.check(out)
                elapsed = time.perf_counter() - start
                done = max(len(ops), 1)
                if elapsed + 0.5 * elapsed / done > seconds:
                    return ops


# ---------------------------------------------------------------------------
# app-turbulence
# ---------------------------------------------------------------------------


class AppTurbulence(Workload):
    """Real-payload steady state: pseudo-spectral steps at 64^3, p=8."""

    name = "app-turbulence"
    op_text = "one pseudo-spectral step (two distributed transforms)"
    N, P, WARMUP = 64, 8, 2

    def setup(self) -> None:
        from repro.apps import AppConfig, TurbulenceDriver, resolve_plan
        from repro.core.params import ProblemShape
        from repro.machine.platforms import get_platform

        cfg = AppConfig(
            shape=ProblemShape(self.N, self.N, self.N, self.P),
            platform=get_platform(PLATFORM),
            variant="NEW", steps=1, warmup=self.WARMUP, seed=self.seed,
        )
        self.driver = drv = TurbulenceDriver(cfg)
        plan = resolve_plan(cfg)  # no params/server/budget: the baseline
        drv.params, drv.variant = plan.params, plan.variant
        drv.prepare()
        self.oracle = drv.u_hat.copy()
        self.step_index = 0
        self.max_error = 0.0
        for _ in range(self.WARMUP):
            self.check(self.op(), counted=False)

    def op(self) -> np.ndarray:
        self.driver.step(self.step_index)
        self.step_index += 1
        return self.driver.u_hat

    def check(self, out: np.ndarray, counted: bool = True) -> None:
        """The driver's history-replay oracle, advanced one step at a
        time: the same evolution through ``numpy.fft``."""
        drv = self.driver
        self.oracle = drv._advance(self.oracle, np.fft.fftn, np.fft.ifftn)
        scale = float(np.abs(self.oracle).max()) or 1.0
        err = float(np.abs(out - self.oracle).max()) / scale
        self.max_error = max(self.max_error, err)
        if counted:
            self.record(err <= drv.numerics_tol,
                        f"step {self.step_index}: oracle error {err:.3g}")

    def baselines(self) -> dict[str, float]:
        """Plain single-threaded numpy fftn+ifftn of the same field."""
        field_ = self.driver.u_hat.copy()
        walls = []
        for _ in range(15):
            t0 = time.perf_counter()
            np.fft.ifftn(np.fft.fftn(field_))
            walls.append(time.perf_counter() - t0)
        return {"apps.numpy_pair_s": float(np.median(walls))}

    def layer_values(self) -> dict[str, float]:
        return {"apps.oracle_error": self.max_error}


# ---------------------------------------------------------------------------
# grid-tune
# ---------------------------------------------------------------------------


class GridTune(Workload):
    """Virtual-payload auto-tuning of the Table 2(a) quick cells, cold."""

    name = "grid-tune"
    op_text = "one cold two-cell grid (its two cells are the checked ops)"
    seed_used = False  # the paper's fixed cells; nothing to draw
    tail_q = 100.0     # a run holds only a few grids: the tail is the max
    CELLS = [(16, 256), (32, 640)]
    BUDGET = 40

    def setup(self) -> None:
        import repro.exec as rexec
        from repro.bench import clear_cache
        from repro.core.api import run_case
        from repro.core.params import ProblemShape
        from repro.fft.wisdom import GLOBAL_WISDOM
        from repro.machine.platforms import get_platform
        from repro.tuning import EvalStore

        self.rexec, self.clear_cache = rexec, clear_cache
        self.wisdom, self.EvalStore = GLOBAL_WISDOM, EvalStore
        self.run_case, self.ProblemShape = run_case, ProblemShape
        self.platform = get_platform(PLATFORM)
        self.first: tuple[float, float] | None = None
        self.virtual: tuple[float, float] = (0.0, 0.0)
        self.eval_records = 0

    def op(self):
        self.clear_cache()
        self.wisdom.forget()
        tmp = Path(tempfile.mkdtemp(prefix="grid-", dir=self.workdir))
        store = self.rexec.ResultStore(tmp / "cells")
        evals = self.EvalStore()
        cells = self.rexec.evaluate_cells(
            PLATFORM, self.CELLS, jobs=1, max_evaluations=self.BUDGET,
            store=store, eval_store=evals,
        )
        evals.save(tmp / "evals.jsonl")
        return cells, store, evals, tmp

    def check(self, out) -> None:
        cells, store, evals, tmp = out
        for cell in cells:
            shape = self.ProblemShape(cell.n, cell.n, cell.n, cell.p)
            bad = []
            for variant in ("FFTW", "NEW", "TH"):
                res, _ = self.run_case(variant, self.platform, shape,
                                       cell.params[variant])
                if res.elapsed != cell.times[variant]:
                    bad.append(f"{variant} {res.elapsed!r} != "
                               f"{cell.times[variant]!r}")
            if store.get(*cell.key()) is None:
                bad.append("cell missing from the result store")
            self.record(not bad, f"cell p={cell.p} N={cell.n}: {bad}")
        virtual = (
            math.exp(sum(math.log(c.speedup("NEW")) for c in cells)
                     / len(cells)),
            sum(c.tuning_times["NEW"] for c in cells),
        )
        if self.first is None:
            self.first = virtual
        elif virtual != self.first:
            self.record(False, f"virtual results moved between grids: "
                               f"{virtual} != {self.first}")
        self.virtual = virtual
        self.eval_records = len(evals)
        shutil.rmtree(tmp, ignore_errors=True)

    def layer_values(self) -> dict[str, float]:
        speedup, tuning_s = self.virtual
        return {
            "tuning.virtual_speedup_new": speedup,
            "tuning.virtual_tuning_s": tuning_s,
            "tuning.evalstore_records": float(self.eval_records),
        }


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------


class ServeWarm(Workload):
    """Warm plan hits from a closed loop of two clients."""

    name = "serve-warm"
    op_text = "one warm POST /plan"
    CELLS = [(p, n) for p in (4, 8) for n in (32, 48, 64)]
    BUDGET = 4
    CLIENTS = 2
    BURST_S = 0.25
    ref_mean = True  # two clients and the server keep both vCPUs busy
    proc: subprocess.Popen | None = None
    server = None
    tmp: Path | None = None

    def setup(self) -> None:
        import repro.serve as rserve
        from repro.dist.protocol import fetch_text
        from repro.obs import parse_prometheus

        self.rserve, self.fetch_text = rserve, fetch_text
        self.parse_prometheus = parse_prometheus
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=self.workdir))
        if self.traced:
            # in this process, so the traced run can wrap its request
            # handling; timed runs use a ``repro serve`` subprocess
            self.server = rserve.PlanServer(rserve.ServeConfig(
                root=str(self.tmp / "store"), default_budget=self.BUDGET))
            self.url = self.server.start()
        else:
            self.url = self._spawn()
        self.expected: dict[tuple[int, int], dict] = {}
        pending = []
        for p, n in self.CELLS:
            code, body = rserve.request_plan(self.url, PLATFORM, p, n,
                                             budget=self.BUDGET)
            pending.append((p, n, code, body))
        for p, n, code, body in pending:
            if code == 202:
                body = rserve.wait_for_plan(self.url, body["job"],
                                            timeout=120, poll_s=0.02)
            self.expected[(p, n)] = body["plan"]["params"]
        order = np.random.default_rng(self.seed).permutation(len(self.CELLS))
        self.order = [self.CELLS[i] for i in order]
        self.sims_before = self._sim_runs()
        self.sim_runs = 0.0
        self.requests = 0
        self.non_200 = 0

    def _spawn(self) -> str:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--root", str(self.tmp / "store"), "--budget", str(self.BUDGET),
             "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=str(self.root),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on " not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return line.split("listening on ", 1)[1].split()[0]

    def _sim_runs(self) -> float:
        samples = self.parse_prometheus(self.fetch_text(self.url, "/metrics"))
        return sum(v for k, v in samples.items()
                   if k.split("{")[0] == "sim_runs_total")

    def op(self, cell: tuple[int, int]):
        p, n = cell
        try:
            code, body = self.rserve.request_plan(self.url, PLATFORM, p, n,
                                                  budget=self.BUDGET)
        except Exception as exc:  # counted as a failed op, never raised
            return cell, None, repr(exc)
        return cell, code, body

    def check(self, out) -> None:
        cell, code, body = out
        self.requests += 1
        if code != 200:
            self.non_200 += 1
            self.record(False, f"{cell}: status {code} {str(body)[:200]}")
            return
        got = body.get("plan", {}).get("params")
        self.record(got == self.expected[cell],
                    f"{cell}: params {got} != stored {self.expected[cell]}")

    def loop(self, seconds, op_span, ref=None):
        """Both clients run in bursts of ``BURST_S``; the reference is
        sampled between bursts, while no request is in flight."""
        ops: list[tuple[float, float, float]] = []
        #: each client's position in the seeded cell order
        cursor = [c * len(self.order) // self.CLIENTS
                  for c in range(self.CLIENTS)]
        lock = threading.Lock()
        errors: list[BaseException] = []

        def client(c: int, burst_end: float) -> None:
            try:
                while time.perf_counter() < burst_end:
                    cell = self.order[cursor[c] % len(self.order)]
                    cursor[c] += 1
                    with op_span():
                        t0 = time.perf_counter()
                        out = self.op(cell)
                        t1 = time.perf_counter()
                    with lock:
                        ops.append((t0, t1, t1 - t0))
                        self.check(out)
            except BaseException as exc:
                errors.append(exc)

        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and not errors:
            burst_end = min(time.perf_counter() + self.BURST_S, deadline)
            threads = [threading.Thread(target=client, args=(c, burst_end))
                       for c in range(self.CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(self.BURST_S + 120)
            if ref is not None:
                ref.sample()
        if errors:
            raise errors[0]
        return ops

    def finish(self) -> None:
        self.sim_runs = self._sim_runs() - self.sims_before
        self.record(self.sim_runs == 0,
                    f"warm load ran {self.sim_runs} simulations")

    def peak_rss_mb(self) -> float:
        if self.traced:
            return super().peak_rss_mb()
        # the server subprocess, read once it has been waited for (the
        # set-up probes run after this)
        self.close()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
            self.proc.stdout.close()
            self.proc = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def layer_values(self) -> dict[str, float]:
        ops = max(self.requests, 1)
        return {"serve.sim_runs": self.sim_runs / ops,
                "serve.non_200": self.non_200 / ops}


# ---------------------------------------------------------------------------
# trace-run
# ---------------------------------------------------------------------------


class TraceRun(Workload):
    """``repro run --trace``, repeated: NEW 128^3 on p=8, rank spans on."""

    name = "trace-run"
    op_text = "one traced run_case plus write_trace"
    seed_used = False  # one fixed problem, as the CLI path runs it
    N, P = 128, 8

    def setup(self) -> None:
        import repro.core.api as core_api
        import repro.obs as robs
        from repro.core.params import ProblemShape
        from repro.machine.platforms import get_platform

        self.core_api, self.robs = core_api, robs
        self.platform = get_platform(PLATFORM)
        self.shape = ProblemShape(self.N, self.N, self.N, self.P)
        self.path = self.workdir / f"trace-run-{os.getpid()}.json"
        self.spans: list[int] = []
        self.record_walls: list[float] = []
        self.check(self.op(), counted=False)

    def op(self):
        tracer = self.robs.Tracer(rank_spans=True, meta={"command": "run"})
        t0 = time.perf_counter()
        with self.robs.tracing(tracer):
            self.core_api.run_case("NEW", self.platform, self.shape)
        self.record_walls.append(time.perf_counter() - t0)
        self.robs.write_trace(tracer, self.path)
        return tracer

    def check(self, tracer, counted: bool = True) -> None:
        loaded = self.robs.load_trace(self.path)
        n = len(tracer.spans)
        if counted:
            self.spans.append(n)
            self.record(n > 0 and tracer.dropped == 0
                        and len(loaded.spans) == n,
                        f"trace file holds {len(loaded.spans)} of {n} spans")

    def baselines(self) -> dict[str, float]:
        """Untraced run_case of the same problem, same run."""
        walls = []
        for _ in range(20):
            t0 = time.perf_counter()
            self.core_api.run_case("NEW", self.platform, self.shape)
            walls.append(time.perf_counter() - t0)
        traced = float(np.median(self.record_walls))
        return {"obs.record_s": traced - float(np.median(walls))}

    def layer_values(self) -> dict[str, float]:
        return {"obs.spans": float(np.median(self.spans))
                if self.spans else 0.0}

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AppTurbulence, GridTune, ServeWarm, TraceRun)
}
