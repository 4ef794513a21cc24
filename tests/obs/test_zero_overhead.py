"""Tracing must be free when disabled and inert when enabled.

The acceptance bar (tier 1): with tracing disabled nothing changed at
all, and — stronger — *enabling* a tracer cannot perturb the simulation
either, because instrumentation only reads virtual clocks.  Virtual
times, per-rank event timelines, and per-run ``SchedStats`` must be
bit-identical with and without an installed tracer, on both rank
backends.
"""

import pytest

from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.machine import UMD_CLUSTER
from repro.obs import (
    Tracer,
    current_tracer,
    reset_sched_totals,
    sched_totals,
    tracing,
)
from repro.simmpi import run_spmd
from repro.simmpi.engine import SchedStats


def prog_overlap(ctx):
    """The paper's manual-progression pattern — exercises every
    scheduler path (handoffs, probe polls, wakeups)."""
    comm = ctx.comm
    req = comm.ialltoall(1 << 22)
    ctx.compute_with_progress(0.004, [(req, 8)], "FFTy")
    yield from comm.co_wait(req, label="Wait")
    total = yield from comm.co_allreduce(ctx.rank, nbytes=8)
    return ctx.now, total


def fingerprint(sim):
    return (
        sim.elapsed,
        sim.results,
        [t.by_label for t in sim.traces],
        [t.events for t in sim.traces],
        (sim.stats.handoffs, sim.stats.probe_polls, sim.stats.wakeups),
    )


@pytest.mark.parametrize("backend", ["threads", "tasks"])
def test_spmd_run_identical_with_and_without_tracer(backend):
    baseline = run_spmd(6, prog_overlap, UMD_CLUSTER,
                        record_events=True, backend=backend)
    with tracing(Tracer(rank_spans=True)) as tr:
        traced = run_spmd(6, prog_overlap, UMD_CLUSTER,
                          record_events=True, backend=backend)
    assert fingerprint(traced) == fingerprint(baseline)
    # ... and the trace actually captured the run it didn't perturb.
    assert tr.counters["sched.handoffs"] == baseline.stats.handoffs
    assert tr.counters["sched.probe_polls"] == baseline.stats.probe_polls
    assert tr.counters["sched.wakeups"] == baseline.stats.wakeups
    assert sum(len(t.events) for t in baseline.traces) == len(tr.spans)


@pytest.mark.parametrize("backend", ["threads", "tasks"])
def test_rank_span_recording_does_not_change_times(backend):
    """rank_spans forces event recording on; that must not move clocks."""
    baseline = run_spmd(6, prog_overlap, UMD_CLUSTER, backend=backend)
    with tracing(Tracer(rank_spans=True)):
        traced = run_spmd(6, prog_overlap, UMD_CLUSTER, backend=backend)
    assert traced.elapsed == baseline.elapsed
    assert [t.by_label for t in traced.traces] == \
           [t.by_label for t in baseline.traces]
    assert (traced.stats.handoffs, traced.stats.probe_polls) == \
           (baseline.stats.handoffs, baseline.stats.probe_polls)


def test_pipeline_run_identical_under_tracing():
    """Full instrumented pipeline: attrs on FFTy/Pack/Unpack/FFTx and
    Ialltoall must not change the simulated result."""
    shape = ProblemShape(64, 64, 64, 4)
    base, _ = run_case("NEW", UMD_CLUSTER, shape)
    with tracing(Tracer(rank_spans=True)):
        traced, _ = run_case("NEW", UMD_CLUSTER, shape)
    assert traced.sim.elapsed == base.sim.elapsed
    assert traced.sim.breakdown() == base.sim.breakdown()


class TestAttrsOnlyWhereRecorded:
    """Per-tile and per-post attrs are built only when a tracer is
    installed *and* the ranks record events to attach them to."""

    SHAPE = ProblemShape(64, 64, 64, 4)

    @staticmethod
    def _prog(ctx, shape):
        from repro.core.plan import ParallelFFT3D
        from repro.core.variants import NEW, baseline_params

        plan = ParallelFFT3D(ctx, shape, baseline_params(NEW, shape))
        yield from plan.steps()
        return plan._obs

    def _run(self, tracer, record_events):
        if tracer is None:
            return run_spmd(4, self._prog, UMD_CLUSTER, self.SHAPE,
                            record_events=record_events)
        with tracing(tracer):
            return run_spmd(4, self._prog, UMD_CLUSTER, self.SHAPE,
                            record_events=record_events)

    @pytest.mark.parametrize("tracer, record_events, want", [
        (None, False, False),
        (None, True, False),
        (Tracer(rank_spans=False), False, False),  # sweep/grid --trace
        (Tracer(rank_spans=False), True, True),
        (Tracer(rank_spans=True), False, True),  # run --trace
    ])
    def test_attrs_built_only_for_recorded_events(self, tracer,
                                                  record_events, want):
        sim = self._run(tracer, record_events)
        assert sim.results == [want] * 4
        if record_events or (tracer is not None and tracer.rank_spans):
            attrs = [a for t in sim.traces for a in t.attrs]
            assert any(a is not None for a in attrs) == want
        else:
            assert all(t.attrs is None for t in sim.traces)

    def test_recorded_attrs_with_tracer(self):
        sim = self._run(Tracer(rank_spans=False), record_events=True)
        events, attrs = sim.traces[0].events, sim.traces[0].attrs
        by_label = {}
        for (_t0, _t1, label), a in zip(events, attrs):
            by_label.setdefault(label, a)
        assert set(by_label["FFTy"]) == {"tile", "tz", "bytes"}
        assert by_label["Ialltoall"] == {
            "send_bytes": by_label["FFTy"]["bytes"], "peers": 4}


def test_no_tracer_leaks_after_tracing_block():
    with tracing(Tracer()):
        pass
    assert current_tracer() is None


class TestSchedTotals:
    def test_totals_accumulate_and_reset(self):
        reset_sched_totals()
        run_spmd(4, prog_overlap, UMD_CLUSTER)
        totals = sched_totals()
        before = (totals.handoffs, totals.probe_polls, totals.wakeups)
        assert totals.handoffs > 0 and totals.probe_polls > 0
        snap = reset_sched_totals()
        # the snapshot keeps the pre-reset values; the live accumulator
        # (sched_totals() returns the object itself) is zeroed in place
        assert (snap.handoffs, snap.probe_polls, snap.wakeups) == before
        assert (totals.handoffs, totals.probe_polls, totals.wakeups) == (0, 0, 0)

    def test_reset_method_on_stats(self):
        stats = SchedStats(backend="tasks", handoffs=3, probe_polls=2,
                           wakeups=1)
        stats.reset()
        assert (stats.handoffs, stats.probe_polls, stats.wakeups) == (0, 0, 0)
        assert stats.backend == "tasks"

    def test_per_run_stats_isolated_from_totals(self):
        reset_sched_totals()
        a = run_spmd(4, prog_overlap, UMD_CLUSTER)
        b = run_spmd(4, prog_overlap, UMD_CLUSTER)
        # identical runs -> identical per-run counters (no global bleed)
        assert a.stats.handoffs == b.stats.handoffs
        assert sched_totals().handoffs == a.stats.handoffs + b.stats.handoffs
