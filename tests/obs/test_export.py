"""Exporters and loaders: Chrome trace-event JSON, JSONL, and replay.

The acceptance bar for the Chrome format: ``--trace out.json`` on a run
yields a valid ``traceEvents`` payload whose simulated ranks appear as
separate tracks (pid/tid pairs) with ``"X"`` complete events for the
pipeline steps — loadable by Perfetto / ``chrome://tracing``.
"""

import json

import pytest

from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.machine import UMD_CLUSTER
from repro.obs import (
    Tracer,
    VIRTUAL,
    WALL,
    chrome_events,
    emit_rank_spans,
    export_chrome,
    export_jsonl,
    load_trace,
    rank_timelines,
    tracing,
    write_trace,
)


@pytest.fixture(scope="module")
def traced_run():
    """One full traced pipeline run (module-scoped: the sim is slow-ish)."""
    tracer = Tracer(rank_spans=True, meta={"command": "test"})
    with tracing(tracer):
        result, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
    return tracer, result


class TestChromeExport:
    def test_traceevents_structure(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        n = export_chrome(tracer, path)
        payload = json.loads(path.read_text())
        assert set(payload) >= {"traceEvents", "displayTimeUnit", "otherData"}
        assert payload["otherData"]["command"] == "test"
        assert len(payload["traceEvents"]) == n

    def test_ranks_are_tracks_with_pid_tid(self, traced_run):
        tracer, _ = traced_run
        events = chrome_events(tracer)
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        rank_tids = {e["args"]["name"]: (e["pid"], e["tid"]) for e in meta
                     if e["args"]["name"].startswith("rank ")}
        # 4 simulated ranks -> 4 virtual-time tracks, tid == rank id
        assert rank_tids == {f"rank {i}": (1, i) for i in range(4)}

    def test_pipeline_steps_are_complete_events(self, traced_run):
        tracer, _ = traced_run
        events = chrome_events(tracer)
        xs = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in xs}
        assert {"FFTy", "Pack", "Ialltoall", "Unpack", "FFTx"} <= names
        for e in xs:
            assert e["dur"] >= 0.0 and {"ts", "pid", "tid"} <= set(e)

    def test_step_attrs_survive(self, traced_run):
        tracer, _ = traced_run
        ffty = [e for e in chrome_events(tracer)
                if e["ph"] == "X" and e["name"] == "FFTy"]
        assert ffty and all(
            {"tile", "tz", "bytes"} <= set(e["args"]) for e in ffty
        )

    def test_clock_domains_split_by_pid(self, traced_run):
        tracer, _ = traced_run
        for e in chrome_events(tracer):
            if e["ph"] != "X":
                continue
            assert e["pid"] == (1 if e["cat"] == VIRTUAL else 2)

    def test_summary_instant_event(self, traced_run):
        tracer, _ = traced_run
        instants = [e for e in chrome_events(tracer) if e["ph"] == "I"]
        (summary,) = instants
        assert summary["args"]["sched.handoffs"] > 0


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.jsonl"
        n = export_jsonl(tracer, path)
        assert n == len(path.read_text().splitlines())
        back = load_trace(path)
        assert back.meta["command"] == "test"
        assert len(back.spans) == len(tracer.spans)
        assert back.counters == tracer.counters
        assert back.histograms == tracer.histograms
        a, b = tracer.spans[0], back.spans[0]
        assert (a.track, a.name, a.t0, a.t1, a.clock, a.attrs) == \
               (b.track, b.name, b.t0, b.t1, b.clock, b.attrs)

    def test_chrome_load_recovers_spans(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        export_chrome(tracer, path)
        back = load_trace(path)
        assert len(back.spans) == len(tracer.spans)
        tracks = {sp.track for sp in back.spans}
        assert {f"rank {i}" for i in range(4)} <= tracks
        clocks = {sp.name: sp.clock for sp in back.spans}
        assert clocks["FFTy"] == VIRTUAL

    def test_write_trace_dispatches_on_suffix(self, traced_run, tmp_path):
        tracer, _ = traced_run
        write_trace(tracer, tmp_path / "t.jsonl")
        write_trace(tracer, tmp_path / "t.json")
        first = (tmp_path / "t.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["kind"] == "meta"
        assert "traceEvents" in json.loads((tmp_path / "t.json").read_text())


class TestRankTimelines:
    def test_round_trip_matches_engine_events(self, traced_run, tmp_path):
        tracer, result = traced_run
        path = tmp_path / "t.jsonl"
        write_trace(tracer, path)
        events, total = rank_timelines(load_trace(path))
        assert len(events) == 4
        assert events == [t.events for t in result.sim.traces]
        assert total == pytest.approx(
            max(t1 for evs in events for _t0, t1, _l in evs)
        )

    def test_no_rank_spans(self):
        tr = Tracer()
        tr.add_span("tuning", "tune.eval", 0.0, 1.0, WALL)
        assert rank_timelines(tr) == ([], 0.0)

    def test_missing_rank_gets_empty_timeline(self):
        tr = Tracer()
        tr.add_span("rank 0", "FFTy", 0.0, 1.0, VIRTUAL)
        tr.add_span("rank 2", "FFTy", 0.0, 2.0, VIRTUAL)
        events, total = rank_timelines(tr)
        assert [len(e) for e in events] == [1, 0, 1]
        assert total == 2.0


def test_jsonl_loader_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"kind": "meta", "command": "x"}\n\n'
        '{"kind": "span", "track": "rank 0", "name": "FFTy",'
        ' "t0": 0.0, "t1": 1.0}\n'
    )
    back = load_trace(path)
    assert len(back.spans) == 1 and back.meta["command"] == "x"


@pytest.fixture(scope="module")
def capped_run():
    """A traced run whose span cap drops most of its rank spans."""
    tracer = Tracer(rank_spans=True, meta={"command": "test"}, max_spans=100)
    with tracing(tracer):
        run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
    return tracer


class TestTelemetryRoundTrip:
    """Both loaders restore the counters and the dropped-span count."""

    def test_capped_run_has_telemetry(self, capped_run):
        assert len(capped_run.spans) == 100
        assert capped_run.dropped == 532
        assert len(capped_run.counters) == 4

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_counters_and_dropped_survive(self, capped_run, tmp_path, suffix):
        path = tmp_path / f"trace{suffix}"
        write_trace(capped_run, path)
        back = load_trace(path)
        assert back.counters == capped_run.counters
        assert back.dropped == capped_run.dropped
        assert len(back.spans) == len(capped_run.spans)
        assert back.meta == capped_run.meta  # spans_dropped is not meta

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_rewrite_keeps_dropped_count(self, capped_run, tmp_path, suffix):
        """``repro trace in --out out`` writes the count it read."""
        from repro.cli import main

        src, out = tmp_path / f"in{suffix}", tmp_path / f"out{suffix}"
        write_trace(capped_run, src)
        assert main(["trace", str(src), "--out", str(out)]) == 0
        back = load_trace(out)
        assert back.dropped == 532
        assert back.counters == capped_run.counters

    def test_histogram_digests_are_not_counters(self, tmp_path):
        tr = Tracer()
        tr.count("hits", 3)
        tr.observe("wall", 0.5)
        path = tmp_path / "t.json"
        export_chrome(tr, path)
        back = load_trace(path)
        assert back.counters == {"hits": 3} and back.dropped == 0


class TestCompactChrome:
    def test_file_is_compact_json(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        export_chrome(tracer, path)
        text = path.read_text()
        assert "\n" not in text
        assert text == json.dumps(json.loads(text), separators=(",", ":"))

    def test_attrs_round_trip_for_every_span(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        export_chrome(tracer, path)
        back = load_trace(path)
        assert [(s.track, s.name, s.clock, s.attrs) for s in back.spans] == \
               [(s.track, s.name, s.clock, s.attrs) for s in tracer.spans]

    def test_spans_without_attrs_carry_no_args(self, traced_run):
        tracer, _ = traced_run
        xs = [e for e in chrome_events(tracer) if e["ph"] == "X"]
        assert any(e["name"] == "Test" for e in xs)
        for e in xs:
            assert ("args" in e) == bool(e.get("args"))


class TestEmitRankSpans:
    def _traces(self):
        from repro.simmpi.engine import RankTrace

        shared = {"tile": 0}
        return [
            RankTrace(events=[(0.0, 1.0, "FFTy"), (1.0, 2.0, "Pack")],
                      attrs=[shared, shared]),
            RankTrace(),  # recorded nothing
            RankTrace(events=[(0.0, 0.5, "Wait")], attrs=None),
        ]

    def test_spans_per_rank_track_with_copied_attrs(self):
        tr = Tracer()
        emit_rank_spans(tr, self._traces())
        assert [(s.track, s.name, s.t0, s.t1, s.clock, s.attrs)
                for s in tr.spans] == [
            ("rank 0", "FFTy", 0.0, 1.0, VIRTUAL, {"tile": 0}),
            ("rank 0", "Pack", 1.0, 2.0, VIRTUAL, {"tile": 0}),
            ("rank 2", "Wait", 0.0, 0.5, VIRTUAL, {}),
        ]
        assert tr.spans[0].attrs is not tr.spans[1].attrs

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 5])
    def test_cap_matches_one_add_span_per_event(self, cap):
        batch, single = Tracer(max_spans=cap), Tracer(max_spans=cap)
        traces = self._traces()
        emit_rank_spans(batch, traces)
        for idx, t in enumerate(traces):
            if t.events is None:
                continue
            attrs = t.attrs if t.attrs is not None else [None] * len(t.events)
            for (t0, t1, label), a in zip(t.events, attrs):
                single.add_span(f"rank {idx}", label, t0, t1, VIRTUAL, a)
        assert batch.spans == single.spans
        assert batch.dropped == single.dropped
