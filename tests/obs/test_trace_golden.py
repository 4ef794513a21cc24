"""Golden traces of the tile pipeline: every span, bit for bit.

Each case runs ``run_case`` under a ``Tracer(rank_spans=True)`` and
compares every recorded span (track, name, clock, attrs, and the exact
``float.hex`` of t0/t1), the run's virtual ``elapsed`` and its scheduler
counters (``SchedStats``) against ``golden/trace_golden.json``.  The
cases cover NEW, TH and FFTW on both platforms at two shapes, the
blocking tiled pipeline (NEW-0: W=0) and one real-payload run, so any
change to the tile loop that moves a clock, reorders a phase or drops
an attribute fails here.

Regenerate (only when a change is *meant* to move virtual time)::

    PYTHONPATH=src python tests/obs/test_trace_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.machine.platforms import get_platform
from repro.obs import Tracer, tracing

GOLDEN = Path(__file__).with_name("golden") / "trace_golden.json"

#: (variant, platform, N, p, real payload)
CASES = [
    (variant, platform, n, p, False)
    for variant in ("NEW", "TH", "FFTW")
    for platform in ("UMD-Cluster", "Hopper")
    for n, p in ((64, 4), (96, 6))
] + [
    ("NEW-0", "UMD-Cluster", 64, 4, False),
    ("NEW", "UMD-Cluster", 16, 4, True),
]


def case_id(case) -> str:
    variant, platform, n, p, real = case
    return f"{variant}-{platform}-{n}^3-p{p}" + ("-real" if real else "")


def record(case) -> dict:
    """One case's spans, virtual elapsed time and scheduler counters."""
    variant, platform, n, p, real = case
    shape = ProblemShape(n, n, n, p)
    array = None
    if real:
        rng = np.random.default_rng(0)
        array = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    tracer = Tracer(rank_spans=True)
    with tracing(tracer):
        result, _ = run_case(variant, get_platform(platform), shape,
                             global_array=array)
    stats = result.sim.stats
    return {
        "elapsed": float.hex(result.elapsed),
        "stats": {"handoffs": stats.handoffs,
                  "probe_polls": stats.probe_polls,
                  "wakeups": stats.wakeups},
        "dropped": tracer.dropped,
        "spans": [
            [sp.track, sp.name, sp.clock, float.hex(sp.t0), float.hex(sp.t1),
             sp.attrs]
            for sp in tracer.spans
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_trace_matches_golden(case, golden):
    want = golden[case_id(case)]
    got = record(case)
    assert got["elapsed"] == want["elapsed"]
    assert got["stats"] == want["stats"]
    assert got["dropped"] == want["dropped"]
    assert len(got["spans"]) == len(want["spans"])
    for i, (g, w) in enumerate(zip(got["spans"], want["spans"])):
        assert g == w, f"span {i} differs"


def test_golden_covers_every_case(golden):
    assert set(golden) == {case_id(c) for c in CASES}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {case_id(c): record(c) for c in CASES}
    GOLDEN.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"{GOLDEN}: {len(data)} cases, "
          f"{sum(len(v['spans']) for v in data.values())} spans")
