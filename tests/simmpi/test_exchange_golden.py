"""Golden exchange state of whole pipeline runs, bit for bit.

Each case runs the 3-D FFT program on a fresh :class:`Engine` and
records, as exact ``float.hex`` strings where floats are involved:

* the run's virtual ``elapsed`` and every rank's final clock;
* every rank's ``by_label`` time totals;
* the scheduler counters (``SchedStats``);
* the bytes each rank's NIC injected;
* the ``progress_entries`` of every all-to-all request, summed.

The cases reach the exchange paths the trace golden
(``tests/obs/test_trace_golden.py``) does not: large groups with many
tiles and deep windows (NEW p=32, TH p=16), the parameter-independent
steps skipped as the tuner does, uneven slabs (``MPI_Ialltoallv`` with
mixed counts), latency jitter with a straggler, the Hopper network, and
rendezvous-size messages posted at test epochs.
A change to the simulated network that moves any posted time, any
counter or any injected byte fails here.

Regenerate (only when a change is *meant* to move virtual time)::

    PYTHONPATH=src python tests/simmpi/test_exchange_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.api import _spmd_fft
from repro.core.params import ProblemShape
from repro.core.variants import baseline_params, get_variant
from repro.machine.platforms import get_platform
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import Engine

GOLDEN = Path(__file__).with_name("golden") / "exchange_golden.json"

JITTER_STRAGGLER = "jitter:amp=2e-6;straggler:rank=3,slow=2.0;seed:7"

#: name -> (variant, platform, N, p, T, W, fixed steps, fault spec);
#: T/W of None keep the variant's baseline value
CASES = {
    "NEW-p32-N640-T3-W3-partial": ("NEW", "UMD-Cluster", 640, 32, 3, 3, False, ""),
    "NEW-p32-N640-T3-W3-full": ("NEW", "UMD-Cluster", 640, 32, 3, 3, True, ""),
    "TH-p16-N256-T4-W2-partial": ("TH", "UMD-Cluster", 256, 16, 4, 2, False, ""),
    "TH-p16-N256-T4-W2-full": ("TH", "UMD-Cluster", 256, 16, 4, 2, True, ""),
    "FFTW-p16-N256": ("FFTW", "UMD-Cluster", 256, 16, None, None, True, ""),
    "NEW-p6-N50-alltoallv": ("NEW", "UMD-Cluster", 50, 6, None, None, True, ""),
    "NEW-p8-N64-jitter-straggler": (
        "NEW", "UMD-Cluster", 64, 8, 4, 2, True, JITTER_STRAGGLER,
    ),
    "NEW-Hopper-p16-N128": ("NEW", "Hopper", 128, 16, 4, 2, True, ""),
    # 256 KiB messages, above the eager threshold, and more peers than
    # one round holds: the test epochs post rendezvous rounds
    "NEW-p8-N256-rendezvous": ("NEW", "UMD-Cluster", 256, 8, 16, 2, True, ""),
}


def _params(spec, shape, T, W):
    params = baseline_params(spec, shape)
    if T is not None:
        params = params.replace(
            T=T, W=W, Pz=min(params.Pz, T), Uz=min(params.Uz, T)
        )
    return spec.effective_params(params, shape)


def record(name: str) -> dict:
    """One case's clocks, label totals, counters and network state."""
    variant, platform, n, p, T, W, fixed, faults = CASES[name]
    spec = get_variant(variant)
    shape = ProblemShape(n, n, n, p)
    params = _params(spec, shape, T, W)
    engine = Engine(p, get_platform(platform), faults=faults)
    requests = []
    ialltoall = Communicator.ialltoall

    def recording(self, *args, **kwargs):
        req = ialltoall(self, *args, **kwargs)
        requests.append(req)
        return req

    Communicator.ialltoall = recording
    try:
        engine.run(_spmd_fft, shape, params, spec, fixed, None)
    finally:
        Communicator.ialltoall = ialltoall
    stats = engine.stats
    return {
        "elapsed": float.hex(engine.final_time),
        "clocks": [float.hex(r.clock) for r in engine.ranks],
        "by_label": [
            {label: float.hex(v) for label, v in sorted(t.by_label.items())}
            for t in engine.traces()
        ],
        "stats": {"handoffs": stats.handoffs,
                  "probe_polls": stats.probe_polls,
                  "wakeups": stats.wakeups},
        "bytes_injected": [float(b) for b in engine.fabric.bytes_injected],
        "requests": len(requests),
        "progress_entries": sum(r.progress_entries for r in requests),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_exchange_matches_golden(name, golden):
    assert record(name) == golden[name]


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)


def test_alltoallv_case_has_uneven_slabs():
    _v, _pl, n, p, *_ = CASES["NEW-p6-N50-alltoallv"]
    assert n % p != 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: record(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {len(data)} cases, "
          f"{sum(v['requests'] for v in data.values())} requests")
