"""Runtime network state for the simulated cluster.

The :class:`Fabric` owns everything ranks share: per-rank NIC schedules,
in-flight collective operation records, and point-to-point mailboxes.
Because the engine runs exactly one rank thread at a time (single-token
scheduling), fabric state needs no locking; determinism follows from the
scheduler's min-virtual-time rank selection.

Message timing follows a LogGP-flavored model:

* a send occupies the sender's NIC for ``nbytes / rank_rate`` seconds
  (injection serialization, with fabric contention folded into the rate);
* it arrives ``latency`` seconds after injection completes;
* messages above the eager threshold additionally pay a rendezvous
  penalty of ``2*latency`` plus half the sender's current MPI_Test epoch
  gap — the modeled cost of waiting for the peer to enter the library
  (manual progression, Section 3.3 of the paper; the symmetric-SPMD
  approximation is documented in DESIGN.md §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import MPIUsageError
from ..machine.platforms import Platform


@dataclass
class CollOp:
    """Shared record of one collective instance across all participants.

    All-to-all senders bump ``posted_count[dst]`` and raise
    ``col_max[dst]`` for every message they post: the destination's
    exchange is complete once its count reaches ``p``, and ``col_max``
    is then its latest arrival.  Both are plain Python lists, because
    the posting loops touch one entry at a time, where list indexing
    beats ndarray scalars.  ``payload[src]`` holds the per-destination
    data chunks in real-payload mode.
    """

    key: tuple[Any, ...]
    kind: str
    p: int
    #: messages posted toward each destination
    posted_count: list[int]
    #: latest arrival posted toward each destination so far
    col_max: list[float]
    #: entry time per local rank, ``None`` until entered (synchronizing
    #: collectives only; all-to-all completion needs no entry times)
    entered: list[float | None] | None = None
    #: participants that observed completion; the last one frees the op
    done: int = 0
    payload: dict[int, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    #: local index -> world rank parked in Wait on that destination; the
    #: poster that completes it notifies the engine (event-driven wakeup)
    waiters: dict[int, int] = field(default_factory=dict)

    @classmethod
    def create(cls, key: tuple[Any, ...], kind: str, p: int) -> "CollOp":
        """Fresh record with no message posted."""
        return cls(key, kind, p, [0] * p, [float("-inf")] * p)

    def check_kind(self, kind: str) -> None:
        """Verify all participants called the same collective."""
        if kind != self.kind:
            raise MPIUsageError(
                f"collective mismatch on {self.key}: one rank called "
                f"{self.kind!r}, another {kind!r}"
            )


@dataclass
class P2PMessage:
    """One point-to-point message in flight."""

    src: int
    dst: int
    tag: int
    nbytes: int
    arrival: float
    payload: Any = None
    seq: int = 0


class Fabric:
    """Shared network state: NIC schedules, collectives, p2p mailboxes."""

    def __init__(self, platform: Platform, nprocs: int, faults=None) -> None:
        if nprocs < 1:
            raise MPIUsageError(f"need at least 1 process, got {nprocs}")
        self.platform = platform
        self.net = platform.net
        self.p = nprocs
        #: virtual time at which each rank's NIC finishes its queued sends
        #: (a plain list: the posting loops read and write one entry per
        #: library entry, where list indexing beats ndarray scalars)
        self.nic_free = [0.0] * nprocs
        #: effective sustained per-rank injection rate during dense exchange
        self.rank_rate = self.net.rank_rate(nprocs)
        #: injected faults (a :class:`repro.faults.FaultModel`, or None).
        #: Link degradation becomes per-rank rates; latency jitter/spikes
        #: become the ``lat_draw``/``lat_draw_batch`` hooks the hot send
        #: paths apply per message (None = fault-free fast path).
        self.faults = faults
        self._rates: list[float] | None = None
        self.lat_draw = None
        self.lat_draw_batch = None
        if faults is not None:
            if (faults.rate_scale != 1.0).any():
                self._rates = [
                    float(self.rank_rate * s) for s in faults.rate_scale
                ]
            if faults.has_latency_faults:
                self.lat_draw = faults.draw_extra_latency
                self.lat_draw_batch = faults.draw_extra_latency_batch
        self._colls: dict[tuple[Any, ...], CollOp] = {}
        self._p2p: dict[tuple[int, int], list[P2PMessage]] = {}
        self._p2p_seq = 0
        #: engine hook: called with a world rank whose blocked operation
        #: just became determinable (set by Engine at construction)
        self.notify_rank = None
        #: bytes ever injected, per rank (observability / tests)
        self.bytes_injected = [0] * nprocs

    def rate_for(self, rank: int) -> float:
        """Effective injection rate of ``rank`` (fault-degraded links)."""
        return self._rates[rank] if self._rates is not None else self.rank_rate

    # -- collectives -------------------------------------------------------

    def get_coll(self, key: tuple[Any, ...], kind: str, p: int) -> CollOp:
        """Fetch or create the shared record for a collective instance.

        ``key`` identifies the instance: (communicator id, per-rank
        collective sequence number) — ranks match their i-th collective
        call on a communicator with every peer's i-th call, as MPI
        requires.
        """
        op = self._colls.get(key)
        if op is None:
            op = CollOp.create(key, kind, p)
            self._colls[key] = op
        else:
            op.check_kind(kind)
            if op.p != p:
                raise MPIUsageError(
                    f"collective {key} joined with group size {p}, "
                    f"created with {op.p}"
                )
        return op

    def release_coll(self, key: tuple[Any, ...]) -> None:
        """Drop a completed collective record (frees payload memory).

        Safe to call more than once; the last finisher wins.
        """
        self._colls.pop(key, None)

    # -- injection ----------------------------------------------------------

    def inject(
        self,
        rank: int,
        t: float,
        sizes: np.ndarray,
        postable: np.ndarray,
        epoch_gap: float,
    ) -> np.ndarray:
        """Serialize a batch of sends on ``rank``'s NIC.

        ``sizes[j]`` bytes become postable (CPU enters the library) no
        earlier than ``postable[j]``; the NIC transfers them in order at
        :attr:`rank_rate`.  Returns per-message *arrival* times at their
        destinations, including eager/rendezvous protocol costs.
        ``epoch_gap`` is the sender's current gap between library entries,
        used as the rendezvous-response delay estimate.
        """
        if len(sizes) == 0:
            return np.empty(0)
        sizes = np.asarray(sizes, dtype=np.float64)
        durs = sizes / self.rate_for(rank)
        cum = np.cumsum(durs)
        # finish_j = max_{k<=j}(postable_k - cum_{k-1}) + cum_j, also
        # bounded below by the NIC's previous backlog.
        base = np.maximum.accumulate(postable - (cum - durs))
        finish = np.maximum(base, self.nic_free[rank]) + cum
        self.nic_free[rank] = float(finish[-1])
        self.bytes_injected[rank] += int(sizes.sum())
        rdv = np.where(
            sizes > self.net.eager_threshold,
            2.0 * self.net.latency + 0.5 * epoch_gap,
            0.0,
        )
        del t  # postable already encodes the entry times
        arrivals = finish + self.net.latency + rdv
        if self.lat_draw_batch is not None:
            arrivals = arrivals + self.lat_draw_batch(rank, len(sizes))
        return arrivals

    # -- point-to-point ------------------------------------------------------

    def post_p2p(self, msg: P2PMessage) -> None:
        """Deliver a p2p message into the (src, dst) mailbox (FIFO)."""
        self._p2p_seq += 1
        msg.seq = self._p2p_seq
        self._p2p.setdefault((msg.src, msg.dst), []).append(msg)

    def match_p2p(self, dst: int, src: int | None, tag: int | None) -> P2PMessage | None:
        """Find (without removing) the first matching message for a
        receive posted by ``dst``.  ``None`` src/tag mean ANY."""
        best: P2PMessage | None = None
        sources = [src] if src is not None else range(self.p)
        for s in sources:
            for msg in self._p2p.get((s, dst), ()):
                if tag is not None and msg.tag != tag:
                    continue
                # First tag-matching message in this stream (MPI
                # non-overtaking order); earlier posts win across streams.
                if best is None or msg.seq < best.seq:
                    best = msg
                break
        return best

    def take_p2p(self, msg: P2PMessage) -> None:
        """Remove a matched message from its mailbox."""
        queue = self._p2p.get((msg.src, msg.dst), [])
        queue.remove(msg)

    def pending_p2p(self) -> int:
        """Number of posted-but-unmatched p2p messages (diagnostics)."""
        return sum(len(q) for q in self._p2p.values())
