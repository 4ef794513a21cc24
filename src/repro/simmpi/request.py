"""Request objects for non-blocking simulated-MPI operations.

The central class is :class:`AlltoallRequest`, which models the paper's
``MPI_Ialltoall`` with *manual progression* semantics: like LibNBC's
schedule, the collective advances in **rounds** of up to ``max_inflight``
point-to-point sends, and a new round can start only at a *library
entry* that happens after the previous round completed.  Between library
entries nothing is posted — this is why too low an ``MPI_Test``
frequency stalls the exchange (Section 3.3), and why a variant that
never tests during Unpack/FFTx (TH) leaves rounds exposed at Wait.

Library entries come in three forms:

* ``post`` — the initial ``MPI_Ialltoall`` call starts round one;
* ``progress_segment(t0, D, F)`` — the owner computes for ``D`` seconds
  while calling ``MPI_Test`` ``F`` times at evenly spaced epochs; each
  epoch that finds the previous round finished posts the next round
  (the knob the paper's ``Fy/Fp/Fu/Fx`` parameters turn);
* ``enter_wait`` — ``MPI_Wait`` parks the owner in the library, so the
  remaining rounds run back-to-back at full NIC rate.

Completion requires (a) all own rounds finished and (b) all incoming
messages delivered, which is what :meth:`completion_probe` computes for
the engine scheduler.
"""

from __future__ import annotations

from itertools import accumulate
from math import ceil
from typing import Any

import numpy as np

from .fabric import CollOp, Fabric


class ExchangeShape:
    """The count-dependent part of one rank's all-to-all exchanges.

    Everything here depends only on the communicator, the owner's rank
    and the send counts, so
    :meth:`~repro.simmpi.comm.Communicator.ialltoall` builds it once per
    distinct (sendcounts, recvcounts) argument pair and every request of
    that shape reuses it — the way MPI codes build their subarray
    datatypes once per plan.  Fields:

    * ``send``: the validated int64 send counts (the receive counts are
      validated by the communicator but not needed to time the sends);
    * ``order``: the injection order rank+1, rank+2, ... (pairwise-style
      rotation, the owner's own slot excluded);
    * ``uniform``: the common size of every sent message (plain
      alltoall), or ``None`` when they differ (alltoallv);
    * ``durs``/``bigs``: per position in ``order``, the NIC time of the
      send (``size / rate``, the same division the model defines, so the
      cached float is the one the loop would compute) and whether it is
      above the eager threshold;
    * ``cum``: bytes sent by positions before each index (``cum[n]`` is
      the total), so a posting pass adds its bytes with one subtraction;
    * ``hot``: the loop-invariant bundle the posting loops unpack.
    """

    __slots__ = ("send", "order", "uniform", "durs", "bigs", "cum", "hot")

    def __init__(
        self,
        fabric: Fabric,
        rank: int,
        group: list[int],
        send: np.ndarray,
    ) -> None:
        p = len(group)
        rank_w = group[rank]
        rate = fabric.rate_for(rank_w)
        net = fabric.net
        order = [(rank + k) % p for k in range(1, p)]
        sizes = send[order].tolist()
        # one float per distinct size: a memoized communicator holds its
        # shapes until the cyclic GC frees it, so they are kept small
        dur_of = {sz: sz / rate for sz in set(sizes)}
        self.send = send
        self.order = order
        self.uniform = (
            sizes[0] if sizes and sizes.count(sizes[0]) == len(sizes) else None
        )
        self.durs = [dur_of[sz] for sz in sizes]
        self.bigs = [sz > net.eager_threshold for sz in sizes]
        self.cum = list(accumulate(sizes, initial=0))
        self.hot = (rank_w, rate, net.latency, net.max_inflight, order,
                    self.durs, self.bigs, p, fabric.lat_draw)


class Request:
    """Base class for non-blocking operation handles."""

    #: set True once wait() returned; reuse raises.
    consumed: bool = False

    def completion_probe(self) -> float | None:
        """Earliest virtual time at which the operation is complete, or
        ``None`` if not yet determinable from posted events."""
        raise NotImplementedError

    def on_complete(self, t: float) -> Any:
        """Hook run when the owner observes completion (payload handoff)."""
        return None


class AlltoallRequest(Request):
    """Non-blocking all-to-all(v) with manual progression.

    Parameters
    ----------
    fabric, op:
        Shared network state and the collective instance record.
    rank:
        Owner's index within the participating group.
    shape:
        The exchange's counts and loop invariants (an
        :class:`ExchangeShape` built by the communicator; the owner's
        own slot is copied locally for free).
    payload:
        One object per destination (real-payload mode), or ``None``.
    """

    def __init__(
        self,
        fabric: Fabric,
        op: CollOp,
        rank: int,
        shape: ExchangeShape,
        payload: list[Any] | None = None,
    ) -> None:
        self.fabric = fabric
        self.op = op
        self.rank = rank
        self.shape = shape
        self._hot = shape.hot
        self._n = len(shape.order)
        self._next = 0
        self._own_finish = 0.0
        self._round_ready = 0.0
        self._entered_wait = False
        self._counts = op.posted_count
        self._col_max = op.col_max
        if payload is not None:
            op.payload[rank] = payload
        #: diagnostics: number of library entries that progressed this op
        self.progress_entries = 0
        #: completion time once determined (arrivals are final when
        #: posted, so the value never changes afterwards)
        self._cached_completion: float | None = None

    # -- progression --------------------------------------------------------

    def _wake(self, d: int) -> None:
        """Destination ``d`` was just posted its last message: hand its
        owner, if parked in Wait, to the engine."""
        w = self.op.waiters.pop(d, None)
        if w is not None:
            notify = self.fabric.notify_rank
            if notify is not None:
                notify(w)

    def _post_round(self, t_post: float, epoch_gap: float) -> None:
        """Post the next round: up to ``max_inflight`` pending sends.

        Each send serializes on the owner's NIC (``size / rate``) and
        arrives ``latency`` later, plus the rendezvous handshake
        (``2*latency`` and half the epoch gap) above the eager threshold.
        """
        rank_w, rate, lat, infl, order, durs, bigs, p, draw = self._hot
        n = self._n
        nxt = self._next
        stop = nxt + infl
        if stop > n:
            stop = n
        if stop <= nxt:
            return
        fabric = self.fabric
        counts = self._counts
        cmax = self._col_max
        waiters = self.op.waiters
        rdv = 2.0 * lat + 0.5 * epoch_gap
        nic = fabric.nic_free[rank_w]
        if nic < t_post:
            nic = t_post
        round_max = float("-inf")  # jitter can reorder within a round
        for j in range(nxt, stop):
            d = order[j]
            nic += durs[j]
            a = nic + lat + (rdv if bigs[j] else 0.0)
            if draw is not None:
                a += draw(rank_w)
            c = counts[d] + 1
            counts[d] = c
            if a > cmax[d]:
                cmax[d] = a
            if c == p and waiters:
                self._wake(d)
            if a > round_max:
                round_max = a
        fabric.nic_free[rank_w] = nic
        cum = self.shape.cum
        fabric.bytes_injected[rank_w] += cum[stop] - cum[nxt]
        if round_max > self._own_finish:
            self._own_finish = round_max
        #: a new round may be posted at the first library entry at or
        #: after this time (the LibNBC round barrier)
        self._round_ready = self._own_finish
        self._next = stop

    def post(self, t: float) -> None:
        """Initial library entry (the Ialltoall call itself)."""
        r = self.rank
        self._counts[r] += 1  # self-delivery is free
        if t > self._col_max[r]:
            self._col_max[r] = t
        self._round_ready = t
        self._post_round(t, 0.0)
        self.progress_entries += 1

    def progress_segment(self, t0: float, duration: float, ntests: int) -> None:
        """Model ``ntests`` MPI_Test calls spread over ``[t0, t0+duration]``.

        Test ``j`` (1-based) happens at ``t0 + j*gap`` with
        ``gap = duration/(ntests+1)``; an epoch that finds the previous
        round complete posts the next one.  Processing is O(rounds), so
        huge ``F`` values cost the *simulated* program time (test-call
        overhead, charged by the caller) but not simulator time.
        """
        if ntests <= 0:
            return
        self.progress_entries += 1
        if self._next >= self._n or duration <= 0:
            return
        gap = duration / (ntests + 1)
        # Closed-form batch check: the first epoch that could post a
        # round is ceil((ready - t0)/gap); when it lies past the last
        # test, the whole batch of failed tests is a no-op.  Comparing
        # the quotient itself is the same test (``ntests`` is integral).
        if (self._round_ready - t0) / gap > ntests:
            return
        self._post_epochs(t0, gap, ntests)

    def _post_epochs(self, t0: float, gap: float, ntests: int) -> None:
        """Post rounds at the test epochs ``t0 + k*gap``, ``k = 1..ntests``:
        each round at the first epoch at or after the previous round's
        completion.  One pass per posted round, NIC and arrival math
        inlined (this runs O(p/max_inflight) times per tile per rank and
        dominates simulator cost at scale).  Callers have checked that at
        least one epoch can post."""
        rank_w, rate, lat, infl, order, durs, bigs, p, draw = self._hot
        fabric = self.fabric
        counts = self._counts
        cmax = self._col_max
        waiters = self.op.waiters
        rdv = 2.0 * lat + 0.5 * gap
        nic = fabric.nic_free[rank_w]
        n = self._n
        first = nxt = self._next
        ready = self._round_ready
        own = self._own_finish
        k = 0  # index of the last used epoch (1-based over 1..ntests)
        while nxt < n:
            # First epoch at or after the previous round's completion.
            k_needed = ceil((ready - t0) / gap)
            if k_needed <= k:
                k_needed = k + 1
            if k_needed > ntests:
                break  # no more library entries in this segment
            k = k_needed
            t_post = t0 + k * gap
            if t_post > nic:
                nic = t_post
            stop = nxt + infl
            if stop > n:
                stop = n
            round_max = 0.0
            for j in range(nxt, stop):
                d = order[j]
                nic += durs[j]
                a = nic + lat + (rdv if bigs[j] else 0.0)
                if draw is not None:
                    a += draw(rank_w)
                c = counts[d] + 1
                counts[d] = c
                if a > cmax[d]:
                    cmax[d] = a
                if c == p and waiters:
                    self._wake(d)
                if a > round_max:
                    round_max = a
            nxt = stop
            if round_max > own:
                own = round_max
            ready = own
        self._next = nxt
        fabric.nic_free[rank_w] = nic
        cum = self.shape.cum
        fabric.bytes_injected[rank_w] += cum[nxt] - cum[first]
        self._own_finish = own
        self._round_ready = ready

    def test(self, t: float) -> bool:
        """One explicit MPI_Test at time ``t``: progress, then poll."""
        if self._next < self._n and t >= self._round_ready:
            self._post_round(t, 0.0)
        self.progress_entries += 1
        done_time = self.completion_probe()
        return done_time is not None and done_time <= t

    def enter_wait(self, t: float) -> None:
        """MPI_Wait entry: run the remaining rounds back-to-back."""
        if self._next < self._n:
            self._flush_rounds(max(t, self._round_ready))
        self._entered_wait = True
        self._wait_entry = t
        self.progress_entries += 1

    def _flush_rounds(self, t0: float) -> None:
        """Post every remaining round, library-resident (gap = 0).

        Uniform message sizes (plain alltoall) take a closed-form path:
        within a round messages serialize on the NIC; each round barrier
        costs the previous round's delivery (latency, plus the
        rendezvous handshake for large messages).  Mixed sizes
        (alltoallv) fall back to the per-round loop.
        """
        rank_w, rate, lat, infl, order, durs, bigs, p, draw = self._hot
        shape = self.shape
        nxt = self._next
        dests = order[nxt:]
        m = shape.uniform
        if m is None:
            # A suffix of an alltoallv vector can still be uniform, and
            # path selection must not depend on how far progression got.
            cum = shape.cum
            sizes = {cum[j + 1] - cum[j] for j in range(nxt, self._n)}
            if len(sizes) == 1:
                m = sizes.pop()
        if m is None or draw is not None:
            # Mixed sizes (alltoallv), or latency faults — the per-round
            # loop keeps round barriers consistent with jittered
            # arrivals the way the progress_segment path sees them.
            while self._next < self._n:
                self._post_round(max(t0, self._round_ready), 0.0)
            return
        fabric = self.fabric
        counts = self._counts
        cmax = self._col_max
        waiters = self.op.waiters
        n = len(dests)
        dur = m / rate
        rdv = 2.0 * lat if bigs[nxt] else 0.0
        barrier = lat + rdv  # delivery gap between rounds
        start0 = max(t0, fabric.nic_free[rank_w])
        if n <= 48:
            # Scalar path: rounds are short, and for small n the python
            # loop beats five ndarray constructions.  Same IEEE ops in
            # the same order as the vector path below — the expressions
            # are kept textually parallel on purpose.
            last_finish = start0
            own = self._own_finish
            for jj, d in enumerate(dests):
                last_finish = start0 + (jj + 1) * dur + (jj // infl) * barrier
                a = last_finish + lat + rdv
                c = counts[d] + 1
                counts[d] = c
                if a > cmax[d]:
                    cmax[d] = a
                if c == p and waiters:
                    self._wake(d)
                if a > own:
                    own = a
        else:
            j = np.arange(n)
            ridx = j // infl
            finish = start0 + (j + 1) * dur + ridx * barrier
            arrivals = finish + lat + rdv
            for d, a in zip(dests, arrivals.tolist()):
                c = counts[d] + 1  # destinations are unique within a request
                counts[d] = c
                if a > cmax[d]:
                    cmax[d] = a
                if c == p and waiters:
                    self._wake(d)
            last_finish = float(finish[-1])
            own = max(self._own_finish, float(arrivals.max()))
        fabric.nic_free[rank_w] = last_finish
        fabric.bytes_injected[rank_w] += shape.cum[-1] - shape.cum[nxt]
        self._own_finish = own
        self._round_ready = own
        self._next = self._n

    # -- completion -----------------------------------------------------------

    def completion_probe(self) -> float | None:
        if self._cached_completion is None:
            if self._next < self._n:
                return None
            if self._counts[self.rank] < self.op.p:  # row incomplete
                return None
            incoming = self._col_max[self.rank]
            self._cached_completion = (
                self._own_finish if self._own_finish > incoming else incoming
            )
        t = self._cached_completion
        if self._entered_wait:
            t = max(t, self._wait_entry)
        return t

    def on_complete(self, t: float) -> list[Any] | None:
        """Assemble received chunks (real-payload mode) in group order,
        and free the shared op record once every participant finished."""
        op = self.op
        payloads = op.payload
        out: list[Any] | None = None
        if payloads:
            out = []
            for src in range(op.p):
                chunks = payloads.get(src)
                out.append(None if chunks is None else chunks[self.rank])
        op.done += 1
        if op.done == op.p:
            self.fabric.release_coll(op.key)
        return out


class P2PRequest(Request):
    """Handle for isend (completion = injection done) — trivially timed."""

    def __init__(self, finish_time: float) -> None:
        self.finish_time = finish_time

    def completion_probe(self) -> float | None:
        return self.finish_time


class RecvRequest(Request):
    """Handle for irecv: completes when a matching message is delivered."""

    def __init__(self, fabric: Fabric, dst: int, src: int | None, tag: int | None) -> None:
        self.fabric = fabric
        self.dst = dst
        self.src = src
        self.tag = tag
        self._matched = None

    def completion_probe(self) -> float | None:
        if self._matched is None:
            msg = self.fabric.match_p2p(self.dst, self.src, self.tag)
            if msg is None:
                return None
            self.fabric.take_p2p(msg)
            self._matched = msg
        return self._matched.arrival

    def on_complete(self, t: float):
        msg = self._matched
        return (msg.payload, msg.src, msg.tag, msg.nbytes)
