"""MPI-like communicator API over the discrete-event engine.

:class:`SimContext` is the per-rank handle an SPMD function receives; its
``comm`` attribute is the world :class:`Communicator`.  The API mirrors
the MPI operations the paper's code and common substrates need:

* point-to-point: ``send/recv/isend/irecv/sendrecv``
* blocking collectives: ``barrier, bcast, reduce, allreduce, gather,
  allgather, scatter, alltoall, alltoallv``
* non-blocking: ``ialltoall / ialltoallv`` returning
  :class:`~repro.simmpi.request.AlltoallRequest`, progressed manually via
  ``test`` / ``progress_segment`` and finished with ``wait``
* ``split`` for sub-communicators (used by the 2-D decomposition
  extension).

Every *blocking* operation exists in two spellings sharing one
implementation:

* the plain method (``wait``, ``barrier``, ...) blocks the calling rank
  **thread** — use it from ordinary SPMD callables;
* the ``co_`` twin (``co_wait``, ``co_barrier``, ...) is a coroutine to
  be delegated with ``yield from`` — use it from generator SPMD
  functions, which the engine then runs on its no-threads ``tasks``
  backend (see :mod:`repro.simmpi.engine`).

The coroutine form is the primary implementation: it yields engine
commands (block / reschedule) to whoever drives it — the task scheduler
directly, or :meth:`Engine.drive`'s trampoline on a rank thread — so the
two spellings take bit-identical scheduling decisions.

Payloads are optional everywhere: in virtual mode callers pass byte
counts only, in real mode actual numpy arrays travel with the messages.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import MPIUsageError, SimulationError
from .engine import Engine
from .fabric import P2PMessage
from .request import (
    AlltoallRequest,
    ExchangeShape,
    P2PRequest,
    RecvRequest,
    Request,
)


class SimContext:
    """Per-rank handle: clock control, tracing, and the world comm."""

    def __init__(self, engine: Engine, rank: int) -> None:
        self.engine = engine
        self.rank = rank
        self.size = engine.nprocs
        self.platform = engine.platform
        self.cpu = engine.platform.cpu
        self.comm: "Communicator" = None  # set by Engine.run
        # Hot-path bindings: the rank record (clock reads), the test-call
        # overhead, and the per-run fault knobs, all constant for the
        # lifetime of this context.
        self._r = engine.ranks[rank]
        self._trace = self._r.trace  # never reassigned by the engine
        self._test_overhead = self.cpu.test_overhead
        faults = engine.faults
        self._cpu_stretch = (
            faults.cpu_scale_of(rank)
            if faults is not None and faults.has_cpu_faults
            else None
        )
        self._poll_faults = faults is not None and faults.has_poll_faults
        self._eff_tests = faults.effective_tests if self._poll_faults else None

    @property
    def now(self) -> float:
        """Current virtual time of this rank."""
        return self._r.clock

    def drive(self, gen) -> Any:
        """Run a ``co_*`` coroutine to completion on this rank's thread
        (threads backend only; generator programs use ``yield from``)."""
        return self.engine.drive(self.rank, gen)

    def compute(
        self, seconds: float, label: str = "compute",
        attrs: dict | None = None,
    ) -> None:
        """Advance virtual time by ``seconds`` of local computation."""
        self.engine.advance(self.rank, seconds, label, attrs)

    def compute_with_progress(
        self,
        seconds: float,
        tests: Sequence[tuple[AlltoallRequest, int]],
        label: str = "compute",
        attrs: dict | None = None,
    ) -> None:
        """Compute for ``seconds`` while manually progressing requests.

        ``tests`` is a sequence of ``(request, n_tests)``: during the
        segment the rank calls MPI_Test ``n_tests`` times on each given
        request (the paper's Algorithms 2-3, where ``Fy/Fp/Fu/Fx`` tests
        are spread over each computation phase).  Test-call overhead is
        charged on top of ``seconds`` and traced under ``"Test"``.

        Never suspends, so it is safe in both SPMD spellings.

        Injected faults act here: a straggler's segment stretches by its
        CPU slowdown (the test epochs spread over the stretched window,
        matching what :meth:`Engine.advance` charges), and a poll-delay
        fault thins the *progression* epochs to ``ntests / factor`` — a
        descheduled process enters the MPI library late and irregularly.
        Test-call overhead stays charged at the requested count: the CPU
        time is burned either way, so a poll fault can only slow a run.
        """
        t0 = self._r.clock
        stretch = self._cpu_stretch
        duration = seconds if stretch is None else seconds * stretch
        poll_faults = self._poll_faults
        total_tests = 0
        for req, ntests in tests:
            if ntests < 0:
                raise MPIUsageError(f"negative test count {ntests}")
            if req is not None and ntests > 0:
                eff = (
                    self.engine.faults.effective_tests(self.rank, ntests)
                    if poll_faults
                    else ntests
                )
                req.progress_segment(t0, duration, eff)
                total_tests += ntests
        advance = self.engine.advance
        advance(self.rank, seconds, label, attrs)
        if total_tests:
            advance(self.rank, total_tests * self._test_overhead, "Test")

    def progress_phases(
        self,
        phases: Sequence[tuple[float, int, str]],
        live: Sequence[AlltoallRequest],
        attrs: dict | None = None,
    ) -> None:
        """Run consecutive ``(seconds, test_total, label)`` pipeline
        phases against the same ``live`` request window.

        ``live`` must hold only posted, unwaited requests (the tile
        pipeline's window, which retires a request from its head before
        waiting on it); unlike ``_share_tests`` this method does not
        filter it.

        Each phase is semantically identical to ``compute_with_progress(
        seconds, ParallelFFT3D._share_tests(live, total), label, attrs)``
        — same budget split, same progression, same two clock advances
        (phase label, then aggregated Test overhead) — but fused into one
        pass: no intermediate (request, count) list, no per-call
        attribute walks, and segments that provably cannot post a round
        (all sends already injected, or a zero-length window) are skipped
        with only their library-entry counter bumped, exactly as the
        skipped call would have done.  Accepting a phase *batch* lets the
        tile pipeline charge its back-to-back compute steps (FFTy+Pack,
        Unpack+FFTx) in one call, with one ``attrs`` for both.  This runs
        twice per tile in every mode and dominates pipeline overhead,
        hence the inlining; equivalence with the unfused spelling is
        covered by tests/core/test_pipeline.py and the backend-equivalence
        suite.
        """
        r = self._r
        stretch = self._cpu_stretch
        eff_of = self._eff_tests
        rank = self.rank
        trace = self._trace
        by_label = trace.by_label
        events = trace.events
        n_live = len(live)
        for seconds, total, label in phases:
            if seconds < 0:
                raise SimulationError(
                    f"negative time advance {seconds} ({label})"
                )
            t0 = r.clock
            duration = seconds if stretch is None else seconds * stretch
            total_tests = 0
            if total > 0 and n_live:
                base, extra = divmod(total, n_live)
                positive = duration > 0
                for i, q in enumerate(live):
                    ntests = base + 1 if i < extra else base
                    if ntests <= 0:
                        continue
                    total_tests += ntests
                    eff = ntests if eff_of is None else eff_of(rank, ntests)
                    if eff <= 0:
                        continue
                    # AlltoallRequest.progress_segment(t0, duration, eff),
                    # with its no-op exits inlined: most segments cannot
                    # post a round, and those only count a library entry.
                    q.progress_entries += 1
                    if positive and q._next < q._n:
                        gap = duration / (eff + 1)
                        if (q._round_ready - t0) / gap <= eff:
                            q._post_epochs(t0, gap, eff)
            # Inlined Engine.advance pair (phase label + Test overhead):
            # same IEEE operations in the same order, so clocks and by_label
            # totals are bit-identical to the two-call spelling.
            t1 = t0 + duration
            by_label[label] = by_label.get(label, 0.0) + (t1 - t0)
            if events is not None:
                events.append((t0, t1, label))
                if trace.attrs is not None:
                    trace.attrs.append(attrs)
            if total_tests:
                dt = total_tests * self._test_overhead
                if stretch is not None:
                    dt *= stretch
                t2 = t1 + dt
                by_label["Test"] = by_label.get("Test", 0.0) + (t2 - t1)
                if events is not None:
                    events.append((t1, t2, "Test"))
                    if trace.attrs is not None:
                        trace.attrs.append(None)
                r.clock = t2
            else:
                r.clock = t1


class Communicator:
    """A group of simulated ranks with MPI-style operations."""

    def __init__(self, ctx: SimContext, group: list[int], comm_id: int) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.fabric = ctx.engine.fabric
        self.group = group
        self.comm_id = comm_id
        if ctx.rank not in group:
            raise MPIUsageError(f"rank {ctx.rank} not in group {group}")
        self.rank = group.index(ctx.rank)
        self.size = len(group)
        #: (id(sendcounts), id(recvcounts)) -> (sendcounts, recvcounts,
        #: shape).  Keeping the argument objects referenced pins their
        #: ids, so a hit can never be a recycled address.
        self._shapes: dict[tuple[int, int], tuple[Any, Any, ExchangeShape]] = {}
        #: CPU cost of posting a nonblocking collective (constant here)
        self._post_cost = self.fabric.net.post_cost(self.size)
        self._advance = self.engine.advance  # per-tile hot path binding
        self._tracer = self.engine.tracer  # fixed at engine construction

    # ------------------------------------------------------------------ utils

    def _coll_key(self) -> tuple[int, int]:
        seqs = self.ctx._r.coll_seq
        seq = seqs.get(self.comm_id, 0)
        seqs[self.comm_id] = seq + 1
        return (self.comm_id, seq)

    def _charge(
        self, seconds: float, label: str, attrs: dict | None = None
    ) -> None:
        self.engine.advance(self.ctx.rank, seconds, label, attrs)

    def _drive(self, gen) -> Any:
        """Run a co_* coroutine thread-blockingly (threads backend)."""
        return self.engine.drive(self.ctx.rank, gen)

    @property
    def net(self):
        """The platform's network model (shortcut)."""
        return self.fabric.net

    # ------------------------------------------------------------------ p2p

    def isend(self, dest: int, nbytes: int, payload: Any = None, tag: int = 0) -> P2PRequest:
        """Non-blocking send; completes locally at injection finish."""
        if not 0 <= dest < self.size:
            raise MPIUsageError(f"bad destination {dest} for size {self.size}")
        t = self.ctx.now
        world_src = self.group[self.rank]
        world_dst = self.group[dest]
        arrivals = self.fabric.inject(
            world_src, t, np.array([nbytes], dtype=np.int64), np.array([t]), 0.0
        )
        self.fabric.post_p2p(
            P2PMessage(
                src=world_src,
                dst=world_dst,
                tag=tag,
                nbytes=int(nbytes),
                arrival=float(arrivals[0]),
                payload=payload,
            )
        )
        # Local completion: NIC done with this message.
        return P2PRequest(float(arrivals[0]) - self.net.latency)

    def irecv(self, source: int | None = None, tag: int | None = None) -> RecvRequest:
        """Non-blocking receive (``None`` source/tag = ANY)."""
        world_src = None if source is None else self.group[source]
        return RecvRequest(self.fabric, self.group[self.rank], world_src, tag)

    def co_send(self, dest: int, nbytes: int, payload: Any = None, tag: int = 0):
        """Coroutine form of :meth:`send`."""
        req = self.isend(dest, nbytes, payload, tag)
        yield from self.co_wait(req, label="Send")

    def send(self, dest: int, nbytes: int, payload: Any = None, tag: int = 0) -> None:
        """Blocking standard-mode send (completes locally at injection)."""
        return self._drive(self.co_send(dest, nbytes, payload, tag))

    def co_recv(self, source: int | None = None, tag: int | None = None):
        """Coroutine form of :meth:`recv`."""
        req = self.irecv(source, tag)
        payload, world_src, mtag, nbytes = yield from self.co_wait(req, label="Recv")
        return payload, self.group.index(world_src), mtag, nbytes

    def recv(self, source: int | None = None, tag: int | None = None):
        """Blocking receive; returns ``(payload, src, tag, nbytes)`` with
        ``src`` translated back to this communicator's ranks."""
        return self._drive(self.co_recv(source, tag))

    def co_sendrecv(
        self, dest: int, nbytes: int, payload: Any = None,
        source: int | None = None, tag: int = 0,
    ):
        """Coroutine form of :meth:`sendrecv`."""
        rreq = self.irecv(source, tag)
        sreq = self.isend(dest, nbytes, payload, tag)
        yield from self.co_wait(sreq, label="Send")
        payload_in, world_src, mtag, nb = yield from self.co_wait(rreq, label="Recv")
        return payload_in, self.group.index(world_src), mtag, nb

    def sendrecv(
        self, dest: int, nbytes: int, payload: Any = None,
        source: int | None = None, tag: int = 0,
    ):
        """Combined send+recv without deadlock (both posted, then both waited)."""
        return self._drive(self.co_sendrecv(dest, nbytes, payload, source, tag))

    # ------------------------------------------------------------ wait/test

    def co_wait(self, req: Request, label: str = "Wait"):
        """Coroutine form of :meth:`wait`."""
        if req.consumed:
            raise MPIUsageError("request already waited on")
        t = self.ctx._r.clock
        if isinstance(req, AlltoallRequest):
            req.enter_wait(t)
            if req.completion_probe() is None:
                # Event-driven wakeup: the peer whose round completes our
                # arrival row notifies the engine (no polling sweeps).
                req.op.waiters[req.rank] = self.group[self.rank]
        done = yield ("block", req.completion_probe, label)
        req.consumed = True
        return req.on_complete(done)

    def wait(self, req: Request, label: str = "Wait"):
        """Block until ``req`` completes; returns the op's result value."""
        return self._drive(self.co_wait(req, label))

    def co_waitall(self, reqs: Sequence[Request], label: str = "Wait"):
        """Coroutine form of :meth:`waitall`."""
        out = []
        for r in reqs:
            out.append((yield from self.co_wait(r, label)))
        return out

    def waitall(self, reqs: Sequence[Request], label: str = "Wait") -> list[Any]:
        """Wait on every request; returns their results in order."""
        return [self.wait(r, label) for r in reqs]

    def co_test(self, req: Request):
        """Coroutine form of :meth:`test`."""
        if req.consumed:
            raise MPIUsageError("request already waited on")
        t = self.ctx._r.clock
        if isinstance(req, AlltoallRequest):
            flag = req.test(t)
        else:
            done = req.completion_probe()
            flag = done is not None and done <= t
        self._charge(self.ctx._test_overhead, "Test")
        if flag:
            req.consumed = True
            return True, req.on_complete(self.ctx.now)
        # Unsuccessful poll: hand the token back so peers (usually behind
        # in virtual time) can post the events this rank is waiting for.
        yield ("yield",)
        return False, None

    def test(self, req: Request) -> tuple[bool, Any]:
        """Non-blocking completion check (one MPI_Test): progresses the
        request, charges the call overhead, returns ``(flag, result)``."""
        return self._drive(self.co_test(req))

    # -------------------------------------------------------------- alltoall

    def _alltoall_counts(self, counts) -> np.ndarray:
        """Validate a counts argument (scalar = uniform) as int64 bytes
        per peer."""
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim == 0:
            arr = np.full(self.size, int(arr), dtype=np.int64)
        if arr.shape != (self.size,):
            raise MPIUsageError(
                f"alltoall counts must be scalar or length {self.size}, got {arr.shape}"
            )
        if (arr < 0).any():
            raise MPIUsageError("negative byte count in alltoall")
        return arr

    def _exchange_shape(self, sendcounts, recvcounts) -> ExchangeShape:
        """The :class:`ExchangeShape` of an exchange, memoized per pair
        of argument objects.

        Pipelines pass the same (cached) count vectors for every tile,
        so validation and the shape's loop invariants are built once per
        distinct pair.  A caller that mutates a previously passed vector
        in place keeps the old shape; in-tree callers never do.
        """
        memo = self._shapes
        key = (id(sendcounts), id(recvcounts))
        hit = memo.get(key)
        if hit is not None and hit[0] is sendcounts and hit[1] is recvcounts:
            return hit[2]
        send = self._alltoall_counts(sendcounts)
        if recvcounts is not None:
            self._alltoall_counts(recvcounts)
        shape = ExchangeShape(self.fabric, self.rank, self.group, send)
        if len(memo) > 64:  # callers passing fresh lists can't grow it
            memo.clear()
        memo[key] = (sendcounts, recvcounts, shape)
        return shape

    def ialltoall(
        self,
        sendcounts,
        recvcounts=None,
        payload: list[Any] | None = None,
    ) -> AlltoallRequest:
        """Post a non-blocking all-to-all(v).

        ``sendcounts``/``recvcounts`` are bytes per peer (scalar = uniform
        — plain ``MPI_Ialltoall``; vector = ``MPI_Ialltoallv``).
        ``payload`` optionally carries one object per destination (real
        mode).  The returned request is progressed by ``test`` /
        ``SimContext.compute_with_progress`` and finished by ``wait``.
        """
        shape = self._exchange_shape(sendcounts, recvcounts)
        if payload is not None and len(payload) != self.size:
            raise MPIUsageError(
                f"payload must have one entry per rank ({self.size}), got {len(payload)}"
            )
        key = self._coll_key()
        op = self.fabric.get_coll(key, "alltoall", self.size)
        req = AlltoallRequest(self.fabric, op, self.rank, shape, payload)
        ctx = self.ctx
        # Inlined Engine.advance(rank, post_cost, "Ialltoall", attrs):
        # same IEEE operations in the same order (see progress_phases).
        r = ctx._r
        stretch = ctx._cpu_stretch
        dt = self._post_cost if stretch is None else self._post_cost * stretch
        trace = ctx._trace
        t0 = r.clock
        t1 = t0 + dt
        by_label = trace.by_label
        by_label["Ialltoall"] = by_label.get("Ialltoall", 0.0) + (t1 - t0)
        events = trace.events
        if events is not None:
            events.append((t0, t1, "Ialltoall"))
            if trace.attrs is not None:
                # attrs only for a tracer, and only when events are kept
                trace.attrs.append(
                    {"send_bytes": int(shape.send.sum()), "peers": self.size}
                    if self._tracer is not None else None
                )
        r.clock = t1
        req.post(t1)
        return req

    # Alias for the explicit-v spelling.
    ialltoallv = ialltoall

    def co_alltoall(self, sendcounts, recvcounts=None, payload: list[Any] | None = None):
        """Coroutine form of :meth:`alltoall`."""
        req = self.ialltoall(sendcounts, recvcounts, payload)
        return (yield from self.co_wait(req, label="A2A"))

    def alltoall(self, sendcounts, recvcounts=None, payload: list[Any] | None = None):
        """Blocking all-to-all(v): post then wait (library-resident, so it
        progresses at full NIC rate — the FFTW-baseline communication)."""
        return self._drive(self.co_alltoall(sendcounts, recvcounts, payload))

    alltoallv = alltoall
    co_alltoallv = co_alltoall

    # ---------------------------------------------------------- collectives

    def _tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(max(self.size, 2))))

    def _co_sync_collective(
        self, kind: str, extra_time: float, label: str,
        payload: Any = None, root: int | None = None,
        combine: Callable[[list[Any]], Any] | None = None,
    ):
        """Shared implementation of synchronizing collectives.

        Every participant records its entry time in the op; completion is
        ``max(entries) + extra_time`` for all ranks (a symmetric model of
        a tree algorithm).  ``payload``/``combine`` implement the data
        semantics in real mode.
        """
        key = self._coll_key()
        op = self.fabric.get_coll(key, kind, self.size)
        if op.entered is None:
            op.entered = [None] * self.size
        op.entered[self.rank] = self.ctx.now
        if payload is not None or combine is not None:
            op.payload[self.rank] = payload
        op.meta.setdefault("root", root)
        if root is not None and op.meta["root"] != root:
            raise MPIUsageError(f"{kind} called with different roots")

        def probe() -> float | None:
            if None in op.entered:
                return None
            return float(max(op.entered)) + extra_time

        yield ("block", probe, label)
        result = None
        if combine is not None:
            payloads = [op.payload.get(i) for i in range(self.size)]
            result = combine(payloads)
        op.done += 1
        if op.done == self.size:
            self.fabric.release_coll(key)
        return result

    def co_barrier(self):
        """Coroutine form of :meth:`barrier`."""
        yield from self._co_sync_collective(
            "barrier", self._tree_depth() * self.net.latency, "Barrier"
        )

    def barrier(self) -> None:
        """Synchronize all ranks (dissemination-barrier time model)."""
        return self._drive(self.co_barrier())

    def co_bcast(self, payload: Any = None, nbytes: int = 0, root: int = 0):
        """Coroutine form of :meth:`bcast`."""
        depth = self._tree_depth()
        t_extra = depth * (self.net.latency + nbytes / self.fabric.rank_rate)
        me = self.rank

        def combine(payloads: list[Any]):
            return payloads[root]

        marker = payload if me == root else None
        return (yield from self._co_sync_collective(
            "bcast", t_extra, "Bcast", payload=marker, root=root, combine=combine
        ))

    def bcast(self, payload: Any = None, nbytes: int = 0, root: int = 0):
        """Broadcast ``root``'s payload to everyone (binomial-tree model)."""
        return self._drive(self.co_bcast(payload, nbytes, root))

    def co_reduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
                  nbytes: int = 0, root: int = 0):
        """Coroutine form of :meth:`reduce`."""
        depth = self._tree_depth()
        t_extra = depth * (self.net.latency + nbytes / self.fabric.rank_rate)
        combiner = op if op is not None else (lambda a, b: a + b)
        me = self.rank

        def combine(payloads: list[Any]):
            if me != root:
                return value
            acc = payloads[0]
            for item in payloads[1:]:
                acc = combiner(acc, item)
            return acc

        return (yield from self._co_sync_collective(
            "reduce", t_extra, "Reduce", payload=value, root=root, combine=combine
        ))

    def reduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
               nbytes: int = 0, root: int = 0):
        """Reduce values to ``root`` (returns the reduction on root, the
        local value elsewhere).  ``op`` defaults to elementwise add."""
        return self._drive(self.co_reduce(value, op, nbytes, root))

    def co_allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
                     nbytes: int = 0):
        """Coroutine form of :meth:`allreduce`."""
        depth = self._tree_depth()
        t_extra = depth * (self.net.latency + nbytes / self.fabric.rank_rate)
        combiner = op if op is not None else (lambda a, b: a + b)

        def combine(payloads: list[Any]):
            acc = payloads[0]
            for item in payloads[1:]:
                acc = combiner(acc, item)
            return acc

        return (yield from self._co_sync_collective(
            "allreduce", t_extra, "Allreduce", payload=value, combine=combine
        ))

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
                  nbytes: int = 0):
        """Reduce-to-all (recursive-doubling time model)."""
        return self._drive(self.co_allreduce(value, op, nbytes))

    def co_gather(self, value: Any, nbytes: int = 0, root: int = 0):
        """Coroutine form of :meth:`gather`."""
        t_extra = self._tree_depth() * self.net.latency + (
            (self.size - 1) * nbytes / self.fabric.rank_rate
        )
        me = self.rank

        def combine(payloads: list[Any]):
            return list(payloads) if me == root else None

        return (yield from self._co_sync_collective(
            "gather", t_extra, "Gather", payload=value, root=root, combine=combine
        ))

    def gather(self, value: Any, nbytes: int = 0, root: int = 0):
        """Gather values to ``root`` (list in rank order on root, else None)."""
        return self._drive(self.co_gather(value, nbytes, root))

    def co_allgather(self, value: Any, nbytes: int = 0):
        """Coroutine form of :meth:`allgather`."""
        t_extra = self._tree_depth() * self.net.latency + (
            (self.size - 1) * nbytes / self.fabric.rank_rate
        )
        return (yield from self._co_sync_collective(
            "allgather", t_extra, "Allgather", payload=value, combine=list
        ))

    def allgather(self, value: Any, nbytes: int = 0):
        """Gather values to all ranks (list in rank order)."""
        return self._drive(self.co_allgather(value, nbytes))

    def co_scatter(self, values: Sequence[Any] | None = None, nbytes: int = 0,
                   root: int = 0):
        """Coroutine form of :meth:`scatter`."""
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise MPIUsageError(
                    f"scatter root must pass {self.size} values"
                )
        t_extra = self._tree_depth() * self.net.latency + (
            (self.size - 1) * nbytes / self.fabric.rank_rate
        )
        me = self.rank

        def combine(payloads: list[Any]):
            return payloads[root][me] if payloads[root] is not None else None

        marker = list(values) if self.rank == root else None
        return (yield from self._co_sync_collective(
            "scatter", t_extra, "Scatter", payload=marker, root=root, combine=combine
        ))

    def scatter(self, values: Sequence[Any] | None = None, nbytes: int = 0,
                root: int = 0):
        """Scatter ``root``'s list of per-rank values."""
        return self._drive(self.co_scatter(values, nbytes, root))

    # -------------------------------------------------------------------- split

    def co_split(self, color: int, key: int | None = None):
        """Coroutine form of :meth:`split`."""
        me_key = self.rank if key is None else key
        triples = yield from self.co_allgather(
            (color, me_key, self.group[self.rank])
        )
        mine = sorted(
            (k, wr) for (c, k, wr) in triples if c == color
        )
        new_group = [wr for (_k, wr) in mine]
        # Communicator ids must be shared by the members and distinct
        # across colors: agree on the minimum of the per-rank draws over
        # the *parent*, then qualify it with the color.
        agreed = yield from self.co_allreduce(self.engine.new_comm_id(), op=min)
        return Communicator(self.ctx, new_group, (agreed, color))

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition the communicator by ``color`` (MPI_Comm_split).

        Ranks with equal color form a new communicator ordered by
        ``key`` (default: current rank).  Collective — all members must
        call it.
        """
        return self._drive(self.co_split(color, key))
