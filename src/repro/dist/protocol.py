"""JSON-over-HTTP wire helpers shared by coordinator and worker.

The protocol is deliberately tiny — five endpoints, JSON bodies, the
standard library only — because the hard guarantees (determinism,
idempotent completion, lease expiry) live in :mod:`repro.dist.queue`
and the stores, not in the transport.

Transport: persistent HTTP/1.1.  :func:`call` and :func:`fetch_text`
keep one :class:`http.client.HTTPConnection` per (thread, host, port)
and reuse it across calls (at most :data:`POOL_SIZE` per thread; a
forked child starts with none).  A reused connection the server has
closed in the meantime (idle timeout, restart) fails before any
response; it is reopened once, straight away, without backoff and
without counting a retry.  The servers share one handler base,
:mod:`repro.dist.service`.

Endpoints (all responses are JSON objects):

========  ======  ==============================================------
path      method  body -> response
========  ======  ==============================================------
/config   GET     -> grid descriptor: platform, faults key, eval-store
                  snapshot, per-cell (index, p, n, budget), lease_ttl,
                  batch
/lease    POST    {worker, max_cells} -> {lease, cells, finished}
/renew    POST    {worker, lease, done, total, label} -> {ok, finished}
/complete POST    {worker, lease, cells: [{index, cell, evals, hits}],
                  wisdom, host, metrics, spans} -> {accepted, finished}
/fail     POST    {worker, lease, failures: [{index, label, cause,
                  attempts, timed_out}]} -> {accepted, finished}
/status   GET     -> queue counters, lease ages, per-worker heartbeat
                  lag, completion rate + ETA
/healthz  GET     -> liveness/readiness probe (no auth; 200 ready /
                  503 finished-or-draining); also on the plan server
/metrics  GET     -> Prometheus text exposition (fleet-wide registry:
                  coordinator counters + merged worker deltas); fetch
                  with :func:`fetch_text`, not :func:`call`
========  ======  ==============================================------

``/complete``'s ``host``/``metrics``/``spans`` fields are additive
telemetry (metric deltas and trace spans, see DESIGN.md §5.12): the
coordinator merges them when present and old workers that omit them
still speak the same protocol version.

Auth: when a server is started with a token (``DistConfig.token`` /
``ServeConfig.token``), every request must carry
``Authorization: Bearer <token>`` or be rejected with 401; both
:func:`call` and :func:`fetch_text` attach it via their ``token``
argument.  With no token configured the header is neither sent nor
checked — existing fleets keep working unchanged.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from typing import Callable

from ..errors import DistProtocolError, DistUnreachableError
from ..obs.registry import count as _count_metric

#: bumped on incompatible wire changes; both sides check it
PROTOCOL_VERSION = 1

#: retry backoff shape: exponential with full-range cap, then jitter
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 5.0

#: jitter source for retry backoff.  Module-level and *not* seeded from
#: anything deterministic on purpose: the whole point of jitter is that
#: a fleet of clients knocked over by one coordinator restart does not
#: come back in lockstep.  Tests monkeypatch this for determinism.
_jitter = random.Random()


def _backoff_delay(attempt: int, base: float) -> float:
    """Delay before retry ``attempt`` (0-based): exponential growth
    capped at :data:`MAX_BACKOFF_S`, scaled by a uniform jitter in
    ``[0.5, 1.0)`` so synchronized clients desynchronize."""
    raw = min(base * (BACKOFF_FACTOR ** attempt), MAX_BACKOFF_S)
    return raw * (0.5 + _jitter.random() * 0.5)


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def decode(raw: bytes) -> dict:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DistProtocolError(f"malformed JSON body: {exc}") from exc
    if not isinstance(obj, dict):
        raise DistProtocolError(
            f"expected a JSON object, got {type(obj).__name__}"
        )
    return obj


#: pooled connections per thread; past this the least recently used closes
POOL_SIZE = 8

#: how a reused connection fails when the server closed it while idle
#: (``RemoteDisconnected`` is a ``ConnectionResetError``)
_STALE = (ConnectionResetError, BrokenPipeError)


class _Pool(dict):
    """One thread's connections by ``host:port``, least recently used
    first; closes them when the exiting thread drops it."""

    def __del__(self) -> None:
        for conn in self.values():
            conn.close()


_pool = threading.local()


def _reset_pool() -> None:
    """Forget every pooled connection: a forked child must never write
    to its parent's sockets."""
    global _pool
    _pool = threading.local()


os.register_at_fork(after_in_child=_reset_pool)


def _exchange(base_url: str, method: str, path: str, body: bytes | None,
              headers: dict, timeout: float) -> tuple[int, str, bytes]:
    """One request over this thread's connection to ``base_url``;
    returns ``(status, reason, body)``.

    A reused connection that fails with :data:`_STALE` before any
    response is reopened once, straight away.  Any other transport
    failure closes the connection and propagates.
    """
    netloc, _, prefix = base_url.split("://", 1)[-1].partition("/")
    target = ("/" + prefix).rstrip("/") + path
    conns = getattr(_pool, "conns", None)
    if conns is None:
        conns = _pool.conns = _Pool()
    conn = conns.pop(netloc, None)
    reused = conn is not None
    if conn is None:
        conn = http.client.HTTPConnection(netloc, timeout=timeout)
    else:
        conn.timeout = timeout
        conn.sock.settimeout(timeout)
    try:
        while True:
            try:
                conn.request(method, target, body, headers)
                resp = conn.getresponse()
                break
            except _STALE:
                if not reused:
                    raise
                reused = False
                conn.close()
        data = resp.read()
    except BaseException:
        conn.close()
        raise
    if resp.will_close:
        conn.close()
    else:
        conns[netloc] = conn
        if len(conns) > POOL_SIZE:
            conns.pop(next(iter(conns))).close()
    return resp.status, resp.reason, data


def _request(base_url: str, path: str, body: bytes | None, timeout: float,
             token: str | None, retries: int, backoff_s: float,
             sleep: Callable[[float], None]) -> tuple[int, bytes]:
    """The retry loop under :func:`call` and :func:`fetch_text`; returns
    ``(status, body)`` of the first answer below 400."""
    method = "GET" if body is None else "POST"
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    last: Exception | None = None
    for attempt in range(retries + 1):
        try:
            status, reason, raw = _exchange(base_url, method, path, body,
                                            headers, timeout)
        except (http.client.HTTPException, OSError) as exc:
            last = exc
        else:
            if status < 400:
                return status, raw
            try:
                reason = decode(raw).get("error") or reason
            except DistProtocolError:
                pass
            if status < 500:
                raise DistProtocolError(f"{path} rejected ({status}): {reason}")
            last = DistProtocolError(f"HTTP Error {status}: {reason}")
        if attempt < retries:
            _count_metric("proto_retries_total",
                          help="Transport-level protocol retries.")
            sleep(_backoff_delay(attempt, backoff_s))
    raise DistUnreachableError(
        f"coordinator unreachable at {base_url.rstrip('/') + path} "
        f"after {retries + 1} attempt(s): {last}"
    ) from last


def fetch_text(
    base_url: str,
    path: str,
    timeout: float = 10.0,
    token: str | None = None,
    retries: int = 0,
    backoff_s: float = 0.2,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """One GET for a plain-text endpoint (``/metrics``).

    ``retries`` defaults to 0: the usual callers are pollers
    (``repro top``, benchmark probes) that have their own cadence and
    treat a miss as "coordinator gone".  Callers that *do* want to ride
    out a restart blip pass ``retries > 0`` and get the same jittered
    exponential backoff as :func:`call` (transport failures and 5xx
    only; 4xx rejections raise immediately).
    """
    _, raw = _request(base_url, path, None, timeout, token, retries,
                      backoff_s, sleep)
    return raw.decode("utf-8")


def call(
    base_url: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 10.0,
    retries: int = 3,
    backoff_s: float = 0.2,
    sleep: Callable[[float], None] = time.sleep,
    token: str | None = None,
    with_status: bool = False,
) -> dict:
    """One request against the coordinator; GET when ``payload`` is None.

    Transport-level failures (connection refused mid-restart, dropped
    sockets, 5xx) are retried with **jittered exponential backoff**
    (see :func:`_backoff_delay`) — the coordinator's endpoints are
    idempotent, so a retried request is always safe, and the jitter
    keeps a fleet of clients knocked over by one restart from
    stampeding back in lockstep.  Each retry is counted on the current
    metrics registry as ``proto_retries_total``; the immediate reopen of
    a stale pooled connection is not a retry.  Exhausting the budget
    raises :class:`~repro.errors.DistUnreachableError` (a
    :class:`~repro.errors.DistProtocolError` subclass); protocol-level
    rejections (4xx with a JSON ``error``) raise
    :class:`~repro.errors.DistProtocolError` immediately, no retry.

    With ``with_status=True`` returns ``(status_code, body)`` instead of
    just the body — the plan server distinguishes 200 (warm hit) from
    202 (job enqueued) and its clients need to see which they got.
    """
    body = None if payload is None else encode(payload)
    status, raw = _request(base_url, path, body, timeout, token, retries,
                           backoff_s, sleep)
    out = decode(raw)
    return (status, out) if with_status else out
