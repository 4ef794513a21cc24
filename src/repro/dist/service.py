"""One JSON-over-HTTP service base for the coordinator and the plan server.

Each server subclasses :class:`JsonHandler` with its routes and serves
it from a :class:`JsonServer`.  The base owns the rest: replies, the
unauthenticated ``/healthz`` probe, the 401 gate, JSON bodies and the
error mapping (a malformed JSON body or a ``ValueError`` -> 400,
anything else -> 500).

Clients keep connections alive (:mod:`repro.dist.protocol`), which
makes three things load-bearing (DESIGN.md §5.9):

* TCP_NODELAY: a reply is two sends (headers, body), and with Nagle on
  the body waits for the client's delayed ACK, ~40 ms per request;
* the body is read before any reply, or an early 401/404 leaves it to
  be parsed as the next request line; a negative or non-integer
  ``Content-Length`` gets a 400 and the connection closes;
* idle connections close after :data:`IDLE_TIMEOUT_S`, and
  :meth:`JsonServer.close` cuts live ones, so a stopped server stops
  answering.
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..errors import DistProtocolError
from .protocol import decode, encode

#: seconds a kept-alive connection may sit idle before the server closes it
IDLE_TIMEOUT_S = 30.0


class JsonHandler(BaseHTTPRequestHandler):
    """Request handler base; :meth:`bind` a subclass to its service."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    #: the bound service: has ``config.token``, ``registry`` and
    #: ``handle_healthz()``
    service: Any = None
    #: registry counter of requests rejected for a missing or wrong token
    auth_metric = ""

    @classmethod
    def bind(cls, service: Any) -> type[JsonHandler]:
        return type(cls.__name__, (cls,), {"service": service})

    def route(self, body: dict | None) -> tuple[int, dict | str]:
        """``(status, payload)`` for an authorized request; ``body`` is
        ``None`` for a GET, and a ``str`` payload is Prometheus text."""
        raise NotImplementedError

    def bad_request(self) -> None:
        """Hook: a malformed JSON body, or a route that raised
        ``ValueError`` (answered 400)."""

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the CLI summary / progress ticker is the UI

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle(post=False)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle(post=True)

    def _handle(self, post: bool) -> None:
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                raise ValueError(length)
        except ValueError:
            self.close_connection = True
            return self._reply({"error": "bad Content-Length"}, 400)
        raw = self.rfile.read(length) if length else b""
        try:
            if not post and self.path == "/healthz":
                code, payload = self.service.handle_healthz()
            elif not self._authorized():
                code, payload = 401, {"error": "unauthorized"}
            else:
                try:
                    body = (decode(raw) if raw else {}) if post else None
                except DistProtocolError as exc:  # a malformed body
                    raise ValueError(str(exc)) from exc
                code, payload = self.route(body)
        except ValueError as exc:
            self.bad_request()
            code, payload = 400, {"error": str(exc)}
        except Exception as exc:
            code, payload = 500, {"error": str(exc)}
        self._reply(payload, code)

    def _authorized(self) -> bool:
        """Always true when the service has no token (auth disabled)."""
        token = self.service.config.token
        if not token or self.headers.get("Authorization") == f"Bearer {token}":
            return True
        self.service.registry.inc(self.auth_metric)
        return False

    def _reply(self, payload: dict | str, code: int = 200) -> None:
        if isinstance(payload, str):
            raw = payload.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            raw, ctype = encode(payload), "application/json"
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(raw)))
        if code == 503 and "retry_after" in payload:
            self.send_header("Retry-After", str(payload["retry_after"]))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)


class JsonServer(ThreadingHTTPServer):
    """A threaded HTTP server on a daemon thread that tracks its live
    connections; :attr:`connections_opened` counts every one accepted."""

    def __init__(self, address: tuple[str, int],
                 handler: type[JsonHandler], name: str) -> None:
        super().__init__(address, handler)
        self.connections_opened = 0
        self._live: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self.serve_forever, name=name, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._live.add(request)
            self.connections_opened += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def close(self) -> None:
        """Stop accepting, then shut down every live connection: its
        handler thread reads end-of-stream and exits."""
        self.shutdown()
        self.server_close()
        with self._lock:
            live = list(self._live)
        for sock in live:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._thread.join(timeout=5.0)
