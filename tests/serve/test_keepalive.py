"""Persistent HTTP/1.1 on both planes (DESIGN.md §5.9, §5.13).

The client side: :func:`repro.dist.protocol.call` keeps one connection
per (thread, host, port), counted here on the server side through
``JsonServer.connections_opened``.  The server side: the shared
:mod:`repro.dist.service` base reads every request body before it
answers, rejects a bad ``Content-Length`` and cuts live connections on
``stop()``.
"""

import http.client
import json
import multiprocessing
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bench import clear_cache
from repro.bench.runner import cell_key
from repro.dist import Coordinator, DistConfig, GridJob
from repro.dist import protocol
from repro.dist.protocol import call
from repro.dist.service import JsonHandler, JsonServer
from repro.errors import DistUnreachableError
from repro.obs.registry import MetricsRegistry, scoped_registry
from repro.serve import PlanServer, ServeConfig, request_plan, wait_for_plan

TOKEN = "s3cret"
AUTH = {"Authorization": f"Bearer {TOKEN}"}
PLATFORM = "UMD-Cluster"


def start_coordinator(tmp_path, token=TOKEN, port=0):
    job = GridJob(platform=PLATFORM, todo=[cell_key(PLATFORM, 4, 32, 4)],
                  labels=["p4 N32"])
    with scoped_registry(MetricsRegistry()):
        coord = Coordinator(job, DistConfig(token=token, port=port))
    coord.start()
    return coord, "/lease", {"worker": "w", "max_cells": 1}


def start_plan_server(tmp_path, token=TOKEN, port=0):
    with scoped_registry(MetricsRegistry()):
        srv = PlanServer(ServeConfig(root=str(tmp_path / "store"),
                                     default_budget=4, token=token,
                                     port=port))
    srv.start()
    return srv, "/plan", {"platform": PLATFORM, "p": 4, "n": 32}


@pytest.fixture(params=[start_coordinator, start_plan_server],
                ids=["coordinator", "plan-server"])
def service(request, tmp_path):
    svc, post_path, post_body = request.param(tmp_path)
    yield svc, post_path, post_body
    svc.stop()


def exchange(conn, method, path, body=None, headers=None):
    """One request on a raw connection; returns (status, body, response)."""
    conn.request(method, path, body=body, headers=headers or {})
    resp = conn.getresponse()
    return resp.status, resp.read(), resp


def raw_connection(svc):
    return http.client.HTTPConnection(svc.url.split("://", 1)[1], timeout=10)


class TestBodyReadBeforeReply:
    """Each test runs on one raw connection: an unread body would be
    parsed as the next request line."""

    def test_401_then_200(self, service):
        svc, post_path, post_body = service
        conn = raw_connection(svc)
        try:
            status, body, _ = exchange(conn, "POST", post_path,
                                       json.dumps(post_body))
            assert status == 401
            assert json.loads(body) == {"error": "unauthorized"}
            status, body, _ = exchange(conn, "GET", "/status", headers=AUTH)
            assert status == 200
            assert isinstance(json.loads(body), dict)
        finally:
            conn.close()
        assert svc.http.connections_opened == 1

    def test_unknown_path_post_then_200(self, service):
        svc, _, post_body = service
        conn = raw_connection(svc)
        try:
            status, body, _ = exchange(conn, "POST", "/nowhere",
                                       json.dumps(post_body), AUTH)
            assert status == 404
            assert "unknown path" in json.loads(body)["error"]
            status, _, _ = exchange(conn, "GET", "/status", headers=AUTH)
            assert status == 200
        finally:
            conn.close()
        assert svc.http.connections_opened == 1

    @pytest.mark.parametrize("length", ["-1", "ten"])
    def test_bad_content_length_is_400_and_closes(self, service, length):
        svc, post_path, _ = service
        conn = raw_connection(svc)
        try:
            conn.putrequest("POST", post_path)
            conn.putheader("Content-Length", length)
            conn.putheader("Authorization", AUTH["Authorization"])
            conn.endheaders()
            resp = conn.getresponse()  # a hang here times out after 10 s
            assert resp.status == 400
            assert json.loads(resp.read()) == {"error": "bad Content-Length"}
            assert resp.will_close
        finally:
            conn.close()


class TestMalformedBody:
    @pytest.mark.parametrize("raw", [b"{not json", b"[1,2]"],
                             ids=["not-json", "not-an-object"])
    def test_malformed_json_is_400_and_keeps_the_connection(
            self, service, raw):
        svc, post_path, _ = service
        conn = raw_connection(svc)
        try:
            status, body, _ = exchange(conn, "POST", post_path, raw, AUTH)
            assert status == 400
            assert json.loads(body)["error"]
            status, _, _ = exchange(conn, "GET", "/status", headers=AUTH)
            assert status == 200
        finally:
            conn.close()
        assert svc.http.connections_opened == 1

    def test_plan_server_counts_malformed_bodies_as_bad_requests(
            self, tmp_path):
        reg = MetricsRegistry()
        with scoped_registry(reg):
            srv = PlanServer(ServeConfig(root=str(tmp_path / "store"),
                                         default_budget=4))
        srv.start()
        conn = raw_connection(srv)
        try:
            for raw in (b"{not json", b"[1,2]"):
                status, _, _ = exchange(conn, "POST", "/plan", raw)
                assert status == 400
        finally:
            conn.close()
            srv.stop()
        assert reg.value("serve_bad_requests_total") == 2
        assert reg.value("serve_jobs_enqueued_total") == 0


class TestStop:
    def test_stopped_server_stops_answering(self, service):
        svc, _, _ = service
        url = svc.url
        assert call(url, "/healthz", retries=0)["live"] is True
        svc.stop()
        with pytest.raises(DistUnreachableError):
            call(url, "/healthz", retries=0)

    @pytest.mark.parametrize("start", [start_coordinator, start_plan_server],
                             ids=["coordinator", "plan-server"])
    def test_restart_on_same_port_reconnects_without_a_retry(
            self, tmp_path, start):
        svc, _, _ = start(tmp_path, token=None)
        url = svc.url
        port = svc.http.server_address[1]
        try:
            assert call(url, "/healthz")["live"] is True
        finally:
            svc.stop()
        svc, _, _ = start(tmp_path, token=None, port=port)
        reg = MetricsRegistry()
        try:
            with scoped_registry(reg):
                assert call(svc.url, "/healthz")["live"] is True
            assert svc.url == url
            assert reg.value("proto_retries_total") is None
            assert svc.http.connections_opened == 1
        finally:
            svc.stop()


class _Service:
    """The least a :class:`JsonHandler` needs from its service."""

    config = SimpleNamespace(token=None)
    registry = MetricsRegistry()

    def handle_healthz(self):
        return 200, {"live": True}


class _SleepyHandler(JsonHandler):
    def route(self, body):
        if self.path == "/slow":
            time.sleep(1.0)
        return 200, {"path": self.path}


@pytest.fixture
def sleepy():
    srv = JsonServer(("127.0.0.1", 0), _SleepyHandler.bind(_Service()),
                     "test-sleepy")
    yield srv
    srv.close()


class TestPoolSemantics:
    def test_timeout_applies_on_a_reused_connection(self, sleepy):
        assert call(sleepy.url, "/fast", timeout=10.0)["path"] == "/fast"
        t0 = time.monotonic()
        with pytest.raises(DistUnreachableError):
            call(sleepy.url, "/slow", timeout=0.2, retries=0)
        assert time.monotonic() - t0 < 0.9
        assert sleepy.connections_opened == 1  # /slow reused /fast's

    def test_idle_close_by_the_server_reopens_without_a_retry(
            self, monkeypatch):
        monkeypatch.setattr(JsonHandler, "timeout", 0.2)
        srv = JsonServer(("127.0.0.1", 0), _SleepyHandler.bind(_Service()),
                         "test-idle")
        reg = MetricsRegistry()
        try:
            with scoped_registry(reg):
                assert call(srv.url, "/a")["path"] == "/a"
                time.sleep(0.6)  # the server closes the idle connection
                assert call(srv.url, "/b")["path"] == "/b"
            assert srv.connections_opened == 2
            assert reg.value("proto_retries_total") is None
        finally:
            srv.close()

    def test_pool_is_bounded_per_thread(self, sleepy):
        servers = [JsonServer(("127.0.0.1", 0),
                              _SleepyHandler.bind(_Service()), f"test-{i}")
                   for i in range(protocol.POOL_SIZE)]
        try:
            call(sleepy.url, "/first")
            for srv in servers:
                call(srv.url, "/x")
            # the least recently used connection (to ``sleepy``) closed
            call(sleepy.url, "/again")
            assert sleepy.connections_opened == 2
            assert len(protocol._pool.conns) == protocol.POOL_SIZE
        finally:
            for srv in servers:
                srv.close()


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A plan server holding one warm plan (p=4, N=32)."""
    clear_cache()
    with scoped_registry(MetricsRegistry()):
        srv = PlanServer(ServeConfig(
            root=str(tmp_path_factory.mktemp("warm") / "store"),
            default_budget=4))
    url = srv.start()
    code, body = request_plan(url, PLATFORM, 4, 32)
    if code == 202:
        wait_for_plan(url, body["job"], timeout=120, poll_s=0.02)
    yield srv, url
    srv.stop()
    clear_cache()


def in_threads(n, fn):
    errors = []

    def run():
        try:
            fn()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors, errors


class TestWarmHits:
    def hits(self, url, count):
        for _ in range(count):
            code, _ = request_plan(url, PLATFORM, 4, 32)
            assert code == 200

    def test_sequential_calls_open_one_connection(self, warm):
        srv, url = warm
        before = srv.http.connections_opened
        in_threads(1, lambda: self.hits(url, 20))
        assert srv.http.connections_opened - before == 1

    def test_two_threads_open_two_connections(self, warm):
        srv, url = warm
        before = srv.http.connections_opened
        in_threads(2, lambda: self.hits(url, 20))
        assert srv.http.connections_opened - before == 2

    def test_nagle_guard(self, warm):
        """50 warm hits on one connection well under 1 s: a 40 ms
        delayed-ACK stall per hit would take at least 2 s."""
        srv, url = warm
        self.hits(url, 1)
        before = srv.http.connections_opened
        t0 = time.perf_counter()
        self.hits(url, 50)
        assert time.perf_counter() - t0 < 1.0
        assert srv.http.connections_opened == before


def _child_hits(url):
    assert not getattr(protocol._pool, "conns", None)
    code, _ = request_plan(url, PLATFORM, 4, 32)
    assert code == 200


class TestFork:
    def test_child_never_reuses_the_parents_socket(self, warm):
        srv, url = warm
        assert request_plan(url, PLATFORM, 4, 32)[0] == 200
        assert protocol._pool.conns  # the parent holds a pooled socket
        before = srv.http.connections_opened
        child = multiprocessing.get_context("fork").Process(
            target=_child_hits, args=(url,))
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert srv.http.connections_opened == before + 1
        # the parent's own connection is untouched and still reused
        assert request_plan(url, PLATFORM, 4, 32)[0] == 200
        assert srv.http.connections_opened == before + 1
