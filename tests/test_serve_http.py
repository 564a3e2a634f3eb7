"""The serving tier's HTTP/1.1 transport, driven over raw sockets.

* **request bounds** — a body over ``MAX_BODY_BYTES`` is refused unread
  (413), a silent connection is closed after ``SOCKET_TIMEOUT_S``, and the
  connection beyond ``MAX_CONNECTIONS`` gets a 503 from the accept loop;
* **framing** — bodies are framed by ``Content-Length`` alone
  (``Transfer-Encoding`` gets a 501), only GET and POST are served,
  ``Expect: 100-continue``, HTTP/1.0 and ``Connection: close`` behave as
  clients expect, over-long lines and too many headers are refused, and a
  pipelined stream split into single bytes is answered as if sent whole;
* **what clients see** — an exact-request alias hit carries the canonical
  hit's headers and bytes, the ``Date`` line is an IMF-fixdate, importing
  the tier loads no ``http.server``, and ``repro serve --verbose`` logs one
  line per request.
"""

from __future__ import annotations

import email.utils
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.datasets import service_requests
from repro.serve import create_server
from repro.serve import server as serve_module
from rawhttp import TIMEOUT_S, connect, exchange, read_reply

HEALTH = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
PROFILE = b'{"criteria": ["completeness", "balance"]}'


def _post(path: bytes, body: bytes, extra: bytes = b"") -> bytes:
    return b"POST %s HTTP/1.1\r\nHost: test\r\n%sContent-Length: %d\r\n\r\n%s" % (
        path, extra, len(body), body
    )


def _assert_closing_json_error(reply, status: int) -> None:
    code, headers, body = reply
    assert code == status
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert json.loads(body)["status"] == status


def _head_only(length: bytes, extra: bytes = b"") -> bytes:
    return b"POST /profile HTTP/1.1\r\nHost: test\r\n%sContent-Length: %s\r\n\r\n" % (extra, length)


def _with_headers(n: int) -> bytes:
    return b"GET /health HTTP/1.1\r\n" + b"".join(b"X-Pad-%d: v\r\n" % i for i in range(n)) + b"\r\n"


_OVER = b"%d" % (serve_module.MAX_BODY_BYTES + 1)
_LONG = b"a" * serve_module.MAX_LINE_BYTES
#: Requests the transport refuses: each gets one JSON error that closes the
#: connection, and the ``/health`` pipelined behind it is never read.
REFUSED = [
    pytest.param(_head_only(_OVER), 413, id="body-over-the-cap"),
    pytest.param(_head_only(b"9" * 5000), 413, id="5000-digit-length"),
    pytest.param(_head_only(_OVER, b"Expect: 100-continue\r\n"), 413, id="413-instead-of-100"),
    pytest.param(b"POST /profile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
                 % (len(PROFILE), PROFILE), 501, id="transfer-encoding"),
    *(pytest.param(b"%s /profile HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}" % method, 501, id=method.decode())
      for method in (b"PUT", b"DELETE", b"PATCH")),
    pytest.param(b"POST /profile HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}", 400,
                 id="conflicting-lengths"),
    pytest.param(b"GET /health\r\n\r\n", 400, id="two-word-line"),
    pytest.param(b"GET /health HTTP/1.1 extra\r\n\r\n", 400, id="four-word-line"),
    pytest.param(b"GET /health FTP/1.1\r\n\r\n", 400, id="not-http"),
    pytest.param(b"GET /health HTTP/2.0\r\n\r\n", 505, id="http-2"),
    pytest.param(b"GET /health?pad=%s HTTP/1.1\r\n\r\n" % _LONG, 414, id="request-line-over-64-kib"),
    pytest.param(b"GET /health HTTP/1.1\r\nX-Pad: %s\r\n\r\n" % _LONG, 431, id="header-line-over-64-kib"),
    pytest.param(_with_headers(serve_module.MAX_HEADERS + 1), 431, id="101-header-lines"),
]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return service_requests(n_rows=120, seed=3).save(tmp_path_factory.mktemp("serve-http") / "requests.rps")


@pytest.fixture()
def server(store_path):
    srv = create_server(stores=[store_path])
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)
    srv.close()
    assert not thread.is_alive()


def _fill(server) -> list:
    """Open ``MAX_CONNECTIONS`` kept-alive connections, each holding a handler."""
    held = []
    try:
        for _ in range(serve_module.MAX_CONNECTIONS):
            sock = connect(server)
            held.append(sock)
            sock.sendall(HEALTH)
            assert read_reply(sock.makefile("rb"))[0] == 200
    except BaseException:
        for sock in held:
            sock.close()
        raise
    return held


@pytest.mark.parametrize("request_bytes, status", REFUSED)
def test_a_refused_request_gets_one_closing_json_error(server, request_bytes, status):
    replies, closed = exchange(server, request_bytes + HEALTH, 2)
    assert closed and len(replies) == 1
    _assert_closing_json_error(replies[0], status)


class TestRequestBounds:
    def test_a_silent_connection_is_closed_after_the_timeout(self, server, monkeypatch):
        monkeypatch.setattr(serve_module, "SOCKET_TIMEOUT_S", 0.3)
        started = time.perf_counter()
        # A body that never arrives in full, then a kept-alive connection left idle.
        replies, closed = exchange(server, _post(b"/profile", PROFILE)[:-5], 1)
        assert closed and replies == []
        with connect(server) as sock:
            sock.sendall(HEALTH)
            reader = sock.makefile("rb")
            assert read_reply(reader)[0] == 200
            assert read_reply(reader) is None
        assert time.perf_counter() - started < 2 * TIMEOUT_S

    def test_the_connection_beyond_the_cap_gets_a_503(self, server):
        held = _fill(server)
        try:
            with connect(server) as sock:
                reader = sock.makefile("rb")
                _assert_closing_json_error(read_reply(reader), 503)
                assert read_reply(reader) is None
        finally:
            for sock in held:
                sock.close()

    def test_a_refused_client_connects_again_once_a_slot_frees(self, server):
        held = _fill(server)
        try:
            with connect(server) as sock:
                assert read_reply(sock.makefile("rb"))[0] == 503
            held.pop().close()
            # The freed handler releases its slot once it has seen the close.
            statuses: list[int] = []
            deadline = time.perf_counter() + TIMEOUT_S
            while 200 not in statuses and time.perf_counter() < deadline:
                replies, _ = exchange(server, HEALTH, 1)
                statuses += [status for status, _, _ in replies]
                time.sleep(0.01)
            assert 200 in statuses
        finally:
            for sock in held:
                sock.close()


class TestFraming:
    def test_expect_100_continue_is_answered_before_the_body(self, server):
        plain, _ = exchange(server, _post(b"/profile", PROFILE), 1)
        head = _post(b"/profile", PROFILE, b"Expect: 100-continue\r\n")[:-len(PROFILE)]
        with connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(head)
            assert read_reply(reader) == (100, {}, b"")
            sock.sendall(PROFILE)
            status, headers, body = read_reply(reader)
        assert status == 200 and body == plain[0][2]
        assert headers["x-repro-cache"] == "hit"

    def test_http_10_closes_unless_asked_to_keep_alive(self, server):
        request = b"GET /health HTTP/1.0\r\n\r\n"
        replies, closed = exchange(server, request + request, 2)
        assert closed and [r[0] for r in replies] == [200]
        keep = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        replies, closed = exchange(server, keep + request, 2)
        assert not closed and [r[0] for r in replies] == [200, 200]

    def test_connection_close_is_honoured(self, server):
        request = b"GET /health HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        replies, closed = exchange(server, request + HEALTH, 2)
        assert closed and [r[0] for r in replies] == [200]

    def test_100_header_lines_are_served(self, server):
        replies, closed = exchange(server, _with_headers(serve_module.MAX_HEADERS) + HEALTH, 2)
        assert not closed and [r[0] for r in replies] == [200, 200]

    def test_pipelined_requests_sent_byte_by_byte_are_answered_as_if_whole(self, server):
        stream = _post(b"/profile", PROFILE) + HEALTH + _post(b"/profile", PROFILE)
        exchange(server, stream, 3)  # warm the cache, so both runs see the same hits
        whole, _ = exchange(server, stream, 3)
        split, _ = exchange(server, stream, 3, step=1)

        def comparable(replies):
            return [(status, {k: v for k, v in headers.items() if k != "date"}, body)
                    for status, headers, body in replies]

        assert len(whole) == 3 and comparable(split) == comparable(whole)
        assert [r[1].get("x-repro-cache") for r in whole] == ["hit", None, "hit"]


class TestWhatClientsSee:
    def test_an_alias_hit_matches_the_canonical_hit(self, server):
        stats = b"GET /cache/stats HTTP/1.1\r\nHost: test\r\n\r\n"
        request = _post(b"/profile", PROFILE)
        replies, _ = exchange(server, request * 2 + stats + request + stats, 5)
        miss, canonical, before, alias, after = replies
        assert miss[1]["x-repro-cache"] == "miss"
        assert canonical[1]["x-repro-cache"] == alias[1]["x-repro-cache"] == "hit"
        del canonical[1]["date"], alias[1]["date"]
        assert alias[1:] == canonical[1:] and alias[2] == miss[2]
        assert list(alias[1]) == ["server", "content-type", "x-repro-snapshot", "x-repro-fingerprint",
                                  "x-repro-cache", "content-length"]
        hits = [json.loads(reply[2])["cache"]["hits"] for reply in (before, after)]
        assert hits[1] == hits[0] + 1

    def test_the_date_header_is_an_imf_fixdate(self, server):
        (reply,), _ = exchange(server, HEALTH, 1)
        stamp = email.utils.parsedate_to_datetime(reply[1]["date"]).timestamp()
        assert abs(stamp - time.time()) < 5
        assert reply[1]["date"] == email.utils.formatdate(stamp, usegmt=True)
        assert reply[1]["server"] == f"repro-serve/{repro.__version__} Python/{sys.version.split()[0]}"

    def test_importing_the_tier_loads_no_http_server(self):
        script = "import sys, repro.serve; print(sorted({'http.server', 'email'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=_env(), timeout=60, check=True).stdout
        assert out.strip() == "[]"

    def test_verbose_serve_logs_one_line_per_request(self, store_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store_path), "--port", "0",
             "--verbose"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
        )
        try:
            host, port = re.search(r"http://([\d.]+):(\d+)", process.stdout.readline()).groups()
            address = (host, int(port))
            stream = HEALTH + _post(b"/profile", PROFILE) + b"GET /nope HTTP/1.1\r\n\r\n"
            replies, _ = exchange(address, stream, 3)
            rejected, _ = exchange(address, b"PUT /profile HTTP/1.1\r\n\r\n", 1)
            process.send_signal(signal.SIGTERM)
            _, log = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        assert [r[0] for r in replies + rejected] == [200, 200, 404, 501]
        stamp = r"\[\d\d/[A-Z][a-z]{2}/\d{4} \d\d:\d\d:\d\d\]"
        lines = log.splitlines()
        assert len(lines) == 4, log
        for line, request, status in zip(lines, ["GET /health", "POST /profile", "GET /nope", "PUT /profile"],
                                         [200, 200, 404, 501]):
            assert re.fullmatch(rf'127\.0\.0\.1 - - {stamp} "{request} HTTP/1\.1" {status} -', line), line


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env
