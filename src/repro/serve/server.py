"""The long-lived JSON-over-HTTP front end (stdlib only).

:class:`ReproApp` is the transport-free core.  :meth:`ReproApp.respond`
takes one framed request (method, request target, body bytes), parses it
into parameters, routes them through the endpoint table, leases the
snapshot it needs from the :class:`~repro.serve.registry.SnapshotRegistry`,
consults the fingerprint-keyed :class:`~repro.serve.cache.ResultCache`,
and returns ``(status, header block, body)``.  :class:`ReproServer` is the
transport: a threading TCP server with one thread per connection, whose
handler keeps the connection alive, parses only the request line and the
headers that frame the body, and writes each response with one
``sendall``.

The concurrency contract, in one place:

* a request **leases** its snapshot once and computes on that object for
  its whole life, so an atomic swap (``POST /reload``) never tears an
  in-flight response — the retired snapshot's memory map closes only
  after its last lease drains;
* cache keys start with the leased snapshot's **fingerprint**, so a
  result computed on retired content is unreachable the moment the swap
  publishes a new fingerprint — stale hits are impossible by key
  construction, not by invalidation discipline;
* a cache hit replays the exact bytes the first computation produced
  (the cache stores serialized bodies), so hot and cold responses are
  bit-identical by construction;
* a byte-identical repeat of a request that hit (same method, target and
  body) is answered from its exact-request alias without being parsed,
  but only while the registry still binds the snapshot name to the
  fingerprint the alias was made under
  (:meth:`~repro.serve.registry.SnapshotRegistry.binds`);
* ``/reload``s are serialised, and when the new store appends rows to the
  retiring snapshot, the recurring ``/profile``, ``/kpi``-by-level and
  cube-aggregate answers are advanced by those rows and cached under the
  new fingerprint *before* the swap publishes, so the first query after
  the reload is a hit on bytes equal to ``evaluate`` on the new snapshot
  (docs/serving.md, "Appended snapshots").

Request shapes: ``POST`` with a JSON-object body, or ``GET`` with a
``q=<url-encoded JSON object>`` query parameter; bare ``key=value`` query
parameters are merged in as strings (convenient for ``curl`` and for the
``dataset=``/``graph=`` snapshot selectors).  Bodies are framed by
``Content-Length`` only.

Limits, each a module constant: a body over :data:`MAX_BODY_BYTES` gets a
413, a request line over :data:`MAX_LINE_BYTES` a 414, a header line over
it or more than :data:`MAX_HEADERS` header lines a 431, and a
``Transfer-Encoding`` or a method other than GET and POST a 501; each of
these closes the connection.  A connection silent for
:data:`SOCKET_TIMEOUT_S` is closed, and one beyond
:data:`MAX_CONNECTIONS` open connections gets a 503 and is closed.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.exceptions import ReproError, ServeError
from repro.serve.cache import DEFAULT_MAX_ENTRIES, Alias, ResultCache, canonical_query
from repro.serve.endpoints import ENDPOINTS, QueryState, encode_response, evaluate, query_state
from repro.serve.registry import Snapshot, SnapshotRegistry

#: Response header carrying the fingerprint of the snapshot a query
#: response was computed from (the cache-key anchor).
FINGERPRINT_HEADER = "X-Repro-Fingerprint"
#: Response header flagging whether the body came from the result cache.
CACHE_HEADER = "X-Repro-Cache"
#: Response header naming the snapshot a query response was served from.
SNAPSHOT_HEADER = "X-Repro-Snapshot"

#: Largest request body, in bytes; a larger ``Content-Length`` gets a 413
#: and the body is never read.
MAX_BODY_BYTES = 1 << 20
#: Longest request line (414 beyond) or header line (431 beyond), in bytes.
MAX_LINE_BYTES = 65536
#: Most header lines one request may carry (431 beyond).
MAX_HEADERS = 100
#: Seconds a connection may stay silent, between requests or inside one,
#: before the server closes it.
SOCKET_TIMEOUT_S = 60.0
#: Most connections open at once; the accept loop answers the next one
#: with a 503 and closes it.
MAX_CONNECTIONS = 64

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Content Too Large", 414: "URI Too Long", 431: "Request Header Fields Too Large",
    501: "Not Implemented", 503: "Service Unavailable", 505: "HTTP Version Not Supported",
}
_STATUS_LINES = {code: f"HTTP/1.1 {code} {reason}\r\n".encode("ascii") for code, reason in _REASONS.items()}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
#: The ``Server`` header: the server's version, then Python's.
_SERVER_LINE = f"Server: repro-serve/{__version__} Python/{sys.version.split()[0]}\r\n".encode("ascii")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
#: The last ``Date`` line formatted, with the second it is for.
_DATE_LINE: tuple[int, bytes] = (-1, b"")
#: Access-log escapes for control characters in a request line.
_LOG_ESCAPES = str.maketrans({c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))})


def _date_line() -> bytes:
    """The ``Date`` header line (RFC 7231 IMF-fixdate), formatted at most once per second."""
    global _DATE_LINE
    second = int(time.time())
    cached = _DATE_LINE
    if cached[0] != second:
        t = time.gmtime(second)
        cached = _DATE_LINE = (second, (
            f"Date: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n"
        ).encode("ascii"))
    return cached[1]


def _encode_head(headers: dict[str, str], length: int) -> bytes:
    """The header lines that follow ``Date``, ``Content-Length`` last."""
    lines = "".join(f"{key}: {value}\r\n" for key, value in headers.items())
    return lines.encode("latin-1") + b"Content-Length: %d\r\n" % length


def _parse_request(method: str, target: str, body: bytes) -> tuple[str, dict[str, Any]]:
    """Split a request target and body into ``(path, params)``.

    Raises ``ValueError``, ``UnicodeDecodeError`` or ``RecursionError`` on
    malformed input, which the caller answers with the JSON 400.
    """
    if target.startswith("//"):  # a path, not a network location
        target = "/" + target.lstrip("/")
    split = urlsplit(target)
    params: dict[str, Any] = {key: values[0] for key, values in parse_qs(split.query).items()}
    packed = params.pop("q", None)
    if packed is not None:
        decoded = json.loads(packed)
        if not isinstance(decoded, dict):
            raise ValueError("the q= query parameter must hold a JSON object")
        params.update(decoded)
    if method == "POST" and body.strip():
        decoded = json.loads(body)
        if not isinstance(decoded, dict):
            raise ValueError("the request body must hold a JSON object")
        params.update(decoded)
    return split.path, params


class ReproApp:
    """Routing, caching and snapshot leasing — everything but the sockets.

    The app object is shared by every handler thread; it owns the
    registry, the result cache and the (optional) knowledge base, and is
    itself stateless per request.  Using it directly —
    ``app.respond("POST", "/profile", b"{}")`` for a framed request, or
    ``app.handle("GET", "/profile", {})`` for parsed parameters —
    exercises the identical code path the HTTP server runs, minus the
    transport, which is how the property suite drives thousands of
    cache/swap interleavings without socket overhead.
    """

    def __init__(self, registry: SnapshotRegistry | None = None,
                 cache: ResultCache | None = None, knowledge_base: Any = None) -> None:
        """Assemble an app around a registry, cache and optional KB."""
        self.registry = registry if registry is not None else SnapshotRegistry()
        self.cache = cache if cache is not None else ResultCache()
        self.knowledge_base = knowledge_base
        #: Serialises ``/reload``s, so no state is advanced twice and no
        #: prune runs between another reload's ``cache.put`` and its publish.
        self._reload_lock = threading.Lock()
        #: Per snapshot name: the fingerprint its recurring queries' states
        #: answer for, and the state of each ``(endpoint, canonical query)``.
        self._states: dict[str, tuple[str, dict[tuple[str, str], QueryState]]] = {}

    # -- request entry -------------------------------------------------------

    def respond(self, method: str, target: str, body: bytes) -> tuple[int, bytes, bytes]:
        """Serve one framed request; returns ``(status, header block, body)``.

        The header block holds the response's header lines after ``Date``,
        each ending in CRLF, ``Content-Length`` last.  An exact repeat of a
        request that hit the cache is answered from its alias; a request
        whose canonical lookup hits gets one.
        """
        request = (method, target, body)
        alias = self.cache.replay(request, self.registry.binds)
        if alias is not None:
            return 200, alias.head, alias.body
        layout = self.registry.layout  # read before the name resolves, so a later change voids the alias
        try:
            path, params = _parse_request(method, target, body)
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            status, headers, payload = self._error(400, f"malformed request: {exc}")
        else:
            status, headers, payload = self.handle(method, path, params)
        head = _encode_head(headers, len(payload))
        if headers.get(CACHE_HEADER) == "hit":
            self.cache.alias(request, Alias(
                headers[SNAPSHOT_HEADER], headers[FINGERPRINT_HEADER], layout, head, payload
            ))
        return status, head, payload

    def handle(self, method: str, path: str, params: dict[str, Any]) -> tuple[int, dict[str, str], bytes]:
        """Serve one parsed request; returns ``(status, headers, body)``."""
        try:
            if path in ENDPOINTS:
                if method != "GET" and method != "POST":
                    return self._error(405, f"{path} accepts GET or POST, not {method}")
                return self._handle_query(path, params)
            if path == "/health":
                return self._ok({"status": "ok", "version": __version__,
                                 "snapshots": self.registry.names()})
            if path == "/snapshots":
                return self._ok({"snapshots": self.registry.describe()})
            if path == "/cache/stats":
                return self._ok({"cache": self.cache.stats()})
            if path == "/reload":
                if method != "POST":
                    return self._error(405, "/reload is a POST endpoint")
                return self._handle_reload(params)
            return self._error(404, f"unknown endpoint {path!r}")
        except ServeError as exc:
            status = 404 if "no snapshot named" in str(exc) else 400
            return self._error(status, str(exc))
        except ReproError as exc:
            return self._error(400, str(exc))
        except RecursionError as exc:  # parameters nested too deep to serialise as a cache key
            return self._error(400, f"malformed request: {exc}")

    # -- query endpoints -----------------------------------------------------

    def _handle_query(self, path: str, params: dict[str, Any]) -> tuple[int, dict[str, str], bytes]:
        """One cacheable endpoint request: lease → cache lookup → compute."""
        kind, _fn = ENDPOINTS[path]
        name = params.get(kind)
        name = str(name) if name is not None else self.registry.default_name(kind)
        query = canonical_query(params)
        with self.registry.lease(name) as snapshot:
            if snapshot.kind != kind:
                raise ServeError(
                    f"endpoint {path} needs a {kind} snapshot, but {name!r} is a {snapshot.kind}"
                )
            headers = {
                "Content-Type": "application/json",
                SNAPSHOT_HEADER: name,
                FINGERPRINT_HEADER: snapshot.fingerprint,
            }
            body = self.cache.get(snapshot.fingerprint, path, query)
            if body is not None:
                headers[CACHE_HEADER] = "hit"
                return 200, headers, body
            result = evaluate(path, snapshot.payload, params, self.knowledge_base)
            body = encode_response(result)
            self.cache.put(snapshot.fingerprint, path, query, body)
            headers[CACHE_HEADER] = "miss"
            return 200, headers, body

    # -- admin endpoints -----------------------------------------------------

    def _handle_reload(self, params: dict[str, Any]) -> tuple[int, dict[str, str], bytes]:
        """``POST /reload`` — publish-then-retire swap of one snapshot.

        When the new store appends rows to the retiring snapshot, each
        recurring query's answer is advanced (or its state seeded) and
        cached under the new fingerprint before the swap publishes
        (:meth:`_carry_states`).
        """
        name = params.get("name")
        if name is None:
            names = self.registry.names()
            if len(names) != 1:
                raise ServeError(
                    f"reload needs a 'name' parameter when several snapshots "
                    f"are registered (have: {names})"
                )
            name = names[0]
        path = params.get("path")
        carried = {"advanced": 0, "seeded": 0}
        with self._reload_lock:
            previous = self.registry.get(str(name)).fingerprint
            snapshot = self.registry.swap(
                str(name), Path(str(path)) if path is not None else None,
                before_publish=lambda old, new: self._carry_states(old, new, carried),
            )
            pruned = self.cache.prune(self.registry.fingerprints())
        return self._ok(
            {
                "snapshot": snapshot.describe(),
                "previous_fingerprint": previous,
                "changed": snapshot.fingerprint != previous,
                "cache_entries_pruned": pruned,
                "appended_rows": snapshot.appended_rows,
                "states_advanced": carried["advanced"],
                "states_seeded": carried["seeded"],
            }
        )

    def _carry_states(self, old: Snapshot, new: Snapshot, carried: dict[str, int]) -> None:
        """Answer ``old``'s recurring queries for ``new`` by its appended rows; drop every other state.

        A query is recurring when ``old``'s fingerprint has its canonical
        cache entry.  Its state is advanced when it answers for ``old``,
        and seeded on ``new``'s payload otherwise; either way the answer is
        cached under ``new``'s fingerprint.  Query shapes without a state
        (:func:`~repro.serve.endpoints.query_state`) and a swap that is not
        an append keep the batch path.  Runs before ``new`` is published.
        """
        fingerprint, states = self._states.pop(old.name, (None, {}))
        if new.appended_rows is None:
            return
        if fingerprint != old.fingerprint:
            states = {}
        kept: dict[tuple[str, str], QueryState] = {}
        for endpoint, query in self.cache.queries(old.fingerprint):
            state = states.get((endpoint, query))
            try:
                if state is not None:
                    result = state.advance(new.payload)
                    carried["advanced"] += 1
                else:
                    state = query_state(endpoint, new.payload, json.loads(query))
                    if state is None:
                        continue
                    result = state.result()
                    carried["seeded"] += 1
            except ReproError:
                continue
            self.cache.put(new.fingerprint, endpoint, query, encode_response(result))
            kept[(endpoint, query)] = state
        self._states[old.name] = (new.fingerprint, kept)

    # -- response helpers ----------------------------------------------------

    @staticmethod
    def _ok(result: dict[str, Any]) -> tuple[int, dict[str, str], bytes]:
        """A 200 response with a canonical JSON body."""
        return 200, {"Content-Type": "application/json"}, encode_response(result)

    @staticmethod
    def _error(status: int, message: str) -> tuple[int, dict[str, str], bytes]:
        """A structured JSON error response."""
        return status, {"Content-Type": "application/json"}, encode_response(
            {"error": message, "status": status}
        )


def _closing_error(status: int, message: str) -> bytes:
    """A whole JSON error response that announces the connection's close."""
    _, headers, body = ReproApp._error(status, message)
    return b"".join((
        _STATUS_LINES[status], _SERVER_LINE, _date_line(), _encode_head(headers, len(body)),
        b"Connection: close\r\n\r\n", body,
    ))


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: read a request, answer it, repeat while kept alive."""

    # Each response leaves in one sendall; TCP_NODELAY keeps Nagle's algorithm
    # from holding a small kept-alive reply until the previous one is acknowledged.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        """Buffer the reads and bound how long the connection may stay silent."""
        super().setup()
        self.connection.settimeout(SOCKET_TIMEOUT_S)

    def handle(self) -> None:
        """Serve requests until the client closes, a rejection closes or the timeout fires."""
        try:
            while self._serve_one():
                pass
        except OSError:  # reset, broken pipe, or SOCKET_TIMEOUT_S of silence
            pass

    def _serve_one(self) -> bool:
        """Read and answer one request; return whether the connection stays open.

        The body is read in full before anything in it is parsed, so an
        error reply never leaves body bytes on a kept-alive connection to
        be read as the next request.  A request whose body cannot be framed
        (a ``Content-Length`` that is not a byte count, or a
        ``Transfer-Encoding``) is answered and the connection closed.
        """
        rfile = self.rfile
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return False
        if len(line) > MAX_LINE_BYTES:
            self.requestline = ""
            return self._reject(414, f"the request line is longer than {MAX_LINE_BYTES} bytes")
        self.requestline = line.decode("latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            return self._reject(400, f"malformed request line {self.requestline!r}")
        method, target, version = words
        if version != "HTTP/1.1" and version != "HTTP/1.0":
            status = 505 if version.startswith("HTTP/") else 400
            return self._reject(status, f"unsupported protocol version {version!r}")
        lengths: set[bytes] = set()
        connection: list[bytes] = []
        chunked = expect = False
        for count in range(MAX_HEADERS + 1):
            header = rfile.readline(MAX_LINE_BYTES + 1)
            if header == b"\r\n" or header == b"\n" or not header:
                break
            if len(header) > MAX_LINE_BYTES:
                return self._reject(431, f"a header line is longer than {MAX_LINE_BYTES} bytes")
            if count == MAX_HEADERS:
                return self._reject(431, f"the request has more than {MAX_HEADERS} header lines")
            name, _, value = header.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                lengths.add(value.strip())
            elif name == b"transfer-encoding":
                chunked = True
            elif name == b"connection":
                connection += (token.strip() for token in value.lower().split(b","))
            elif name == b"expect":
                expect = value.strip().lower() == b"100-continue"
        if method != "GET" and method != "POST":
            return self._reject(501, f"method {method!r} is not supported; use GET or POST")
        if chunked:
            return self._reject(501, "Transfer-Encoding is not supported; send a Content-Length")
        # Conflicting copies join into a value that is not a byte count either.
        declared = b",".join(sorted(lengths)).decode("latin-1") or "0"
        if not declared.isdecimal():
            return self._reject(400, f"malformed request: Content-Length {declared!r} is not a byte count")
        # int() refuses thousands of digits; anything near that is over the limit anyway.
        length = int(declared) if len(declared) < 20 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            return self._reject(413, f"the request body is larger than {MAX_BODY_BYTES} bytes")
        keep_alive = b"close" not in connection and (version == "HTTP/1.1" or b"keep-alive" in connection)
        if expect and version == "HTTP/1.1":
            self.connection.sendall(_CONTINUE)
        body = rfile.read(length) if length else b""
        if len(body) < length:  # the client went away mid-body
            return False
        status, head, payload = self.server.app.respond(method, target, body)
        self._log(status)
        self.connection.sendall(b"".join((
            _STATUS_LINES[status], _SERVER_LINE, _date_line(), head, b"\r\n", payload,
        )))
        return keep_alive

    def _reject(self, status: int, message: str) -> bool:
        """Answer a request that cannot be served with a JSON error; close the connection."""
        self._log(status)
        self.connection.sendall(_closing_error(status, message))
        return False

    def _log(self, status: int) -> None:
        """One access-log line on stderr when the server is verbose.

        The format is ``host - - [day/Mon/year hh:mm:ss] "request line"
        status -``.  The line is written before the response, so a client
        that has its reply also has its log line.
        """
        if self.server.verbose:
            now = time.localtime()
            sys.stderr.write(
                f"{self.client_address[0]} - - [{now.tm_mday:02d}/{_MONTHS[now.tm_mon - 1]}/"
                f"{now.tm_year:04d} {now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d}] "
                f'"{self.requestline.translate(_LOG_ESCAPES)}" {status} -\n'
            )


class ReproServer(socketserver.ThreadingTCPServer):
    """A threaded HTTP/1.1 server wired to one :class:`ReproApp`.

    One daemon thread serves each connection, at most
    :data:`MAX_CONNECTIONS` at once.  A clean shutdown goes through
    :meth:`close` (stop accepting, release every snapshot's memory map);
    daemon threads are not joined, so it does not wait for idle keep-alive
    connections, and a request still in flight keeps its snapshot leased
    until it finishes.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: ReproApp, verbose: bool = False) -> None:
        """Bind to ``address`` and attach ``app``."""
        self.app = app
        self.verbose = verbose
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        try:
            super().__init__(address, _Connection)
        except (OSError, OverflowError) as exc:
            raise ServeError(f"cannot bind {address[0]}:{address[1]}: {exc}") from exc

    @property
    def url(self) -> str:
        """The server's reachable base URL (the OS-assigned port resolved)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        """Start a handler thread for the connection, or refuse it with a 503 when none is free."""
        if not self._slots.acquire(blocking=False):
            try:
                request.setblocking(False)  # a client that reads nothing must not stall the accept loop
                request.sendall(_closing_error(
                    503, f"the server is serving its limit of {MAX_CONNECTIONS} connections; retry later"
                ))
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        """Serve the connection in its thread, then free its slot."""
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def close(self) -> None:
        """Release the listening socket and every registered snapshot."""
        self.server_close()
        self.app.registry.close_all()


def create_server(
    stores: list[Path | str] | None = None,
    graphs: list[Path | str] | None = None,
    knowledge_base: Any = None,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_entries: int = DEFAULT_MAX_ENTRIES,
    verbose: bool = False,
) -> ReproServer:
    """Open the given ``.rps`` files and return a ready-to-serve server.

    Snapshots are named after their file stems (``budget.rps`` serves as
    ``budget``); duplicate names are rejected rather than silently
    shadowed.  ``port=0`` asks the OS for a free port — read it back from
    :attr:`ReproServer.url`.  The files are opened *before* the socket
    binds, so a corrupt store fails the launch instead of the first
    request.
    """
    if not stores and not graphs:
        raise ServeError("a server needs at least one --store or --graph snapshot")
    if not 0 <= int(port) <= 65535:
        raise ServeError(f"port must be in [0, 65535], got {port}")
    registry = SnapshotRegistry()
    try:
        seen: set[str] = set()
        for path in list(stores or []) + list(graphs or []):
            name = Path(path).stem
            if name in seen:
                raise ServeError(
                    f"two snapshot files share the name {name!r}; rename one of them"
                )
            seen.add(name)
            registry.publish(name, path)
        app = ReproApp(registry, ResultCache(cache_entries), knowledge_base)
        return ReproServer((host, int(port)), app, verbose=verbose)
    except Exception:
        registry.close_all()
        raise
