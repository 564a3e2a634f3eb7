"""The long-lived JSON-over-HTTP front end (stdlib only).

:class:`ReproApp` is the transport-free core: it routes a parsed request
(method, path, params) through the endpoint table, leases the snapshot it
needs from the :class:`~repro.serve.registry.SnapshotRegistry`, consults
the fingerprint-keyed :class:`~repro.serve.cache.ResultCache`, and
returns ``(status, headers, body-bytes)``.  :class:`ReproServer` wraps it
in a ``ThreadingHTTPServer`` — one thread per in-flight request, all of
them reading the same immutable snapshots.

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
  bit-identical by construction.

Request shapes: ``POST`` with a JSON-object body, or ``GET`` with a
``q=<url-encoded JSON object>`` query parameter; bare ``key=value`` query
parameters are merged in as strings (convenient for ``curl`` and for the
``dataset=``/``graph=`` snapshot selectors).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.exceptions import ReproError, ServeError
from repro.serve.cache import DEFAULT_MAX_ENTRIES, ResultCache, canonical_query
from repro.serve.endpoints import ENDPOINTS, encode_response, evaluate
from repro.serve.registry import SnapshotRegistry

#: Response header carrying the fingerprint of the snapshot a query
#: response was computed from (the cache-key anchor).
FINGERPRINT_HEADER = "X-Repro-Fingerprint"
#: Response header flagging whether the body came from the result cache.
CACHE_HEADER = "X-Repro-Cache"
#: Response header naming the snapshot a query response was served from.
SNAPSHOT_HEADER = "X-Repro-Snapshot"


class ReproApp:
    """Routing, caching and snapshot leasing — everything but the sockets.

    The app object is shared by every handler thread; it owns the
    registry, the result cache and the (optional) knowledge base, and is
    itself stateless per request.  Using it directly —
    ``app.handle("GET", "/profile", {})`` — exercises the identical code
    path the HTTP server runs, minus the transport, which is how the
    property suite drives thousands of cache/swap interleavings without
    socket overhead.
    """

    def __init__(self, registry: SnapshotRegistry | None = None,
                 cache: ResultCache | None = None, knowledge_base: Any = None) -> None:
        """Assemble an app around a registry, cache and optional KB."""
        self.registry = registry if registry is not None else SnapshotRegistry()
        self.cache = cache if cache is not None else ResultCache()
        self.knowledge_base = knowledge_base

    # -- request entry -------------------------------------------------------

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
        """``POST /reload`` — publish-then-retire swap of one snapshot."""
        name = params.get("name")
        if name is None:
            names = self.registry.names()
            if len(names) != 1:
                raise ServeError(
                    f"reload needs a 'name' parameter when several snapshots "
                    f"are registered (have: {names})"
                )
            name = names[0]
        previous = self.registry.get(str(name)).fingerprint
        path = params.get("path")
        snapshot = self.registry.swap(str(name), Path(str(path)) if path is not None else None)
        pruned = self.cache.prune(self.registry.fingerprints())
        return self._ok(
            {
                "snapshot": snapshot.describe(),
                "previous_fingerprint": previous,
                "changed": snapshot.fingerprint != previous,
                "cache_entries_pruned": pruned,
            }
        )

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


class _RequestHandler(BaseHTTPRequestHandler):
    """Per-connection glue: parse HTTP, call the app, write the response."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"
    # An unbuffered wfile emits each status/header line as its own tiny TCP
    # segment, and Nagle + delayed ACK then stall small keep-alive responses
    # at ~25 req/s.  Buffer the whole response (handle_one_request flushes
    # it) and disable Nagle so the reply leaves in one segment, immediately.
    wbufsize = -1
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch a GET request."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Dispatch a POST request."""
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        """Read the body, parse parameters, run the app, serialize the reply.

        The body is read in full before anything is parsed, whatever the
        method, so an early 400 never leaves body bytes on a keep-alive
        connection to be read as the next request.  A ``Content-Length``
        that is not a byte count cannot frame the body, so its 400 also
        closes the connection.
        """
        try:
            declared = (self.headers.get("Content-Length") or "0").strip()
            if not declared.isdecimal():
                self.close_connection = True
                raise ValueError(f"Content-Length {declared!r} is not a byte count")
            raw = self.rfile.read(int(declared))
            split = urlsplit(self.path)
            params: dict[str, Any] = {
                key: values[0] for key, values in parse_qs(split.query).items()
            }
            packed = params.pop("q", None)
            if packed is not None:
                decoded = json.loads(packed)
                if not isinstance(decoded, dict):
                    raise ValueError("the q= query parameter must hold a JSON object")
                params.update(decoded)
            if method == "POST" and raw.strip():
                decoded = json.loads(raw)
                if not isinstance(decoded, dict):
                    raise ValueError("the request body must hold a JSON object")
                params.update(decoded)
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            status, headers, body = ReproApp._error(400, f"malformed request: {exc}")
        else:
            status, headers, body = self.server.app.handle(method, split.path, params)
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - http.server API
        """Per-request access log, silenced unless the server is verbose."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class ReproServer(ThreadingHTTPServer):
    """A threaded HTTP server wired to one :class:`ReproApp`.

    Handler threads are daemons, so an abrupt interpreter exit never
    blocks on an in-flight request; a clean shutdown goes through
    :meth:`close` (stop accepting, release every snapshot's memory map).
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], app: ReproApp, verbose: bool = False) -> None:
        """Bind to ``address`` and attach ``app``."""
        self.app = app
        self.verbose = verbose
        try:
            super().__init__(address, _RequestHandler)
        except (OSError, OverflowError) as exc:
            raise ServeError(f"cannot bind {address[0]}:{address[1]}: {exc}") from exc

    @property
    def url(self) -> str:
        """The server's reachable base URL (the OS-assigned port resolved)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

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
