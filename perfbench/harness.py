"""Shared machinery of the benchmark: spans, statistics, host record, processes.

Nothing here imports :mod:`repro`, so these helpers are testable on their own
and the runner can refuse to start before the package is imported.

* :class:`Tracer` keeps spans in memory (name, interval, causing span, op);
  :func:`self_times` and :func:`op_breakdowns` turn them into per-layer self
  time, and :func:`chrome_trace` writes them as Chrome trace-event JSON.
  :data:`NULL_TRACER` has the same interface and records nothing, so one
  code path serves the untraced and the traced run.
* :func:`tail_percentile` is the tail rule: the highest percentile that has
  at least ten samples beyond it.
* :func:`host_record` and :func:`calibration_probe` record the machine and
  its current speed, so a slow host phase can be told apart from a slower
  program.
* :class:`HttpSession` is a minimal keep-alive HTTP/1.1 client that sends
  pre-encoded requests; :class:`ServerProcess` runs ``repro serve`` as a
  subprocess on an OS-assigned port.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import re
import resource
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Metric catalogue
# ---------------------------------------------------------------------------

#: End-to-end metrics (``--trace 0``): name → unit.  Every workload reports all five.
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name → unit.  A workload reports 0 for
#: a layer it never calls; README.md says which workload moves which metric.
PER_LAYER_UNITS: dict[str, str] = {
    "recovery.salvage_ms": "ms",
    "recovery.repaired_cell_share": "ratio",
    "lod.parse_ms": "ms",
    "lod.tabulate_ms": "ms",
    "tabular.join_ms": "ms",
    "quality.profile_ms": "ms",
    "core.kb_build_s": "s",
    "core.advise_ms": "ms",
    "mining.cv_ms": "ms",
    "mining.advised.naive_bayes": "count",
    "mining.advised.decision_tree": "count",
    "bi.cube_kpi_ms": "ms",
    "store.save_ms": "ms",
    "store.open_ms": "ms",
    "store.bytes_per_input_byte": "ratio",
    "store.rewrite_ms": "ms",
    "store.write_amplification": "ratio",
    "serve.startup_s": "s",
    "serve.hit_ms": "ms",
    "serve.response_bytes": "B",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_evictions": "count",
    "serve.miss.profile_ms": "ms",
    "serve.miss.advise_ms": "ms",
    "serve.miss.cube_ms": "ms",
    "serve.miss.kpi_ms": "ms",
    "serve.miss.lod_ms": "ms",
    "serve.evaluate.profile_ms": "ms",
    "serve.evaluate.advise_ms": "ms",
    "serve.evaluate.cube_aggregate_ms": "ms",
    "serve.evaluate.cube_pivot_ms": "ms",
    "serve.evaluate.kpi_ms": "ms",
    "serve.evaluate.lod_select_ms": "ms",
    "serve.evaluate.lod_ask_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.reload_ms": "ms",
    "serve.fresh.profile_ms": "ms",
    "serve.fresh.kpi_ms": "ms",
    "serve.fresh.cube_ms": "ms",
    "feeds.fetch_ms": "ms",
    "feeds.append_ms": "ms",
    "feeds.refresh_ms": "ms",
    "feeds.incremental_share": "ratio",
    "trace.op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.unattributed_share": "ratio",
    "host.probe_py_ms": "ms",
    "host.probe_np_ms": "ms",
}

# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: its name, interval, the span that caused it, and its op."""

    id: int
    name: str
    parent: int | None
    op: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        """Seconds between start and end."""
        return self.end - self.start


class Tracer:
    """Records spans in memory; spans nest per thread.

    A span opened inside another span on the same thread has it as parent
    and inherits its op id.  The yielded :class:`Span` may be renamed before
    the block exits (a request learns its cache status only from the reply).
    """

    enabled = True

    def __init__(self) -> None:
        """Start with no spans."""
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[Span]:
        """Time the block as a span called ``name``."""
        stack: list[Span] = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        record = Span(next(self._ids), name, parent.id if parent else None, op, threading.get_ident())
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)


class _NullTracer:
    """The untraced stand-in: the same interface, nothing recorded."""

    enabled = False
    _context = contextlib.nullcontext(Span(0, "", None, None, 0))

    def span(self, name: str, op: int | None = None) -> contextlib.nullcontext:
        """A no-op context manager."""
        return self._context


#: Shared tracer for untraced runs.
NULL_TRACER = _NullTracer()


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result[span.id] = span.duration - covered
    return result


@dataclass
class OpBreakdown:
    """One op's wall time split into per-layer self time plus a remainder."""

    wall: float
    layers: dict[str, float] = field(default_factory=dict)
    unattributed: float = 0.0


def op_breakdowns(spans: Sequence[Span]) -> list[OpBreakdown]:
    """Per-op layer self times, for every root span called ``op``.

    A layer's time in an op is the summed self time of the op's descendant
    spans with that name; the root's own self time is the unattributed
    remainder, so ``sum(layers) + unattributed == wall`` for every op.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    result: dict[int, OpBreakdown] = {}
    for span in spans:
        if span.parent is None and span.name == "op":
            result[span.id] = OpBreakdown(span.duration, unattributed=own[span.id])
    for span in spans:
        ancestor = span.parent
        while ancestor is not None and ancestor not in result:
            ancestor = by_id[ancestor].parent
        if ancestor is not None:
            layers = result[ancestor].layers
            layers[span.name] = layers.get(span.name, 0.0) + own[span.id]
    return list(result.values())


def layer_ms(spans: Sequence[Span]) -> dict[str, float]:
    """``<layer>_ms``: each layer's median self time per op, over the ops that call it."""
    samples: dict[str, list[float]] = defaultdict(list)
    for breakdown in op_breakdowns(spans):
        for name, seconds in breakdown.layers.items():
            samples[name].append(seconds)
    return {f"{name}_ms": statistics.median(values) * 1e3 for name, values in samples.items()}


def root_medians(spans: Sequence[Span]) -> dict[str, float]:
    """Median seconds per name of the spans outside any op (set-up, direct calls)."""
    samples: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span.parent is None and span.name != "op":
            samples[span.name].append(span.duration)
    return {name: statistics.median(values) for name, values in samples.items()}


def profile_bytes(profile) -> bytes:
    """A data quality profile as canonical JSON bytes, for byte-equality checks."""
    return json.dumps(profile.to_json_dict(), sort_keys=True).encode("utf-8")


def chrome_trace(spans: Sequence[Span]) -> dict:
    """The spans as a Chrome trace-event document (viewable in Perfetto)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(span.start for span in spans)
    threads: dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": threads.setdefault(span.thread, len(threads) + 1),
                "args": {"id": span.id, "parent": span.parent, "op": span.op},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


@dataclass
class Phase:
    """What one timed phase of a workload measured and did.

    ``latencies`` holds one entry (seconds) per op that completed; ``work``
    is the record of work done, which must be identical across runs of one
    seed; ``mismatches`` lists the output checks that failed; ``layers``
    holds the per-layer metric values of a traced phase.
    """

    latencies: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    setup: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    work: dict = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tail:
    """The tail percentile: which one, its value and the sample count."""

    percentile: float
    value: float
    n: int
    beyond: int


#: Samples the tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND) -> Tail:
    """The highest percentile that has at least ``min_beyond`` samples beyond it.

    Percentiles use the nearest-rank definition: the q-th percentile of n
    sorted samples is the one at rank ``ceil(q * n / 100)``, and the samples
    beyond it are those ranked after it.  The highest q leaving
    ``min_beyond`` samples beyond is ``100 * (n - min_beyond) / n``.
    """
    n = len(values)
    if n <= min_beyond:
        raise ValueError(f"a tail percentile needs more than {min_beyond} samples, got {n}")
    rank = n - min_beyond
    return Tail(100.0 * rank / n, sorted(values)[rank - 1], n, min_beyond)


# ---------------------------------------------------------------------------
# Host record, drift probe and memory
# ---------------------------------------------------------------------------


def host_record(repro_n_jobs: str | None) -> dict:
    """Cores, interpreter and numpy versions, ``REPRO_N_JOBS`` as found, load."""
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "repro_n_jobs": repro_n_jobs,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


_PROBE_LOOP = 100_000
_PROBE_SORT = 200_000


def calibration_probe(repeats: int = 5) -> dict[str, float]:
    """Time a fixed pure-Python loop and a fixed numpy sort (median ms of each).

    Pure-Python code and numpy code slow down by different amounts in a slow
    host phase, so both are recorded.
    """
    data = np.random.default_rng(0).random(_PROBE_SORT)
    loop_ms, sort_ms = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(_PROBE_LOOP):
            total += i * i
        loop_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        np.sort(data)
        sort_ms.append((time.perf_counter() - start) * 1e3)
    return {"py_ms": statistics.median(loop_ms), "np_ms": statistics.median(sort_ms)}


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss``) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of process ``pid`` (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


# ---------------------------------------------------------------------------
# HTTP client and server subprocess
# ---------------------------------------------------------------------------


def encode_request(path: str, params: dict | None = None, method: str = "POST") -> bytes:
    """One HTTP/1.1 request as bytes, with a canonical JSON body for POST."""
    if method == "GET":
        return f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("ascii")
    body = json.dumps(params or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


@dataclass
class Reply:
    """A parsed HTTP response: status, lower-cased headers and body."""

    status: int
    headers: dict[str, str]
    body: bytes


class HttpSession:
    """A keep-alive HTTP/1.1 connection to a local port that sends pre-encoded requests."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        """Connect to ``127.0.0.1:port``."""
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def exchange(self, raw: bytes) -> Reply:
        """Send one request and read its whole response."""
        self._sock.sendall(raw)
        status_line = self._reader.readline()
        if not status_line:
            raise ConnectionError("the server closed the connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = self._reader.read(length) if length else b""
        if len(body) != length:
            raise ConnectionError(f"short body: {len(body)} of {length} bytes")
        return Reply(status, headers, body)

    def close(self) -> None:
        """Close the connection."""
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "HttpSession":
        """Use as a context manager."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on exit."""
        self.close()


_URL = re.compile(r" on http://([0-9.]+):(\d+)")
#: Seconds a server may take from launch to its first ``/health`` 200.
STARTUP_TIMEOUT_S = 60.0


class ServerProcess:
    """``python -m repro.cli serve`` as a subprocess on an OS-assigned port.

    :meth:`start` returns the seconds from launch to the first ``/health``
    200; :meth:`stop` sends SIGTERM and waits for the process to end.
    """

    def __init__(self, src: Path, args: Sequence[str]) -> None:
        """Prepare a server over ``src`` (the package root) with CLI ``args``."""
        self.args = list(args)
        self.env = {k: v for k, v in os.environ.items() if k != "REPRO_N_JOBS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``/health``; return the seconds that took."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *self.args],
            stdout=subprocess.PIPE, env=self.env, text=True,
        )
        deadline = started + STARTUP_TIMEOUT_S
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = _URL.search(line)
        if match is None:
            raise RuntimeError(f"repro serve did not report its address (got {line!r})")
        self.port = int(match.group(2))
        health = encode_request("/health", method="GET")
        while True:
            try:
                with HttpSession(self.port, timeout=STARTUP_TIMEOUT_S) as session:
                    if session.exchange(health).status == 200:
                        return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /health")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` in MB."""
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM the server and wait until it has ended (SIGKILL after 15 s).

        A SIGTERM that arrives while the server is accepting a connection is
        caught by its per-request error handler and ignored, so the signal
        is repeated every second until the server exits.
        """
        if self.proc is None:
            return
        deadline = time.perf_counter() + 15
        while self.proc.poll() is None:
            if time.perf_counter() > deadline:
                self.proc.kill()
                self.proc.wait()
                break
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=1)
            except subprocess.TimeoutExpired:
                pass
        self.proc.stdout.close()
        self.proc = None
