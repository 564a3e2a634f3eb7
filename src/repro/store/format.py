"""Byte-level layout of the ``.rps`` binary encoded-store format.

This module is the single place that knows how a store file is laid out on
disk; the writer (:mod:`repro.store.writer`) and reader
(:mod:`repro.store.reader`) both build on it.  The layout itself is a
normative, versioned contract documented in ``docs/store-format.md`` — keep
that spec and this module in lockstep.

A store file is::

    [ 64-byte header ][ section directory ][ padding ][ section payloads... ]

* the **header** starts with the 8-byte magic ``b"RPRSTOR1"`` and carries the
  format version, payload kind (dataset or graph), directory location and the
  total file length, protected by CRC-32 checksums;
* the **directory** is one fixed 64-byte entry per section (ascii name,
  section kind, element dtype, flags, payload offset/length, element count,
  payload CRC-32);
* every **section payload** starts at a 64-byte-aligned offset (so any
  ``float64``/``int64`` view of a memory map of the file is aligned) and is
  one of three kinds: a raw little-endian array, a string table, or a UTF-8
  JSON document.

Everything multi-byte is little-endian.  Array sections are *not*
checksummed at open time — that would page the whole file in and defeat the
near-zero-startup goal — but every metadata section (JSON, string tables)
is, and :meth:`StoreFile.verify` walks the bulk arrays on demand.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import StoreCorruptionError, StoreError

#: First 8 bytes of every store file.  The trailing ``1`` is part of the
#: magic, not the version — the version lives in the header proper.
MAGIC = b"RPRSTOR1"

#: Format version written by this library: primaries only.
FORMAT_VERSION = 2

#: Versions this library reads.  A version-1 file holds the same primaries
#: plus derived copies, which the reader does not read.
READ_VERSIONS = (1, 2)

#: Header ``kind`` values: what the file's payload is.
KIND_DATASET = 1
KIND_GRAPH = 2
KIND_NAMES = {KIND_DATASET: "dataset", KIND_GRAPH: "graph"}

#: Section payload alignment in bytes.  64 covers every numpy dtype we map
#: and matches a cache line, so memmap views never straddle element bounds.
ALIGNMENT = 64

#: Section kinds.
SECTION_ARRAY = 1
SECTION_STRINGS = 2
SECTION_JSON = 3

#: Element dtype codes for SECTION_ARRAY payloads.
DTYPE_NONE = 0
DTYPE_F8 = 1
DTYPE_I8 = 2
DTYPE_BOOL = 3
DTYPE_U1 = 4

#: dtype code -> numpy dtype string (all little-endian / endian-free).
DTYPE_STRINGS = {DTYPE_F8: "<f8", DTYPE_I8: "<i8", DTYPE_BOOL: "|b1", DTYPE_U1: "|u1"}

#: Section flag bit: the section is *derived* — rebuildable from the primary
#: sections of the same payload, so the salvage tier may drop and rebuild it.
FLAG_DERIVED = 1

#: Header: magic, version u16, kind u16, n_sections u32, directory offset
#: u64, directory length u64, file length u64, directory CRC u32, header CRC
#: u32 (CRC-32 of the 44 bytes preceding it).  Packed size 48, padded to 64.
HEADER_STRUCT = struct.Struct("<8sHHIQQQII")
HEADER_SIZE = 64

#: Directory entry: name 16s (ascii, NUL padded), section kind u16, dtype u8,
#: flags u8, reserved u32, payload offset u64, payload length u64, element
#: count u64, payload CRC u32.  Packed size 56, padded to 64.
ENTRY_STRUCT = struct.Struct("<16sHBBIQQQI")
ENTRY_SIZE = 64


def pad_to(offset: int, alignment: int = ALIGNMENT) -> int:
    """Round ``offset`` up to the next multiple of ``alignment``."""
    return (offset + alignment - 1) // alignment * alignment


def encode_string_table(strings: list[str]) -> bytes:
    """Serialize ``strings`` as a SECTION_STRINGS payload.

    Layout: ``u64 n`` followed by ``n`` ``u64`` cumulative end offsets into
    the UTF-8 blob that follows.  String ``i`` is ``blob[ends[i-1]:ends[i]]``
    (with ``ends[-1]`` read as 0), which keeps lookups O(1) and the payload
    free of escaping.
    """
    encoded = [s.encode("utf-8") for s in strings]
    ends = np.cumsum([len(b) for b in encoded], dtype=np.uint64) if encoded else np.empty(0, np.uint64)
    header = struct.pack("<Q", len(encoded))
    return header + ends.astype("<u8").tobytes() + b"".join(encoded)


def decode_string_table(payload: bytes | memoryview) -> list[str]:
    """Parse a SECTION_STRINGS payload back into a list of strings.

    Raises :class:`ValueError` on structural problems (truncated counts,
    offsets out of bounds, non-monotonic ends, invalid UTF-8); the caller
    wraps that into a :class:`~repro.exceptions.StoreCorruptionError` naming
    the section.
    """
    buf = bytes(payload)
    if len(buf) < 8:
        raise ValueError("string table shorter than its count field")
    (n,) = struct.unpack_from("<Q", buf, 0)
    table_end = 8 + 8 * n
    if n > len(buf) or table_end > len(buf):
        raise ValueError("string table count exceeds payload size")
    ends = np.frombuffer(buf, dtype="<u8", count=n, offset=8)
    blob = buf[table_end:]
    if n and (int(ends[-1]) > len(blob) or np.any(ends[1:] < ends[:-1])):
        raise ValueError("string table offsets out of bounds or non-monotonic")
    strings: list[str] = []
    start = 0
    for end in ends.tolist():
        strings.append(blob[start:end].decode("utf-8"))
        start = end
    return strings


class Section:
    """One parsed directory entry: where a section lives and what it holds."""

    __slots__ = ("name", "kind", "dtype", "flags", "offset", "length", "count", "crc")

    def __init__(self, name: str, kind: int, dtype: int, flags: int,
                 offset: int, length: int, count: int, crc: int) -> None:
        """Record the directory fields verbatim."""
        self.name = name
        self.kind = kind
        self.dtype = dtype
        self.flags = flags
        self.offset = offset
        self.length = length
        self.count = count
        self.crc = crc

    @property
    def derived(self) -> bool:
        """Whether the section is rebuildable from primaries (FLAG_DERIVED)."""
        return bool(self.flags & FLAG_DERIVED)

    def pack(self) -> bytes:
        """Serialize back into a 64-byte directory entry."""
        packed = ENTRY_STRUCT.pack(
            self.name.encode("ascii"), self.kind, self.dtype, self.flags, 0,
            self.offset, self.length, self.count, self.crc,
        )
        return packed.ljust(ENTRY_SIZE, b"\0")


def write_store(path: Path | str, kind: int,
                sections: list[tuple[str, int, int, int, bytes, int]]) -> Path:
    """Write a complete store file and return its path.

    ``sections`` is a list of ``(name, section_kind, dtype_code, flags,
    payload, element_count)`` tuples; payloads are laid out in order, each at
    the next 64-byte-aligned offset after the directory.
    """
    path = Path(path)
    for name, *_ in sections:
        raw = name.encode("ascii")
        if not raw or len(raw) > 16:
            raise StoreError(f"section name {name!r} must be 1-16 ascii bytes")
    directory_offset = HEADER_SIZE
    directory_length = ENTRY_SIZE * len(sections)
    cursor = pad_to(directory_offset + directory_length)
    entries: list[Section] = []
    placements: list[tuple[int, bytes]] = []
    for name, section_kind, dtype_code, flags, payload, count in sections:
        entries.append(Section(name, section_kind, dtype_code, flags,
                               cursor, len(payload), count, zlib.crc32(payload)))
        placements.append((cursor, payload))
        cursor = pad_to(cursor + len(payload))
    file_length = placements[-1][0] + len(placements[-1][1]) if placements else pad_to(
        directory_offset + directory_length
    )

    directory = b"".join(entry.pack() for entry in entries)
    directory_crc = zlib.crc32(directory)
    head = HEADER_STRUCT.pack(
        MAGIC, FORMAT_VERSION, kind, len(sections),
        directory_offset, directory_length, file_length, directory_crc, 0,
    )
    # The header CRC covers every header byte before the CRC field itself.
    head = head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))
    with open(path, "wb") as fh:
        fh.write(head.ljust(HEADER_SIZE, b"\0"))
        fh.write(directory)
        position = directory_offset + directory_length
        for offset, payload in placements:
            fh.write(b"\0" * (offset - position))
            fh.write(payload)
            position = offset + len(payload)
    return path


class StoreFile:
    """A validated, memory-mapped view of one store file.

    Opening parses and checksums the header and directory, bounds-checks
    every section against the real file size, and maps the file once as a
    read-only ``uint8`` :class:`numpy.memmap`.  Section payloads are exposed
    as zero-copy array views (:meth:`array`), decoded string tables
    (:meth:`strings`) or JSON documents (:meth:`json`); metadata sections
    are CRC-checked on access, bulk arrays only via :meth:`verify`.

    With ``tolerant=True`` structural damage below the header/directory
    level is *collected* (in :attr:`damage`) instead of raised, which is how
    the salvage tier (:func:`repro.recovery.salvage_store`) enumerates what
    survives in a partially corrupt file.

    The memory map holds one file descriptor for as long as the instance
    lives; :meth:`close` (or using the instance as a context manager)
    releases both the map and the descriptor.  Closing invalidates every
    zero-copy view previously handed out by :meth:`array` — like reading
    from a closed file, touching such a view afterwards is undefined — so
    close only once the views are done with.  Consumers that keep a store
    open behind a payload (``Dataset.open`` / ``Graph.open``) expose the
    release as ``Dataset.close()`` / ``Graph.close()``.
    """

    def __init__(self, path: Path | str, tolerant: bool = False) -> None:
        """Open, validate and map ``path``."""
        self.path = Path(path)
        self.tolerant = tolerant
        #: ``{section_name: reason}`` for sections found damaged in tolerant mode.
        self.damage: dict[str, str] = {}
        try:
            size = self.path.stat().st_size
        except OSError as exc:
            raise StoreError(f"cannot open store {self.path}: {exc}") from exc
        if size < HEADER_SIZE:
            raise StoreCorruptionError(self.path, "header", f"file is {size} bytes, shorter than the {HEADER_SIZE}-byte header")
        with open(self.path, "rb") as fh:
            head = fh.read(HEADER_SIZE)
        (magic, version, kind, n_sections, dir_offset, dir_length,
         file_length, dir_crc, head_crc) = HEADER_STRUCT.unpack_from(head)
        if magic != MAGIC:
            raise StoreCorruptionError(self.path, "header", f"bad magic {magic!r} (expected {MAGIC!r})")
        if zlib.crc32(head[: HEADER_STRUCT.size - 4]) != head_crc:
            raise StoreCorruptionError(self.path, "header", "header checksum mismatch")
        if version not in READ_VERSIONS:
            raise StoreError(
                f"store {self.path}: unsupported format version {version} "
                f"(this library reads versions {', '.join(map(str, READ_VERSIONS))})"
            )
        if kind not in KIND_NAMES:
            raise StoreCorruptionError(self.path, "header", f"unknown payload kind {kind}")
        self.version = version
        self.kind = kind
        self.file_length = file_length
        if dir_length != ENTRY_SIZE * n_sections or dir_offset + dir_length > size:
            raise StoreCorruptionError(self.path, "directory", "directory does not fit the file")
        if file_length != size:
            # Truncated (or padded) file: the directory may still be intact,
            # so tolerant mode keeps going and bounds-checks each section.
            if not tolerant:
                raise StoreCorruptionError(
                    self.path, "header",
                    f"file length {size} does not match recorded length {file_length}",
                    salvageable=True,
                )
            self.damage["header"] = f"file length {size} != recorded {file_length}"
        self._mm = np.memmap(self.path, mode="r", dtype=np.uint8)
        directory = bytes(self._mm[dir_offset : dir_offset + dir_length])
        if zlib.crc32(directory) != dir_crc:
            raise StoreCorruptionError(self.path, "directory", "directory checksum mismatch")
        self.sections: dict[str, Section] = {}
        for i in range(n_sections):
            fields = ENTRY_STRUCT.unpack_from(directory, i * ENTRY_SIZE)
            raw_name, s_kind, dtype_code, flags, _reserved, offset, length, count, crc = fields
            name = raw_name.rstrip(b"\0").decode("ascii", errors="replace")
            section = Section(name, s_kind, dtype_code, flags, offset, length, count, crc)
            self.sections[name] = section
            problem = self._bounds_problem(section, size)
            if problem:
                if not tolerant:
                    raise StoreCorruptionError(self.path, name, problem, salvageable=True)
                self.damage[name] = problem

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the memory map."""
        return self._mm is None

    def close(self) -> None:
        """Release the memory map and its file descriptor (idempotent).

        The descriptor opened by ``np.memmap`` lives inside the underlying
        :class:`mmap.mmap` object and is only returned to the OS when that
        map is closed — without an explicit release it survives for the
        whole lifetime of the ``StoreFile`` (and of any ``Dataset``/
        ``Graph`` holding it), so a long-lived process that opens many
        stores accumulates descriptors it can never drop.  After ``close()`` the header and
        directory metadata stay readable, but payload accessors
        (:meth:`array`, :meth:`strings`, :meth:`json`, :meth:`verify`)
        raise :class:`~repro.exceptions.StoreError`, and any zero-copy view
        created earlier is invalid.
        """
        mm = self._mm
        if mm is None:
            return
        self._mm = None
        inner = getattr(mm, "_mmap", None)
        del mm
        if inner is not None:
            try:
                inner.close()
            except BufferError:  # pragma: no cover - exported buffers pin the map
                pass

    def __enter__(self) -> "StoreFile":
        """Context-manager entry: the opened store itself."""
        return self

    def __exit__(self, *_exc_info) -> None:
        """Context-manager exit: release the map and descriptor."""
        self.close()

    def _map(self) -> np.memmap:
        """The live memory map, or a structured error after :meth:`close`."""
        if self._mm is None:
            raise StoreError(f"store {self.path} is closed")
        return self._mm

    @staticmethod
    def _bounds_problem(section: Section, size: int) -> str | None:
        """Return a description of a bounds/shape problem, or ``None`` if sane."""
        if section.offset % ALIGNMENT or section.offset + section.length > size:
            return f"payload [{section.offset}, {section.offset + section.length}) falls outside the {size}-byte file"
        if section.kind == SECTION_ARRAY:
            dtype = DTYPE_STRINGS.get(section.dtype)
            if dtype is None:
                return f"unknown array dtype code {section.dtype}"
            if section.count * np.dtype(dtype).itemsize != section.length:
                return f"element count {section.count} disagrees with payload length {section.length}"
        return None

    def _payload(self, name: str, check_crc: bool) -> memoryview:
        """Raw bytes of section ``name``, optionally CRC-verified."""
        section = self.section(name)
        if name in self.damage:
            raise StoreCorruptionError(self.path, name, self.damage[name], salvageable=True)
        view = self._map()[section.offset : section.offset + section.length]
        if check_crc and zlib.crc32(view) != section.crc:
            reason = "payload checksum mismatch"
            if self.tolerant:
                self.damage[name] = reason
            raise StoreCorruptionError(self.path, name, reason, salvageable=True)
        return memoryview(view)

    def section(self, name: str) -> Section:
        """The directory entry for ``name`` (raises if the section is absent)."""
        section = self.sections.get(name)
        if section is None:
            raise StoreCorruptionError(self.path, name, "section missing from directory", salvageable=True)
        return section

    def array(self, name: str, verify: bool = False) -> np.ndarray:
        """Zero-copy read-only array view of section ``name``.

        The view aliases the file's memory map; it is only CRC-verified when
        ``verify`` is true (checksumming would page the whole section in).
        """
        section = self.section(name)
        if section.kind != SECTION_ARRAY:
            raise StoreCorruptionError(self.path, name, "section is not an array", salvageable=True)
        payload = self._payload(name, check_crc=verify)
        return np.frombuffer(payload, dtype=DTYPE_STRINGS[section.dtype], count=section.count)

    def strings(self, name: str) -> list[str]:
        """Decode string-table section ``name`` (always CRC-verified)."""
        section = self.section(name)
        if section.kind != SECTION_STRINGS:
            raise StoreCorruptionError(self.path, name, "section is not a string table", salvageable=True)
        payload = self._payload(name, check_crc=True)
        try:
            return decode_string_table(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            reason = f"malformed string table: {exc}"
            if self.tolerant:
                self.damage[name] = reason
            raise StoreCorruptionError(self.path, name, reason, salvageable=True) from exc

    def json(self, name: str):
        """Decode JSON section ``name`` (always CRC-verified)."""
        section = self.section(name)
        if section.kind != SECTION_JSON:
            raise StoreCorruptionError(self.path, name, "section is not a JSON document", salvageable=True)
        payload = self._payload(name, check_crc=True)
        try:
            return json.loads(bytes(payload).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(self.path, name, f"malformed JSON: {exc}", salvageable=True) from exc

    def verify(self) -> dict[str, str]:
        """CRC-check every section payload; return ``{name: reason}`` failures.

        In strict (non-tolerant) mode the first failure raises instead.
        """
        failures: dict[str, str] = dict(self.damage)
        for name, section in self.sections.items():
            if name in failures:
                continue
            view = self._map()[section.offset : section.offset + section.length]
            if zlib.crc32(view) != section.crc:
                reason = "payload checksum mismatch"
                if not self.tolerant:
                    raise StoreCorruptionError(self.path, name, reason, salvageable=True)
                failures[name] = reason
        if self.tolerant:
            self.damage.update(failures)
        return failures
