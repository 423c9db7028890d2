"""Compiled-corpus storage: persist label relations to a binary file.

TGrep2 queries a "binary file representation of the data"; the analogous
artifact for the LPath engine is the labeled relation itself.  This module
writes ``node(tid, left, right, depth, id, pid, name, value)`` rows to a
compact binary file so an engine can start without re-parsing and
re-labeling the treebank.  Two layouts are written:

* ``LPDB0004`` — the *zero-copy* file: a small varint sidecar (string
  table, per-name directory with collected ``NameStats``, per-tree
  directories, blob offsets — everything O(segments + names + trees))
  followed by an 8-aligned data region holding each segment's columns as
  raw native-endian int64 blobs *in clustered order*, plus the derived
  structures a :class:`~repro.columnar.ColumnStore` otherwise builds at
  load time (``(tid, id)`` and children permutations, attribute/edge
  bitmaps, per-``(name, tid)`` partition bounds).  Opening the file
  (:func:`open_mapped_corpus`) ``mmap``\\ s it and adopts ``memoryview``\\ s
  straight off the map — no per-row decode, no sort, no statistics scan.
  Segments partition the corpus by tree (``tid``), so every segment is a
  self-contained shard that can be queried in parallel;
* ``LPDB0005`` — the *live* layout (:mod:`repro.live`): a **directory**
  of immutable base ``LPDB0004`` segment files, an append-only
  write-ahead log of row batches (length+CRC-framed, fsync'd before
  acknowledgement), and a generation-numbered manifest installed
  atomically (write-temp → fsync → ``os.replace`` → fsync(dir)).  The
  path-level helpers here (:func:`corpus_format`, :func:`corpus_info`,
  :func:`store_fingerprint`, ...) dispatch directories to that module.

Three older revisions stay readable (:func:`load_labels`) but are no
longer written; :func:`upgrade_corpus` (``repro store upgrade``) rewrites
any of them as ``LPDB0004``:

* ``LPDB0001`` — magic + payload, no checksum;
* ``LPDB0002`` — magic + payload length + CRC-32 + payload, where the
  payload is a row count, a string table (interned names and values),
  then rows of six varint integers plus two string-table references
  (the WAL frames of :mod:`repro.live` carry the same payload);
* ``LPDB0003`` — magic + segment count, then one length + CRC-32 block
  per segment, each an ``LPDB0002``-shaped payload.

Every *file* write goes through :func:`atomic_write`: the bytes land in
a same-directory temp file, are fsync'd, and only then atomically
renamed over the destination — a crash mid-save can leave a stray temp
file but can never truncate a previously good store.

The loaders verify the magic, the declared lengths and the checksums, so
truncation and bit corruption fail loudly with :class:`StoreError`
instead of decoding to garbage.  (``LPDB0004`` checksums its sidecar and
validates every blob offset/length against the file size; the column
blobs themselves are trusted after those checks — re-checksumming
gigabytes of columns on every open would defeat the O(1) cold start.)
"""

from __future__ import annotations

import contextlib
import io
import mmap as _mmap_module
import os
import sys
import zlib
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence

from .labeling.lpath_scheme import Label

MAGIC = b"LPDB0002"
LEGACY_MAGIC = b"LPDB0001"
SEGMENTED_MAGIC = b"LPDB0003"
MMAP_MAGIC = b"LPDB0004"
#: The live *directory* layout's manifest magic (:mod:`repro.live`).
LIVE_MAGIC = b"LPDB0005"

#: The written ``format=`` spellings: the :func:`save_labels` file layout
#: and the live directory layout :func:`save_corpus` also accepts.
FILE_FORMAT = "lpdb0004"
LIVE_FORMAT = "lpdb0005"
#: String-table index meaning "no value" (element rows).
_NO_VALUE = 0


class StoreError(ValueError):
    """Raised for unreadable or corrupt corpus files."""


def fsync_directory(path: str) -> None:
    """fsync a directory so a just-renamed/created entry is durable.

    Best-effort on platforms whose directory handles refuse ``fsync``
    (the rename itself is still atomic there)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """Write ``path`` crash-safely: temp file in the same directory,
    flush + fsync, then ``os.replace`` over the destination and fsync
    the directory.

    A crash (or an exception — the temp file is removed) at any point
    before the rename leaves the previous contents of ``path``
    untouched; after the rename the new contents are complete.  There is
    no window in which ``path`` is truncated or half-written, which is
    what makes re-saving over a live store safe."""
    absolute = os.path.abspath(path)
    directory = os.path.dirname(absolute)
    temp = os.path.join(
        directory, f".{os.path.basename(absolute)}.tmp-{os.getpid()}"
    )
    handle = open(temp, "wb")
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    handle.close()
    os.replace(temp, absolute)
    fsync_directory(directory)


def _write_varint(out: BinaryIO, value: int) -> None:
    if value < 0:
        raise StoreError(f"cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise StoreError("truncated varint")
        if shift > 63:
            raise StoreError("varint out of range")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            # No legitimate field exceeds a signed 64-bit value; anything
            # larger is corruption (and would otherwise overflow the
            # column arrays).
            if result >= 1 << 63:
                raise StoreError("varint out of range")
            return result, offset
        shift += 7


def _encode_payload(rows: Iterable) -> tuple[bytes, int]:
    """Encode rows into one row payload (the ``LPDB0002`` block shape the
    live WAL frames carry); returns ``(blob, count)``."""
    strings: dict[str, int] = {}

    def intern(text: str) -> int:
        index = strings.get(text)
        if index is None:
            index = len(strings) + 1  # 0 is reserved for "no value"
            strings[text] = index
        return index

    body = io.BytesIO()
    count = 0
    for row in rows:
        tid, left, right, depth, node_id, pid, name, value = row
        _write_varint(body, tid)
        _write_varint(body, left)
        _write_varint(body, right)
        _write_varint(body, depth)
        _write_varint(body, node_id)
        _write_varint(body, pid)
        _write_varint(body, intern(name))
        _write_varint(body, _NO_VALUE if value is None else intern(value))
        count += 1

    payload = io.BytesIO()
    _write_varint(payload, count)
    _write_varint(payload, len(strings))
    for text in strings:  # insertion order == index order
        encoded = text.encode("utf-8")
        _write_varint(payload, len(encoded))
        payload.write(encoded)
    payload.write(body.getvalue())
    return payload.getvalue(), count


def partition_rows_by_tid(rows: Sequence, segments: int) -> list[list]:
    """Deal the trees of a label relation into ``segments`` disjoint shards.

    Trees stay whole (every row of one ``tid`` lands in the same shard);
    distinct tids are dealt round-robin in sorted order, so the split is
    deterministic and balanced for the common case of similar tree sizes.
    Shards may be empty when there are fewer trees than segments.
    """
    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    assignment = {
        tid: index % segments
        for index, tid in enumerate(sorted({row[0] for row in rows}))
    }
    shards: list[list] = [[] for _ in range(segments)]
    for row in rows:
        shards[assignment[row[0]]].append(row)
    return shards


def _check_format(format: Optional[str], allowed: tuple) -> Optional[str]:
    """Normalize a ``format=`` spelling; older revisions are read-only."""
    if format is None:
        return None
    format = format.lower()
    if format not in allowed:
        raise StoreError(
            f"unknown store format {format!r}; choose from {allowed} "
            "(LPDB0001-0003 are read-only: 'repro store upgrade' rewrites "
            "them as LPDB0004)"
        )
    return format


# -- row payloads: LPDB0001-0003 files and the live WAL's frames -------------


def _checked_block(data: bytes, offset: int) -> tuple[bytes, int]:
    """Verify one length + CRC-32 block at ``offset``; returns the payload
    bytes and the offset past the block."""
    length, offset = _read_varint(data, offset)
    expected_crc, offset = _read_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise StoreError(
            f"payload length mismatch: header says {length}, "
            f"file has {len(data) - offset}"
        )
    payload = data[offset:end]
    if zlib.crc32(payload) != expected_crc:
        raise StoreError("checksum mismatch: the file is corrupt")
    return payload, end


def _segment_payloads(data: bytes) -> list[bytes]:
    """Verify magics/lengths/CRCs and return one payload per segment.

    Single-store revisions (``LPDB0001``/``LPDB0002``) come back as one
    segment, so every caller sees the same shape regardless of the on-disk
    format generation.
    """
    if data.startswith(LEGACY_MAGIC):
        return [data[len(LEGACY_MAGIC):]]
    if data.startswith(MAGIC):
        payload, end = _checked_block(data, len(MAGIC))
        if end != len(data):
            raise StoreError(f"{len(data) - end} trailing bytes after payload")
        return [payload]
    if data.startswith(SEGMENTED_MAGIC):
        count, offset = _read_varint(data, len(SEGMENTED_MAGIC))
        payloads: list[bytes] = []
        for _ in range(count):
            payload, offset = _checked_block(data, offset)
            payloads.append(payload)
        if offset != len(data):
            raise StoreError(
                f"{len(data) - offset} trailing bytes after the last segment"
            )
        return payloads
    raise StoreError(
        "not a compiled corpus file (bad magic; expected LPDB0001-LPDB0004)"
    )


def _parse_string_table(payload: bytes) -> tuple[int, list[str], int]:
    """``(row count, string table, row-data offset)`` from the payload."""
    count, offset = _read_varint(payload, 0)
    table_size, offset = _read_varint(payload, offset)
    table: list[str] = [""]  # index 0: no value
    for _ in range(table_size):
        length, offset = _read_varint(payload, offset)
        end = offset + length
        if end > len(payload):
            raise StoreError("truncated string table")
        try:
            table.append(payload[offset:end].decode("utf-8"))
        except UnicodeDecodeError:
            raise StoreError("undecodable string-table entry") from None
        offset = end
    return count, table, offset


def load_labels(stream: BinaryIO) -> list[Label]:
    """Read the label rows of a compiled corpus file of any revision
    (``LPDB0004`` rows come back in clustered order, segment by segment;
    ``LPDB0003`` files concatenate their shards in segment order)."""
    data = stream.read()
    rows: list[Label] = []
    if data.startswith(MMAP_MAGIC):
        for segment in _parse_mapped(data, []):
            _mapped_labels_into(segment, rows)
        return rows
    for payload in _segment_payloads(data):
        _decode_labels_into(payload, rows)
    return rows


def _decode_labels_into(payload: bytes, rows: list[Label]) -> None:
    count, table, offset = _parse_string_table(payload)
    for _ in range(count):
        tid, offset = _read_varint(payload, offset)
        left, offset = _read_varint(payload, offset)
        right, offset = _read_varint(payload, offset)
        depth, offset = _read_varint(payload, offset)
        node_id, offset = _read_varint(payload, offset)
        pid, offset = _read_varint(payload, offset)
        name_index, offset = _read_varint(payload, offset)
        value_index, offset = _read_varint(payload, offset)
        try:
            name = table[name_index]
            value = None if value_index == _NO_VALUE else table[value_index]
        except IndexError:
            raise StoreError("string-table reference out of range") from None
        rows.append(Label(tid, left, right, depth, node_id, pid, name, value))
    if offset != len(payload):
        raise StoreError(f"{len(payload) - offset} trailing bytes after rows")


# -- file helpers -------------------------------------------------------------


def save_corpus(
    trees: Iterable, path: str, segments: int = 1,
    format: Optional[str] = None,
) -> int:
    """Label a corpus of trees and save it; returns the row count.

    ``segments > 1`` shards the corpus by tree.  ``format`` is
    ``"lpdb0004"`` (the default: one file, see :func:`save_labels`) or
    ``"lpdb0005"`` (a live *directory* via :mod:`repro.live`).  Files
    are written through :func:`atomic_write`, so a crash mid-save never
    destroys a previously good store at ``path``."""
    from .labeling.lpath_scheme import label_corpus

    format = _check_format(format, (FILE_FORMAT, LIVE_FORMAT))
    rows = list(label_corpus(trees))
    if format == LIVE_FORMAT:
        from .live import create_live_corpus

        create_live_corpus(path, rows, segments=segments)
        return len(rows)
    with atomic_write(path) as handle:
        return save_labels(rows, handle, segments=segments)


def load_corpus_labels(path: str) -> list[Label]:
    """Load label rows from a compiled corpus file (for a live
    directory: every base segment's rows plus the WAL delta)."""
    if os.path.isdir(path):
        from .live import load_live_labels

        return load_live_labels(path)
    with open(path, "rb") as handle:
        return load_labels(handle)


def upgrade_corpus(path: str, output: str) -> int:
    """Rewrite a compiled corpus *file* of any revision as ``LPDB0004``
    at ``output`` (through :func:`atomic_write`, keeping its segment
    count); returns the row count.  Live directories are refused: their
    base segments are ``LPDB0004`` already."""
    if os.path.isdir(path):
        raise StoreError(
            f"{path} is a live (LPDB0005) directory; its base segments "
            "are LPDB0004 already ('repro compact' folds the WAL delta)"
        )
    segments = corpus_segment_count(path)
    rows = load_corpus_labels(path)
    with atomic_write(output) as handle:
        return save_labels(rows, handle, segments=segments)


def corpus_format(path: str) -> str:
    """The on-disk revision name (``"LPDB0001"`` .. ``"LPDB0005"``), from
    the magic alone (for the live directory layout, from its manifest's
    magic)."""
    if os.path.isdir(path):
        from .live import live_corpus_format

        return live_corpus_format(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
    if magic in (MAGIC, LEGACY_MAGIC, SEGMENTED_MAGIC, MMAP_MAGIC):
        return magic.decode("ascii")
    raise StoreError(
        "not a compiled corpus file (bad magic; expected LPDB0002/LPDB0003/"
        "LPDB0004, or an LPDB0005 directory)"
    )


def corpus_segment_count(path: str) -> int:
    """How many segments the file declares (1 for single-store formats;
    for live directories, base segments plus the in-memory delta when
    the WAL holds rows), from the header alone — no column payload is
    read or verified."""
    if os.path.isdir(path):
        from .live import live_segment_count

        return live_segment_count(path)
    with open(path, "rb") as handle:
        head = handle.read(len(SEGMENTED_MAGIC) + 10)
        if head.startswith((MAGIC, LEGACY_MAGIC)):
            return 1
        if head.startswith(SEGMENTED_MAGIC):
            count, _ = _read_varint(head, len(SEGMENTED_MAGIC))
            return count
        if head.startswith(MMAP_MAGIC):
            return len(_read_mmap_sidecar(handle, head).segments)
    raise StoreError(
        "not a compiled corpus file (bad magic; expected LPDB0002/LPDB0003/"
        "LPDB0004)"
    )


def is_compiled_corpus(path: str) -> bool:
    """Cheap sniff: does the file start with an LPDB magic (or is it a
    live-corpus directory with a manifest)?"""
    try:
        if os.path.isdir(path):
            from .live import MANIFEST_NAME

            with open(os.path.join(path, MANIFEST_NAME), "rb") as handle:
                return handle.read(len(LIVE_MAGIC)) == LIVE_MAGIC
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            return magic in (MAGIC, LEGACY_MAGIC, SEGMENTED_MAGIC, MMAP_MAGIC)
    except OSError:
        return False


#: How much of a store file the fingerprint reads: the whole header region
#: (every revision keeps its length/CRC headers — for LPDB0004 the entire
#: sidecar, which itself checksums all metadata — inside the first 64 KiB
#: for any realistic corpus) plus a tail window, so both a metadata edit
#: and a truncation/append change the digest.
_FINGERPRINT_HEAD = 64 * 1024
_FINGERPRINT_TAIL = 4 * 1024


def store_fingerprint(path: str) -> str:
    """A cheap, content-derived identity for a compiled corpus file.

    The serving layer keys its result cache on this value, so it must
    change whenever the store's bytes change and must *not* change when
    the same file is copied, re-opened or served from another path.  It
    digests the format magic, the file size and a CRC-32 over the head
    and tail windows — O(1) in the corpus size, in keeping with the
    zero-copy open — rather than hashing gigabytes of column blobs; the
    head window covers every revision's own length/CRC headers (the
    whole LPDB0004 sidecar), so any re-save reshuffles it.  Live
    directories digest their manifest bytes plus the WAL size, so every
    acknowledged append and every installed generation changes the
    fingerprint (read-your-writes for the serving result cache).
    Raises :class:`StoreError` for files without an LPDB magic."""
    if os.path.isdir(path):
        from .live import live_fingerprint

        return live_fingerprint(path)
    revision = corpus_format(path)  # validates the magic
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        digest = zlib.crc32(handle.read(_FINGERPRINT_HEAD))
        if size > _FINGERPRINT_HEAD:
            handle.seek(max(_FINGERPRINT_HEAD, size - _FINGERPRINT_TAIL))
            digest = zlib.crc32(handle.read(), digest)
    return f"{revision.lower()}-{size}-{digest:08x}"


# -- the LPDB0004 zero-copy layout ---------------------------------------------
#
# magic | sidecar block (varint length + CRC-32 + payload) | pad to 8 | data
#
# The sidecar holds everything small (string table, directories, blob
# offsets); the data region holds the per-segment columns and derived
# permutations as raw native-endian int64 blobs, every blob starting on an
# 8-byte boundary so a ``memoryview.cast("q")`` adopts it in place.  Blob
# order per segment (offsets are relative to the data region):

#: 8n-byte int64 blobs, in clustered row order.
_INT64_BLOBS = (
    "tid", "left", "right", "depth", "id", "pid",
    "name_ids", "value_ids",           # string-table references per row
    "tid_id_perm", "perm_ids",         # the (tid, id) projection
    "children_perm",                   # the CSR children permutation
)
#: n-byte bitmap blobs.
_BYTE_BLOBS = ("is_attr", "right_edge")
#: Variable-length int64 blobs: per-(name, tid) partition bounds (P
#: entries each) and CSR children groups (G and G+1 entries).
_AUX_BLOBS = ("part_tids", "part_starts", "child_pids", "child_starts")
_BLOB_COUNT = len(_INT64_BLOBS) + len(_BYTE_BLOBS) + len(_AUX_BLOBS)


def _align8(value: int) -> int:
    return (value + 7) & ~7


@dataclass
class MmapSegmentMeta:
    """The sidecar record for one segment (round-trippable: parse →
    mutate → :func:`_encode_mmap_sidecar` is how corruption tests craft
    precisely broken files)."""

    n: int
    strings: list          # 1-based string table (index 0 means "no value")
    blobs: list            # (offset, length) per blob, `_BLOB_COUNT` entries
    root_right: list       # (tid, root right edge) pairs
    tid_dir: list          # (tid, slot hi) over tid_id_perm; lo chains
    child_tid_dir: list    # (tid, group hi) over the children groups
    store_stats: tuple     # (rows, partitions, max_partition, min/max depth)
    names: list            # (string id, row hi, partition hi,
                           #  max_partition, min_depth, max_depth); chained


@dataclass
class MmapHeader:
    """The parsed LPDB0004 sidecar."""

    byteorder: str
    data_length: int
    segments: list


def _encode_mmap_sidecar(header: MmapHeader) -> bytes:
    out = io.BytesIO()
    out.write(b"\x00" if header.byteorder == "little" else b"\x01")
    _write_varint(out, header.data_length)
    _write_varint(out, len(header.segments))
    for meta in header.segments:
        if len(meta.blobs) != _BLOB_COUNT:
            raise StoreError(
                f"segment declares {len(meta.blobs)} blobs, "
                f"expected {_BLOB_COUNT}"
            )
        _write_varint(out, meta.n)
        _write_varint(out, len(meta.strings))
        for text in meta.strings:
            encoded = text.encode("utf-8")
            _write_varint(out, len(encoded))
            out.write(encoded)
        for offset, length in meta.blobs:
            _write_varint(out, offset)
            _write_varint(out, length)
        for pairs in (meta.root_right, meta.tid_dir, meta.child_tid_dir):
            _write_varint(out, len(pairs))
            for first, second in pairs:
                _write_varint(out, first)
                _write_varint(out, second)
        for value in meta.store_stats:
            _write_varint(out, value)
        _write_varint(out, len(meta.names))
        for entry in meta.names:
            for value in entry:
                _write_varint(out, value)
    return out.getvalue()


def _parse_mmap_sidecar(payload: bytes) -> MmapHeader:
    if not payload:
        raise StoreError("empty LPDB0004 sidecar")
    byteorder = "little" if payload[0] == 0 else "big"
    data_length, offset = _read_varint(payload, 1)
    segment_count, offset = _read_varint(payload, offset)
    segments = []
    for _ in range(segment_count):
        n, offset = _read_varint(payload, offset)
        table_size, offset = _read_varint(payload, offset)
        strings: list[str] = []
        for _ in range(table_size):
            length, offset = _read_varint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise StoreError("truncated string table")
            try:
                strings.append(payload[offset:end].decode("utf-8"))
            except UnicodeDecodeError:
                raise StoreError("undecodable string-table entry") from None
            offset = end
        blobs = []
        for _ in range(_BLOB_COUNT):
            blob_offset, offset = _read_varint(payload, offset)
            blob_length, offset = _read_varint(payload, offset)
            blobs.append((blob_offset, blob_length))
        directories = []
        for _ in range(3):
            count, offset = _read_varint(payload, offset)
            pairs = []
            for _ in range(count):
                first, offset = _read_varint(payload, offset)
                second, offset = _read_varint(payload, offset)
                pairs.append((first, second))
            directories.append(pairs)
        stats = []
        for _ in range(5):
            value, offset = _read_varint(payload, offset)
            stats.append(value)
        name_count, offset = _read_varint(payload, offset)
        names = []
        for _ in range(name_count):
            entry = []
            for _ in range(6):
                value, offset = _read_varint(payload, offset)
                entry.append(value)
            names.append(tuple(entry))
        segments.append(MmapSegmentMeta(
            n, strings, blobs, directories[0], directories[1],
            directories[2], tuple(stats), names,
        ))
    if offset != len(payload):
        raise StoreError(
            f"{len(payload) - offset} trailing bytes in the LPDB0004 sidecar"
        )
    return MmapHeader(byteorder, data_length, segments)


def _mapped_segment_parts(store) -> tuple[MmapSegmentMeta, list[bytes]]:
    """``(sidecar record, blob payloads)`` for one built
    :class:`~repro.columnar.ColumnStore` (blob offsets assigned later)."""
    intern: dict[str, int] = {}
    strings: list[str] = []

    def string_id(text: str) -> int:
        index = intern.get(text)
        if index is None:
            strings.append(text)
            index = intern[text] = len(strings)
        return index

    name_ids = array("q", map(string_id, store.names))
    value_ids = array(
        "q",
        (0 if value is None else string_id(value) for value in store.values),
    )

    part_tids, part_starts = array("q"), array("q")
    parts_per_name: dict[str, int] = {}
    for (name, tid), (lo, _hi) in store.name_tid_bounds.items():
        part_tids.append(tid)
        part_starts.append(lo)
        parts_per_name[name] = parts_per_name.get(name, 0) + 1

    names_meta = []
    part_hi = 0
    for name, (_lo, hi) in store.name_bounds.items():
        part_hi += parts_per_name.get(name, 0)
        stats = store.name_stats(name)
        names_meta.append((
            string_id(name), hi, part_hi,
            stats.max_partition, stats.min_depth, stats.max_depth,
        ))

    child_pids, child_starts = array("q"), array("q")
    child_tid_dir: list[tuple[int, int]] = []
    current_tid = None
    groups = 0
    for (tid, _pid), (lo, _hi) in store.children_bounds.items():
        if tid != current_tid:
            if current_tid is not None:
                child_tid_dir.append((current_tid, groups))
            current_tid = tid
        child_pids.append(_pid)
        child_starts.append(lo)
        groups += 1
    if current_tid is not None:
        child_tid_dir.append((current_tid, groups))
    child_starts.append(store.n)

    total = store.name_stats(None)
    meta = MmapSegmentMeta(
        n=store.n,
        strings=strings,
        blobs=[],
        root_right=sorted(store.root_right.items()),
        tid_dir=[(tid, hi) for tid, (_lo, hi) in store.tid_bounds.items()],
        child_tid_dir=child_tid_dir,
        store_stats=(total.rows, total.partitions, total.max_partition,
                     total.min_depth, total.max_depth),
        names=names_meta,
    )
    blobs = [
        store.tid.tobytes(), store.left.tobytes(), store.right.tobytes(),
        store.depth.tobytes(), store.id.tobytes(), store.pid.tobytes(),
        name_ids.tobytes(), value_ids.tobytes(),
        store.tid_id_perm.tobytes(), store._perm_ids.tobytes(),
        store.children_perm.tobytes(),
        bytes(store.is_attr), bytes(store.right_edge),
        part_tids.tobytes(), part_starts.tobytes(),
        child_pids.tobytes(), child_starts.tobytes(),
    ]
    return meta, blobs


def save_labels(
    rows: Sequence[Label], stream: BinaryIO, segments: int = 1,
    format: Optional[str] = None,
) -> int:
    """Write label rows as an ``LPDB0004`` file; returns rows written.

    ``segments > 1`` deals the trees into that many shards
    (:func:`partition_rows_by_tid`).  ``format`` may only name the one
    written layout (``"lpdb0004"``).  Saving is the expensive side on
    purpose: each shard is run through a full
    :class:`~repro.columnar.ColumnStore` build (clustered sort,
    projections, bitmaps, partition bounds, statistics) and the results
    are serialized, so *opening* the file needs none of that work."""
    from .columnar.store import ColumnStore

    _check_format(format, (FILE_FORMAT,))
    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    rows = list(rows)
    shards = (
        partition_rows_by_tid(rows, segments) if segments > 1 else [rows]
    )
    metas, payloads = [], []
    offset = 0
    for shard in shards:
        # One shard's store at a time: only its blobs outlive the loop.
        meta, blobs = _mapped_segment_parts(ColumnStore.from_rows(shard))
        for blob in blobs:
            meta.blobs.append((offset, len(blob)))
            offset += _align8(len(blob))
        metas.append(meta)
        payloads.append(blobs)
    sidecar = _encode_mmap_sidecar(MmapHeader(sys.byteorder, offset, metas))
    head = io.BytesIO()
    _write_varint(head, len(sidecar))
    _write_varint(head, zlib.crc32(sidecar))
    prefix_length = len(MMAP_MAGIC) + head.getbuffer().nbytes + len(sidecar)
    stream.write(MMAP_MAGIC)
    stream.write(head.getvalue())
    stream.write(sidecar)
    stream.write(b"\x00" * (_align8(prefix_length) - prefix_length))
    for blobs in payloads:
        for blob in blobs:
            stream.write(blob)
            stream.write(b"\x00" * (_align8(len(blob)) - len(blob)))
    return len(rows)


class MappedSegment:
    """One segment of an opened ``LPDB0004`` corpus: directories decoded
    from the sidecar plus zero-copy views over the data region.  The
    integer views are ``memoryview``\\ s cast to int64; ``table`` is the
    1-based string table with ``table[0] is None``."""

    __slots__ = (
        "n", "table", "root_right", "tid_bounds", "child_tid_dir",
        "name_entries", "store_stats",
    ) + _INT64_BLOBS + _BYTE_BLOBS + _AUX_BLOBS

    def __init__(self, meta: MmapSegmentMeta, region, views: list) -> None:
        n = meta.n
        partitions = meta.names[-1][2] if meta.names else 0
        groups = meta.child_tid_dir[-1][1] if meta.child_tid_dir else 0
        expected = (
            [8 * n] * len(_INT64_BLOBS) + [n] * len(_BYTE_BLOBS)
            + [8 * partitions, 8 * partitions, 8 * groups, 8 * (groups + 1)]
        )
        names = _INT64_BLOBS + _BYTE_BLOBS + _AUX_BLOBS
        for attr, (offset, length), want in zip(names, meta.blobs, expected):
            if offset % 8:
                raise StoreError(
                    f"misaligned column blob {attr!r} at offset {offset}"
                )
            if length != want:
                raise StoreError(
                    f"column blob {attr!r} declares {length} bytes, "
                    f"expected {want}"
                )
            if offset + length > len(region):
                raise StoreError(
                    f"column blob {attr!r} overruns the data region"
                )
            view = region[offset:offset + length]
            if attr not in _BYTE_BLOBS:
                view = view.cast("q")
            views.append(view)
            setattr(self, attr, view)
        self.n = n
        self.table = [None] + meta.strings
        self.root_right = dict(meta.root_right)
        self.store_stats = meta.store_stats

        tid_bounds: dict[int, tuple[int, int]] = {}
        lo = 0
        for tid, hi in meta.tid_dir:
            if not lo <= hi <= n:
                raise StoreError("corrupt (tid, id) directory")
            tid_bounds[tid] = (lo, hi)
            lo = hi
        if lo != n:
            raise StoreError("corrupt (tid, id) directory")
        self.tid_bounds = tid_bounds

        child_tid_dir: dict[int, tuple[int, int]] = {}
        glo = 0
        for tid, ghi in meta.child_tid_dir:
            if not glo <= ghi <= groups:
                raise StoreError("corrupt children directory")
            child_tid_dir[tid] = (glo, ghi)
            glo = ghi
        self.child_tid_dir = child_tid_dir

        name_entries = []
        row_lo = part_lo = 0
        for sid, row_hi, part_hi, max_partition, min_depth, max_depth in meta.names:
            if not 1 <= sid <= len(meta.strings):
                raise StoreError("name directory references a bad string id")
            if not (row_lo < row_hi <= n and part_lo < part_hi <= partitions):
                raise StoreError("corrupt name directory")
            name_entries.append((
                self.table[sid], row_lo, row_hi, part_lo, part_hi,
                (row_hi - row_lo, part_hi - part_lo,
                 max_partition, min_depth, max_depth),
            ))
            row_lo, part_lo = row_hi, part_hi
        if row_lo != n or part_lo != partitions:
            raise StoreError("corrupt name directory")
        self.name_entries = name_entries


class MappedCorpus:
    """An opened ``LPDB0004`` file: the ``mmap``, its segments, and every
    view handed out.  :meth:`close` releases the views (queries through
    them then raise) and unmaps the file; idempotent."""

    def __init__(self, path, segments, views, mapping=None, handle=None):
        self.path = path
        self.segments = segments
        self._views = views
        self._mapping = mapping
        self._handle = handle

    def close(self) -> None:
        for view in self._views:
            view.release()
        self._views = []
        if self._mapping is not None:
            self._mapping.close()
            self._mapping = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MappedCorpus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _parse_mapped(buffer, views: list) -> list[MappedSegment]:
    """Parse an ``LPDB0004`` buffer (bytes or an ``mmap``); every created
    view is appended to ``views`` so a caller owning an mmap can release
    them all on close (or on a parse failure)."""
    base = memoryview(buffer)
    views.append(base)
    if len(base) < len(MMAP_MAGIC) or bytes(base[:len(MMAP_MAGIC)]) != MMAP_MAGIC:
        raise StoreError("not an LPDB0004 corpus file (bad magic)")
    sidecar_length, offset = _read_varint(base, len(MMAP_MAGIC))
    expected_crc, offset = _read_varint(base, offset)
    end = offset + sidecar_length
    if end > len(base):
        raise StoreError(
            f"sidecar length mismatch: header says {sidecar_length}, "
            f"file has {len(base) - offset}"
        )
    sidecar = bytes(base[offset:end])
    if zlib.crc32(sidecar) != expected_crc:
        raise StoreError("checksum mismatch: the sidecar is corrupt")
    header = _parse_mmap_sidecar(sidecar)
    if header.byteorder != sys.byteorder:
        raise StoreError(
            f"foreign byte order: file is {header.byteorder}-endian, "
            f"host is {sys.byteorder}-endian"
        )
    region_start = _align8(end)
    if len(base) != region_start + header.data_length:
        raise StoreError(
            f"file size mismatch: expected {region_start + header.data_length}"
            f" bytes, found {len(base)} (truncated or trailing bytes)"
        )
    region = base[region_start:]
    views.append(region)
    return [MappedSegment(meta, region, views) for meta in header.segments]


def open_mapped_corpus(path: str) -> MappedCorpus:
    """``mmap`` an ``LPDB0004`` file and adopt its segments zero-copy.

    Verifies the magic, the sidecar checksum, the declared file size and
    every blob's offset/length/alignment — O(segments + names + trees)
    work total, independent of the row count.  The returned corpus owns
    the map; :meth:`MappedCorpus.close` invalidates all views."""
    handle = open(path, "rb")
    views: list = []
    mapping = None
    try:
        try:
            mapping = _mmap_module.mmap(
                handle.fileno(), 0, access=_mmap_module.ACCESS_READ
            )
        except ValueError:
            raise StoreError("not an LPDB0004 corpus file (empty)") from None
        segments = _parse_mapped(mapping, views)
    except BaseException:
        for view in views:
            view.release()
        if mapping is not None:
            mapping.close()
        handle.close()
        raise
    return MappedCorpus(path, segments, views, mapping, handle)


def _mapped_labels_into(segment: MappedSegment, rows: list) -> None:
    """Decode one mapped segment into ``Label`` rows, checking every
    string-table reference (the mmap path trusts the data region; the
    eager decode validates)."""
    table = segment.table
    size = len(table)
    name_ids, value_ids = segment.name_ids, segment.value_ids
    tid, left, right = segment.tid, segment.left, segment.right
    depth, node_id, pid = segment.depth, segment.id, segment.pid
    for row in range(segment.n):
        name_id, value_id = name_ids[row], value_ids[row]
        if not 1 <= name_id < size or not 0 <= value_id < size:
            raise StoreError("string-table reference out of range")
        rows.append(Label(
            tid[row], left[row], right[row], depth[row],
            node_id[row], pid[row], table[name_id], table[value_id],
        ))


def _read_mmap_sidecar(handle: BinaryIO, head: bytes) -> MmapHeader:
    """Read and verify just the sidecar of an open ``LPDB0004`` file
    (``head`` is whatever prefix the caller already consumed)."""
    prefix = head + handle.read(max(0, 32 - len(head)))
    sidecar_length, offset = _read_varint(prefix, len(MMAP_MAGIC))
    expected_crc, offset = _read_varint(prefix, offset)
    sidecar = prefix[offset:offset + sidecar_length]
    missing = sidecar_length - len(sidecar)
    if missing > 0:
        sidecar += handle.read(missing)
    if len(sidecar) != sidecar_length:
        raise StoreError(
            f"sidecar length mismatch: header says {sidecar_length}, "
            f"file has {len(sidecar)}"
        )
    if zlib.crc32(sidecar) != expected_crc:
        raise StoreError("checksum mismatch: the sidecar is corrupt")
    return _parse_mmap_sidecar(sidecar)


# -- store inspection ----------------------------------------------------------


def corpus_info(path: str, top: int = 10) -> dict:
    """Summarize a compiled corpus: revision, segment/row/tree counts and
    the top-``top`` per-name statistics by row count.

    For ``LPDB0004`` everything comes from the sidecar — no column (let
    alone value) data is read.  Older revisions have no statistics on
    disk, so their rows are decoded and built into the same sidecar
    records in memory.  Live directories add their manifest generation,
    WAL record/row counts, delta vs base row split and last recovery
    action (:func:`repro.live.live_info`)."""
    if os.path.isdir(path):
        from .live import live_info

        return live_info(path, top=top)
    revision = corpus_format(path)
    if revision == MMAP_MAGIC.decode("ascii"):
        with open(path, "rb") as handle:
            head = handle.read(len(MMAP_MAGIC))
            metas = _read_mmap_sidecar(handle, head).segments
    else:
        from .plan.engine import stores_from_rows

        metas = [
            _mapped_segment_parts(store)[0]
            for store in stores_from_rows(
                load_corpus_labels(path), corpus_segment_count(path)
            )
        ]
    return _summarize(
        path, os.path.getsize(path), revision, len(metas), metas, top
    )


def _summarize(path: str, size: int, revision: str, segments: int,
               metas: Sequence[MmapSegmentMeta], top: int) -> dict:
    """The :func:`corpus_info` document for a corpus whose segments are
    described by the sidecar records ``metas``: per-name directories are
    folded into corpus-wide ``(rows, partitions, max_partition,
    min_depth, max_depth)`` and ranked by row count."""
    merged: dict[str, list] = {}
    for meta in metas:
        row_lo = part_lo = 0
        for sid, row_hi, part_hi, max_part, min_d, max_d in meta.names:
            rows, parts = row_hi - row_lo, part_hi - part_lo
            entry = merged.setdefault(
                meta.strings[sid - 1], [0, 0, max_part, min_d, max_d]
            )
            entry[0] += rows
            entry[1] += parts
            entry[2] = max(entry[2], max_part)
            entry[3] = min(entry[3], min_d)
            entry[4] = max(entry[4], max_d)
            row_lo, part_lo = row_hi, part_hi
    ranked = sorted(merged.items(), key=lambda item: (-item[1][0], item[0]))
    return {
        "path": path,
        "bytes": size,
        "format": revision,
        "segments": segments,
        "rows": sum(meta.n for meta in metas),
        "trees": sum(len(meta.tid_dir) for meta in metas),
        "distinct_names": len(merged),
        "top_names": [(name, tuple(stats)) for name, stats in ranked[:top]],
    }
