"""Crash-safe live corpora: the ``LPDB0005`` directory layout.

Every store revision up to ``LPDB0004`` is immutable — compile once,
query forever.  This module adds the write path: a live corpus is a
*directory* whose contents are

``MANIFEST``
    ``LPDB0005`` magic + one length/CRC block (the same framing as
    ``LPDB0002``) over: generation number, the list of immutable base
    segment files with their row counts, the active WAL file name, the
    next free tree id, and the last recovery action.  The manifest is
    the single source of truth; a file not referenced by it does not
    exist (it is garbage, collected on the next writable open).
``seg-<generation>.lpdb``
    Immutable ``LPDB0004`` base segments, mmap-served exactly like a
    monolithic compiled corpus.
``wal-<generation>.log``
    An append-only write-ahead log: an 8-byte magic then framed row
    batches — ``<u32 length, u32 crc32>`` header + an ``LPDB0002``-style
    row payload — fsync'd **before** the append is acknowledged.
``LOCK``
    The exclusive writer lock (``O_EXCL`` + pid, stale locks reclaimed
    when the holder is dead).

Crash consistency rules:

* An append is acknowledged only after its full frame is written *and*
  fsync'd.  Recovery truncates a torn tail (partial frame or CRC
  mismatch) — so acknowledged rows always survive, unacknowledged
  tails always roll back.  A crash *between* fsync and acknowledgement
  leaves a complete, valid record the writer never confirmed: replay is
  therefore at-least-once (``acked ⊆ recovered ⊆ attempted``).
* The manifest is installed via write-temp → fsync → ``os.replace`` →
  fsync(directory) — readers see the old generation or the new one,
  never a mix.
* Compaction writes the new base segment and the rotated WAL under
  their final (generation-stamped) names *before* installing the
  manifest that references them.  A crash at any point leaves either
  the old generation (plus unreferenced files, GC'd on open) or the
  complete new one — there is nothing in between to repair.

The crash-oriented fault points (``torn_write``, ``fsync_fail``,
``disk_full``, ``compactor_kill``) and the deterministic
``REPRO_CRASH_POINT`` barriers from :mod:`repro.faults` are threaded
through every durability step; the kill-at-every-barrier matrix in
``tests/integration/test_crash_matrix.py`` drives them.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
import threading
import time
import zlib
from typing import NamedTuple, Optional

from . import faults
from .labeling.lpath_scheme import Label, label_corpus
from .store import (
    LIVE_MAGIC,
    StoreError,
    _checked_block,
    _decode_labels_into,
    _encode_payload,
    _mapped_segment_parts,
    _read_mmap_sidecar,
    _read_varint,
    _summarize,
    _write_varint,
    fsync_directory,
    open_mapped_corpus,
    save_labels,
)
from .tree.bracket import iter_trees

MANIFEST_NAME = "MANIFEST"
LOCK_NAME = "LOCK"
WAL_MAGIC = b"LPWL0001"
_FRAME = struct.Struct("<II")

#: How long a retired engine survives after a swap before it is closed —
#: longer than any sane request, so an in-flight query that resolved the
#: old engine just before an append/compaction finishes cleanly.
ENGINE_GRACE_SECONDS = 30.0


# -- manifest ------------------------------------------------------------------


class LiveManifest(NamedTuple):
    """The decoded ``MANIFEST``: what the directory *is* right now."""

    generation: int
    segments: tuple[tuple[str, int], ...]  # (file name, row count)
    wal: str
    next_tid: int
    last_recovery: str


def _encode_manifest(manifest: LiveManifest) -> bytes:
    payload = io.BytesIO()
    _write_varint(payload, manifest.generation)
    _write_varint(payload, len(manifest.segments))
    for name, rows in manifest.segments:
        encoded = name.encode("utf-8")
        _write_varint(payload, len(encoded))
        payload.write(encoded)
        _write_varint(payload, rows)
    wal = manifest.wal.encode("utf-8")
    _write_varint(payload, len(wal))
    payload.write(wal)
    _write_varint(payload, manifest.next_tid)
    recovery = manifest.last_recovery.encode("utf-8")
    _write_varint(payload, len(recovery))
    payload.write(recovery)
    blob = payload.getvalue()
    header = io.BytesIO()
    _write_varint(header, len(blob))
    _write_varint(header, zlib.crc32(blob))
    return LIVE_MAGIC + header.getvalue() + blob


def _parse_manifest(data: bytes) -> LiveManifest:
    if not data.startswith(LIVE_MAGIC):
        raise StoreError(
            "not a live corpus manifest (bad magic; expected LPDB0005)"
        )
    payload, end = _checked_block(data, len(LIVE_MAGIC))
    if end != len(data):
        raise StoreError(f"{len(data) - end} trailing bytes after manifest")
    offset = 0
    generation, offset = _read_varint(payload, offset)
    count, offset = _read_varint(payload, offset)
    segments = []
    for _ in range(count):
        length, offset = _read_varint(payload, offset)
        name = payload[offset:offset + length].decode("utf-8")
        offset += length
        rows, offset = _read_varint(payload, offset)
        segments.append((name, rows))
    length, offset = _read_varint(payload, offset)
    wal = payload[offset:offset + length].decode("utf-8")
    offset += length
    next_tid, offset = _read_varint(payload, offset)
    length, offset = _read_varint(payload, offset)
    recovery = payload[offset:offset + length].decode("utf-8")
    offset += length
    if offset != len(payload):
        raise StoreError("trailing bytes inside the manifest payload")
    return LiveManifest(generation, tuple(segments), wal, next_tid, recovery)


def _read_manifest(root: str) -> tuple[LiveManifest, bytes]:
    path = os.path.join(root, MANIFEST_NAME)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise StoreError(
            f"not a live corpus: {root!r} has no {MANIFEST_NAME}"
        ) from None
    return _parse_manifest(data), data


def _barrier(name: str, compactor: bool = False) -> None:
    """Cross one durability barrier: the deterministic kill matrix
    (``REPRO_CRASH_POINT``) and, on compaction barriers, the
    probabilistic ``compactor_kill`` point."""
    faults.crash_point(name)
    if compactor:
        faults.maybe_kill_compactor()


def _install_manifest(
    root: str, manifest: LiveManifest, compactor: bool = False
) -> bytes:
    """Atomically install ``manifest``: write-temp → fsync →
    ``os.replace`` → fsync(dir).  Returns the installed bytes (the
    fingerprint digests them)."""
    blob = _encode_manifest(manifest)
    temp = os.path.join(
        root, f"tmp-manifest-{manifest.generation}-{os.getpid()}"
    )
    try:
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        _barrier("manifest_temp", compactor)
        os.replace(temp, os.path.join(root, MANIFEST_NAME))
    except OSError as error:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise StoreError(f"manifest install failed: {error}") from error
    _barrier("manifest_replace", compactor)
    fsync_directory(root)
    _barrier("manifest_dirsync", compactor)
    return blob


# -- WAL -----------------------------------------------------------------------


class WalScan(NamedTuple):
    """One pass over a WAL file: the decoded valid prefix and how many
    bytes of torn tail follow it."""

    records: int
    rows: list[Label]
    record_rows: list[int]
    valid_size: int
    torn_bytes: int


def _scan_wal(path: str) -> WalScan:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise StoreError(f"live corpus WAL missing: {path}") from None
    if not data.startswith(WAL_MAGIC):
        raise StoreError(f"bad WAL magic in {path}; expected LPWL0001")
    offset = len(WAL_MAGIC)
    rows: list[Label] = []
    record_rows: list[int] = []
    while offset < len(data):
        if len(data) - offset < _FRAME.size:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if end > len(data):
            break  # torn payload
        blob = data[offset + _FRAME.size:end]
        if zlib.crc32(blob) != crc:
            break  # torn or bit-rotted payload
        before = len(rows)
        _decode_labels_into(blob, rows)
        record_rows.append(len(rows) - before)
        offset = end
    return WalScan(
        len(record_rows), rows, record_rows, offset, len(data) - offset
    )


# -- writer lock ---------------------------------------------------------------


def _lock_holder(path: str) -> Optional[int]:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def acquire_writer_lock(root: str) -> str:
    """Take the exclusive writer lock, reclaiming it once if the
    recorded holder is dead (a crashed writer).  Raises
    :class:`StoreError` when a live holder exists."""
    path = os.path.join(root, LOCK_NAME)
    for attempt in range(2):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            pid = _lock_holder(path)
            alive = False
            if pid is not None:
                try:
                    os.kill(pid, 0)
                    alive = True
                except ProcessLookupError:
                    alive = False
                except PermissionError:
                    alive = True  # exists, owned by someone else
            if not alive and attempt == 0:
                # Stale (holder dead, or it crashed between creating the
                # lock and writing its pid): reclaim once and retry.
                with contextlib.suppress(OSError):
                    os.unlink(path)
                continue
            holder = f"pid {pid}" if pid is not None else "an unknown writer"
            raise StoreError(
                f"live corpus {root!r} is locked by {holder}; a second "
                "writer would interleave WAL records (remove LOCK only if "
                "you know the holder is gone)"
            )
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        return path
    raise StoreError(f"could not reclaim stale lock {path}")  # pragma: no cover


def release_writer_lock(path: str) -> None:
    with contextlib.suppress(OSError):
        os.unlink(path)


# -- creation ------------------------------------------------------------------


def _segment_file_name(generation: int) -> str:
    return f"seg-{generation:08d}.lpdb"


def _wal_file_name(generation: int) -> str:
    return f"wal-{generation:08d}.log"


def _write_segment_file(path: str, rows, segments: int = 1) -> int:
    """Write one immutable LPDB0004 base segment under its final name
    and fsync it.  Safe pre-manifest: until a manifest references the
    name, the file is garbage and recovery collects it."""
    with open(path, "wb") as handle:
        count = save_labels(rows, handle, segments=segments)
        handle.flush()
        os.fsync(handle.fileno())
    return count


def _write_wal_file(path: str, tail: bytes = b"") -> None:
    with open(path, "wb") as handle:
        handle.write(WAL_MAGIC)
        if tail:
            handle.write(tail)
        handle.flush()
        os.fsync(handle.fileno())


def create_live_corpus(path: str, rows, segments: int = 1) -> int:
    """Create (or re-create) a live corpus directory at ``path`` from
    fully materialized label ``rows``; returns the row count.

    ``segments`` shards the base LPDB0004 file internally (the same knob
    as a monolithic compile).  Re-creating over an existing live corpus
    replaces it atomically-enough: the new manifest is installed last,
    and the old generation's files become garbage."""
    rows = list(rows)
    if segments < 1:
        raise StoreError(f"segment count must be >= 1, got {segments}")
    os.makedirs(path, exist_ok=True)
    existing = os.listdir(path)
    if existing and not os.path.exists(os.path.join(path, MANIFEST_NAME)):
        raise StoreError(
            f"refusing to create a live corpus in non-empty directory "
            f"{path!r} that is not already a live corpus"
        )
    lock = acquire_writer_lock(path)
    try:
        generation = 1
        if existing:
            with contextlib.suppress(StoreError):
                manifest, _ = _read_manifest(path)
                generation = manifest.generation + 1
        manifest_segments: tuple[tuple[str, int], ...] = ()
        if rows:
            seg_name = _segment_file_name(generation)
            count = _write_segment_file(
                os.path.join(path, seg_name), rows, segments=segments
            )
            manifest_segments = ((seg_name, count),)
        wal_name = _wal_file_name(generation)
        _write_wal_file(os.path.join(path, wal_name))
        fsync_directory(path)
        next_tid = max((row[0] for row in rows), default=-1) + 1
        _install_manifest(
            path,
            LiveManifest(generation, manifest_segments, wal_name, next_tid, ""),
        )
        # Old-generation files (if any) are now garbage; collect them.
        _collect_garbage(path, keep={MANIFEST_NAME, LOCK_NAME, wal_name}
                         | {name for name, _ in manifest_segments})
        fsync_directory(path)
    finally:
        release_writer_lock(lock)
    return len(rows)


def _collect_garbage(root: str, keep: set) -> list[str]:
    """Unlink files matching our naming patterns that no manifest
    references.  Foreign files are left alone."""
    removed = []
    for entry in sorted(os.listdir(root)):
        if entry in keep:
            continue
        if (
            entry.startswith("tmp-")
            or entry.startswith(".")  # atomic_write temps
            or (entry.startswith("seg-") and entry.endswith(".lpdb"))
            or (entry.startswith("wal-") and entry.endswith(".log"))
        ):
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(root, entry))
                removed.append(entry)
    return removed


# -- the live corpus -----------------------------------------------------------


class LiveCorpus:
    """An open ``LPDB0005`` directory.

    Writable opens hold the exclusive writer lock for their lifetime and
    run recovery first (truncate torn WAL tails, collect unreferenced
    files, record what was done in the manifest).  Read-only opens take
    no lock, mutate nothing, and simply ignore a torn tail.

    All mutation is serialized on an internal lock; reads of the delta
    snapshot go through :meth:`snapshot` so engine builds never race an
    append."""

    def __init__(self, root: str, writable: bool = True) -> None:
        self.root = os.path.abspath(root)
        self.writable = writable
        self._lock = threading.RLock()
        self._closed = False
        self._poisoned: Optional[str] = None
        self._lock_path: Optional[str] = None
        self._wal_handle = None
        if not os.path.isdir(self.root):
            raise StoreError(f"not a live corpus directory: {root!r}")
        if writable:
            self._lock_path = acquire_writer_lock(self.root)
        try:
            self.manifest, self._manifest_bytes = _read_manifest(self.root)
            if writable:
                self._recover()
            self._load_wal()
            if writable:
                self._wal_handle = open(self.wal_path, "r+b")
                self._wal_handle.seek(self._wal_size)
        except BaseException:
            if self._lock_path is not None:
                release_writer_lock(self._lock_path)
            raise
        self._refresh_fingerprint()

    # -- open-time recovery ----------------------------------------------------

    def _recover(self) -> None:
        actions = []
        wal_path = os.path.join(self.root, self.manifest.wal)
        if not os.path.exists(wal_path):
            # The manifest's directory fsync makes the WAL entry durable
            # before the manifest references it; a missing WAL should be
            # impossible, but an empty one beats refusing to open.
            _write_wal_file(wal_path)
            actions.append(f"recreated missing WAL {self.manifest.wal}")
        scan = _scan_wal(wal_path)
        if scan.torn_bytes:
            with open(wal_path, "r+b") as handle:
                handle.truncate(scan.valid_size)
                handle.flush()
                os.fsync(handle.fileno())
            actions.append(
                f"truncated {scan.torn_bytes} torn byte(s) from "
                f"{self.manifest.wal}"
            )
        keep = {MANIFEST_NAME, LOCK_NAME, self.manifest.wal}
        keep.update(name for name, _ in self.manifest.segments)
        for entry in _collect_garbage(self.root, keep):
            actions.append(f"removed orphan {entry}")
        if actions:
            fsync_directory(self.root)
            recovered = self.manifest._replace(
                generation=self.manifest.generation + 1,
                last_recovery="; ".join(actions),
            )
            self._manifest_bytes = _install_manifest(self.root, recovered)
            self.manifest = recovered

    def _load_wal(self) -> None:
        scan = _scan_wal(self.wal_path)
        if self.writable and scan.torn_bytes:
            raise StoreError(
                f"torn WAL tail survived recovery in {self.wal_path}"
            )  # pragma: no cover
        self._wal_size = scan.valid_size
        self._wal_records = scan.records
        self._delta_rows = scan.rows
        self._torn_bytes = scan.torn_bytes
        base_next = max(
            (row[0] for row in scan.rows), default=self.manifest.next_tid - 1
        )
        self._next_tid = max(self.manifest.next_tid, base_next + 1)

    # -- cheap accessors -------------------------------------------------------

    @property
    def wal_path(self) -> str:
        return os.path.join(self.root, self.manifest.wal)

    @property
    def generation(self) -> int:
        return self.manifest.generation

    @property
    def next_tid(self) -> int:
        return self._next_tid

    @property
    def base_rows(self) -> int:
        return sum(rows for _, rows in self.manifest.segments)

    @property
    def delta_row_count(self) -> int:
        with self._lock:
            return len(self._delta_rows)

    @property
    def wal_records(self) -> int:
        return self._wal_records

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def _refresh_fingerprint(self) -> None:
        digest = zlib.crc32(self._manifest_bytes)
        self._fingerprint = (
            f"lpdb0005-{self.manifest.generation}-{self._wal_size}"
            f"-{digest:08x}"
        )

    def base_segment_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.manifest.segments)

    def snapshot(self) -> tuple[tuple[str, ...], list[Label], str]:
        """A consistent (base segment names, delta rows copy, fingerprint)
        triple for engine builds: the fingerprint names exactly the rows
        the other two hold."""
        with self._lock:
            return (
                self.base_segment_names(), list(self._delta_rows),
                self._fingerprint,
            )

    def verify_on_disk(self) -> tuple[bool, Optional[str]]:
        """Does the directory on disk still match this open handle?
        Under the writer lock nothing else may write, so a mismatch is
        real corruption (or an operator bypassing the lock)."""
        with self._lock:
            if self._poisoned is not None:
                return False, f"store is poisoned: {self._poisoned}"
            try:
                disk = live_fingerprint(self.root)
            except (StoreError, OSError) as error:
                return False, str(error)
            if disk != self._fingerprint:
                return False, (
                    f"on-disk state {disk} diverged from the writer's view "
                    f"{self._fingerprint} despite the writer lock"
                )
            return True, None

    # -- append ----------------------------------------------------------------

    def _ensure_writable(self) -> None:
        if self._closed:
            raise StoreError("live corpus is closed")
        if not self.writable:
            raise StoreError(
                f"live corpus {self.root!r} was opened read-only"
            )
        if self._poisoned is not None:
            raise StoreError(
                f"live corpus is poisoned ({self._poisoned}); reopen the "
                "store to run recovery"
            )

    def append_rows(self, rows) -> int:
        """Durably append one batch of label rows; returns the row count
        acknowledged.  The batch's tids must all be >= :attr:`next_tid`
        (segments must stay tid-disjoint for the sorted merge)."""
        rows = list(rows)
        if not rows:
            raise StoreError("append needs at least one row")
        with self._lock:
            self._ensure_writable()
            low = min(row[0] for row in rows)
            if low < self._next_tid:
                raise StoreError(
                    f"appended tids must start at or above next_tid "
                    f"{self._next_tid} (got {low}); overlapping tids would "
                    "break the disjoint segment merge"
                )
            blob, count = _encode_payload(rows)
            frame = _FRAME.pack(len(blob), zlib.crc32(blob)) + blob
            handle = self._wal_handle
            start = self._wal_size
            try:
                faults.maybe_disk_full()
                if faults.maybe_torn_write():
                    handle.write(frame[: max(1, len(frame) // 2)])
                    handle.flush()
                    self._poisoned = "torn WAL write (torn_write)"
                    raise StoreError(
                        "append failed: torn write before the durability "
                        "barrier; rows were NOT acknowledged — reopen the "
                        "store to truncate the torn tail"
                    )
                handle.write(frame)
                handle.flush()
                faults.crash_point("wal_write")
                faults.maybe_fsync_fail()
                os.fsync(handle.fileno())
                faults.crash_point("wal_fsync")
            except OSError as error:
                self._rollback(start)
                raise StoreError(
                    f"append failed before acknowledgement "
                    f"({error}); rows were NOT acknowledged"
                ) from error
            # -- acknowledged: the frame is durable --------------------
            self._wal_size = start + len(frame)
            self._wal_records += 1
            self._delta_rows.extend(
                row if isinstance(row, Label) else Label(*row) for row in rows
            )
            self._next_tid = max(row[0] for row in rows) + 1
            self._refresh_fingerprint()
            return count

    def _rollback(self, size: int) -> None:
        """Remove unacknowledged bytes after a failed append so the
        in-memory view and the file agree again."""
        try:
            handle = self._wal_handle
            handle.flush()
            handle.truncate(size)
            handle.seek(size)
            os.fsync(handle.fileno())
        except OSError as error:
            self._poisoned = f"rollback of an unacknowledged append failed: {error}"

    def append_trees(self, text: str) -> dict:
        """Parse bracketed ``text`` and durably append every tree,
        assigning fresh tids from :attr:`next_tid`.  Returns a summary
        dict (trees/rows/first tid/next tid)."""
        with self._lock:
            self._ensure_writable()
            trees = list(iter_trees(text, start_tid=self._next_tid))
            if not trees:
                raise StoreError("no trees in append input")
            first_tid = trees[0].tid
            rows = list(label_corpus(trees))
            count = self.append_rows(rows)
            return {
                "trees": len(trees),
                "rows": count,
                "first_tid": first_tid,
                "next_tid": self._next_tid,
                "generation": self.manifest.generation,
                "wal_records": self._wal_records,
            }

    # -- compaction ------------------------------------------------------------

    def compact(self, segments: int = 1) -> dict:
        """Rewrite the accumulated delta rows into a fresh immutable
        LPDB0004 base segment and rotate the WAL, installing the result
        as a new manifest generation.

        The expensive segment build runs outside the corpus lock, so
        appends (and of course reads) proceed during it; rows appended
        mid-compaction have their raw WAL frames copied into the rotated
        WAL at cut-over.  Every durability barrier is a crash point —
        a kill anywhere leaves either the old complete generation or the
        new one."""
        started = time.monotonic()
        with self._lock:
            self._ensure_writable()
            if not self._delta_rows:
                return {
                    "compacted_rows": 0,
                    "generation": self.manifest.generation,
                    "remaining_delta_rows": 0,
                    "seconds": 0.0,
                }
            frozen = list(self._delta_rows)
            cut = self._wal_size
            generation = self.manifest.generation + 1
        # -- heavy phase, off-lock: build the new base segment ---------
        seg_name = _segment_file_name(generation)
        seg_path = os.path.join(self.root, seg_name)
        try:
            count = _write_segment_file(seg_path, frozen, segments=segments)
        except OSError as error:
            with contextlib.suppress(OSError):
                os.unlink(seg_path)
            raise StoreError(f"compaction segment write failed: {error}") from error
        _barrier("compact_segment", compactor=True)
        # -- cut-over, under the lock ----------------------------------
        with self._lock:
            self._ensure_writable()
            old_wal_path = self.wal_path
            with open(old_wal_path, "rb") as handle:
                handle.seek(cut)
                tail = handle.read(self._wal_size - cut)
            wal_name = _wal_file_name(generation)
            try:
                _write_wal_file(os.path.join(self.root, wal_name), tail)
                fsync_directory(self.root)
            except OSError as error:
                raise StoreError(
                    f"compaction WAL rotation failed: {error}"
                ) from error
            _barrier("compact_wal", compactor=True)
            manifest = LiveManifest(
                generation,
                self.manifest.segments + ((seg_name, count),),
                wal_name,
                self._next_tid,
                self.manifest.last_recovery,
            )
            self._manifest_bytes = _install_manifest(
                self.root, manifest, compactor=True
            )
            self.manifest = manifest
            self._wal_handle.close()
            self._wal_handle = open(self.wal_path, "r+b")
            self._wal_handle.seek(0, os.SEEK_END)
            self._wal_size = self._wal_handle.tell()
            remaining = self._delta_rows[len(frozen):]
            self._delta_rows = remaining
            # Recount the rotated WAL's records from its bytes — simpler
            # and safer than per-record bookkeeping across the
            # concurrent-append window.
            self._wal_records = _scan_wal(self.wal_path).records
            self._refresh_fingerprint()
        with contextlib.suppress(OSError):
            os.unlink(old_wal_path)
        _barrier("compact_gc", compactor=True)
        fsync_directory(self.root)
        return {
            "compacted_rows": count,
            "generation": generation,
            "segment": seg_name,
            "remaining_delta_rows": len(remaining),
            "seconds": time.monotonic() - started,
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._wal_handle is not None:
                with contextlib.suppress(OSError):
                    self._wal_handle.close()
                self._wal_handle = None
            if self._lock_path is not None:
                release_writer_lock(self._lock_path)
                self._lock_path = None

    def __enter__(self) -> "LiveCorpus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- path-level helpers (store.py dispatches here) -----------------------------


def live_corpus_format(path: str) -> str:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, "rb") as handle:
            magic = handle.read(len(LIVE_MAGIC))
    except OSError:
        raise StoreError(
            f"not a live corpus: {path!r} has no readable {MANIFEST_NAME}"
        ) from None
    if magic != LIVE_MAGIC:
        raise StoreError(
            f"bad manifest magic in {path!r}; expected LPDB0005"
        )
    return LIVE_MAGIC.decode("ascii")


def live_fingerprint(path: str) -> str:
    """O(1) identity for a live directory: generation + WAL size + a CRC
    of the manifest bytes.  Changes on every acknowledged append (the
    WAL grows) and every installed generation (the manifest changes);
    stable across copies and re-opens."""
    manifest, data = _read_manifest(path)
    try:
        wal_size = os.path.getsize(os.path.join(path, manifest.wal))
    except OSError:
        wal_size = len(WAL_MAGIC)
    return (
        f"lpdb0005-{manifest.generation}-{wal_size}-{zlib.crc32(data):08x}"
    )


def live_segment_count(path: str) -> int:
    """Base LPDB0004 segments (counting internal shards) plus one for
    the in-memory delta when the WAL holds rows."""
    manifest, _ = _read_manifest(path)
    count = 0
    for name, _rows in manifest.segments:
        file_path = os.path.join(path, name)
        with open(file_path, "rb") as handle:
            header = _read_mmap_sidecar(handle, handle.read(8))
        count += len(header.segments)
    scan = _scan_wal(os.path.join(path, manifest.wal))
    if scan.rows or count == 0:
        count += 1
    return count


def live_info(path: str, top: int = 10) -> dict:
    """The :func:`repro.store.corpus_info` shape plus the live extras:
    generation, WAL record/row counts, delta vs base split, the last
    recovery action and any torn tail visible to this (read-only)
    scan."""
    from .columnar.store import ColumnStore

    manifest, manifest_bytes = _read_manifest(path)
    total_bytes = len(manifest_bytes)
    metas = []
    for name, _rows in manifest.segments:
        file_path = os.path.join(path, name)
        total_bytes += os.path.getsize(file_path)
        with open(file_path, "rb") as handle:
            metas.extend(_read_mmap_sidecar(handle, handle.read(8)).segments)
    base_segments = len(metas)
    base_rows = sum(meta.n for meta in metas)
    wal_path = os.path.join(path, manifest.wal)
    scan = _scan_wal(wal_path)
    total_bytes += os.path.getsize(wal_path)
    delta_rows = len(scan.rows)
    if delta_rows:
        # The delta's statistics, as the sidecar it would compact into.
        delta = ColumnStore.from_rows(scan.rows)
        metas.append(_mapped_segment_parts(delta)[0])
    info = _summarize(
        path, total_bytes, LIVE_MAGIC.decode("ascii"),
        base_segments + (1 if (delta_rows or not base_segments) else 0),
        metas, top,
    )
    info.update({
        "generation": manifest.generation,
        "base_segments": len(manifest.segments),
        "base_rows": base_rows,
        "delta_rows": delta_rows,
        "wal_records": scan.records,
        "wal_bytes": scan.valid_size,
        "wal_torn_bytes": scan.torn_bytes,
        "next_tid": max(
            manifest.next_tid,
            max((row[0] for row in scan.rows), default=-1) + 1,
        ),
        "last_recovery": manifest.last_recovery or None,
    })
    return info


def load_live_labels(path: str) -> list[Label]:
    """Materialize every row of a live corpus: base segments in file
    order, then the WAL delta — the monolithic-equivalence loaders
    (``repro.store.load_corpus_labels``) dispatch here."""
    from .store import load_labels

    manifest, _ = _read_manifest(path)
    rows: list[Label] = []
    for name, _count in manifest.segments:
        with open(os.path.join(path, name), "rb") as handle:
            rows.extend(load_labels(handle))
    rows.extend(_scan_wal(os.path.join(path, manifest.wal)).rows)
    return rows


# -- engine integration --------------------------------------------------------


class _LiveResources:
    """What a snapshot engine owns: the mapped base corpora and the
    read-only LiveCorpus view.  Quacks like ``engine._mapped`` (the
    engine's ``close`` calls ``.close()``)."""

    def __init__(self, corpora, corpus: Optional[LiveCorpus]) -> None:
        self.corpora = corpora
        self.corpus = corpus

    def close(self) -> None:
        for corpus in self.corpora:
            with contextlib.suppress(Exception):
                corpus.close()
        if self.corpus is not None:
            self.corpus.close()


def _build_live_engine(
    root: str,
    base_names,
    delta_rows,
    corpora_by_name: dict,
    plan_cache_size: int = 128,
    workers: Optional[int] = None,
):
    """Assemble an LPathEngine over mmap base segments + an in-memory
    delta ColumnStore.  ``corpora_by_name`` caches open MappedCorpus
    objects (the manager reuses them across engine swaps); missing
    entries are opened and added."""
    from .columnar.store import ColumnStore, MappedColumnStore
    from .lpath.compiler import PlanCompiler
    from .lpath.engine import LPathEngine

    stores = []
    kinds = []
    for name in base_names:
        corpus = corpora_by_name.get(name)
        if corpus is None:
            corpus = open_mapped_corpus(os.path.join(root, name))
            corpora_by_name[name] = corpus
        for segment in corpus.segments:
            stores.append(MappedColumnStore(segment))
            kinds.append("base")
    if delta_rows or not stores:
        stores.append(ColumnStore.from_rows(list(delta_rows)))
        kinds.append("delta")
    engine = LPathEngine.__new__(LPathEngine)
    engine._adopt(stores, PlanCompiler, plan_cache_size, workers)
    compiler = engine._compiler
    if hasattr(compiler, "segments"):
        for segment, kind in zip(compiler.segments, kinds):
            segment.kind = kind
    return engine


def open_live_engine(
    path: str,
    plan_cache_size: int = 128,
    workers: Optional[int] = None,
    mode: Optional[str] = None,
):
    """Open a live corpus as a *snapshot* engine: base segments mmap'd
    zero-copy, the WAL replayed into an in-memory delta store, results
    merged through the ordinary sorted disjoint segment merge.

    The snapshot does not see later appends — re-open (or use
    :class:`LiveEngineManager`, which the daemon does) to follow the
    log.  ``mode="process"`` is rejected: process workers re-open stores
    by LPDB0004 path, which the in-memory delta does not have."""
    from .lpath.engine import LPathError

    if mode == "process":
        raise LPathError(
            "live corpora fan out on threads (the in-memory delta segment "
            "cannot be re-opened by path in a worker process); "
            "use mode='thread' or compact first and serve the base file"
        )
    corpus = LiveCorpus(path, writable=False)
    corpora_by_name: dict = {}
    try:
        base_names, delta_rows, _fingerprint = corpus.snapshot()
        engine = _build_live_engine(
            corpus.root, base_names, delta_rows, corpora_by_name,
            plan_cache_size=plan_cache_size, workers=workers,
        )
    except BaseException:
        for mapped in corpora_by_name.values():
            with contextlib.suppress(Exception):
                mapped.close()
        corpus.close()
        raise
    engine._mapped = _LiveResources(list(corpora_by_name.values()), corpus)
    return engine


# -- serving: an engine that follows the log -----------------------------------


class LiveEngineManager:
    """Owns a writable :class:`LiveCorpus` plus the engine serving it,
    swapping in a rebuilt engine after every append/compaction
    (read-your-writes) while retired engines linger for a grace period
    so in-flight queries finish on the snapshot they resolved.

    The served snapshot is published as one ``(engine, fingerprint)``
    tuple, :attr:`current`, replaced whole under the manager lock: a
    reader that takes the tuple once can never pair one snapshot's
    engine with another's fingerprint.

    The mapped base corpora are owned *here*, not by any engine
    (``engine._mapped`` stays a no-op for swapped engines), so a swap
    never unmaps pages a retired engine still reads."""

    def __init__(
        self,
        path: str,
        writable: bool = True,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        compact_rows: int = 0,
        compact_interval: float = 0.25,
    ) -> None:
        self.corpus = LiveCorpus(path, writable=writable)
        self._plan_cache_size = plan_cache_size
        self._workers = workers
        self._lock = threading.RLock()
        self._compact_lock = threading.Lock()
        self._corpora: dict = {}
        self._retired: list[tuple[float, object]] = []
        self.appends = 0
        self.compactions = 0
        self.compacting = False
        self.last_compaction: Optional[dict] = None
        self.compact_rows = int(compact_rows)
        self._compact_interval = compact_interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.current: Optional[tuple] = None
        try:
            self.current = self._build()
        except BaseException:
            self._close_corpora()
            self.corpus.close()
            raise
        if self.compact_rows > 0 and writable:
            self._thread = threading.Thread(
                target=self._compactor_loop,
                name="live-compactor",
                daemon=True,
            )
            self._thread.start()

    # -- engine builds ---------------------------------------------------------

    def _build(self) -> tuple:
        """A fresh engine over the corpus's current snapshot, paired with
        that snapshot's fingerprint."""
        base_names, delta_rows, fingerprint = self.corpus.snapshot()
        engine = _build_live_engine(
            self.corpus.root, base_names, delta_rows, self._corpora,
            plan_cache_size=self._plan_cache_size, workers=self._workers,
        )
        return engine, fingerprint

    def _swap(self) -> None:
        """Publish a fresh ``(engine, fingerprint)`` snapshot and retire
        the old engine (closed after the grace period)."""
        fresh = self._build()
        now = time.monotonic()
        with self._lock:
            old, _fingerprint = self.current
            self.current = fresh
            self._retired.append((now, old))
            keep = []
            for retired_at, engine in self._retired:
                if now - retired_at >= ENGINE_GRACE_SECONDS:
                    with contextlib.suppress(Exception):
                        engine.close()
                else:
                    keep.append((retired_at, engine))
            self._retired = keep

    @property
    def engine(self):
        """The engine of the published snapshot (``None`` once closed)."""
        current = self.current
        return None if current is None else current[0]

    # -- mutations -------------------------------------------------------------

    def append_trees(self, text: str) -> dict:
        with self._lock:
            result = self.corpus.append_trees(text)
            self._swap()
            self.appends += 1
            result["fingerprint"] = self.current[1]
            return result

    def compact(self) -> dict:
        """Run one compaction (no-op when the delta is empty).  Only one
        compaction runs at a time; a second caller gets a skipped
        status instead of queueing."""
        if not self._compact_lock.acquire(blocking=False):
            return {"skipped": "compaction already running"}
        try:
            self.compacting = True
            try:
                status = self.corpus.compact()
            finally:
                self.compacting = False
            if status.get("compacted_rows"):
                with self._lock:
                    self._swap()
                    self.compactions += 1
            self.last_compaction = status
            return status
        finally:
            self._compact_lock.release()

    def _compactor_loop(self) -> None:
        while not self._stop.wait(self._compact_interval):
            try:
                if self.corpus.delta_row_count >= self.compact_rows:
                    self.compact()
            except StoreError as error:
                self.last_compaction = {"error": str(error)}

    # -- observability ---------------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            return {
                "generation": self.corpus.generation,
                "base_rows": self.corpus.base_rows,
                "delta_rows": self.corpus.delta_row_count,
                "wal_records": self.corpus.wal_records,
                "next_tid": self.corpus.next_tid,
                "appends": self.appends,
                "compactions": self.compactions,
                "compacting": self.compacting,
                "auto_compact_rows": self.compact_rows or None,
                "last_compaction": self.last_compaction,
                "last_recovery": self.corpus.manifest.last_recovery or None,
                "retired_engines": len(self._retired),
            }

    def verify(self) -> tuple[bool, Optional[str]]:
        return self.corpus.verify_on_disk()

    # -- lifecycle -------------------------------------------------------------

    def _close_corpora(self) -> None:
        for mapped in self._corpora.values():
            with contextlib.suppress(Exception):
                mapped.close()
        self._corpora.clear()

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            engines = [engine for _, engine in self._retired]
            self._retired = []
            if self.current is not None:
                engines.append(self.current[0])
                self.current = None
            for engine in engines:
                with contextlib.suppress(Exception):
                    engine.close()
            self._close_corpora()
            self.corpus.close()
