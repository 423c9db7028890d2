"""Column-oriented storage for the label relation.

This module stores the relation ``node(tid, left, right, depth, id, pid,
name, value)`` as parallel arrays:

* the six integer columns live in ``array('q')`` buffers, physically
  ordered by the paper's clustered key ``{name, tid, left, right, depth,
  id, pid}`` — so every clustered probe is a *contiguous range of row
  ids*, found by a dictionary lookup on ``(name, tid)`` plus two binary
  searches on the raw ``left`` array;
* ``name``/``value`` are interned-string columns;
* derived per-row bitmaps (``is_attr``, ``right_edge``) turn the
  element/attribute tests and LPath's root alignment (``$``) into plain
  array reads;
* secondary projections — a ``(tid, id)`` permutation for parent /
  attribute / whole-tree probes, a CSR-style ``(tid, pid)`` children
  index for wildcard child/parent steps, and per-value row lists for the
  ``[@attr = literal]`` seeds — are permutation arrays over the same
  columns, so no row is ever stored twice;
* per-name cardinality/partition/depth statistics (:class:`NameStats`)
  feed the optimizer's cost-based choice between per-binding probe joins
  and the structural merge joins of :mod:`repro.columnar.structural`.

Row ids index every column; a query binding is a short list of row ids
rather than a concatenation of 8-wide tuples.  The batch executor in
:mod:`repro.columnar.executor` consumes these primitives.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Optional

from ..faults import maybe_mmap_read_error
from ..labeling.lpath_scheme import ATTRIBUTE_PREFIX

#: Column positions, shared with :mod:`repro.plan.ir`.
T, L, R, D, I, P, N, V = range(8)

#: Default column names (the LPath relation; the start/end relation only
#: renames ``left``/``right`` to ``start``/``end`` — positions are equal).
COLUMN_NAMES = ("tid", "left", "right", "depth", "id", "pid", "name", "value")


class NameStats(NamedTuple):
    """Collected statistics for one name partition, feeding the
    optimizer's join cost model (:mod:`repro.plan.optimizer` /
    :mod:`repro.columnar.structural`)."""

    rows: int            # rows carrying the name across the corpus
    partitions: int      # distinct (name, tid) partitions
    max_partition: int   # rows in the largest per-tree partition
    min_depth: int       # shallowest occurrence (0 when absent)
    max_depth: int       # deepest occurrence (0 when absent)


class ColumnStore:
    """The label relation as clustered parallel arrays.

    Build with :meth:`from_rows` (any iterable of 8-tuples / ``Label``
    rows); :class:`MappedColumnStore` adopts the same layout zero-copy
    from an ``LPDB0004`` file.
    """

    __slots__ = (
        "n",
        "tid",
        "left",
        "right",
        "depth",
        "id",
        "pid",
        "names",
        "values",
        "column_names",
        "is_attr",
        "right_edge",
        "root_right",
        "name_bounds",
        "name_tid_bounds",
        "tid_id_perm",
        "tid_bounds",
        "children_perm",
        "children_bounds",
        "_perm_ids",
        "_by_value",
        "_name_stats",
    )

    def __init__(
        self,
        tid: Iterable[int],
        left: Iterable[int],
        right: Iterable[int],
        depth: Iterable[int],
        id: Iterable[int],
        pid: Iterable[int],
        names: Iterable[str],
        values: Iterable[Optional[str]],
        column_names: tuple[str, ...] = COLUMN_NAMES,
    ) -> None:
        tid = list(tid)
        left = list(left)
        right = list(right)
        depth = list(depth)
        id = list(id)
        pid = list(pid)
        names = list(names)
        values = list(values)
        n = len(tid)
        self.column_names = tuple(column_names)

        # Physical order: the clustered key {name, tid, left, right, depth,
        # id, pid}, so clustered probes are contiguous row-id ranges.
        order = sorted(
            range(n),
            key=lambda r: (names[r], tid[r], left[r], right[r], depth[r], id[r], pid[r]),
        )
        self.n = n
        self.tid = array("q", (tid[r] for r in order))
        self.left = array("q", (left[r] for r in order))
        self.right = array("q", (right[r] for r in order))
        self.depth = array("q", (depth[r] for r in order))
        self.id = array("q", (id[r] for r in order))
        self.pid = array("q", (pid[r] for r in order))
        intern: dict[str, str] = {}
        self.names = [intern.setdefault(names[r], names[r]) for r in order]
        self.values = [
            None if values[r] is None else intern.setdefault(values[r], values[r])
            for r in order
        ]

        self._build_clustered_bounds()
        self._build_bitmaps()
        self._build_tid_id_projection()
        self._build_children_index()
        self._by_value: Optional[dict] = None       # built on first value seed
        self._name_stats: dict[Optional[str], NameStats] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Iterable, column_names: tuple[str, ...] = COLUMN_NAMES
    ) -> "ColumnStore":
        """Split row tuples (or ``Label`` instances) into columns."""
        cols: tuple[list, ...] = ([], [], [], [], [], [], [], [])
        for row in rows:
            for position in range(8):
                cols[position].append(row[position])
        return cls(*cols, column_names=column_names)

    # -- construction helpers ------------------------------------------------

    def _build_clustered_bounds(self) -> None:
        name_bounds: dict[str, tuple[int, int]] = {}
        name_tid_bounds: dict[tuple[str, int], tuple[int, int]] = {}
        names = self.names
        start = 0
        for row in range(1, self.n + 1):
            if row == self.n or names[row] != names[start]:
                self._close_name_block(names[start], start, row, name_tid_bounds)
                name_bounds[names[start]] = (start, row)
                start = row
        self.name_bounds = name_bounds
        self.name_tid_bounds = name_tid_bounds

    def _close_name_block(self, name, lo, hi, name_tid_bounds) -> None:
        tids = self.tid
        start = lo
        for row in range(lo + 1, hi + 1):
            if row == hi or tids[row] != tids[start]:
                name_tid_bounds[(name, tids[start])] = (start, row)
                start = row

    def _build_bitmaps(self) -> None:
        names, tids, rights, pids = self.names, self.tid, self.right, self.pid
        is_attr = bytearray(self.n)
        root_right: dict[int, int] = {}
        for row in range(self.n):
            if names[row].startswith(ATTRIBUTE_PREFIX):
                is_attr[row] = 1
            elif pids[row] == 0:
                # The element row of a tree root.
                root_right[tids[row]] = rights[row]
        right_edge = bytearray(self.n)
        for row in range(self.n):
            if rights[row] == root_right.get(tids[row]):
                right_edge[row] = 1
        self.is_attr = is_attr
        self.right_edge = right_edge
        self.root_right = root_right

    def _build_tid_id_projection(self) -> None:
        tids, ids = self.tid, self.id
        perm = array("q", sorted(range(self.n), key=lambda r: (tids[r], ids[r])))
        tid_bounds: dict[int, tuple[int, int]] = {}
        start = 0
        for slot in range(1, self.n + 1):
            if slot == self.n or tids[perm[slot]] != tids[perm[start]]:
                tid_bounds[tids[perm[start]]] = (start, slot)
                start = slot
        self.tid_id_perm = perm
        self.tid_bounds = tid_bounds
        self._perm_ids = array("q", (ids[r] for r in perm))

    def _build_children_index(self) -> None:
        """CSR-style children offsets: rows grouped by ``(tid, pid)`` in
        span order, so a node's children (element + attribute rows) are one
        contiguous slice of a permutation array — the wildcard child/parent
        steps become direct lookups instead of whole-tree scans."""
        tids, pids, lefts = self.tid, self.pid, self.left
        perm = array(
            "q", sorted(range(self.n), key=lambda r: (tids[r], pids[r], lefts[r], r))
        )
        bounds: dict[tuple[int, int], tuple[int, int]] = {}
        start = 0
        for slot in range(1, self.n + 1):
            if (
                slot == self.n
                or tids[perm[slot]] != tids[perm[start]]
                or pids[perm[slot]] != pids[perm[start]]
            ):
                key = (tids[perm[start]], pids[perm[start]])
                bounds[key] = (start, slot)
                start = slot
        self.children_perm = perm
        self.children_bounds = bounds

    def children_rows(self, tid: int, pid: int):
        """Rows whose parent is ``(tid, pid)`` in span order (attribute
        rows of the children included, exactly like a filtered tree scan)."""
        lo, hi = self.children_bounds.get((tid, pid), (0, 0))
        return self.children_perm[lo:hi]

    # -- column access -------------------------------------------------------

    def col(self, position: int):
        """The backing sequence for one column position."""
        return (
            self.tid, self.left, self.right, self.depth,
            self.id, self.pid, self.names, self.values,
        )[position]

    def column_ptr(self, position: int):
        """``(raw pointer, length)`` over one integer column for the
        native kernels — zero-copy for both heap arrays and the mmap
        views of a :class:`MappedColumnStore`, where the C side reads
        page-cache memory directly.  Raises ``TypeError`` for the string
        columns, ``RuntimeError`` when the cffi extension is unavailable,
        and ``ValueError`` once the owning corpus released its views.
        The pointer pins the underlying buffer: drop it before closing a
        mapped corpus, or ``close()`` raises ``BufferError``."""
        from .kernels.api import column_pointer

        return column_pointer(self.col(position), self.n)

    def iter_rows(self) -> Iterator[tuple]:
        """Yield plain row tuples in clustered order."""
        cols = tuple(self.col(position) for position in range(8))
        for row in range(self.n):
            yield tuple(column[row] for column in cols)

    def __len__(self) -> int:
        return self.n

    # -- clustered probes ----------------------------------------------------

    def name_block(self, name: str) -> range:
        """Row ids carrying ``name`` (the clustered name partition)."""
        lo, hi = self.name_bounds.get(name, (0, 0))
        return range(lo, hi)

    def name_tid_block(self, name: str, tid: int) -> tuple[int, int]:
        """The per-tree partition of one name block."""
        return self.name_tid_bounds.get((name, tid), (0, 0))

    def clustered_range(
        self,
        name: str,
        tid: int,
        low: Optional[int],
        high: Optional[int],
        include_low: bool = True,
        include_high: bool = True,
    ) -> range:
        """Rows of ``(name, tid)`` whose ``left`` falls in the bound range —
        two binary searches over the raw ``left`` array."""
        lo, hi = self.name_tid_bounds.get((name, tid), (0, 0))
        if lo == hi:
            return range(0, 0)
        lefts = self.left
        if low is not None:
            lo = (bisect_left if include_low else bisect_right)(lefts, low, lo, hi)
        if high is not None:
            hi = (bisect_right if include_high else bisect_left)(lefts, high, lo, hi)
        return range(lo, hi)

    # -- (tid, id) probes ----------------------------------------------------

    def tid_rows(self, tid: int):
        """All rows of one tree, ordered by ``id`` (an array of row ids)."""
        lo, hi = self.tid_bounds.get(tid, (0, 0))
        return self.tid_id_perm[lo:hi]

    def tid_id_rows(self, tid: int, node_id: int):
        """Rows with the exact ``(tid, id)`` (element + attribute rows)."""
        lo, hi = self.tid_bounds.get(tid, (0, 0))
        if lo == hi:
            return ()
        ids = self._perm_ids
        start = bisect_left(ids, node_id, lo, hi)
        end = bisect_right(ids, node_id, start, hi)
        return self.tid_id_perm[start:end]

    # -- value seeds ---------------------------------------------------------

    @property
    def by_value(self) -> dict:
        """``value -> (tids, row ids)`` over attribute rows, ordered by
        ``(tid, id)`` — the columnar twin of the ``{value, tid, id}``
        index.  Built on first use."""
        if self._by_value is None:
            table: dict[str, tuple[array, array]] = {}
            values, is_attr = self.values, self.is_attr
            tids = self.tid
            for slot in range(self.n):
                row = self.tid_id_perm[slot]
                if not is_attr[row] or values[row] is None:
                    continue
                entry = table.get(values[row])
                if entry is None:
                    entry = table[values[row]] = (array("q"), array("q"))
                entry[0].append(tids[row])
                entry[1].append(row)
            self._by_value = table
        return self._by_value

    def value_rows(self, literal: str, tid: Optional[int] = None):
        """Attribute rows whose value equals ``literal`` (optionally within
        one tree), ordered by ``(tid, id)``."""
        entry = self.by_value.get(literal)
        if entry is None:
            return ()
        tids, rows = entry
        if tid is None:
            return rows
        lo = bisect_left(tids, tid)
        hi = bisect_right(tids, tid, lo)
        return rows[lo:hi]

    # -- string values -------------------------------------------------------

    def string_value(self, row: int, element_values: bool = True) -> Optional[str]:
        """The string value of one row: attribute rows carry it directly;
        element rows concatenate their ``@lex`` leaf descendants (``None``
        when ``element_values`` is off — the start/end scheme loses leaf
        order)."""
        if self.is_attr[row]:
            value = self.values[row]
            return value if value is not None else ""
        if not element_values:
            return None
        lo, hi = self.name_tid_bounds.get(("@lex", self.tid[row]), (0, 0))
        if lo == hi:
            return ""
        lefts, rights, values = self.left, self.right, self.values
        low, high = lefts[row], rights[row]
        lo = bisect_left(lefts, low, lo, hi)
        hi = bisect_left(lefts, high, lo, hi)
        words = [
            values[leaf]
            for leaf in range(lo, hi)
            if rights[leaf] <= high and values[leaf] is not None
        ]
        return " ".join(words)

    def frequency(self, name: Optional[str]) -> int:
        """Rows carrying ``name`` (store size for the wildcard)."""
        if name is None:
            return self.n
        lo, hi = self.name_bounds.get(name, (0, 0))
        return hi - lo

    # -- statistics -----------------------------------------------------------

    def tree_count(self) -> int:
        """Distinct trees in the store."""
        return len(self.tid_bounds)

    def size(self) -> int:
        """Total rows (the catalog-protocol spelling of ``len``)."""
        return self.n

    def name_stats(self, name: Optional[str]) -> NameStats:
        """Per-name cardinality/partition/depth statistics for the join
        cost model; one linear pass over the name block, cached per name
        (``None`` summarizes the whole store)."""
        cached = self._name_stats.get(name)
        if cached is not None:
            return cached
        if name is None:
            lo, hi = 0, self.n
            partitions = len(self.tid_bounds)
            max_partition = max(
                (bounds[1] - bounds[0] for bounds in self.tid_bounds.values()),
                default=0,
            )
        else:
            lo, hi = self.name_bounds.get(name, (0, 0))
            partitions = 0
            max_partition = 0
            tids = self.tid
            start = lo
            for row in range(lo + 1, hi + 1):
                if row == hi or tids[row] != tids[start]:
                    partitions += 1
                    if row - start > max_partition:
                        max_partition = row - start
                    start = row
            if lo == hi:
                partitions = max_partition = 0
        if lo == hi:
            stats = NameStats(0, 0, 0, 0, 0)
        else:
            depths = self.depth
            min_depth = max_depth = depths[lo]
            for row in range(lo + 1, hi):
                d = depths[row]
                if d < min_depth:
                    min_depth = d
                elif d > max_depth:
                    max_depth = d
            stats = NameStats(hi - lo, partitions, max_partition, min_depth, max_depth)
        self._name_stats[name] = stats
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnStore rows={self.n} names={len(self.name_bounds)}>"


# -- zero-copy adoption of an LPDB0004 segment ---------------------------------


class StringColumn:
    """A lazy string column: an int64 id view over the mapped file plus
    the decoded string table.  Rows resolve on access, so adopting the
    column is O(1) instead of an O(rows) list build; repeated lookups of
    one row return the *same* table entry (interning for free)."""

    __slots__ = ("ids", "table")

    def __init__(self, ids, table: list) -> None:
        self.ids = ids
        self.table = table

    def __getitem__(self, row: int):
        return self.table[self.ids[row]]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        table = self.table
        return (table[index] for index in self.ids)


class PartitionBounds:
    """The ``(name, tid) -> (row lo, row hi)`` mapping of a mapped store,
    answered from the sidecar's name directory plus two int64 views
    (partition tids and row starts, in clustered order) — a dict lookup
    and one binary search instead of an O(partitions) dict build at open.
    Implements the read surface the executor and the structural joins use
    (``get``/``[]``/``in``)."""

    __slots__ = ("_name_dir", "_tids", "_starts", "_n")

    def __init__(self, name_dir: dict, tids, starts, n: int) -> None:
        self._name_dir = name_dir   # name -> (part lo, part hi, row hi)
        self._tids = tids
        self._starts = starts
        self._n = n

    def _lookup(self, key):
        name, tid = key
        span = self._name_dir.get(name)
        if span is None:
            return None
        part_lo, part_hi, _row_hi = span
        tids = self._tids
        index = bisect_left(tids, tid, part_lo, part_hi)
        if index == part_hi or tids[index] != tid:
            return None
        starts = self._starts
        start = starts[index]
        end = starts[index + 1] if index + 1 < len(starts) else self._n
        return start, end

    def get(self, key, default=None):
        bounds = self._lookup(key)
        return default if bounds is None else bounds

    def __getitem__(self, key):
        bounds = self._lookup(key)
        if bounds is None:
            raise KeyError(key)
        return bounds

    def __contains__(self, key) -> bool:
        return self._lookup(key) is not None


class ChildrenBounds:
    """The ``(tid, pid) -> (slot lo, slot hi)`` mapping over a mapped
    store's children permutation: a per-tree group directory plus two
    int64 views (group pids and slot starts)."""

    __slots__ = ("_tid_dir", "_pids", "_starts")

    def __init__(self, tid_dir: dict, pids, starts) -> None:
        self._tid_dir = tid_dir     # tid -> (group lo, group hi)
        self._pids = pids
        self._starts = starts

    def get(self, key, default=None):
        tid, pid = key
        span = self._tid_dir.get(tid)
        if span is None:
            return default
        group_lo, group_hi = span
        pids = self._pids
        index = bisect_left(pids, pid, group_lo, group_hi)
        if index == group_hi or pids[index] != pid:
            return default
        return self._starts[index], self._starts[index + 1]

    def __getitem__(self, key):
        bounds = self.get(key)
        if bounds is None:
            raise KeyError(key)
        return bounds

    def __contains__(self, key) -> bool:
        return self.get(key) is not None


class MappedColumnStore(ColumnStore):
    """A :class:`ColumnStore` adopted zero-copy from one segment of an
    ``LPDB0004`` file (:class:`repro.store.MappedSegment`).

    Nothing is decoded, sorted or scanned: the integer columns and the
    derived permutations/bitmaps are ``memoryview``\\ s straight off the
    ``mmap``, the string columns resolve through the sidecar's table
    lazily, the partition/children bounds answer from sidecar directories
    plus binary search, and every :class:`NameStats` the cost model asks
    for was collected at save time — open cost is O(names + trees), not
    O(rows).  Closing the owning :class:`~repro.store.MappedCorpus`
    releases the views; a store used after that raises ``ValueError``."""

    __slots__ = ()

    def __init__(
        self, segment, column_names: tuple[str, ...] = COLUMN_NAMES
    ) -> None:
        self.n = segment.n
        self.column_names = tuple(column_names)
        self.tid = segment.tid
        self.left = segment.left
        self.right = segment.right
        self.depth = segment.depth
        self.id = segment.id
        self.pid = segment.pid
        table = segment.table
        self.names = StringColumn(segment.name_ids, table)
        self.values = StringColumn(segment.value_ids, table)
        self.is_attr = segment.is_attr
        self.right_edge = segment.right_edge
        self.root_right = segment.root_right
        self.tid_id_perm = segment.tid_id_perm
        self._perm_ids = segment.perm_ids
        self.tid_bounds = segment.tid_bounds
        self.children_perm = segment.children_perm
        self.children_bounds = ChildrenBounds(
            segment.child_tid_dir, segment.child_pids, segment.child_starts
        )

        name_bounds: dict[str, tuple[int, int]] = {}
        name_dir: dict[str, tuple[int, int, int]] = {}
        stats: dict[Optional[str], NameStats] = {}
        for name, lo, hi, part_lo, part_hi, collected in segment.name_entries:
            name_bounds[name] = (lo, hi)
            name_dir[name] = (part_lo, part_hi, hi)
            stats[name] = NameStats(*collected)
        self.name_bounds = name_bounds
        self.name_tid_bounds = PartitionBounds(
            name_dir, segment.part_tids, segment.part_starts, self.n
        )
        stats[None] = NameStats(*segment.store_stats)
        self._name_stats = stats
        self._by_value = None

    # -- fault checkpoints ----------------------------------------------------
    #
    # The mapped store is the one physical layer whose reads can fail at
    # query time (the mapping is page-cache memory over a file another
    # process — or a dying disk — may invalidate).  The three probe
    # surfaces every plan passes through carry a ``mmap_read_error``
    # checkpoint so the serving layer's classify-and-quarantine path can
    # be driven deterministically; with REPRO_FAULTS unset each is one
    # extra dict lookup per plan step (never per row).

    def col(self, position: int):
        maybe_mmap_read_error()
        return ColumnStore.col(self, position)

    def name_block(self, name: str) -> range:
        maybe_mmap_read_error()
        return ColumnStore.name_block(self, name)

    def children_rows(self, tid: int, pid: int):
        maybe_mmap_read_error()
        return ColumnStore.children_rows(self, tid, pid)
