"""The query façade both dialects share: column stores in, plans out.

An engine is one :class:`~repro.columnar.store.ColumnStore` per segment
and one dialect compiler over all of them (:class:`~repro.plan.compiler.
PlanCompiler` or its XPath subclass), whatever the segment count: every
query compiles once and runs per segment, on the engine's
:class:`~repro.plan.segmented.SegmentPool` when it has workers.
:class:`PlanEngine` holds that wiring plus the per-engine plan cache and
the query, aggregate, batch, explain and lifecycle surface;
:class:`~repro.lpath.engine.LPathEngine` and
:class:`~repro.xpath.engine.XPathEngine` add only how they label trees
and open stores.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..lpath.errors import LPathError
from .cache import PlanCache, cached_compile
from .segmented import RemoteSpec, SegmentPool, validate_segmentation


def stores_from_rows(rows: Sequence, segments: int, column_names=None) -> list:
    """Deal label rows into ``segments`` tree-disjoint column stores
    (:func:`repro.store.partition_rows_by_tid`'s deterministic split)."""
    from ..columnar.store import COLUMN_NAMES, ColumnStore
    from ..store import partition_rows_by_tid

    names = column_names or COLUMN_NAMES
    if segments == 1:
        return [ColumnStore.from_rows(rows, column_names=names)]
    return [
        ColumnStore.from_rows(shard, column_names=names)
        for shard in partition_rows_by_tid(rows, segments)
    ]


class PlanEngine:
    """Compile and run queries over per-segment column stores.

    Subclasses build the stores and call :meth:`_adopt` (which leaves
    :attr:`trees` empty — engines that keep their trees set it after);
    everything a caller does with the engine afterwards lives here."""

    @property
    def executor(self) -> str:
        """The physical executor every plan runs on: always ``"columnar"``."""
        return "columnar"

    def _adopt(
        self,
        stores: list,
        make_compiler: Callable,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
        mapped=None,
        remote: Optional[RemoteSpec] = None,
    ) -> None:
        """Wire ``stores`` (one per segment) into this engine.

        ``make_compiler(stores, get_pool=, remote=)`` builds the dialect
        compiler; ``mode`` picks the fan-out pool flavor, ``mapped`` is
        the owner of the stores' memory (closed by :meth:`close`) and
        ``remote`` tells process workers how to re-open the segments by
        path."""
        validate_segmentation(len(stores), workers, mode)
        self.trees = []
        self.segments = len(stores)
        self.workers = workers
        self.mode = mode if mode is not None else "thread"
        self._mapped = mapped
        self._stores = list(stores)
        self._pool = SegmentPool(workers, len(stores), mode=self.mode)
        self._compiler = make_compiler(
            self._stores, get_pool=self._pool, remote=remote
        )
        self.plan_cache = PlanCache(plan_cache_size)

    @classmethod
    def _open_mapped(
        cls,
        path: str,
        make_compiler: Callable,
        remote: RemoteSpec,
        column_names=None,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ):
        """An engine over an ``LPDB0004`` file adopted zero-copy: every
        segment's columns, permutations and statistics are views off one
        ``mmap``.  ``mode`` defaults to process fan-out whenever
        ``workers > 1`` — workers re-open the store by ``(path,
        segment)`` instead of unpickling it."""
        from ..columnar.store import COLUMN_NAMES, MappedColumnStore
        from ..store import open_mapped_corpus

        validate_segmentation(1, workers, mode)
        if mode is None:
            mode = "process" if workers is not None and workers > 1 else "thread"
        corpus = open_mapped_corpus(path)
        try:
            stores = [
                MappedColumnStore(segment, column_names=column_names or COLUMN_NAMES)
                for segment in corpus.segments
            ]
            engine = cls.__new__(cls)
            engine._adopt(
                stores, make_compiler, plan_cache_size, workers, mode,
                mapped=corpus, remote=remote,
            )
        except BaseException:
            corpus.close()
            raise
        return engine

    # -- queries ------------------------------------------------------------

    def compile(
        self,
        query,
        pivot: bool = False,
        limit: Optional[int] = None,
        agg: Optional[str] = None,
    ):
        """Compile to a shared-IR plan, via the per-engine plan cache."""
        if self._compiler is None:
            raise LPathError("engine is closed")
        return cached_compile(
            self.plan_cache, self._compiler, query, pivot, limit=limit, agg=agg
        )

    def query(
        self, query, pivot: bool = False, limit: Optional[int] = None
    ) -> list[tuple[int, int]]:
        """Distinct, sorted ``(tid, id)`` pairs matching the query.

        ``pivot=True`` enables selectivity-driven join ordering;
        ``limit=k`` compiles a top-k plan that terminates early instead
        of truncating."""
        compiled = self.compile(query, pivot=pivot, limit=limit)
        return [tuple(row) for row in compiled.rows()]

    def count(self, query, pivot: bool = False) -> int:
        """Result-set size (what the paper's experiments report), counted
        through the compiled plan: per-segment counts add, and a
        process-mode engine ships back one integer per worker instead of
        packing, unpacking and merging every row."""
        return self.compile(query, pivot=pivot).count()

    def aggregate(self, query, agg: str = "count", pivot: bool = False) -> dict:
        """Evaluate an aggregate over the result set without returning
        rows: ``{"count": n}``, or ``{group: n}`` keyed by node name
        (``count_by_name``) / depth (``count_by_depth``).  The plan
        counts from partition bounds and join output cardinality instead
        of materializing node lists."""
        return self.compile(query, pivot=pivot, agg=agg).aggregate()

    def query_batch(self, queries: Sequence, pivot: bool = False) -> list:
        """Execute a batch of queries through one shared-scan cache per
        segment: identical scans and common step prefixes across the
        batch run once and fan out to every consumer
        (:mod:`repro.plan.batch`).

        Each entry is a query (string or AST) or a mapping with keys
        ``query`` and optionally ``limit`` / ``agg`` / ``pivot``.
        Returns one result per entry — the same row list (or aggregate
        dict) the equivalent :meth:`query` / :meth:`aggregate` call
        produces."""
        from .batch import run_batch

        return run_batch(self._compile_batch(queries, pivot))

    def explain_batch(self, queries: Sequence, pivot: bool = False) -> str:
        """Render the shared-scan DAG :meth:`query_batch` would execute,
        with reuse annotations on every shared step prefix."""
        from .batch import explain_batch

        return explain_batch(self._compile_batch(queries, pivot))

    def _compile_batch(self, queries: Sequence, pivot: bool) -> list:
        if self._compiler is None:
            raise LPathError("engine is closed")
        compiled = []
        for entry in queries:
            options = {"pivot": pivot}
            if isinstance(entry, dict):
                spec = dict(entry)
                query = spec.pop("query", None)
                if query is None:
                    raise LPathError("batch entry mapping needs a 'query' key")
                unknown = set(spec) - {"limit", "agg", "pivot"}
                if unknown:
                    raise LPathError(
                        f"unknown batch entry keys: {', '.join(sorted(unknown))}"
                    )
                options.update(spec)
            else:
                query = entry
            compiled.append(self.compile(query, **options))
        return compiled

    def explain(
        self, query, pivot: bool = False,
        limit: Optional[int] = None, agg: Optional[str] = None,
    ) -> str:
        """Logical-IR and physical plan description."""
        return self.compile(query, pivot=pivot, limit=limit, agg=agg).explain()

    def cache_stats(self) -> dict[str, int]:
        """Plan-cache observability: hits, misses, evictions, size and
        capacity of this engine's LRU plan cache."""
        return self.plan_cache.stats

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool, cached plans, the column stores and —
        for mmap-backed engines — the file mapping itself, which
        invalidates every adopted column view (later reads through a
        stale reference raise ``ValueError``).  Idempotent; queries on a
        closed engine raise :class:`LPathError`."""
        self._pool.shutdown()
        self.plan_cache.clear()
        self._compiler = None
        self._stores = []
        self.trees = []
        if self._mapped is not None:
            self._mapped.close()
            self._mapped = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
