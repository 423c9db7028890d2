"""The LPath query engine: load a corpus, answer LPath queries.

Three backends share one parser and one axis semantics:

* ``"plan"`` (default) — the Section 4 engine: Definition 4.1 labels held
  as clustered parallel arrays (:class:`~repro.columnar.store.ColumnStore`),
  queries compiled through the shared logical IR (:mod:`repro.plan`),
  optimized, then run batch-at-a-time by the columnar executor
  (:mod:`repro.columnar`);
* ``"sqlite"`` — the same labels in SQLite, executing the *emitted SQL text*
  (:mod:`repro.lpath.sql`) over the paper's Section 5 indexes; a
  differential oracle for the translation;
* ``"treewalk"`` — direct tree walking (:mod:`repro.lpath.treewalk`); the
  reference semantics.

Every constructor ends in the same place — one column store per segment —
whether it starts from trees (labeled with :func:`label_corpus`), label
rows or a compiled corpus file (adopted zero-copy for ``LPDB0004``).  ``segments > 1`` shards
the corpus by tree into independent stores (:mod:`repro.plan.segmented`):
queries compile once, run against every shard (optionally on a
``workers``-sized pool) and merge the sorted per-shard results —
identical output, embarrassingly parallel execution.  The sqlite and
treewalk oracles always see the whole corpus.

Compiled plans are kept in an LRU :class:`~repro.plan.cache.PlanCache`
keyed on the unparsed query text plus the compile options, so repeated
queries (the benchmark hot path) skip parsing, lowering and optimization.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence, Union

from ..labeling.lpath_scheme import label_corpus
from ..plan.compiler import PlanCompiler
from ..plan.engine import PlanEngine, stores_from_rows
from ..plan.segmented import RemoteSpec, validate_segmentation
from ..relational.sqlite_backend import SQLiteBackend
from ..tree.node import Tree, TreeNode
from .ast import Path
from .errors import LPathError
from .parser import parse
from .sql import SQLGenerator
from .treewalk import TreeWalkEvaluator

Query = Union[str, Path]
BACKENDS = ("plan", "sqlite", "treewalk")


class LPathEngine(PlanEngine):
    """Query a corpus of linguistic trees with LPath."""

    _treewalk: Optional[TreeWalkEvaluator] = None
    _by_id: Optional[dict] = None
    _sqlite: Optional[SQLiteBackend] = None
    _sql = SQLGenerator()

    def __init__(
        self,
        trees: Sequence[Tree],
        keep_trees: bool = True,
        plan_cache_size: int = 128,
        segments: int = 1,
        workers: Optional[int] = None,
    ) -> None:
        trees = list(trees)
        tids = [tree.tid for tree in trees]
        if len(set(tids)) != len(tids):
            raise LPathError("trees must have distinct tids")
        validate_segmentation(segments, workers)
        self._adopt(
            stores_from_rows(list(label_corpus(trees)), segments),
            PlanCompiler, plan_cache_size, workers,
        )
        if keep_trees:
            self.trees = trees
            self._treewalk = TreeWalkEvaluator(trees)
            self._by_id = {tree.tid: tree for tree in trees}

    @classmethod
    def from_labels(
        cls,
        rows: Sequence,
        plan_cache_size: int = 128,
        segments: int = 1,
        workers: Optional[int] = None,
    ) -> "LPathEngine":
        """Build an engine straight from label rows (e.g. a compiled corpus
        loaded with :mod:`repro.store`).  Tree-dependent features
        (:meth:`nodes`, the tree-walk backend) are unavailable."""
        validate_segmentation(segments, workers)
        engine = cls.__new__(cls)
        engine._adopt(
            stores_from_rows(list(rows), segments), PlanCompiler,
            plan_cache_size, workers,
        )
        return engine

    @classmethod
    def from_store_mmap(
        cls,
        path: str,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> "LPathEngine":
        """Open an ``LPDB0004`` compiled corpus zero-copy.

        The file is ``mmap``\\ ed and every segment's columns, projections,
        bitmaps, partition bounds and collected statistics are adopted as
        views straight off the map — open cost is O(segments + names),
        not O(rows), and two engines (or processes) opening the same file
        share its pages through the OS cache.

        ``mode`` picks the fan-out pool: ``"thread"`` or ``"process"``
        (default: process whenever ``workers > 1``, because this engine
        is exactly the shape process workers need — they re-open the
        store by ``(path, segment)`` instead of unpickling it).
        :meth:`close` unmaps the file, invalidating every adopted view."""
        return cls._open_mapped(
            path, PlanCompiler, RemoteSpec(path, "LPath"),
            plan_cache_size=plan_cache_size, workers=workers, mode=mode,
        )

    @classmethod
    def open(
        cls,
        path: str,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> "LPathEngine":
        """Open any compiled corpus.

        ``LPDB0004`` files are adopted zero-copy via
        :meth:`from_store_mmap`; ``LPDB0005`` live directories open as a
        snapshot over mmap'd base segments plus the WAL replayed into an
        in-memory delta store (:func:`repro.live.open_live_engine`);
        older revisions are decoded to rows and rebuilt with their
        on-disk segment count (``mode="process"`` therefore requires an
        ``LPDB0004`` file — worker processes re-open the store by path;
        ``repro store upgrade`` converts an old file)."""
        import os as _os

        from .. import store as store_module

        if _os.path.isdir(path):
            from ..live import open_live_engine

            return open_live_engine(
                path, plan_cache_size=plan_cache_size,
                workers=workers, mode=mode,
            )
        if store_module.corpus_format(path) == "LPDB0004":
            return cls.from_store_mmap(
                path, plan_cache_size=plan_cache_size,
                workers=workers, mode=mode,
            )
        if mode == "process":
            raise LPathError(
                "process-mode fan-out needs an LPDB0004 store (convert "
                f"it with 'repro store upgrade'); {path} is "
                f"{store_module.corpus_format(path)}"
            )
        return cls.from_labels(
            store_module.load_corpus_labels(path),
            plan_cache_size=plan_cache_size,
            segments=store_module.corpus_segment_count(path),
            workers=workers,
        )

    # -- queries ------------------------------------------------------------

    def query(
        self,
        query: Query,
        backend: str = "plan",
        pivot: bool = False,
        limit: Optional[int] = None,
    ) -> list[tuple[int, int]]:
        """Distinct, sorted ``(tid, id)`` pairs matching the query.

        ``pivot=True`` (plan backend only, ignored elsewhere) enables
        selectivity-driven join ordering.  ``limit=k`` keeps the first k
        pairs in sorted order — the plan backend compiles a top-k plan
        that terminates early instead of truncating; the oracle backends
        truncate, so differential runs stay comparable."""
        if self._compiler is None:
            raise LPathError("engine is closed")
        if backend == "plan":
            return super().query(query, pivot=pivot, limit=limit)
        if backend == "sqlite":
            sql = self.to_sql(query)
            result = sorted(tuple(row) for row in self.sqlite.execute(sql))
        elif backend == "treewalk":
            result = self.treewalk.query(query)
        else:
            raise LPathError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        return result[:limit] if limit is not None else result

    def count(self, query: Query, backend: str = "plan", pivot: bool = False) -> int:
        """Result-set size (what the paper's experiments report); the plan
        backend counts through the compiled plan (:meth:`PlanEngine.count`)."""
        if backend == "plan":
            return super().count(query, pivot=pivot)
        return len(self.query(query, backend=backend, pivot=pivot))

    def nodes(self, query: Query, pivot: bool = False) -> list[TreeNode]:
        """Matched tree nodes (needs ``keep_trees=True``)."""
        if self._by_id is None:
            raise LPathError("engine was built with keep_trees=False")
        result = []
        for tid, node_id in self.query(query, pivot=pivot):
            result.append(self._by_id[tid].node_by_id(node_id))
        return result

    def to_sql(self, query: Query) -> str:
        """The SQL text the paper's translation module would emit."""
        path = parse(query) if isinstance(query, str) else query
        return self._sql.generate(path)

    # -- backends ---------------------------------------------------------------

    @property
    def sqlite(self) -> SQLiteBackend:
        """The SQLite differential backend, loaded from the column stores'
        rows on first use."""
        if self._sqlite is None:
            if self._compiler is None:
                raise LPathError("engine is closed")
            self._sqlite = SQLiteBackend(
                chain.from_iterable(store.iter_rows() for store in self._stores)
            )
        return self._sqlite

    @property
    def treewalk(self) -> TreeWalkEvaluator:
        """The tree-walking reference evaluator."""
        if self._treewalk is None:
            raise LPathError(
                "this engine keeps no trees (built with keep_trees=False, "
                "from_labels or from a compiled corpus), so "
                "the treewalk backend is unavailable"
            )
        return self._treewalk

    def close(self) -> None:
        """Release every backend resource: the SQLite oracle, the tree
        walker, and everything :meth:`PlanEngine.close` releases."""
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None
        self._treewalk = None
        self._by_id = None
        super().close()


def engine_from_bracketed(text: str, **kwargs) -> LPathEngine:
    """Convenience: build an engine straight from bracketed trees."""
    from ..tree.bracket import iter_trees

    return LPathEngine(list(iter_trees(text)), **kwargs)
