"""The baseline XPath engine (Section 5.4).

Identical machinery to the LPath engine — the same column-store layout
(clustered ``{name, tid, start, end, ...}`` order plus the ``{tid, id}``
permutation) and the same logical-plan compiler, optimizer and columnar
executor from :mod:`repro.plan` — but labels come from the start/end
scheme of [11].  Per the paper: "To compare the performance, we set other
components of both labeling schemes to be the same."
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..labeling import xpath_scheme
from ..lpath.errors import LPathError
from ..plan.engine import PlanEngine, stores_from_rows
from ..plan.segmented import RemoteSpec, validate_segmentation
from ..tree.node import Tree
from .compiler import VERTICAL_FRAGMENT, XPathPlanCompiler

XNODE_COLUMNS = ("tid", "start", "end", "depth", "id", "pid", "name", "value")


class XPathEngine(PlanEngine):
    """Query a corpus with the XPath-expressible fragment of LPath syntax."""

    def __init__(
        self,
        trees: Sequence[Tree],
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
        segments: int = 1,
        workers: Optional[int] = None,
    ) -> None:
        trees = list(trees)
        tids = [tree.tid for tree in trees]
        if len(set(tids)) != len(tids):
            raise LPathError("trees must have distinct tids")
        validate_segmentation(segments, workers)
        rows = list(xpath_scheme.label_corpus(trees))
        self._adopt(
            stores_from_rows(rows, segments, column_names=XNODE_COLUMNS),
            partial(XPathPlanCompiler, axes=axes), plan_cache_size, workers,
        )
        self.trees = trees

    @classmethod
    def from_store_mmap(
        cls,
        path: str,
        axes: frozenset = VERTICAL_FRAGMENT,
        plan_cache_size: int = 128,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> "XPathEngine":
        """Open an ``LPDB0004`` file of *start/end-labeled* rows zero-copy
        (save one with ``repro.labeling.xpath_scheme.label_corpus`` rows
        and ``save_labels(format='lpdb0004')``).  No trees are kept.
        ``mode`` as in :meth:`repro.lpath.LPathEngine.from_store_mmap`
        (process default when ``workers > 1``); :meth:`close` unmaps the
        file."""
        return cls._open_mapped(
            path,
            partial(XPathPlanCompiler, axes=axes),
            RemoteSpec(path, "XPath", tuple(sorted(axis.name for axis in axes))),
            column_names=XNODE_COLUMNS,
            plan_cache_size=plan_cache_size,
            workers=workers,
            mode=mode,
        )
