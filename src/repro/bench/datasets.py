"""Benchmark datasets: generated once per process, sized by environment.

``REPRO_BENCH_SENTENCES`` scales every benchmark (default 2000 sentences
per corpus, roughly 1/50 of Treebank-3 — pure-Python engines cannot carry
the full 3.5M-node corpora in reasonable benchmark time; Figure 9's
scaling run shows the trend toward full size).
"""

from __future__ import annotations

import os
import tempfile
from functools import lru_cache

from ..baselines.corpussearch import CorpusSearchEngine
from ..baselines.tgrep2 import TGrep2Engine
from ..corpus.generator import generate_corpus, replicate_corpus
from ..lpath.engine import LPathEngine
from ..tree.node import Tree
from ..xpath.engine import XPathEngine

DEFAULT_SENTENCES = 2000
SEED = 20060403  # ICDE 2006

def bench_sentences() -> int:
    """Benchmark corpus size (sentences), from the environment."""
    return int(os.environ.get("REPRO_BENCH_SENTENCES", DEFAULT_SENTENCES))


@lru_cache(maxsize=None)
def corpus(profile: str, sentences: int | None = None) -> tuple[Tree, ...]:
    """The benchmark corpus for a profile (cached)."""
    count = sentences if sentences is not None else bench_sentences()
    return tuple(generate_corpus(profile, sentences=count, seed=SEED))


@lru_cache(maxsize=None)
def scaled_corpus(profile: str, factor: float) -> tuple[Tree, ...]:
    """Figure 9: the profile corpus replicated by ``factor``."""
    return tuple(replicate_corpus(list(corpus(profile)), factor))


@lru_cache(maxsize=None)
def lpath_engine(
    profile: str,
    factor: float = 1.0,
    segments: int = 1,
    workers: int | None = None,
) -> LPathEngine:
    """The LPath engine loaded with a (possibly scaled) corpus.

    ``segments``/``workers`` build the sharded engine variants the
    segment-scaling benchmark sweeps."""
    trees = corpus(profile) if factor == 1.0 else scaled_corpus(profile, factor)
    return LPathEngine(
        list(trees), keep_trees=False, segments=segments, workers=workers,
    )


@lru_cache(maxsize=None)
def tgrep2_engine(profile: str, factor: float = 1.0) -> TGrep2Engine:
    """The TGrep2 engine on the same corpus."""
    trees = corpus(profile) if factor == 1.0 else scaled_corpus(profile, factor)
    return TGrep2Engine(list(trees))


@lru_cache(maxsize=None)
def corpussearch_engine(profile: str, factor: float = 1.0) -> CorpusSearchEngine:
    """The CorpusSearch engine on the same corpus."""
    trees = corpus(profile) if factor == 1.0 else scaled_corpus(profile, factor)
    return CorpusSearchEngine(list(trees))


@lru_cache(maxsize=None)
def xpath_engine(profile: str) -> XPathEngine:
    """The XPath-labeling engine on the same corpus."""
    return XPathEngine(list(corpus(profile)))


#: Resources the lru_caches below cannot release themselves: compiled
#: store temp dirs and opened mmap engines (which own file mappings and,
#: in process mode, live worker pools).  :func:`clear_caches` drains both.
_STORE_DIRS: list[str] = []
_MMAP_ENGINES: list[LPathEngine] = []


@lru_cache(maxsize=None)
def compiled_corpus_path(
    profile: str, factor: float = 1.0, segments: int = 1,
    sentences: int | None = None,
) -> str:
    """Save the (possibly scaled) benchmark corpus to an ``LPDB0004``
    file in a per-process temp dir; cached so the store-open benchmarks
    can reopen one file repeatedly.  ``sentences`` overrides the
    environment knob (benchmarks that need a floor-sized workload clamp
    it, like the structural-join A/B does)."""
    from ..store import save_corpus

    base = corpus(profile, sentences)
    trees = base if factor == 1.0 else replicate_corpus(list(base), factor)
    directory = tempfile.mkdtemp(prefix="repro-bench-store-")
    _STORE_DIRS.append(directory)
    path = os.path.join(directory, f"{profile}-{factor:g}x-{segments}seg.lpdb")
    save_corpus(list(trees), path, segments=segments)
    return path


@lru_cache(maxsize=None)
def mmap_engine(
    profile: str, factor: float = 1.0, segments: int = 1,
    workers: int | None = None, mode: str | None = None,
    sentences: int | None = None,
) -> LPathEngine:
    """An mmap-backed LPath engine over the compiled benchmark corpus
    (``mode`` as in :meth:`LPathEngine.from_store_mmap`: process fan-out
    by default when ``workers > 1``)."""
    path = compiled_corpus_path(profile, factor, segments,
                                sentences=sentences)
    engine = LPathEngine.from_store_mmap(path, workers=workers, mode=mode)
    _MMAP_ENGINES.append(engine)
    return engine


def clear_caches() -> None:
    """Drop all cached corpora/engines (tests use this to bound memory).

    Mmap engines are closed first — releasing their mappings, file
    descriptors and worker pools — and the compiled-store temp dirs are
    deleted, so clearing actually returns the resources instead of
    leaving them to whenever GC finalizes the evicted entries."""
    import shutil

    for engine in _MMAP_ENGINES:
        engine.close()
    _MMAP_ENGINES.clear()
    for directory in _STORE_DIRS:
        shutil.rmtree(directory, ignore_errors=True)
    _STORE_DIRS.clear()
    for cached in (corpus, scaled_corpus, lpath_engine, tgrep2_engine,
                   corpussearch_engine, xpath_engine, compiled_corpus_path,
                   mmap_engine):
        cached.cache_clear()
