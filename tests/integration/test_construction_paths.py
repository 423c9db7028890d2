"""Every way of building an engine ends in the same column stores.

An engine built from trees, one built from label rows and one opened
from a saved ``LPDB0004`` file must return identical rows *and* render
identical physical plans for every Figure 6(c) query, at one and at three
segments: the stores, their statistics and therefore every cost-based
choice are the same.  The XPath engine gets the same check between its
tree-built and mmap-opened forms (queries outside its fragment must fail
the same way on both).
"""

from __future__ import annotations

import pytest

from repro import store
from repro.bench.queries import QUERY_SET
from repro.corpus.generator import generate_corpus
from repro.labeling import label_corpus, xpath_scheme
from repro.lpath import LPathEngine
from repro.lpath.errors import LPathError
from repro.xpath import XPathEngine

SEGMENTS = (1, 3)


@pytest.fixture(scope="module")
def trees():
    return list(generate_corpus("wsj", sentences=80, seed=5))


def _saved(tmp_path_factory, name: str, rows, segments: int) -> str:
    path = str(tmp_path_factory.mktemp("stores") / name)
    with open(path, "wb") as handle:
        store.save_labels(rows, handle, segments=segments, format="lpdb0004")
    return path


@pytest.fixture(scope="module")
def lpath_engines(trees, tmp_path_factory):
    rows = list(label_corpus(trees))
    built = {}
    for segments in SEGMENTS:
        path = _saved(tmp_path_factory, f"lpath{segments}.lpdb", rows, segments)
        built[segments] = {
            "trees": LPathEngine(trees, segments=segments),
            "labels": LPathEngine.from_labels(rows, segments=segments),
            "open": LPathEngine.open(path),
        }
    yield built
    for engines in built.values():
        for engine in engines.values():
            engine.close()


@pytest.fixture(scope="module")
def xpath_engines(trees, tmp_path_factory):
    rows = list(xpath_scheme.label_corpus(trees))
    built = {}
    for segments in SEGMENTS:
        path = _saved(tmp_path_factory, f"xpath{segments}.lpdb", rows, segments)
        built[segments] = {
            "trees": XPathEngine(trees, segments=segments),
            "mmap": XPathEngine.from_store_mmap(path),
        }
    yield built
    for engines in built.values():
        for engine in engines.values():
            engine.close()


def _physical(explain: str) -> str:
    return explain[explain.index("physical plan"):]


def _outcome(engine, query: str):
    try:
        return engine.query(query), _physical(engine.explain(query))
    except LPathError as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("segments", SEGMENTS)
@pytest.mark.parametrize("query", QUERY_SET, ids=lambda q: f"Q{q.qid}")
def test_lpath_construction_paths_agree(lpath_engines, segments, query):
    engines = lpath_engines[segments]
    assert engines["open"].segments == segments
    rows, plan = _outcome(engines["trees"], query.lpath)
    assert rows == engines["trees"].query(query.lpath, backend="sqlite")
    for name in ("labels", "open"):
        assert _outcome(engines[name], query.lpath) == (rows, plan), name


@pytest.mark.parametrize("segments", SEGMENTS)
@pytest.mark.parametrize("query", QUERY_SET, ids=lambda q: f"Q{q.qid}")
def test_xpath_construction_paths_agree(xpath_engines, segments, query):
    engines = xpath_engines[segments]
    assert engines["mmap"].segments == segments
    expected = _outcome(engines["trees"], query.lpath)
    assert _outcome(engines["mmap"], query.lpath) == expected
    if query.xpath:
        assert isinstance(expected[0], list)
