"""Seeded inputs: corpora, query orders, the exploration pool, append batches.

Everything here is a pure function of the workload seed, so the same seed
gives byte-identical inputs (``run.py`` prints their digests) and another
seed gives different inputs with the same shape.  The program under test
only ever sees what these functions produce.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
from collections import Counter

from repro.bench.queries import QUERY_SET
from repro.corpus.generator import generate_corpus
from repro.corpus.stats import tag_frequencies
from repro.lpath.parser import parse
from repro.tree.bracket import write_trees

PROFILE = "wsj"
FIG6C_TREES = 5_000      # ~128k label rows, the fig6c-engine/serve-explore store
LIVE_BASE_TREES = 2_000  # live-ingest base, 2 segments
ADHOC_TREES = 1_000      # adhoc-treebank bracketed text
APPEND_POOL_TREES = 1_200
APPEND_BATCH_TREES = 4
POOL_TAGS = 25
POOL_PER_TEMPLATE = 50   # 8 templates x 50 -> 400 distinct exploration queries
RARE_WORDS = 60
ZIPF_S = 1.1

#: Exploration templates over frequent tags (a, b) and rare words (w): the
#: LPath axes and constructs a linguist combines when exploring a corpus.
TEMPLATES = (
    "//{a}/{b}",
    "//{a}//{b}",
    "//{a}->{b}",
    "//{a}=>{b}",
    "//{a}{{//{b}$}}",
    "//{a}[//{b}]",
    "//{a}[not(//{b})]",
    "//{a}[//_[@lex={w}]]",
)

_TAG = re.compile(r"^[A-Z][A-Z0-9]*(-[A-Z0-9]+)*$")
_WORD = re.compile(r"^[a-z]+$")


def derive(seed: int, label: str) -> int:
    """An independent sub-seed for one input stream of a workload."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def corpus(seed: int, label: str, trees: int) -> list:
    return generate_corpus(PROFILE, trees, seed=derive(seed, label))


def bracketed(trees) -> str:
    """One tree per line, as ``repro.tree.bracket`` reads it back."""
    buffer = io.StringIO()
    write_trees(trees, buffer, wrap=False)
    return buffer.getvalue()


def fig6c_order(seed: int) -> list:
    """The 23 Figure 6(c) queries in a seeded order, as (qid, lpath)."""
    order = [(query.qid, query.lpath) for query in QUERY_SET]
    random.Random(derive(seed, "fig6c-order")).shuffle(order)
    return order


def exploration_pool(seed: int, trees) -> list:
    """~400 distinct queries over the corpus' own frequent tags and rare
    words, ordered by Zipf rank (index 0 is the most requested).

    Each template uses each of the ``POOL_TAGS`` most frequent tags the
    same number of times as the tag it returns and as the other tag; the
    seed pairs them, picks the words and shuffles the pool into its rank
    order, so which queries are hot is drawn with the seed."""
    frequencies = tag_frequencies(trees)
    tags = [
        tag for tag, _ in frequencies.most_common() if _TAG.match(tag)
    ][:POOL_TAGS]
    words = corpus_words(trees)
    rare = sorted(words, key=lambda word: (words[word], word))[:RARE_WORDS]
    rng = random.Random(derive(seed, "pool"))
    pool: list = []
    seen: set = set()
    repeats = POOL_PER_TEMPLATE // len(tags)
    for template in TEMPLATES:
        returns_first = "[" in template
        others = tags * repeats
        rng.shuffle(others)
        for returned, other in zip(tags * repeats, others):
            while True:
                a, b = (returned, other) if returns_first else (other, returned)
                query = template.format(a=a, b=b, w=rng.choice(rare))
                if query not in seen:
                    break
                other = rng.choice(tags)
            parse(query)  # a malformed pool query would be a benchmark bug
            seen.add(query)
            pool.append(query)
    rng.shuffle(pool)
    return pool


def zipf_weights(n: int) -> list:
    """Cumulative Zipf(ZIPF_S) weights over ranks 1..n."""
    total = 0.0
    cumulative = []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** ZIPF_S
        cumulative.append(total)
    return cumulative


def corpus_words(trees) -> Counter:
    """How often each queryable word occurs (``//_[@lex=w]`` counts)."""
    return Counter(
        word for tree in trees for word in tree.words()
        if word and _WORD.match(word)
    )


def append_batches(seed: int) -> list:
    """Bracketed append batches with their node counts, their words and
    the word the writer reads back after appending the batch."""
    trees = corpus(seed, "append", APPEND_POOL_TREES)
    batches = []
    for start in range(0, len(trees), APPEND_BATCH_TREES):
        chunk = trees[start:start + APPEND_BATCH_TREES]
        text = bracketed(chunk)
        words = corpus_words(chunk)
        batches.append({
            "text": text,
            "bytes": len(text.encode("utf-8")),
            "nodes": sum(len(tree) for tree in chunk),
            "words": words,
            "probe": min(words, key=lambda word: (words[word], word)),
        })
    return batches
