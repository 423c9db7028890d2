"""The committed LPDB0001-0003 store fixtures (see
``tests/data/legacy/README.md``): files of the revisions the library
still reads but no longer writes."""

from __future__ import annotations

import os

from repro.tree import figure1_tree

LEGACY_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "legacy"
)
#: Each fixture's revision and its on-disk segment count.
LEGACY_SEGMENTS = {"LPDB0001": 1, "LPDB0002": 1, "LPDB0003": 2}


def legacy_path(revision: str) -> str:
    return os.path.join(LEGACY_DIR, f"{revision.lower()}.lpdb")


def legacy_bytes(revision: str) -> bytes:
    with open(legacy_path(revision), "rb") as handle:
        return handle.read()


def legacy_trees() -> list:
    """The corpus every fixture holds: three copies of the Figure 1 tree."""
    return [figure1_tree(tid=tid) for tid in range(3)]
