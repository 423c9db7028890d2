"""Tests for compiled-corpus storage and the from_labels engine path."""

import io

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.labeling import label_corpus
from repro.lpath import LPathEngine, LPathError
from repro.tree import figure1_tree
from tests.legacy_stores import (
    LEGACY_SEGMENTS,
    legacy_bytes,
    legacy_path,
    legacy_trees,
)
from tests.strategies import corpora


def round_trip(rows):
    buffer = io.BytesIO()
    store.save_labels(rows, buffer)
    buffer.seek(0)
    return store.load_labels(buffer)


class TestFormat:
    def test_round_trip_figure1(self):
        rows = list(label_corpus([figure1_tree()]))
        assert sorted(round_trip(rows)) == sorted(rows)

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, trees):
        rows = list(label_corpus(trees))
        assert sorted(round_trip(rows)) == sorted(rows)

    def test_empty_corpus(self):
        assert round_trip([]) == []

    def test_magic_checked(self):
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(b"NOTLPDB!rest"))

    def test_truncation_detected(self):
        rows = list(label_corpus([figure1_tree()]))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer)
        data = buffer.getvalue()
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(data[:-3]))

    def test_trailing_garbage_detected(self):
        rows = list(label_corpus([figure1_tree()]))
        buffer = io.BytesIO()
        store.save_labels(rows, buffer)
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(buffer.getvalue() + b"\x00"))

    def test_row_payload_interning_compresses(self):
        # The row payload the live WAL frames carry interns names/values.
        trees = [figure1_tree(tid=i) for i in range(20)]
        rows = list(label_corpus(trees))
        blob, count = store._encode_payload(rows)
        assert count == len(rows)
        # Far smaller than a naive text dump of the rows.
        assert len(blob) < len(repr(rows)) / 4

    def test_file_helpers(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        count = store.save_corpus([figure1_tree()], str(path))
        assert count == 25
        assert store.is_compiled_corpus(str(path))
        assert store.corpus_format(str(path)) == "LPDB0004"
        assert not store.is_compiled_corpus(str(tmp_path / "missing"))
        rows = store.load_corpus_labels(str(path))
        assert len(rows) == 25


#: Queries every legacy-fixture path must answer like the tree walker.
FIXTURE_QUERIES = (
    "//NP", "//V->NP", "//VP{//NP$}", "//S[//_[@lex=saw]]", "//NP$",
    "//V=>NP",
)


@pytest.mark.parametrize("revision", sorted(LEGACY_SEGMENTS))
class TestLegacyFixtures:
    """The committed LPDB0001-0003 files: every reader, the info and
    fingerprint surfaces and ``upgrade_corpus`` agree with the tree-walk
    oracle over the corpus the fixtures were written from."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return LPathEngine(legacy_trees())

    def test_magic_and_rows(self, revision):
        path = legacy_path(revision)
        assert store.corpus_format(path) == revision
        assert store.is_compiled_corpus(path)
        assert store.corpus_segment_count(path) == LEGACY_SEGMENTS[revision]
        expected = sorted(label_corpus(legacy_trees()))
        assert sorted(store.load_corpus_labels(path)) == expected

    def test_open_matches_treewalk(self, revision, oracle):
        with LPathEngine.open(legacy_path(revision), workers=2) as engine:
            assert engine.segments == LEGACY_SEGMENTS[revision]
            for query in FIXTURE_QUERIES:
                expected = oracle.query(query, backend="treewalk")
                assert engine.query(query) == expected, query
                assert engine.query(query, backend="sqlite") == expected, query

    def test_process_mode_needs_lpdb0004(self, revision):
        with pytest.raises(LPathError, match="store upgrade"):
            LPathEngine.open(legacy_path(revision), workers=2,
                             mode="process")

    def test_upgrade_keeps_rows_segments_and_answers(self, revision,
                                                     oracle, tmp_path):
        path = legacy_path(revision)
        upgraded = str(tmp_path / "upgraded.lpdb")
        assert store.upgrade_corpus(path, upgraded) == 75
        assert store.corpus_format(upgraded) == "LPDB0004"
        assert store.corpus_segment_count(upgraded) == (
            LEGACY_SEGMENTS[revision]
        )
        assert sorted(store.load_corpus_labels(upgraded)) == sorted(
            store.load_corpus_labels(path)
        )
        with LPathEngine.open(upgraded) as engine:
            assert engine._mapped is not None  # adopted zero-copy
            for query in FIXTURE_QUERIES:
                assert engine.query(query) == oracle.query(
                    query, backend="treewalk"
                ), query

    def test_info_matches_the_upgraded_file(self, revision, tmp_path):
        path = legacy_path(revision)
        upgraded = str(tmp_path / "upgraded.lpdb")
        store.upgrade_corpus(path, upgraded)
        legacy_info = store.corpus_info(path, top=50)
        info = store.corpus_info(upgraded, top=50)
        assert legacy_info["format"] == revision
        assert legacy_info["segments"] == LEGACY_SEGMENTS[revision]
        assert legacy_info["rows"] == 75
        assert legacy_info["trees"] == 3
        for key in ("segments", "rows", "trees", "distinct_names",
                    "top_names"):
            assert legacy_info[key] == info[key], key

    def test_fingerprint_names_the_revision(self, revision, tmp_path):
        path = legacy_path(revision)
        fingerprint = store.store_fingerprint(path)
        assert fingerprint.startswith(f"{revision.lower()}-")
        copy = tmp_path / "copy.lpdb"
        copy.write_bytes(legacy_bytes(revision))
        assert store.store_fingerprint(str(copy)) == fingerprint


class TestUpgrade:
    def test_in_place_upgrade(self, tmp_path):
        path = tmp_path / "old.lpdb"
        path.write_bytes(legacy_bytes("LPDB0003"))
        store.upgrade_corpus(str(path), str(path))
        assert store.corpus_format(str(path)) == "LPDB0004"
        assert store.corpus_segment_count(str(path)) == 2

    def test_rejects_live_directories(self, tmp_path):
        live_dir = str(tmp_path / "live")
        store.save_corpus([figure1_tree()], live_dir, format="lpdb0005")
        with pytest.raises(store.StoreError, match="live"):
            store.upgrade_corpus(live_dir, str(tmp_path / "out.lpdb"))
        assert not (tmp_path / "out.lpdb").exists()

    def test_corrupt_input_writes_nothing(self, tmp_path):
        broken = tmp_path / "broken.lpdb"
        broken.write_bytes(legacy_bytes("LPDB0002")[:-5])
        with pytest.raises(store.StoreError):
            store.upgrade_corpus(str(broken), str(tmp_path / "out.lpdb"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.lpdb"]


class TestSegmentedFormat:
    """The LPDB0003 manifest + per-segment block layout (read-only; the
    committed fixture holds tids {0, 2} and {1}), and the tid deal every
    segmented writer uses."""

    @pytest.fixture(scope="class")
    def blob(self):
        return legacy_bytes("LPDB0003")

    def trees(self, count=5):
        return [figure1_tree(tid=tid) for tid in range(count)]

    def test_load_concatenates_shards(self, blob):
        assert blob.startswith(store.SEGMENTED_MAGIC)
        rows = store.load_labels(io.BytesIO(blob))
        # Same multiset of rows; shard-major order.
        assert sorted(rows) == sorted(label_corpus(legacy_trees()))
        tids = [row.tid for row in rows]
        assert set(tids[:50]) == {0, 2} and set(tids[50:]) == {1}

    def test_single_store_formats_are_one_segment(self):
        for revision in ("LPDB0001", "LPDB0002"):
            assert store.corpus_segment_count(legacy_path(revision)) == 1

    def test_partition_rows_deterministic_and_whole_trees(self):
        rows = list(label_corpus(self.trees(7)))
        shards = store.partition_rows_by_tid(rows, 3)
        again = store.partition_rows_by_tid(rows, 3)
        assert shards == again
        seen = set()
        for shard in shards:
            tids = {row.tid for row in shard}
            assert not tids & seen
            seen |= tids
        assert seen == set(range(7))

    def test_partition_rejects_bad_counts(self):
        with pytest.raises(store.StoreError):
            store.partition_rows_by_tid([], 0)

    def test_truncation_and_bit_flips_detected(self, blob):
        for cut in range(0, len(blob), 7):
            with pytest.raises(store.StoreError):
                store.load_labels(io.BytesIO(blob[:cut]))
        for position in range(0, len(blob), 11):
            corrupt = bytearray(blob)
            corrupt[position] ^= 0x10
            with pytest.raises(store.StoreError):
                store.load_labels(io.BytesIO(bytes(corrupt)))

    def test_trailing_garbage_detected(self, blob):
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(blob + b"\x00"))


def mmap_bytes(rows, segments=1) -> bytes:
    buffer = io.BytesIO()
    store.save_labels(rows, buffer, segments=segments, format="lpdb0004")
    return buffer.getvalue()


def rebuild_mmap_file(blob: bytes, mutate) -> bytes:
    """Reassemble an LPDB0004 file with a sidecar edited by ``mutate``
    (CRC recomputed, data region kept) — how the corruption tests craft
    *precisely* broken files that still pass the checksum."""
    import zlib

    sidecar_length, offset = store._read_varint(blob, len(store.MMAP_MAGIC))
    _crc, offset = store._read_varint(blob, offset)
    header = store._parse_mmap_sidecar(blob[offset:offset + sidecar_length])
    region = blob[store._align8(offset + sidecar_length):]
    mutate(header)
    sidecar = store._encode_mmap_sidecar(header)
    head = io.BytesIO()
    store._write_varint(head, len(sidecar))
    store._write_varint(head, zlib.crc32(sidecar))
    prefix = store.MMAP_MAGIC + head.getvalue() + sidecar
    padding = b"\x00" * (store._align8(len(prefix)) - len(prefix))
    return prefix + padding + region


class TestMmapFormat:
    """The LPDB0004 zero-copy layout: sidecar + aligned raw columns."""

    def trees(self, count=5):
        return [figure1_tree(tid=tid) for tid in range(count)]

    def test_round_trip_clustered_order(self):
        rows = list(label_corpus(self.trees()))
        data = mmap_bytes(rows, segments=2)
        assert data.startswith(store.MMAP_MAGIC)
        # Rows come back in clustered (not insertion) order.
        assert sorted(store.load_labels(io.BytesIO(data))) == sorted(rows)

    def test_segments_partition_by_tid(self, tmp_path):
        rows = list(label_corpus(self.trees()))
        path = tmp_path / "corpus.lpdb"
        path.write_bytes(mmap_bytes(rows, segments=3))
        with store.open_mapped_corpus(str(path)) as corpus:
            shards = [set(segment.tid) for segment in corpus.segments]
            assert sum(segment.n for segment in corpus.segments) == len(rows)
        assert shards == [{0, 3}, {1, 4}, {2}]

    def test_empty_corpus_and_empty_segments(self, tmp_path):
        assert store.load_labels(io.BytesIO(mmap_bytes([]))) == []
        rows = list(label_corpus([figure1_tree()]))
        path = tmp_path / "corpus.lpdb"
        path.write_bytes(mmap_bytes(rows, segments=3))
        with store.open_mapped_corpus(str(path)) as corpus:
            sizes = [segment.n for segment in corpus.segments]
        assert sizes == [len(rows), 0, 0]

    def test_file_helpers(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        store.save_corpus(self.trees(), str(path), segments=3,
                          format="lpdb0004")
        assert store.is_compiled_corpus(str(path))
        assert store.corpus_format(str(path)) == "LPDB0004"
        assert store.corpus_segment_count(str(path)) == 3

    def test_info_reads_only_the_sidecar(self, tmp_path):
        path = tmp_path / "corpus.lpdb"
        store.save_corpus(self.trees(), str(path), segments=2,
                          format="lpdb0004")
        info = store.corpus_info(str(path), top=3)
        assert info["format"] == "LPDB0004"
        assert info["segments"] == 2
        assert info["rows"] == 125
        assert info["trees"] == 5
        assert len(info["top_names"]) == 3
        name, stats = info["top_names"][0]
        assert stats[0] >= info["top_names"][1][1][0]

    def test_legacy_formats_are_read_only(self, tmp_path):
        for revision in ("lpdb0001", "lpdb0002", "lpdb0003"):
            with pytest.raises(store.StoreError, match="read-only"):
                store.save_labels([], io.BytesIO(), format=revision)
            with pytest.raises(store.StoreError, match="read-only"):
                store.save_corpus([figure1_tree()],
                                  str(tmp_path / "x.lpdb"), format=revision)
        assert not (tmp_path / "x.lpdb").exists()
        with pytest.raises(TypeError):
            store.save_labels([], io.BytesIO(), checksum=False)
        assert store.save_labels([], io.BytesIO(), format="LPDB0004") == 0

    def test_unknown_format_rejected(self):
        with pytest.raises(store.StoreError, match="unknown store format"):
            store.save_labels([], io.BytesIO(), format="lpdb9999")


class TestMmapCorruption:
    """LPDB0004 failure modes: truncation anywhere, sidecar bit flips,
    and misaligned/overrunning blob offsets all raise StoreError."""

    @pytest.fixture(scope="class")
    def blob(self):
        rows = list(label_corpus([figure1_tree(tid=t) for t in range(3)]))
        return mmap_bytes(rows, segments=2)

    def test_every_truncation_detected(self, blob):
        # Includes every cut *mid-column* in the data region: the file
        # size no longer matches the declared region length.
        for cut in range(0, len(blob), 17):
            with pytest.raises(store.StoreError):
                store.load_labels(io.BytesIO(blob[:cut]))

    def test_mapped_open_detects_truncation(self, blob, tmp_path):
        path = tmp_path / "cut.lpdb"
        path.write_bytes(blob[:len(blob) - len(blob) // 3])  # mid-column
        with pytest.raises(store.StoreError, match="size mismatch"):
            store.open_mapped_corpus(str(path))

    def test_trailing_garbage_detected(self, blob):
        with pytest.raises(store.StoreError, match="size mismatch"):
            store.load_labels(io.BytesIO(blob + b"\x00"))

    def test_sidecar_bit_flips_detected(self, blob):
        sidecar_length, offset = store._read_varint(
            blob, len(store.MMAP_MAGIC)
        )
        _crc, offset = store._read_varint(blob, offset)
        for position in range(offset, offset + sidecar_length, 5):
            corrupt = bytearray(blob)
            corrupt[position] ^= 0x20
            with pytest.raises(store.StoreError):
                store.load_labels(io.BytesIO(bytes(corrupt)))

    def test_crc_mismatch_is_loud(self, blob):
        sidecar_length, offset = store._read_varint(
            blob, len(store.MMAP_MAGIC)
        )
        _crc, offset = store._read_varint(blob, offset)
        corrupt = bytearray(blob)
        corrupt[offset + sidecar_length // 2] ^= 0xFF
        with pytest.raises(store.StoreError, match="sidecar is corrupt"):
            store.load_labels(io.BytesIO(bytes(corrupt)))

    def test_misaligned_blob_offset_detected(self, blob, tmp_path):
        def misalign(header):
            meta = header.segments[0]
            offset, length = meta.blobs[1]
            meta.blobs[1] = (offset + 4, length)

        broken = rebuild_mmap_file(blob, misalign)
        with pytest.raises(store.StoreError, match="misaligned"):
            store.load_labels(io.BytesIO(broken))
        path = tmp_path / "misaligned.lpdb"
        path.write_bytes(broken)
        with pytest.raises(store.StoreError, match="misaligned"):
            store.open_mapped_corpus(str(path))

    def test_blob_length_mismatch_detected(self, blob):
        def shrink(header):
            meta = header.segments[0]
            offset, length = meta.blobs[0]
            meta.blobs[0] = (offset, length - 8)

        with pytest.raises(store.StoreError, match="declares"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, shrink)))

    def test_blob_overrun_detected(self, blob):
        def overrun(header):
            meta = header.segments[-1]
            _offset, length = meta.blobs[-1]
            meta.blobs[-1] = (store._align8(header.data_length), length)

        with pytest.raises(store.StoreError, match="overruns"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, overrun)))

    def test_bad_string_reference_detected(self, blob):
        def poison(header):
            meta = header.segments[0]
            sid, row_hi, part_hi, max_part, min_d, max_d = meta.names[0]
            meta.names[0] = (len(meta.strings) + 7, row_hi, part_hi,
                             max_part, min_d, max_d)

        with pytest.raises(store.StoreError, match="string id"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, poison)))

    def test_foreign_byteorder_rejected(self, blob):
        import sys

        def flip(header):
            header.byteorder = "big" if sys.byteorder == "little" else "little"

        with pytest.raises(store.StoreError, match="byte order"):
            store.load_labels(io.BytesIO(rebuild_mmap_file(blob, flip)))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.lpdb"
        path.write_bytes(b"")
        with pytest.raises(store.StoreError):
            store.open_mapped_corpus(str(path))
        path.write_bytes(b"NOTLPDB!")
        with pytest.raises(store.StoreError, match="magic"):
            store.open_mapped_corpus(str(path))

    def test_mapped_corpus_close_invalidates_views(self, blob, tmp_path):
        path = tmp_path / "ok.lpdb"
        path.write_bytes(blob)
        corpus = store.open_mapped_corpus(str(path))
        segment = corpus.segments[0]
        left = segment.left
        assert left[0] >= 0
        corpus.close()
        corpus.close()  # idempotent
        with pytest.raises(ValueError):
            left[0]


class TestCorruptionDetection:
    """Truncation and bit corruption of the committed LPDB0002 fixture
    raise StoreError — never garbage."""

    @pytest.fixture(scope="class")
    def blob(self):
        return legacy_bytes("LPDB0002")

    def test_every_truncation_detected(self, blob):
        for cut in range(len(blob)):
            with pytest.raises(store.StoreError):
                store.load_labels(io.BytesIO(blob[:cut]))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_bit_flips_detected(self, blob, data):
        position = data.draw(st.integers(0, len(blob) - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        corrupt = bytearray(blob)
        corrupt[position] ^= 1 << bit
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(bytes(corrupt)))

    def test_trailing_garbage_detected(self, blob):
        with pytest.raises(store.StoreError):
            store.load_labels(io.BytesIO(blob + b"\x00"))

    def test_checksum_message_is_loud(self, blob):
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF
        with pytest.raises(store.StoreError, match="mismatch"):
            store.load_labels(io.BytesIO(bytes(corrupt)))


class TestEngineFromLabels:
    def test_queries_match_tree_built_engine(self):
        trees = [figure1_tree()]
        rows = list(label_corpus(trees))
        from_trees = LPathEngine(trees)
        from_rows = LPathEngine.from_labels(rows)
        for query in ("//NP", "//V->NP", "//VP{//NP$}", "//S[//_[@lex=saw]]"):
            assert from_rows.query(query) == from_trees.query(query)

    def test_sqlite_backend_works(self):
        rows = list(label_corpus([figure1_tree()]))
        engine = LPathEngine.from_labels(rows)
        assert engine.query("//NP", backend="sqlite") == engine.query("//NP")

    def test_tree_features_unavailable(self):
        rows = list(label_corpus([figure1_tree()]))
        engine = LPathEngine.from_labels(rows)
        with pytest.raises(LPathError):
            engine.nodes("//NP")
        with pytest.raises(LPathError):
            engine.treewalk

    def test_rejects_executor_option(self):
        rows = list(label_corpus([figure1_tree()]))
        with pytest.raises(TypeError):
            LPathEngine.from_labels(rows, executor="columnar")
        engine = LPathEngine.from_labels(rows)
        with pytest.raises(TypeError):
            engine.query("//NP", executor="columnar")

    def test_root_alignment_still_works(self):
        """from_labels must reconstruct the root_right map for `$`."""
        rows = list(label_corpus([figure1_tree()]))
        engine = LPathEngine.from_labels(rows)
        assert engine.count("//NP$") == 1


class TestCLIIntegration:
    def test_compile_and_query(self, tmp_path):
        from repro.cli import main

        mrg = tmp_path / "c.mrg"
        lpdb = tmp_path / "c.lpdb"
        out = io.StringIO()
        assert main(["generate", "--sentences", "30", "--seed", "4",
                     "-o", str(mrg)], out=out) == 0
        assert main(["compile", str(mrg), "-o", str(lpdb)], out=out) == 0

        direct, compiled = io.StringIO(), io.StringIO()
        assert main(["query", str(mrg), "//NP", "--count"], out=direct) == 0
        assert main(["query", str(lpdb), "//NP", "--count"], out=compiled) == 0
        assert direct.getvalue() == compiled.getvalue()

    def test_compiled_corpus_rejects_tree_engines(self, tmp_path):
        from repro.cli import main

        lpdb = tmp_path / "c.lpdb"
        store.save_corpus([figure1_tree()], str(lpdb))
        assert main(["query", str(lpdb), "NP < Det", "--engine", "tgrep2"],
                    out=io.StringIO()) == 1


class TestStoreFingerprint:
    """The content-derived store identity keying the serving layer's
    result cache: equal for byte-identical copies, different whenever
    the bytes that back query answers change."""

    def _store(self, path, count=6, segments=2):
        trees = [figure1_tree(tid=tid) for tid in range(count)]
        store.save_corpus(trees, str(path), segments=segments)
        return str(path)

    def test_shape_names_the_revision(self, tmp_path):
        fingerprint = store.store_fingerprint(
            self._store(tmp_path / "a.lpdb")
        )
        revision, size, digest = fingerprint.split("-")
        assert revision == "lpdb0004"
        assert int(size) > 0
        assert len(digest) == 8

    def test_identical_copies_share_identity(self, tmp_path):
        a = self._store(tmp_path / "a.lpdb")
        b = tmp_path / "b.lpdb"
        b.write_bytes(open(a, "rb").read())
        assert store.store_fingerprint(a) == store.store_fingerprint(str(b))

    def test_different_corpora_differ(self, tmp_path):
        a = self._store(tmp_path / "a.lpdb", count=6)
        b = self._store(tmp_path / "b.lpdb", count=7)
        assert store.store_fingerprint(a) != store.store_fingerprint(b)

    def test_same_size_edit_changes_identity(self, tmp_path):
        a = self._store(tmp_path / "a.lpdb")
        original = store.store_fingerprint(a)
        raw = bytearray(open(a, "rb").read())
        raw[len(raw) // 2] ^= 0xFF  # flip bits, keep the size
        edited = tmp_path / "edited.lpdb"
        edited.write_bytes(bytes(raw))
        assert store.store_fingerprint(str(edited)) != original

    def test_tail_edit_changes_identity(self, tmp_path):
        # The digest samples head AND tail, so appended/late corruption
        # still renames the store even past the head window.
        a = self._store(tmp_path / "a.lpdb")
        original = store.store_fingerprint(a)
        raw = bytearray(open(a, "rb").read())
        raw[-3] ^= 0xFF
        edited = tmp_path / "edited.lpdb"
        edited.write_bytes(bytes(raw))
        assert store.store_fingerprint(str(edited)) != original

    def test_older_revisions_fingerprint_too(self):
        fingerprint = store.store_fingerprint(legacy_path("LPDB0003"))
        assert fingerprint.startswith("lpdb0003-")

    def test_non_store_file_raises(self, tmp_path):
        bogus = tmp_path / "not_a_store.mrg"
        bogus.write_text("( (S (NP (DT a))))\n")
        with pytest.raises(store.StoreError):
            store.store_fingerprint(str(bogus))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            store.store_fingerprint(str(tmp_path / "gone.lpdb"))
