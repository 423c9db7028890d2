"""Unit coverage for the LPDB0005 live-corpus subsystem: durable
appends, torn-tail recovery, the writer lock, restartable compaction,
atomic file saves, and the crash-oriented fault points at probability
1.0 (every call fires — the subprocess kill matrix lives in
``tests/integration/test_crash_matrix.py``)."""

from __future__ import annotations

import os

import pytest

from repro import live, store
from repro.corpus import generate_corpus
from repro.labeling.lpath_scheme import label_corpus
from repro.live import LiveCorpus, LiveEngineManager
from repro.store import StoreError
from repro.tree.bracket import iter_trees

TEXT = "(S (NP (N dog)) (VP (V ran)))"
MORE = "(S (NP (N cat)) (VP (V sat) (NP (N mat))))"


def rows_for(text: str, start_tid: int = 0):
    return list(label_corpus(iter_trees(text, start_tid=start_tid)))


@pytest.fixture()
def corpus_dir(tmp_path) -> str:
    path = str(tmp_path / "live.lpdb")
    live.create_live_corpus(path, rows_for(TEXT * 3), segments=2)
    return path


def sorted_rows(rows):
    return sorted(tuple(row) for row in rows)


class TestCreateAndOpen:
    def test_round_trip_through_store_api(self, tmp_path):
        path = str(tmp_path / "corpus.lpdb")
        trees = list(iter_trees(TEXT * 2))
        count = store.save_corpus(trees, path, format="lpdb0005")
        assert count == len(rows_for(TEXT * 2))
        assert os.path.isdir(path)
        assert store.corpus_format(path) == "LPDB0005"
        assert store.is_compiled_corpus(path)
        assert sorted_rows(store.load_corpus_labels(path)) == sorted_rows(
            rows_for(TEXT * 2)
        )

    def test_empty_corpus_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.lpdb")
        live.create_live_corpus(path, [])
        assert store.load_corpus_labels(path) == []
        engine = live.open_live_engine(path)
        try:
            assert engine.query("//NP") == []
        finally:
            engine.close()

    def test_rejected_segment_count_leaves_no_directory(self, tmp_path):
        # A bad segment count is refused before anything touches disk, so
        # the corrected retry is not blocked by a half-made directory.
        path = str(tmp_path / "z5")
        trees = list(iter_trees(TEXT * 2))
        with pytest.raises(StoreError, match="segment count"):
            store.save_corpus(trees, path, format="lpdb0005", segments=0)
        assert not os.path.exists(path)
        store.save_corpus(trees, path, format="lpdb0005", segments=2)
        assert store.corpus_info(path)["rows"] == len(rows_for(TEXT * 2))

    def test_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "keep.txt").write_text("not yours")
        with pytest.raises(StoreError, match="non-empty directory"):
            live.create_live_corpus(str(tmp_path), rows_for(TEXT))

    def test_recreate_over_live_corpus_bumps_generation(self, corpus_dir):
        live.create_live_corpus(corpus_dir, rows_for(MORE))
        info = store.corpus_info(corpus_dir)
        assert info["generation"] == 2
        assert sorted_rows(store.load_corpus_labels(corpus_dir)) == (
            sorted_rows(rows_for(MORE))
        )

    def test_open_missing_manifest(self, tmp_path):
        os.makedirs(tmp_path / "bare")
        with pytest.raises(StoreError, match="MANIFEST"):
            LiveCorpus(str(tmp_path / "bare"))

    def test_fingerprint_copy_stable(self, corpus_dir, tmp_path):
        import shutil

        clone = str(tmp_path / "clone.lpdb")
        shutil.copytree(corpus_dir, clone)
        assert store.store_fingerprint(clone) == store.store_fingerprint(
            corpus_dir
        )


class TestAppend:
    def test_append_is_visible_after_reopen(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            ack = corpus.append_trees(MORE)
        assert ack["trees"] == 1
        info = store.corpus_info(corpus_dir)
        assert info["delta_rows"] == ack["rows"]
        assert info["wal_records"] == 1
        total = sorted_rows(store.load_corpus_labels(corpus_dir))
        assert len(total) == info["rows"]

    def test_append_changes_fingerprint(self, corpus_dir):
        before = store.store_fingerprint(corpus_dir)
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
            assert corpus.fingerprint != before
        assert store.store_fingerprint(corpus_dir) != before

    def test_append_assigns_fresh_tids(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            first = corpus.append_trees(MORE)
            second = corpus.append_trees(TEXT)
        assert second["first_tid"] == first["next_tid"]

    def test_append_rows_rejects_overlapping_tids(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            with pytest.raises(StoreError, match="next_tid"):
                corpus.append_rows(rows_for(TEXT))  # tids restart at 0

    def test_append_rejects_empty(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            with pytest.raises(StoreError, match="no trees"):
                corpus.append_trees("   ")
            with pytest.raises(StoreError, match="at least one row"):
                corpus.append_rows([])

    def test_read_only_open_cannot_append(self, corpus_dir):
        with LiveCorpus(corpus_dir, writable=False) as corpus:
            with pytest.raises(StoreError, match="read-only"):
                corpus.append_trees(MORE)

    def test_read_only_open_takes_no_lock(self, corpus_dir):
        with LiveCorpus(corpus_dir, writable=False):
            assert not os.path.exists(os.path.join(corpus_dir, "LOCK"))


class TestWriterLock:
    def test_second_writer_gets_clean_error(self, corpus_dir):
        with LiveCorpus(corpus_dir):
            with pytest.raises(StoreError, match="locked by pid"):
                LiveCorpus(corpus_dir)

    def test_stale_lock_reclaimed(self, corpus_dir):
        # A pid that cannot exist: the kernel's pid_max ceiling is 2^22.
        with open(os.path.join(corpus_dir, "LOCK"), "w") as handle:
            handle.write("4999999\n")
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)

    def test_garbage_lock_reclaimed(self, corpus_dir):
        with open(os.path.join(corpus_dir, "LOCK"), "w") as handle:
            handle.write("not-a-pid")
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)

    def test_lock_released_on_close(self, corpus_dir):
        LiveCorpus(corpus_dir).close()
        assert not os.path.exists(os.path.join(corpus_dir, "LOCK"))


class TestRecovery:
    def append_then_tear(self, corpus_dir, torn_bytes: bytes) -> int:
        """Append one acknowledged batch, then fake a crash mid-write by
        hand-appending garbage to the WAL."""
        with LiveCorpus(corpus_dir) as corpus:
            acked = corpus.append_trees(MORE)["rows"]
            wal_path = corpus.wal_path
        with open(wal_path, "ab") as handle:
            handle.write(torn_bytes)
        return acked

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x03",                          # torn frame header
            b"\xff\xff\xff\x7f\x00\x00\x00\x00",  # length beyond EOF
            b"\x04\x00\x00\x00\x99\x99\x99\x99junk",  # bad CRC
        ],
        ids=["torn-header", "overlong", "bad-crc"],
    )
    def test_torn_tail_truncated_acked_rows_survive(self, corpus_dir, tail):
        acked = self.append_then_tear(corpus_dir, tail)
        with LiveCorpus(corpus_dir) as corpus:
            assert len(corpus.snapshot()[1]) == acked
            assert "truncated" in corpus.manifest.last_recovery
        # Recovery is level-triggered: a second clean open keeps the
        # recovery note but does not re-recover.
        info = store.corpus_info(corpus_dir)
        assert info["wal_torn_bytes"] == 0

    def test_read_only_open_ignores_torn_tail(self, corpus_dir):
        acked = self.append_then_tear(corpus_dir, b"\x01\x02\x03")
        with LiveCorpus(corpus_dir, writable=False) as corpus:
            assert len(corpus.snapshot()[1]) == acked
        info = store.corpus_info(corpus_dir)
        assert info["wal_torn_bytes"] == 3  # still on disk

    def test_orphan_files_collected(self, corpus_dir):
        for orphan in ("seg-99999999.lpdb", "wal-99999999.log",
                       "tmp-manifest-9-123"):
            with open(os.path.join(corpus_dir, orphan), "wb") as handle:
                handle.write(b"garbage")
        with LiveCorpus(corpus_dir) as corpus:
            recovery = corpus.manifest.last_recovery
        assert "seg-99999999.lpdb" in recovery
        assert not os.path.exists(
            os.path.join(corpus_dir, "wal-99999999.log")
        )

    def test_foreign_files_left_alone(self, corpus_dir):
        foreign = os.path.join(corpus_dir, "NOTES.txt")
        with open(foreign, "w") as handle:
            handle.write("operator breadcrumbs")
        with LiveCorpus(corpus_dir):
            pass
        assert os.path.exists(foreign)

    def test_recovery_bumps_generation(self, corpus_dir):
        before = store.corpus_info(corpus_dir)["generation"]
        self.append_then_tear(corpus_dir, b"\xde\xad")
        LiveCorpus(corpus_dir).close()
        assert store.corpus_info(corpus_dir)["generation"] == before + 1


class TestFaultPoints:
    def test_fsync_fail_rolls_back(self, corpus_dir, monkeypatch):
        with LiveCorpus(corpus_dir) as corpus:
            size_before = corpus._wal_size
            monkeypatch.setenv("REPRO_FAULTS", "fsync_fail:1.0:1")
            with pytest.raises(StoreError, match="NOT acknowledged"):
                corpus.append_trees(MORE)
            monkeypatch.delenv("REPRO_FAULTS")
            # Nothing acknowledged, file rolled back, store usable.
            assert corpus._wal_size == size_before
            assert os.path.getsize(corpus.wal_path) == size_before
            corpus.append_trees(MORE)

    def test_disk_full_rolls_back(self, corpus_dir, monkeypatch):
        with LiveCorpus(corpus_dir) as corpus:
            monkeypatch.setenv("REPRO_FAULTS", "disk_full:1.0:1")
            with pytest.raises(StoreError, match="NOT acknowledged"):
                corpus.append_trees(MORE)
            monkeypatch.delenv("REPRO_FAULTS")
            assert corpus.verify_on_disk()[0]

    def test_torn_write_poisons_until_reopen(self, corpus_dir, monkeypatch):
        with LiveCorpus(corpus_dir) as corpus:
            monkeypatch.setenv("REPRO_FAULTS", "torn_write:1.0:1")
            with pytest.raises(StoreError, match="torn write"):
                corpus.append_trees(MORE)
            monkeypatch.delenv("REPRO_FAULTS")
            with pytest.raises(StoreError, match="poisoned"):
                corpus.append_trees(MORE)
            ok, reason = corpus.verify_on_disk()
            assert not ok and "poisoned" in reason
        # Reopen runs recovery: the torn tail goes, appends work again.
        with LiveCorpus(corpus_dir) as corpus:
            assert "truncated" in corpus.manifest.last_recovery
            corpus.append_trees(MORE)


class TestCompaction:
    def test_compaction_preserves_rows_and_results(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
            corpus.append_trees(TEXT)
        before = sorted_rows(store.load_corpus_labels(corpus_dir))
        with LiveCorpus(corpus_dir) as corpus:
            status = corpus.compact()
        assert status["compacted_rows"] > 0
        assert store.corpus_info(corpus_dir)["delta_rows"] == 0
        assert sorted_rows(store.load_corpus_labels(corpus_dir)) == before

    def test_compact_empty_delta_is_noop(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            generation = corpus.generation
            status = corpus.compact()
        assert status["compacted_rows"] == 0
        assert store.corpus_info(corpus_dir)["generation"] == generation

    def test_repeated_compactions_accumulate_segments(self, corpus_dir):
        for _ in range(3):
            with LiveCorpus(corpus_dir) as corpus:
                corpus.append_trees(MORE)
                corpus.compact()
        info = store.corpus_info(corpus_dir)
        assert info["base_segments"] == 4  # the original + 3 compacted
        assert info["delta_rows"] == 0

    def test_append_during_compaction_survives_rotation(self, corpus_dir):
        """Rows appended between the compaction snapshot and cut-over
        must be carried into the rotated WAL."""
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
            frozen, cut = list(corpus._delta_rows), corpus._wal_size

            # Interleave an append the way a concurrent request would,
            # between the snapshot and the cut-over.
            real_barrier = live._barrier
            appended = {}

            def barrier_with_append(name, compactor=False):
                if name == "compact_segment" and not appended:
                    appended["ack"] = corpus.append_trees(TEXT)
                real_barrier(name, compactor)

            live._barrier = barrier_with_append
            try:
                corpus.compact()
            finally:
                live._barrier = real_barrier
            assert len(corpus.snapshot()[1]) == appended["ack"]["rows"]
        # The carried rows survive a full reopen (they are in the WAL).
        with LiveCorpus(corpus_dir) as corpus:
            assert len(corpus.snapshot()[1]) == appended["ack"]["rows"]


class TestLiveEngine:
    def test_engine_matches_monolithic_resave(self, tmp_path, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        rows = store.load_corpus_labels(corpus_dir)
        mono = str(tmp_path / "mono.lpdb")
        with store.atomic_write(mono) as handle:
            store.save_labels(rows, handle, format="lpdb0004")
        from repro.lpath import LPathEngine

        live_engine = LPathEngine.open(corpus_dir)
        mono_engine = LPathEngine.open(mono)
        try:
            for query in ("//NP", "//VP//NP", "//S//N"):
                assert sorted(live_engine.query(query)) == sorted(
                    mono_engine.query(query)
                )
        finally:
            live_engine.close()
            mono_engine.close()

    def test_process_mode_rejected(self, corpus_dir):
        from repro.lpath import LPathEngine
        from repro.lpath.errors import LPathError

        with pytest.raises(LPathError, match="thread"):
            LPathEngine.open(corpus_dir, workers=2, mode="process")

    def test_delta_segment_tagged_in_explain(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        engine = live.open_live_engine(corpus_dir)
        try:
            assert "delta" in engine.explain("//NP")
        finally:
            engine.close()

    def test_manager_read_your_writes(self, corpus_dir):
        manager = LiveEngineManager(corpus_dir)
        try:
            before = len(manager.engine.query("//N"))
            manager.append_trees(MORE)
            assert len(manager.engine.query("//N")) == before + 2
            manager.compact()
            assert len(manager.engine.query("//N")) == before + 2
            ok, reason = manager.verify()
            assert ok, reason
        finally:
            manager.close()

    def test_manager_auto_compactor(self, corpus_dir):
        import time

        manager = LiveEngineManager(
            corpus_dir, compact_rows=1, compact_interval=0.02
        )
        try:
            manager.append_trees(MORE)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if manager.status()["compactions"] >= 1:
                    break
                time.sleep(0.02)
            status = manager.status()
            assert status["compactions"] >= 1
            assert status["delta_rows"] == 0
        finally:
            manager.close()


class TestAtomicSaves:
    def test_failed_save_preserves_previous_store(self, tmp_path,
                                                  monkeypatch):
        path = str(tmp_path / "corpus.lpdb")
        trees = list(iter_trees(TEXT * 2))
        store.save_corpus(trees, path, format="lpdb0004")
        good = open(path, "rb").read()

        # Make the re-save die mid-write, after bytes have been
        # produced: the temp file must be discarded and the original
        # store stay byte-identical.
        real_save = store.save_labels

        def exploding_save(rows, handle, **kwargs):
            handle.write(b"partial garbage")
            raise OSError("disk died mid-save")

        monkeypatch.setattr(store, "save_labels", exploding_save)
        with pytest.raises(OSError, match="disk died"):
            store.save_corpus(trees, path, format="lpdb0004")
        monkeypatch.setattr(store, "save_labels", real_save)
        assert open(path, "rb").read() == good
        assert not [
            name for name in os.listdir(tmp_path)
            if name.startswith(".corpus.lpdb.tmp-")
        ]

    def test_atomic_write_fsyncs_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with store.atomic_write(path) as handle:
            handle.write(b"payload")
        assert open(path, "rb").read() == b"payload"


class TestStoreInfoSurface:
    def test_info_reports_live_fields(self, corpus_dir):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        info = store.corpus_info(corpus_dir)
        assert info["format"] == "LPDB0005"
        assert info["generation"] == 1
        assert info["base_rows"] > 0
        assert info["delta_rows"] > 0
        assert info["wal_records"] == 1
        assert info["rows"] == info["base_rows"] + info["delta_rows"]
        assert info["last_recovery"] is None

    def test_delta_statistics_match_a_compiled_file(self, corpus_dir,
                                                     tmp_path):
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE * 2)
        mono = str(tmp_path / "mono.lpdb")
        store.save_corpus(iter_trees(TEXT * 3 + MORE * 2), mono)
        live_info = store.corpus_info(corpus_dir, top=20)
        mono_info = store.corpus_info(mono, top=20)
        for key in ("rows", "trees", "distinct_names", "top_names"):
            assert live_info[key] == mono_info[key], key

    def test_segment_count_includes_delta(self, corpus_dir):
        base = store.corpus_segment_count(corpus_dir)
        with LiveCorpus(corpus_dir) as corpus:
            corpus.append_trees(MORE)
        assert store.corpus_segment_count(corpus_dir) == base + 1

    def test_info_matches_generated_corpus(self, tmp_path):
        trees = list(generate_corpus("wsj", sentences=20, seed=5))
        path = str(tmp_path / "gen.lpdb")
        store.save_corpus(trees, path, format="lpdb0005", segments=2)
        mono = str(tmp_path / "mono.lpdb")
        store.save_corpus(trees, mono, format="lpdb0004", segments=2)
        live_info = store.corpus_info(path)
        mono_info = store.corpus_info(mono)
        assert live_info["rows"] == mono_info["rows"]
        assert live_info["trees"] == mono_info["trees"]
        assert live_info["distinct_names"] == mono_info["distinct_names"]
        assert live_info["top_names"] == mono_info["top_names"]
