"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from tests.legacy_stores import LEGACY_SEGMENTS, legacy_path, legacy_trees


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.mrg"
    code, _ = run(["generate", "--profile", "wsj", "--sentences", "50",
                   "--seed", "3", "-o", str(path)])
    assert code == 0
    return str(path)


class TestGenerate:
    def test_writes_file(self, corpus_file):
        text = open(corpus_file).read()
        assert text.startswith("( (S")
        assert text.count("\n") == 50

    def test_stdout_output(self):
        code, output = run(["generate", "--sentences", "3", "--seed", "1"])
        assert code == 0
        assert output.count("( (S") == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.mrg", tmp_path / "b.mrg"
        run(["generate", "--sentences", "5", "--seed", "9", "-o", str(a)])
        run(["generate", "--sentences", "5", "--seed", "9", "-o", str(b)])
        assert a.read_text() == b.read_text()


class TestQuery:
    def test_count(self, corpus_file):
        code, output = run(["query", corpus_file, "//NP", "--count"])
        assert code == 0
        assert int(output.strip()) > 0

    def test_executor_flag_is_gone(self, corpus_file):
        with pytest.raises(SystemExit):
            run(["query", corpus_file, "//S//NP", "--count",
                 "--executor", "columnar"])

    def test_compile_defaults_to_lpdb0004(self, corpus_file, tmp_path):
        lpdb = str(tmp_path / "corpus.lpdb")
        code, output = run(["compile", corpus_file, "-o", lpdb])
        assert code == 0
        assert "[LPDB0004]" in output
        code, expected = run(["query", corpus_file, "//S//NP", "--count"])
        assert code == 0
        for engine in ("lpath", "sqlite"):
            code, compiled = run(
                ["query", lpdb, "//S//NP", "--count", "--engine", engine]
            )
            assert code == 0, engine
            assert compiled == expected, engine

    def test_older_formats_still_read(self):
        from repro.lpath import LPathEngine

        oracle = LPathEngine(legacy_trees())
        for revision in LEGACY_SEGMENTS:
            for query in ("//NP", "//V->NP", "//VP{//NP$}"):
                expected = len(oracle.query(query, backend="treewalk"))
                for engine in ("lpath", "sqlite"):
                    code, output = run(["query", legacy_path(revision),
                                        query, "--count",
                                        "--engine", engine])
                    assert code == 0, (revision, engine)
                    assert int(output) == expected, (revision, query)

    def test_older_formats_are_not_written(self, corpus_file, tmp_path):
        for revision in ("lpdb0002", "lpdb0003"):
            with pytest.raises(SystemExit):
                run(["compile", corpus_file, "-o", str(tmp_path / "x"),
                     "--format", revision])

    def test_xpath_engine_matches_lpath(self, corpus_file):
        code, lpath = run(["query", corpus_file, "//NP/NN", "--count"])
        assert code == 0
        code, xpath = run(
            ["query", corpus_file, "//NP/NN", "--count", "--engine", "xpath"]
        )
        assert code == 0
        assert xpath == lpath

    def test_segments_and_workers_preserve_counts(self, corpus_file):
        code, expected = run(["query", corpus_file, "//S//NP", "--count"])
        assert code == 0
        for extra in (
            ["--segments", "3"],
            ["--segments", "3", "--workers", "2"],
            ["--segments", "4", "--workers", "2"],
            ["--segments", "3", "--engine", "xpath"],
        ):
            argv = ["query", corpus_file, "//S//NP", "--count"] + extra
            code, output = run(argv)
            assert code == 0, argv
            assert output == expected, argv

    def test_compile_segmented_and_query(self, corpus_file, tmp_path):
        lpdb = str(tmp_path / "sharded.lpdb")
        code, output = run(["compile", corpus_file, "-o", lpdb,
                            "--segments", "4"])
        assert code == 0
        assert "in 4 segments" in output
        code, expected = run(["query", corpus_file, "//S//NP", "--count"])
        assert code == 0
        # The segmented file serves sequential, thread- and process-pooled
        # queries, and an explicit --segments re-deals the on-disk shards.
        for extra in ([], ["--workers", "2"],
                      ["--workers", "2", "--mode", "process"],
                      ["--segments", "4"], ["--segments", "2"],
                      ["--segments", "1"]):
            code, output = run(["query", lpdb, "//S//NP", "--count"] + extra)
            assert code == 0, extra
            assert output == expected, extra

    def test_invalid_segments_reported(self, corpus_file):
        code, _ = run(["query", corpus_file, "//NP", "--count",
                       "--segments", "0"])
        assert code == 1

    def test_matches_highlighted(self, corpus_file):
        code, output = run(["query", corpus_file, "//VB->NP", "--show", "2"])
        assert code == 0
        assert "match(es)" in output
        assert "[" in output  # highlighted constituent

    def test_backends_agree(self, corpus_file):
        counts = set()
        for engine in ("lpath", "treewalk", "sqlite"):
            code, output = run(
                ["query", corpus_file, "//VP{/NP$}", "--engine", engine, "--count"]
            )
            assert code == 0
            counts.add(output.strip())
        assert len(counts) == 1

    def test_explain_prints_plans_with_join_choice(self, corpus_file):
        code, output = run(
            ["query", corpus_file, "//S//NP", "--explain"]
        )
        assert code == 0
        assert "logical plan:" in output and "physical plan:" in output
        assert "[merge/" in output or "[probe est_in=" in output

    def test_explain_compiled_corpus(self, corpus_file, tmp_path):
        lpdb = str(tmp_path / "corpus.lpdb")
        run(["compile", corpus_file, "-o", lpdb, "--segments", "2"])
        code, output = run(["query", lpdb, "//S//NP", "--explain"])
        assert code == 0
        assert "x2 segments" in output and "ColumnarDistinct" in output

    def test_explain_xpath_engine(self, corpus_file):
        code, output = run(
            ["query", corpus_file, "//S//NP", "--engine", "xpath", "--explain"]
        )
        assert code == 0
        assert "XPath plan" in output

    def test_explain_rejects_non_plan_engines(self, corpus_file):
        for engine in ("treewalk", "sqlite", "tgrep2"):
            code, _ = run(
                ["query", corpus_file, "//S", "--engine", engine, "--explain"]
            )
            assert code == 1, engine

    def test_cache_stats_rejects_non_plan_engines(self, corpus_file):
        code, _ = run(
            ["query", corpus_file, "//S", "--engine", "corpussearch",
             "--count", "--cache-stats"]
        )
        assert code == 1

    def test_cache_stats_printed_after_results(self, corpus_file):
        code, output = run(
            ["query", corpus_file, "//NP", "--count", "--cache-stats"]
        )
        assert code == 0
        lines = output.strip().splitlines()
        assert lines[-1].startswith("plan cache: ")
        assert "misses=1" in lines[-1]
        assert "evictions=0" in lines[-1]

    def test_cache_stats_with_xpath_engine(self, corpus_file):
        code, output = run(
            ["query", corpus_file, "//NP", "--engine", "xpath", "--count",
             "--cache-stats"]
        )
        assert code == 0
        assert "plan cache: " in output

    def test_pivot_flag_preserves_results(self, corpus_file):
        plain = run(["query", corpus_file, "//S//NP//WHPP", "--count"])
        pivoted = run(["query", corpus_file, "//S//NP//WHPP", "--count", "--pivot"])
        assert plain == pivoted

    def test_tgrep2_engine(self, corpus_file):
        code, output = run(
            ["query", corpus_file, "VP <- NP", "--engine", "tgrep2", "--count"]
        )
        assert code == 0
        lpath_code, lpath_output = run(
            ["query", corpus_file, "//VP{/NP$}", "--count"]
        )
        assert output == lpath_output

    def test_corpussearch_engine(self, corpus_file):
        code, output = run(
            ["query", corpus_file, "(VP iDomsLast NP)", "--engine",
             "corpussearch", "--count"]
        )
        assert code == 0

    def test_xpath_engine_rejects_lpath_features(self, corpus_file):
        code, _ = run(["query", corpus_file, "//VB->NP", "--engine", "xpath"])
        assert code == 1

    def test_syntax_error_reported(self, corpus_file):
        code, _ = run(["query", corpus_file, "//["])
        assert code == 1

    def test_missing_file(self):
        code, _ = run(["query", "/nonexistent.mrg", "//NP"])
        assert code == 2


class TestCompiledQuery:
    """Every compiled corpus opens one way (``LPathEngine.open``):
    LPDB0004 files are adopted zero-copy with no flag."""

    @pytest.fixture()
    def mmap_file(self, corpus_file, tmp_path):
        lpdb = str(tmp_path / "corpus4.lpdb")
        code, output = run(["compile", corpus_file, "-o", lpdb,
                            "--segments", "3", "--format", "lpdb0004"])
        assert code == 0
        assert "[LPDB0004]" in output
        return lpdb

    def test_matches_tree_engine(self, corpus_file, mmap_file):
        code, eager = run(["query", corpus_file, "//S//NP", "--count"])
        assert code == 0
        code, mapped = run(["query", mmap_file, "//S//NP", "--count"])
        assert code == 0
        assert mapped == eager

    def test_process_mode_needs_no_flag(self, mmap_file):
        # Process workers re-open the file by path, so this only works
        # when the default open adopted the LPDB0004 file zero-copy.
        code, sequential = run(["query", mmap_file, "//NP", "--count"])
        assert code == 0
        code, fanned = run(["query", mmap_file, "//NP", "--count",
                            "--workers", "2", "--mode", "process"])
        assert code == 0
        assert fanned == sequential

    def test_mmap_flag_is_gone(self, mmap_file):
        with pytest.raises(SystemExit):
            run(["query", mmap_file, "//NP", "--count", "--mmap"])

    def test_process_mode_rejects_legacy_file(self, capsys):
        code, _ = run(["query", legacy_path("LPDB0003"), "//NP", "--count",
                       "--workers", "2", "--mode", "process"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --mode requires a compiled LPDB0004")
        assert err.count("\n") == 1

    def test_mode_requires_compiled_corpus(self, corpus_file):
        code, _ = run(["query", corpus_file, "//NP", "--count",
                       "--mode", "process"])
        assert code == 1

    def test_resharding_decodes_and_rejects_mode(self, mmap_file):
        code, expected = run(["query", mmap_file, "//NP", "--count"])
        code, redealt = run(["query", mmap_file, "//NP", "--count",
                             "--segments", "4"])
        assert code == 0
        assert redealt == expected
        code, _ = run(["query", mmap_file, "//NP", "--count",
                       "--mode", "thread", "--segments", "4"])
        assert code == 1

    def test_serves_the_sqlite_oracle(self, mmap_file):
        code, plan = run(["query", mmap_file, "//NP", "--count"])
        assert code == 0
        code, oracle = run(["query", mmap_file, "//NP", "--count",
                            "--engine", "sqlite"])
        assert code == 0
        assert oracle == plan


class TestStoreInfo:
    def test_lpdb0004_info(self, corpus_file, tmp_path):
        lpdb = str(tmp_path / "corpus.lpdb")
        run(["compile", corpus_file, "-o", lpdb, "--segments", "2",
             "--format", "lpdb0004"])
        code, output = run(["store", "info", lpdb, "--top", "3"])
        assert code == 0
        assert "format: LPDB0004" in output
        assert "segments: 2" in output
        assert "trees: 50" in output
        assert "top 3 names by rows:" in output

    def test_legacy_info(self):
        for revision, segments in LEGACY_SEGMENTS.items():
            code, output = run(["store", "info", legacy_path(revision)])
            assert code == 0
            assert f"format: {revision}" in output
            assert f"segments: {segments}" in output
            assert "trees: 3" in output

    def test_non_store_file_reported(self, corpus_file):
        code, _ = run(["store", "info", corpus_file])
        assert code == 1


class TestStoreUpgrade:
    @pytest.mark.parametrize("revision", sorted(LEGACY_SEGMENTS))
    def test_upgrade_fixture(self, revision, tmp_path):
        old = legacy_path(revision)
        new = str(tmp_path / "up.lpdb")
        code, output = run(["store", "upgrade", old, "-o", new])
        assert code == 0
        assert f"[{revision}]" in output and "[LPDB0004]" in output
        code, info = run(["store", "info", new])
        assert code == 0
        assert "format: LPDB0004" in info
        assert f"segments: {LEGACY_SEGMENTS[revision]}" in info
        for query in ("//NP", "//V->NP", "//VP{//NP$}"):
            code, before = run(["query", old, query, "--count"])
            code, after = run(["query", new, query, "--count",
                               "--workers", "2", "--mode", "process"])
            assert code == 0
            assert after == before, query

    def test_upgrade_rejects_live_directory(self, corpus_file, tmp_path,
                                            capsys):
        live_dir = str(tmp_path / "live")
        code, _ = run(["compile", corpus_file, "-o", live_dir,
                       "--format", "lpdb0005"])
        assert code == 0
        code, _ = run(["store", "upgrade", live_dir, "-o",
                       str(tmp_path / "up.lpdb")])
        assert code == 1
        assert "live" in capsys.readouterr().err

    def test_upgrade_needs_output(self):
        with pytest.raises(SystemExit):
            run(["store", "upgrade", legacy_path("LPDB0002")])

    def test_upgrade_missing_input(self, tmp_path):
        code, _ = run(["store", "upgrade", str(tmp_path / "gone.lpdb"),
                       "-o", str(tmp_path / "up.lpdb")])
        assert code == 2


class TestSQL:
    def test_translation(self):
        code, output = run(["sql", "//VB->NP"])
        assert code == 0
        assert "SELECT DISTINCT" in output
        assert '"left" = t0."right"' in output


class TestStats:
    def test_tables(self, corpus_file):
        code, output = run(["stats", corpus_file])
        assert code == 0
        assert "Tree Nodes" in output
        assert "NP" in output


class TestServeCLI:
    """The serving surface of the CLI: `repro query --url` against a
    live daemon, `repro serve-stats`, and the full `repro serve`
    process lifecycle (banner, traffic, SIGINT drain)."""

    @pytest.fixture()
    def store_file(self, corpus_file, tmp_path):
        lpdb = str(tmp_path / "serve.lpdb")
        code, _ = run(["compile", corpus_file, "-o", lpdb,
                       "--segments", "2", "--format", "lpdb0004"])
        assert code == 0
        return lpdb

    @pytest.fixture()
    def daemon_url(self, store_file):
        from repro.serve import QueryServer, QueryService

        with QueryServer(QueryService(store_file)).start() as server:
            yield server.url

    def test_query_url_matches_local_engine(self, store_file, daemon_url):
        code, local = run(["query", store_file, "//S//NP", "--count"])
        assert code == 0
        code, remote = run(["query", "//S//NP", "--url", daemon_url,
                            "--count"])
        assert code == 0
        assert remote == local

    def test_query_url_prints_match_lines(self, daemon_url):
        code, output = run(["query", "//NP", "--url", daemon_url,
                            "--show", "3"])
        assert code == 0
        lines = output.splitlines()
        assert int(lines[0]) > 3
        assert all(line.startswith("tree ") for line in lines[1:])
        assert len(lines) == 4

    def test_query_url_rejects_corpus_and_query(self, daemon_url,
                                                corpus_file, capsys):
        code, _ = run(["query", corpus_file, "//NP", "--url", daemon_url])
        assert code == 1
        assert "corpus lives on the server" in capsys.readouterr().err

    def test_query_url_rejects_local_engine_flags(self, daemon_url, capsys):
        for flags in (["--mode", "thread"], ["--segments", "2"],
                      ["--workers", "2"], ["--kernels", "python"],
                      ["--explain"], ["--cache-stats"]):
            code, _ = run(["query", "//NP", "--url", daemon_url] + flags)
            assert code == 1
            assert "--url" in capsys.readouterr().err

    def test_query_url_rejects_baseline_engines(self, daemon_url, capsys):
        code, _ = run(["query", "//NP", "--url", daemon_url,
                       "--engine", "tgrep2"])
        assert code == 1
        assert "lpath" in capsys.readouterr().err

    def test_query_url_daemon_error_is_one_clean_line(self, daemon_url,
                                                      capsys):
        code, _ = run(["query", "//NP[@", "--url", daemon_url, "--count"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_query_url_unreachable_daemon(self, capsys):
        code, _ = run(["query", "//NP", "--url", "http://127.0.0.1:9",
                       "--count"])
        assert code == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_serve_stats_document(self, daemon_url):
        import json

        code, before = run(["query", "//WHPP", "--url", daemon_url,
                            "--count"])
        assert code == 0
        code, output = run(["serve-stats", daemon_url])
        assert code == 0
        stats = json.loads(output)
        assert stats["server"]["served"] == 1
        assert stats["result_cache"]["misses"] == 1
        assert stats["stores"][0]["fingerprint"].startswith("lpdb0004-")

    def test_serve_missing_store_exits_2(self, capsys):
        code, _ = run(["serve", "/no/such/store.lpdb", "--port", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_non_store_file_is_clean_error(self, corpus_file, capsys):
        # Configuration errors (a file that isn't a store) exit 2, with
        # one clean line — runtime crashes of a running daemon exit 1.
        code, _ = run(["serve", corpus_file, "--port", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: configuration error: ")
        assert "Traceback" not in err

    def test_serve_bad_admission_knobs(self, store_file, capsys):
        code, _ = run(["serve", store_file, "--port", "0",
                       "--max-inflight", "0"])
        assert code == 2
        assert "max_inflight" in capsys.readouterr().err

    def test_serve_bad_faults_spec_is_config_error(
        self, store_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:not-a-prob:1")
        code, _ = run(["serve", store_file, "--port", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "REPRO_FAULTS" in err
        assert "Traceback" not in err

    def test_serve_verbose_adds_traceback(self, corpus_file, capsys):
        code, _ = run(["serve", corpus_file, "--port", "0", "--verbose"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "serve: configuration error: " in err


class TestServeProcessLifecycle:
    """Drive the real `repro serve` process end to end: banner with the
    bound address, traffic from a separate client, /stats scrape, then
    SIGINT -> drain -> exit 0."""

    def test_sigint_drains_and_exits_zero(self, corpus_file, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        lpdb = str(tmp_path / "serve.lpdb")
        code, _ = run(["compile", corpus_file, "-o", lpdb,
                       "--segments", "2", "--format", "lpdb0004"])
        assert code == 0
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", lpdb, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = daemon.stdout.readline()
            assert " on http://" in banner, (banner, daemon.stderr.read())
            url = banner.split(" on ", 1)[1].split()[0]
            code, counted = run(["query", "//NP", "--url", url, "--count"])
            assert code == 0
            assert int(counted.strip()) > 0
            code, again = run(["query", "//NP", "--url", url, "--count"])
            assert again == counted
            code, stats = run(["serve-stats", url])
            assert code == 0
            assert '"served": 1' in stats
            daemon.send_signal(signal.SIGINT)
            out, err = daemon.communicate(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        assert daemon.returncode == 0, (out, err)
        assert "draining..." in out
        assert "Traceback" not in err


class TestKernelAndSegmentConfigErrors:
    """Misconfiguration surfaces as ONE clean `error:` line and a
    non-zero exit -- never a traceback (and at the daemon, a 4xx)."""

    def test_invalid_kernels_env_at_cli(self, corpus_file, monkeypatch,
                                        capsys):
        monkeypatch.setenv("REPRO_KERNELS", "bogus")
        code, _ = run(["query", corpus_file, "//NP", "--count"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid REPRO_KERNELS")
        assert "Traceback" not in err

    def test_invalid_kernels_flag_is_an_argparse_error(self, corpus_file,
                                                       capsys):
        with pytest.raises(SystemExit):
            run(["query", corpus_file, "//NP", "--kernels", "bogus"])
        assert "--kernels" in capsys.readouterr().err

    def test_invalid_segments_at_cli(self, corpus_file, capsys):
        code, _ = run(["query", corpus_file, "//NP", "--count",
                       "--segments", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_invalid_mode_combination_at_cli(self, corpus_file, capsys):
        code, _ = run(["query", corpus_file, "//NP", "--count",
                       "--mode", "process"])
        assert code == 1
        assert "--mode requires a compiled LPDB0004 corpus" in (
            capsys.readouterr().err
        )

    def test_invalid_kernels_env_at_daemon_is_4xx(self, corpus_file,
                                                  tmp_path, monkeypatch):
        from repro.serve import (
            QueryServer, QueryService, ServeClient, ServeClientError,
        )

        lpdb = str(tmp_path / "serve.lpdb")
        code, _ = run(["compile", corpus_file, "-o", lpdb,
                       "--segments", "2", "--format", "lpdb0004"])
        assert code == 0
        with QueryServer(QueryService(lpdb)).start() as server:
            monkeypatch.setenv("REPRO_KERNELS", "bogus")
            with ServeClient(server.url) as client:
                with pytest.raises(ServeClientError) as failure:
                    client.query("//NP")
                assert failure.value.status == 400
                assert "REPRO_KERNELS" in str(failure.value)
