"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    code = main(
        [
            "run",
            "--design",
            "cwl",
            "--threads",
            "2",
            "--inserts",
            "6",
            "--seed",
            "3",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestRun:
    def test_writes_trace(self, trace_path, capsys):
        assert trace_path.exists()

    def test_racing_flag(self, tmp_path, capsys):
        path = tmp_path / "racing.jsonl"
        assert (
            main(
                [
                    "run", "--design", "cwl", "--racing", "--inserts", "4",
                    "-o", str(path),
                ]
            )
            == 0
        )
        assert "persists" in capsys.readouterr().out

    def test_bad_output_path_is_error_not_crash(self, capsys):
        code = main(
            ["run", "--inserts", "2", "-o", "/nonexistent/dir/x.jsonl"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_all_models_by_default(self, trace_path, capsys):
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        for model in ("strict", "epoch", "bpfs", "strand"):
            assert model in out
        assert "CP/op" in out  # insert marks found

    def test_single_model_with_options(self, trace_path, capsys):
        code = main(
            [
                "analyze",
                str(trace_path),
                "--model",
                "epoch",
                "--persist-granularity",
                "64",
                "--no-coalescing",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch" in out and "strict" not in out

    def test_missing_trace_file(self, capsys):
        assert main(["analyze", "/no/such/trace.jsonl"]) == 2

    def test_stream_matches_batch_output(self, trace_path, capsys):
        assert main(["analyze", str(trace_path)]) == 0
        batch = capsys.readouterr().out
        assert (
            main(
                [
                    "analyze",
                    str(trace_path),
                    "--stream",
                    "--chunk-size",
                    "32",
                ]
            )
            == 0
        )
        streamed = capsys.readouterr().out
        assert streamed == batch

    def test_stream_with_domain(self, trace_path, capsys):
        code = main(
            [
                "analyze",
                str(trace_path),
                "--stream",
                "--domain",
                "bitset",
                "--model",
                "epoch",
            ]
        )
        assert code == 0
        assert "epoch" in capsys.readouterr().out

    def test_stream_rejects_wear(self, trace_path, capsys):
        code = main(["analyze", str(trace_path), "--stream", "--wear"])
        assert code == 2
        assert "--wear" in capsys.readouterr().err

    def test_seq_gap_fails_batch_and_stream_alike(self, tmp_path, capsys):
        """Streaming must not renumber a non-dense trace that the batch
        loader rejects."""
        path = tmp_path / "gap.jsonl"
        path.write_text(
            '{"meta": {}}\n'
            '{"seq": 0, "thread": 0, "kind": "persist_barrier"}\n'
            '{"seq": 7, "thread": 0, "kind": "persist_barrier"}\n'
        )
        errors = []
        for extra in ([], ["--stream"]):
            assert main(["analyze", str(path)] + extra) != 0
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert "event seq 7 out of order; expected 1" in errors[0]

    @pytest.mark.parametrize(
        "record, message",
        [
            (
                '{"seq": 0, "thread": 0, "kind": "store", "addr": 2147483648,'
                ' "size": 8, "value": -1, "persistent": true}',
                "value -1 does not fit 8 bytes",
            ),
            (
                '{"seq": 0, "thread": 4294967296, "kind": "store",'
                ' "addr": 2147483648, "size": 8, "value": 1,'
                ' "persistent": true}',
                "thread id 4294967296 is not below 2**32",
            ),
        ],
        ids=["negative-value", "wide-thread"],
    )
    def test_out_of_range_field_fails_batch_and_stream_alike(
        self, tmp_path, capsys, record, message
    ):
        """A field the columnar encoding cannot hold is a trace error on
        both paths, never a traceback."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"meta": {}}\n' + record + "\n")
        for extra in ([], ["--stream"]):
            assert main(["analyze", str(path)] + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: malformed event record")
            assert message in captured.err


class TestRaces:
    def test_race_free_trace_passes(self, trace_path, capsys):
        assert main(["races", str(trace_path)]) == 0
        assert "no persist-epoch races" in capsys.readouterr().out

    def test_racing_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "racing.jsonl"
        main(
            [
                "run", "--design", "cwl", "--threads", "2", "--inserts", "6",
                "--racing", "-o", str(path),
            ]
        )
        assert main(["races", str(path)]) == 1
        assert "race" in capsys.readouterr().out


class TestDot:
    def test_writes_dot_file(self, trace_path, tmp_path, capsys):
        out = tmp_path / "graph.dot"
        assert (
            main(["dot", str(trace_path), "--model", "strand", "-o", str(out)])
            == 0
        )
        text = out.read_text()
        assert text.startswith("digraph persists")
        assert "->" in text

    def test_prints_to_stdout_without_output(self, trace_path, capsys):
        assert main(["dot", str(trace_path)]) == 0
        assert "digraph" in capsys.readouterr().out


class TestInject:
    def test_correct_design_passes(self, capsys):
        code = main(
            [
                "inject", "--design", "cwl", "--threads", "2", "--inserts",
                "5", "--samples", "10", "--minimal-step", "10",
            ]
        )
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_paper_faithful_tlc_fails(self, capsys):
        # Seed chosen so the printed-algorithm hole manifests.
        code = main(
            [
                "inject", "--design", "2lc", "--threads", "4", "--inserts",
                "8", "--paper-faithful", "--samples", "0", "--seed", "0",
            ]
        )
        assert code == 1
        assert "violation" in capsys.readouterr().out


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck: PASS" in out
        assert "[FAIL]" not in out


class TestAnalyzeWear:
    def test_wear_columns(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--wear"]) == 0
        out = capsys.readouterr().out
        assert "max_wear" in out and "write_cut" in out


class TestTableAndFigures:
    def test_table1_small(self, capsys):
        assert main(["table1", "--inserts", "20", "--threads", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Copy While Locked" in out and "Strand" in out

    def test_figures_writes_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert (
            main(["figures", "--inserts", "20", "--out", str(out_dir)]) == 0
        )
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "fig3_latency.csv",
            "fig3_latency.svg",
            "fig4_persist_granularity.csv",
            "fig4_persist_granularity.svg",
            "fig5_false_sharing.csv",
            "fig5_false_sharing.svg",
        }


class TestFuzz:
    def test_run_finds_and_minimizes_known_bug(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        code = main(
            [
                "fuzz", "run", "--target", "queue-2lc-faithful",
                "--budget", "24", "--seed", "0",
                "--corpus-dir", str(corpus_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "violation" in out
        assert "minimized" in out
        assert list(corpus_dir.glob("*.repro.json"))

    def test_run_fixed_target_is_clean(self, tmp_path, capsys):
        code = main(
            [
                "fuzz", "run", "--target", "queue-2lc",
                "--budget", "8", "--seed", "0",
                "--corpus-dir", str(tmp_path / "corpus"),
            ]
        )
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_replay_reproduces_corpus(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert (
            main(
                [
                    "fuzz", "run", "--target", "minifs-racy",
                    "--budget", "8", "--seed", "0",
                    "--minimize-limit", "1",
                    "--corpus-dir", str(corpus_dir),
                ]
            )
            == 1
        )
        capsys.readouterr()
        code = main(["fuzz", "replay", "--corpus-dir", str(corpus_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced" in out and "0 stale" in out

    def test_replay_empty_corpus_is_error(self, tmp_path, capsys):
        code = main(["fuzz", "replay", "--corpus-dir", str(tmp_path / "c")])
        assert code == 2
        assert "no repro files" in capsys.readouterr().out

    def test_minimize_rewrites_entry(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert (
            main(
                [
                    "fuzz", "run", "--target", "queue-2lc-faithful",
                    "--budget", "24", "--seed", "0",
                    "--minimize-limit", "1",
                    "--corpus-dir", str(corpus_dir),
                ]
            )
            == 1
        )
        capsys.readouterr()
        entry = sorted(corpus_dir.glob("*.repro.json"))[0]
        code = main(
            ["fuzz", "minimize", str(entry), "--corpus-dir", str(corpus_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "minimized" in out

    def test_minimize_keeps_the_fault_plan(self, tmp_path, capsys):
        import json

        corpus_dir = tmp_path / "corpus"
        code = main(
            [
                "crashrec", "--target", "log-repair-buggy",
                "--depth", "2", "--budget", "4", "--seed", "0",
                "--faults", "corrupt", "--corpus-dir", str(corpus_dir),
            ]
        )
        assert code == 1
        capsys.readouterr()
        entry = sorted(corpus_dir.glob("*.repro.json"))[0]
        assert json.loads(entry.read_text())["faults"] is not None
        code = main(
            ["fuzz", "minimize", str(entry), "--corpus-dir", str(corpus_dir)]
        )
        assert code == 0
        capsys.readouterr()
        for path in corpus_dir.glob("*.repro.json"):
            assert json.loads(path.read_text())["faults"] is not None, path
        code = main(["fuzz", "replay", "--corpus-dir", str(corpus_dir)])
        assert code == 0
        assert "0 stale" in capsys.readouterr().out

    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "run", "--target", "ext4"])


class TestCheck:
    def test_clean_target_verifies_and_exits_zero(self, capsys):
        code = main(
            ["check", "--target", "counter", "--threads", "2", "--ops", "1",
             "--no-export"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "schedules explored" in out
        assert "0 distinct" in out

    def test_known_broken_target_exits_one_and_exports(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        code = main(
            ["check", "--target", "queue-2lc-faithful",
             "--threads", "2", "--ops", "1", "--stop-at-first",
             "--corpus-dir", str(corpus_dir)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "violation" in out
        assert "exported" in out
        exported = list(corpus_dir.glob("*.repro.json"))
        assert exported
        capsys.readouterr()
        assert main(["fuzz", "replay", "--corpus-dir", str(corpus_dir)]) == 0
        assert "0 stale" in capsys.readouterr().out

    def test_schedule_overrun_exits_two(self, capsys):
        code = main(
            ["check", "--target", "queue-cwl", "--threads", "2", "--ops", "1",
             "--reduction", "none", "--max-schedules", "2", "--no-export"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "interleavings" in err

    def test_stats_prints_engine_counters(self, capsys):
        code = main(
            ["check", "--target", "counter", "--threads", "2", "--ops", "1",
             "--stats", "--no-export"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "engine nodes" in captured.err

    def test_sharded_check_matches_solo_verdict(self, capsys):
        code = main(
            ["check", "--target", "counter", "--threads", "2", "--ops", "1",
             "--jobs", "2", "--shard-depth", "1", "--stats", "--no-export"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "0 distinct" in captured.out
        assert "shard (0,)" in captured.err

    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--target", "ext4"])

    @pytest.mark.parametrize(
        "flag",
        [["--reduction", "none"], ["--replay", "reexecute"],
         ["--domain", "graph"]],
    )
    def test_sharded_check_rejects_unsharded_options(self, flag, capsys):
        # Shards always run DPOR with the default replay and domain, so
        # these options would otherwise be dropped without a word.
        code = main(
            ["check", "--target", "counter", "--threads", "2", "--ops", "1",
             "--jobs", "2", "--no-export"] + flag
        )
        assert code == 2
        assert flag[0] in capsys.readouterr().err


class TestLitmus:
    def test_list_names_programs(self, capsys):
        assert main(["litmus", "list"]) == 0
        out = capsys.readouterr().out
        assert "mp-clflushopt" in out
        assert "sb-partial-forward" in out

    def test_show_prints_threads(self, capsys):
        assert main(["litmus", "show", "mp-clflushopt"]) == 0
        out = capsys.readouterr().out
        assert "clflushopt" in out and "thread 1" in out

    def test_run_single_program_differential(self, capsys):
        code = main(
            [
                "litmus", "run", "--program", "mp-clflushopt",
                "--model", "px86", "--model", "dpox86",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mp-clflushopt" in out
        assert "disagreement pairs=1" in out

    def test_run_writes_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "litmus.json"
        code = main(
            [
                "litmus", "run", "--program", "mp-barrier",
                "--model", "epoch", "--model", "px86",
                "--cross-domains", "-o", str(path),
            ]
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["summary"]["programs"] == 1
        program, = report["programs"]
        assert program["name"] == "mp-barrier"
        assert program["disagreements"]
        assert program["domain_mismatches"] == []

    def test_unknown_program_rejected(self, capsys):
        assert main(["litmus", "run", "--program", "nope"]) == 2
        assert "unknown litmus program" in capsys.readouterr().err
