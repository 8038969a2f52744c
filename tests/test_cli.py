"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.analyses.common.base import Analysis
from repro.cli import ANALYSES, GENERATORS, build_parser, main
from repro.trace import load_trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    exit_code = main(["generate", "racy", "--threads", "3", "--events", "60",
                      "--seed", "5", "--out", str(path)])
    assert exit_code == 0
    return path


class TestGenerate:
    def test_generate_writes_loadable_trace(self, trace_file):
        trace = load_trace(trace_file)
        assert trace.num_threads == 3
        assert len(trace) == 180

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "tso", "--threads", "2", "--events", "10"]) == 0
        output = capsys.readouterr().out
        assert "atomic_write" in output or "atomic_read" in output

    def test_generate_history_uses_operations(self, tmp_path):
        path = tmp_path / "history.txt"
        main(["generate", "history", "--threads", "2", "--events", "8",
              "--out", str(path)])
        trace = load_trace(path)
        begins = sum(1 for event in trace if event.kind.value == "begin")
        assert begins == 16

    def test_every_registered_generator_is_callable(self):
        assert set(GENERATORS) == {
            "racy", "deadlock", "memory", "tso", "c11", "history",
            "locked-mix", "producer-consumer", "mpmc-queue",
            "barrier-phases", "fork-join", "heap-churn"}

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "quantum"])


class TestAnalyze:
    def test_analyze_prints_summary_and_findings(self, trace_file, capsys):
        assert main(["analyze", "race-prediction", str(trace_file)]) == 0
        output = capsys.readouterr().out
        default = Analysis.by_name("race-prediction").default_backend()
        assert f"race-prediction[{default}]" in output
        assert "candidates" in output

    def test_analyze_with_explicit_backend(self, trace_file, capsys):
        assert main(["analyze", "c11-races", str(trace_file), "--backend", "vc-flat"]) == 0
        assert "c11-races[vc-flat]" in capsys.readouterr().out

    def test_linearizability_defaults_to_dynamic_backend(self, tmp_path, capsys):
        path = tmp_path / "history.txt"
        main(["generate", "history", "--threads", "2", "--events", "6",
              "--seed", "2", "--out", str(path)])
        assert main(["analyze", "linearizability", str(path)]) == 0
        assert "linearizability[csst]" in capsys.readouterr().out

    def test_all_registered_analyses_have_classes(self):
        assert len(ANALYSES) == 7

    def test_unknown_analysis_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "fuzzing", "trace.txt"])


class TestMaxFindings:
    """Regression tests for ``--max-findings`` edge cases (issue #1)."""

    @pytest.fixture
    def finding_count(self, trace_file):
        trace = load_trace(trace_file)
        from repro.analyses.race_prediction import RacePredictionAnalysis

        count = RacePredictionAnalysis("incremental-csst").run(trace).finding_count
        assert count >= 2, "fixture trace must produce several findings"
        return count

    def test_zero_prints_no_findings_but_counts_all(self, trace_file,
                                                    finding_count, capsys):
        assert main(["analyze", "race-prediction", str(trace_file),
                     "--max-findings", "0"]) == 0
        output = capsys.readouterr().out
        assert "finding:" not in output
        assert f"... and {finding_count} more" in output

    def test_negative_is_treated_as_zero(self, trace_file, finding_count, capsys):
        assert main(["analyze", "race-prediction", str(trace_file),
                     "--max-findings", "-3"]) == 0
        output = capsys.readouterr().out
        assert "finding:" not in output
        assert f"... and {finding_count} more" in output

    def test_partial_slice_counts_the_remainder(self, trace_file,
                                                finding_count, capsys):
        assert main(["analyze", "race-prediction", str(trace_file),
                     "--max-findings", "1"]) == 0
        output = capsys.readouterr().out
        assert output.count("finding:") == 1
        assert f"... and {finding_count - 1} more" in output

    def test_no_trailer_when_everything_is_shown(self, trace_file, capsys):
        assert main(["analyze", "race-prediction", str(trace_file),
                     "--max-findings", "9999"]) == 0
        assert "more" not in capsys.readouterr().out


class TestCompare:
    def test_compare_lists_every_backend(self, trace_file, capsys):
        assert main(["compare", "memory-bugs", str(trace_file)]) == 0
        output = capsys.readouterr().out
        for backend in ("vc-flat", "st", "incremental-csst"):
            assert backend in output

    def test_compare_linearizability_uses_dynamic_backends(self, tmp_path, capsys):
        path = tmp_path / "history.txt"
        main(["generate", "history", "--threads", "2", "--events", "6",
              "--seed", "3", "--out", str(path)])
        assert main(["compare", "linearizability", str(path)]) == 0
        output = capsys.readouterr().out
        assert "graph" in output and "csst" in output


class TestSweep:
    def test_sweep_repeat_reports_min_and_median(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--analyses",
                     "race-prediction", "--backends", "vc-flat", "--repeat", "3",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        for record in document["records"]:
            assert record["repeats"] == 3
            assert record["elapsed_seconds"] <= \
                record["elapsed_median_seconds"]

    def test_sweep_repeat_must_be_positive(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--repeat", "0"]) == 2
        assert "repeat must be >= 1" in capsys.readouterr().err

    def test_sweep_table_output(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--analyses",
                     "race-prediction", "--backends", "vc-flat,st"]) == 0
        output = capsys.readouterr().out
        assert "sweep[smoke]: 2 jobs" in output
        assert "racy-t3-n40-s0" in output

    def test_sweep_json_records_are_structured(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--jobs", "2",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["jobs"] == 20 and document["failures"] == 0
        first = document["records"][0]
        for key in ("backend", "analysis", "trace_id", "kind", "threads",
                    "events", "seed", "elapsed_seconds", "finding_count",
                    "insert_count", "delete_count", "query_count"):
            assert key in first, key
        assert document["speedups"]

    def test_sweep_parallel_matches_serial(self, capsys):
        argv = ["sweep", "--suite", "smoke", "--format", "json"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = json.loads(capsys.readouterr().out)["records"]
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)["records"]
        for left, right in zip(serial, parallel):
            for timing_field in ("elapsed_seconds", "elapsed_median_seconds"):
                left.pop(timing_field), right.pop(timing_field)
        assert serial == parallel

    def test_sweep_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["sweep", "--suite", "smoke", "--analyses", "c11-races",
                     "--format", "csv", "--out", str(path)]) == 0
        assert "wrote 3 records" in capsys.readouterr().out
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("suite,trace_id,kind")
        assert len(lines) == 4

    def test_sweep_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--suite", "galaxy"])

    def test_sweep_typoed_backend_is_a_clean_error(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--backends", "vcc"]) == 2
        captured = capsys.readouterr()
        assert "unknown backends" in captured.err
        assert captured.out == ""

    def test_sweep_typoed_baseline_is_a_clean_error(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--baseline", "vcc"]) == 2
        assert "unknown baseline backend" in capsys.readouterr().err

    def test_sweep_absent_baseline_warns(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--analyses",
                     "race-prediction", "--backends", "vc-flat,st",
                     "--baseline", "graph"]) == 0
        assert "ran no job in this sweep" in capsys.readouterr().err

    def test_sweep_dropped_flags_warn(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--analyses", "c11-races",
                     "--backends", "vc-flat", "--timeout", "5", "--format", "csv",
                     "--baseline", "vc-flat"]) == 0
        captured = capsys.readouterr().err
        assert "timeout only applies to parallel runs" in captured
        assert "baseline has no effect with the csv format" in captured

    def test_sweep_empty_plan_is_a_clean_error(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--analyses",
                     "linearizability", "--backends", "vc-flat"]) == 2
        assert "sweep plan is empty" in capsys.readouterr().err

    def test_library_errors_exit_2_without_traceback(self, trace_file, capsys):
        assert main(["analyze", "race-prediction", str(trace_file),
                     "--backend", "vcc"]) == 2
        assert "unknown partial-order backend" in capsys.readouterr().err


class TestSweepSeedOverride:
    def test_seed_override_is_recorded_in_records(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--analyses",
                     "race-prediction", "--backends", "vc-flat", "--seed", "42",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["records"], "expected at least one record"
        for record in document["records"]:
            assert record["seed"] == 42
            assert "-s42" in record["trace_id"]

    def test_seed_override_lands_in_csv_export(self, capsys):
        assert main(["sweep", "--suite", "smoke", "--analyses",
                     "race-prediction", "--backends", "vc-flat", "--seed", "7",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        seed_column = header.index("seed")
        for line in lines[1:]:
            assert line.split(",")[seed_column] == "7"

    def test_seed_override_changes_the_workload(self, capsys):
        argv = ["sweep", "--suite", "smoke", "--analyses",
                "race-prediction", "--backends", "vc-flat", "--format", "json"]
        assert main(argv) == 0
        base = json.loads(capsys.readouterr().out)["records"]
        assert main(argv + ["--seed", "3"]) == 0
        reseeded = json.loads(capsys.readouterr().out)["records"]
        assert [r["seed"] for r in base] != [r["seed"] for r in reseeded]


class TestGenCommand:
    def test_gen_list_renders_the_unified_table(self, capsys):
        assert main(["gen", "--list"]) == 0
        output = capsys.readouterr().out
        # One table over one registry: classic and scenario kinds together.
        for kind in ("racy", "history", "locked-mix", "heap-churn"):
            assert kind in output
        assert "classic" in output and "scenario" in output

    def test_gen_without_mode_or_list_is_a_clean_error(self, capsys):
        assert main(["gen"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_gen_corpus_requires_out(self, capsys):
        assert main(["gen", "corpus"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_gen_corpus_end_to_end(self, tmp_path, capsys):
        from repro.runner.corpus import SUITES

        out = tmp_path / "corpus"
        try:
            assert main(["gen", "corpus", "--out", str(out), "--name", "clitest",
                         "--kinds", "locked-mix,racy", "--count", "1",
                         "--seed", "2"]) == 0
            printed = capsys.readouterr().out
            assert "wrote 2 traces" in printed
            assert "corpus:clitest" in printed
            assert (out / "manifest.json").exists()
            # The registered suite sweeps immediately.
            assert main(["sweep", "--corpus", str(out / "manifest.json"),
                         "--analyses", "race-prediction", "--backends",
                         "vc-flat", "--format", "json"]) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["jobs"] == 2 and document["failures"] == 0
            # Each member doubles as a watch source via the manifest.
            assert main(["watch", "--source", str(out / "manifest.json"),
                         "--analyses", "race-prediction"]) == 0
            assert "final[race-prediction]" in capsys.readouterr().out
        finally:
            SUITES.pop("corpus:clitest", None)

    def test_gen_corpus_config_file_with_flag_overrides(self, tmp_path,
                                                        capsys):
        from repro.runner.corpus import SUITES

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"name": "fromfile", "count": 3,
                                      "kinds": ["racy"]}))
        try:
            assert main(["gen", "corpus", "--out", str(tmp_path / "c"),
                         "--config", str(config), "--count", "1"]) == 0
            assert "wrote 1 traces" in capsys.readouterr().out
        finally:
            SUITES.pop("corpus:fromfile", None)

    def test_gen_corpus_malformed_config_json_is_a_clean_error(self, tmp_path,
                                                               capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        assert main(["gen", "corpus", "--out", str(tmp_path / "c"),
                     "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_gen_corpus_config_file_rejects_run_scoped_keys(self, tmp_path,
                                                            capsys):
        # 'out' belongs to the invocation (--out); a file smuggling it in
        # would silently lose to the flag, so it is rejected up front.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"name": "x", "out": "/elsewhere"}))
        assert main(["gen", "corpus", "--out", str(tmp_path / "c"),
                     "--config", str(config)]) == 2
        assert "unknown corpus config keys" in capsys.readouterr().err


class TestConvert:
    def test_convert_round_trip(self, trace_file, tmp_path, capsys):
        stc = tmp_path / "t.stc"
        assert main(["convert", str(trace_file), str(stc)]) == 0
        assert "(std) -> " in capsys.readouterr().out
        assert stc.read_bytes()[:4] == b"\x89STC"
        back = tmp_path / "back.std"
        assert main(["convert", str(stc), str(back)]) == 0
        assert list(load_trace(back)) == list(load_trace(trace_file))

    def test_convert_json_document(self, trace_file, tmp_path, capsys):
        stc = tmp_path / "t.stc"
        assert main(["convert", str(trace_file), str(stc),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["out_format"] == "stc"
        assert document["event_count"] > 0

    def test_convert_to_overrides_suffix(self, trace_file, tmp_path,
                                         capsys):
        out = tmp_path / "anything.dat"
        assert main(["convert", str(trace_file), str(out),
                     "--to", "stc"]) == 0
        assert out.read_bytes()[:4] == b"\x89STC"

    def test_generate_writes_stc_by_suffix(self, tmp_path, capsys):
        path = tmp_path / "t.stc"
        assert main(["generate", "racy", "--threads", "2", "--events",
                     "20", "--out", str(path)]) == 0
        assert path.read_bytes()[:4] == b"\x89STC"
        # analyze sniffs and accepts the binary trace directly.
        assert main(["analyze", "race-prediction", str(path)]) == 0

    def test_gen_corpus_trace_format_stc(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen", "corpus", "--out", str(out), "--kinds", "racy",
                     "--count", "1", "--trace-format", "stc"]) == 0
        members = list(out.glob("*.stc"))
        assert members, "no .stc members written"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "stc"
        from repro.runner.corpus import SUITES
        SUITES.pop("corpus:corpus", None)


class TestFuzzCommand:
    def test_fuzz_quick_run_is_clean(self, capsys):
        assert main(["fuzz", "--seeds", "6", "--quick",
                     "--kinds", "racy,locked-mix"]) == 0
        output = capsys.readouterr().out
        assert "6 cases" in output and "0 divergence" in output

    def test_fuzz_verbose_prints_cases(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--quick", "--kinds", "racy",
                     "--verbose"]) == 0
        assert "case fuzz0000-racy" in capsys.readouterr().out

    def test_fuzz_invalid_seeds_rejected(self, capsys):
        assert main(["fuzz", "--seeds", "0"]) == 2
        assert "seeds must be >= 1" in capsys.readouterr().err

    def test_fuzz_unknown_kind_is_a_clean_error(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--kinds", "quantum"]) == 2
        assert "unknown kinds" in capsys.readouterr().err


class TestSweepDiscovery:
    def test_list_suites(self, capsys):
        assert main(["sweep", "--list-suites"]) == 0
        output = capsys.readouterr().out
        for suite in ("smoke", "quick", "seeds", "scaling", "full"):
            assert suite in output
        assert "description" in output

    def test_list_analyses(self, capsys):
        assert main(["sweep", "--list-analyses"]) == 0
        output = capsys.readouterr().out
        for name in ANALYSES:
            assert name in output
        assert "incremental-csst" in output
        assert "racy" in output  # the feeding workload kinds are shown

    def test_both_flags_run_nothing_else(self, capsys):
        assert main(["sweep", "--list-suites", "--list-analyses"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "race-prediction" in output
        assert "sweep[" not in output  # no sweep actually ran


class TestAnalysisNameResolution:
    def test_exact_underscore_and_prefix_spellings(self):
        from repro.cli import resolve_analysis_name

        assert resolve_analysis_name("race-prediction") == "race-prediction"
        assert resolve_analysis_name("race_prediction") == "race-prediction"
        assert resolve_analysis_name("deadlock") == "deadlock-prediction"
        assert resolve_analysis_name("lin") == "linearizability"

    def test_unknown_name_rejected(self):
        from repro.cli import resolve_analysis_name
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown analysis"):
            resolve_analysis_name("quantum")


class TestWatch:
    def test_watch_file_source_emits_and_summarises(self, trace_file, capsys):
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race_prediction,deadlock", "--flush-every", "60"]) == 0
        output = capsys.readouterr().out
        assert "race-prediction:" in output  # at least one emitted finding
        assert "stream[" in output
        assert "final[race-prediction]" in output
        assert "final[deadlock-prediction]" in output

    def test_watch_final_set_matches_batch(self, trace_file, capsys):
        from repro.analyses.common.base import Analysis

        trace = load_trace(trace_file)
        batch = Analysis.by_name("race-prediction")(
            "incremental-csst").run(trace)
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--format", "jsonl"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        summary = [line for line in lines if line["type"] == "summary"][0]
        assert summary["final"]["race-prediction"] == \
            [str(finding) for finding in batch.findings]

    def test_watch_generator_source_defaults_analyses(self, capsys):
        assert main(["watch", "--source",
                     "deadlock:threads=3,events=24,seed=5"]) == 0
        assert "final[deadlock-prediction]" in capsys.readouterr().out

    def test_watch_gzip_source(self, tmp_path, capsys):
        path = tmp_path / "t.std.gz"
        main(["generate", "racy", "--threads", "2", "--events", "20",
              "--out", str(path)])
        assert main(["watch", "--source", str(path), "--analyses",
                     "race-prediction"]) == 0
        assert "final[race-prediction]" in capsys.readouterr().out

    def test_watch_windowed_run(self, trace_file, capsys):
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--window", "50"]) == 0
        assert "stream[" in capsys.readouterr().out

    def test_watch_checkpoint_resume_round_trip(self, trace_file, tmp_path,
                                                capsys):
        from repro.analyses.common.base import Analysis

        trace = load_trace(trace_file)
        batch = Analysis.by_name("race-prediction")(
            "incremental-csst").run(trace)
        checkpoint = tmp_path / "ck.json"
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--max-events", "90",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert checkpoint.exists()
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--format", "jsonl",
                     "--checkpoint", str(checkpoint)]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        summary = [line for line in lines if line["type"] == "summary"][0]
        assert summary["events"] == len(trace)
        assert summary["final"]["race-prediction"] == \
            [str(finding) for finding in batch.findings]

    def test_watch_typoed_backend_is_a_clean_error(self, trace_file, capsys):
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--backend", "vcc"]) == 2
        assert "unknown partial-order backend" in capsys.readouterr().err

    def test_watch_window_with_flush_every_rejected(self, trace_file, capsys):
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--window", "50",
                     "--flush-every", "10"]) == 2
        assert "flush_every only applies" in capsys.readouterr().err

    def test_watch_plain_resume_does_not_warn(self, trace_file, tmp_path,
                                              capsys):
        checkpoint = tmp_path / "ck.json"
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--flush-every", "30",
                     "--max-events", "60", "--checkpoint",
                     str(checkpoint)]) == 0
        capsys.readouterr()
        # Resuming with the flags simply omitted is the documented flow
        # and must not warn about configuration mismatches.
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--checkpoint",
                     str(checkpoint)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_watch_conflicting_resume_flags_warn(self, trace_file, tmp_path,
                                                 capsys):
        checkpoint = tmp_path / "ck.json"
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--max-events", "60",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--window", "50",
                     "--checkpoint", str(checkpoint)]) == 0
        err = capsys.readouterr().err
        assert "window is fixed at checkpoint creation" in err

    def test_watch_file_source_requires_analyses(self, trace_file, capsys):
        assert main(["watch", "--source", str(trace_file)]) == 2
        assert "need analyses" in capsys.readouterr().err

    def test_watch_generator_resume_without_analyses_does_not_warn(
            self, tmp_path, capsys):
        """Resuming a generator-source watch with --analyses omitted must
        not manufacture a mismatch warning from the kind's defaults."""
        checkpoint = tmp_path / "ck.json"
        spec = "memory:threads=3,events=24,seed=2"
        assert main(["watch", "--source", spec, "--analyses",
                     "use_after_free", "--max-events", "30",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["watch", "--source", spec,
                     "--checkpoint", str(checkpoint)]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.err
        assert "final[use-after-free]" in captured.out
        assert "final[memory-bugs]" not in captured.out

    def test_watch_resume_equivalent_window_spellings_do_not_warn(
            self, trace_file, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--max-events", "60",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        # '0' and 'none' both mean unbounded; no warning for a spelling.
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--window", "0",
                     "--checkpoint", str(checkpoint)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_watch_resume_without_analyses_uses_checkpoint(self, trace_file,
                                                           tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--max-events", "60",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        # The checkpoint records the analyses; resuming needs no flag.
        assert main(["watch", "--source", str(trace_file),
                     "--checkpoint", str(checkpoint)]) == 0
        captured = capsys.readouterr()
        assert "final[race-prediction]" in captured.out
        assert "warning" not in captured.err

    def test_watch_unknown_source_is_clean_error(self, capsys):
        assert main(["watch", "--source", "/no/such/trace.std",
                     "--analyses", "race-prediction"]) == 2
        assert "neither an existing trace file" in capsys.readouterr().err

    def test_watch_bad_generator_parameters_are_clean_errors(self, capsys):
        assert main(["watch", "--source", "racy:threads=abc"]) == 2
        assert "invalid generator parameters" in capsys.readouterr().err
        assert main(["watch", "--source", "racy:bogus=1"]) == 2
        assert "invalid generator parameters" in capsys.readouterr().err

    def test_watch_final_flush_failure_exits_1(self, tmp_path, capsys):
        """A stream truncated mid-operation leaves the analysis without a
        final result; like sweep, that is not a clean exit."""
        path = tmp_path / "h.std"
        main(["generate", "history", "--threads", "2", "--events", "8",
              "--out", str(path)])
        assert main(["watch", "--source", str(path), "--analyses",
                     "linearizability", "--max-events", "3"]) == 1
        assert "last flush failed" in capsys.readouterr().err

    def test_watch_multiple_sources_serve_tenants(self, trace_file, capsys):
        """Several --source flags route through the serving layer: one
        tenant each, tenant-prefixed findings, one summary per tenant."""
        assert main(["watch", "--source", str(trace_file),
                     "--source", "racy:threads=2,events=20,seed=9",
                     "--analyses", "race-prediction",
                     "--format", "jsonl"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        document = [line for line in lines if line["type"] == "serve"][0]
        assert len(document["tenants"]) == 2
        assert sorted(document["summaries"]) == document["tenants"]
        assert all("tenant" in line for line in lines
                   if line["type"] == "finding")

    def test_watch_multiple_sources_reject_single_feed_flags(self, trace_file,
                                                             capsys):
        assert main(["watch", "--source", str(trace_file),
                     "--source", "racy:threads=2,events=20,seed=9",
                     "--analyses", "race-prediction", "--follow"]) == 2
        assert "follow" in capsys.readouterr().err


class TestServe:
    SOURCES = ["racy:threads=2,events=30,seed=1",
               "racy:threads=2,events=20,seed=2"]

    def serve(self, *extra):
        command = ["serve", "--analyses", "race-prediction"]
        for source in self.SOURCES:
            command += ["--source", source]
        return main(command + list(extra))

    def test_replay_inline_jsonl(self, capsys):
        assert self.serve("--workers", "0", "--format", "jsonl") == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        document = [line for line in lines if line["type"] == "serve"][0]
        assert document["workers"] == 0
        assert document["events"] == 60 + 40  # events are per thread
        assert len(document["tenants"]) == 2
        for summary in document["summaries"].values():
            assert summary["type"] == "summary"
            assert "final" in summary

    def test_replay_sharded_text_summary(self, capsys):
        assert self.serve("--workers", "2") == 0
        output = capsys.readouterr().out
        assert "served 2 tenants" in output
        assert "2 workers" in output

    def test_mode_validation_is_clean_error(self, capsys):
        assert main(["serve", "--analyses", "race-prediction"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_bad_listen_address_is_clean_error(self, capsys):
        assert main(["serve", "--analyses", "race-prediction",
                     "--listen", "7341"]) == 2
        assert "malformed --listen" in capsys.readouterr().err


class TestMetricsFlag:
    def test_analyze_metrics_writes_parseable_jsonl(self, trace_file,
                                                    tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert main(["analyze", "race-prediction", str(trace_file),
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        [line] = path.read_text().splitlines()
        snapshot = json.loads(line)
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "trace_loads_total" in names
        assert [span["name"] for span in snapshot["spans"]] == ["analyze"]

    def test_watch_metrics_counts_streamed_events(self, trace_file,
                                                  tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert main(["watch", "--source", str(trace_file), "--analyses",
                     "race-prediction", "--flush-every", "30",
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        snapshot = json.loads(path.read_text().splitlines()[-1])
        events = [entry for entry in snapshot["counters"]
                  if entry["name"] == "stream_events_total"]
        assert events and events[0]["value"] == 180
        latencies = [entry for entry in snapshot["histograms"]
                     if entry["name"] == "stream_flush_seconds"]
        assert latencies and latencies[0]["count"] > 0

    def test_sweep_metrics_appends_across_runs(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        for _ in range(2):
            assert main(["sweep", "--suite", "smoke", "--analyses",
                         "race-prediction", "--backends", "vc-flat",
                         "--metrics", str(path)]) == 0
        capsys.readouterr()
        assert len(path.read_text().splitlines()) == 2

    def test_disabled_runs_write_nothing(self, trace_file, tmp_path,
                                         capsys):
        assert main(["analyze", "race-prediction", str(trace_file)]) == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("*.jsonl"))


class TestStatsCommand:
    @pytest.fixture
    def metrics_file(self, trace_file, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert main(["analyze", "race-prediction", str(trace_file),
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_table_output(self, metrics_file, capsys):
        assert main(["stats", str(metrics_file)]) == 0
        output = capsys.readouterr().out
        assert "trace_loads_total{format=std}" in output
        assert "spans:" in output

    def test_json_output_is_the_snapshot(self, metrics_file, capsys):
        assert main(["stats", str(metrics_file), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == json.loads(metrics_file.read_text())

    def test_prom_output_is_valid_exposition(self, metrics_file, capsys):
        assert main(["stats", str(metrics_file), "--format", "prom"]) == 0
        output = capsys.readouterr().out
        assert "# TYPE trace_loads_total counter" in output
        assert 'trace_loads_total{format="std"} 1' in output
        assert 'le="+Inf"' in output
        # Every non-comment line is "name{labels} value".
        for line in output.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name and float(value) >= 0

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_index_is_a_clean_error(self, metrics_file, capsys):
        assert main(["stats", str(metrics_file), "--index", "5"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestReportCommand:
    def test_trend_report_from_bench_documents(self, tmp_path, capsys):
        baseline = {"modes": {"quick": {
            "python": "3", "repeats": 1,
            "results": {"fig11/csst": {"seconds": 0.1}},
        }}}
        (tmp_path / "BENCH_baseline.json").write_text(json.dumps(baseline))
        out = tmp_path / "tables"
        assert main(["report", "trend", "--dir", str(tmp_path),
                     "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "perf_trend.md" in output
        assert "fig11/csst" in (out / "perf_trend.md").read_text()
        assert json.loads((out / "perf_trend.json").read_text())["modes"]

    def test_crossover_report_re_renders_the_committed_table(self, tmp_path,
                                                            capsys):
        tables = Path(__file__).resolve().parent.parent / "docs" / "tables"
        out = tmp_path / "tables"
        assert main(["report", "crossover", "--dir", str(tables),
                     "--out", str(out)]) == 0
        assert "race-prediction: vc-flat" in capsys.readouterr().out
        for name in ("crossover.md", "crossover.json"):
            assert (out / name).read_bytes() == (tables / name).read_bytes()

    def test_crossover_report_merges_raw_sweeps(self, tmp_path, capsys):
        records = [{"suite": "crossover", "trace_id": "racy-t4-n200-s0",
                    "kind": "racy", "threads": 4, "events": 200, "seed": 0,
                    "analysis": "race-prediction", "backend": backend,
                    "status": "ok", "elapsed_seconds": seconds,
                    "elapsed_median_seconds": seconds, "repeats": 5}
                   for backend, seconds in (("incremental-csst", 0.4),
                                            ("vc-flat", 0.2))]
        for run in (1, 2):
            (tmp_path / f"crossover-sweep-{run}.json").write_text(
                json.dumps({"suite": "crossover", "records": records}))
        assert main(["report", "crossover", "--dir", str(tmp_path),
                     "--out", str(tmp_path)]) == 0
        table = json.loads((tmp_path / "crossover.json").read_text())
        assert table["sweeps"] == 2
        assert "race-prediction: vc-flat (worst cell 1.00x" \
            in capsys.readouterr().out

    def test_empty_directory_is_a_clean_error(self, tmp_path, capsys):
        assert main(["report", "trend", "--dir", str(tmp_path),
                     "--out", str(tmp_path / "t")]) == 2
        assert "no BENCH_" in capsys.readouterr().err
