"""CLI <-> API parity goldens.

The acceptance contract of the facade: every subcommand is a shim, so the
bytes the CLI prints for a JSON format must be exactly
``Session.run(config).to_json()`` for the equivalent config.  These tests
spy on ``Session.run`` to capture the very result object the CLI rendered
and compare the captured stdout against its serialized forms -- any
orchestration the CLI did on the side would break the byte equality.

Timing-free requests (gen, fuzz) additionally pin that an *independent*
``Session.run`` of the equivalent config reproduces the CLI bytes
verbatim; timing-carrying requests (analyze, sweep) compare modulo the
elapsed-seconds fields.
"""

import json

import pytest

from repro.api import (
    AnalyzeConfig,
    FuzzConfig,
    GenConfig,
    Session,
    SweepConfig,
)
from repro.cli import main


@pytest.fixture
def spy_run(monkeypatch):
    """Capture the (config, result) pairs flowing through Session.run."""
    captured = []
    real_run = Session.run

    def spying_run(self, config, **hooks):
        result = real_run(self, config, **hooks)
        captured.append((config, result))
        return result

    monkeypatch.setattr(Session, "run", spying_run)
    return captured


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.std"
    assert main(["generate", "racy", "--threads", "3", "--events", "60",
                 "--seed", "5", "--out", str(path)]) == 0
    return str(path)


def _without_timing(document):
    """Drop wall-clock fields so two separate runs can be compared."""
    if isinstance(document, dict):
        return {key: _without_timing(value)
                for key, value in document.items()
                if "elapsed" not in key and "seconds" not in key}
    if isinstance(document, list):
        return [_without_timing(item) for item in document]
    return document


class TestAnalyzeParity:
    def test_cli_json_is_the_session_result_json(self, trace_file, spy_run,
                                                 capsys):
        capsys.readouterr()
        assert main(["analyze", "race-prediction", trace_file,
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        config, result = spy_run[-1]
        assert config == AnalyzeConfig(analysis="race-prediction",
                                       trace=trace_file)
        assert out == result.to_json() + "\n"

    def test_cli_text_is_the_session_result_table(self, trace_file, spy_run,
                                                  capsys):
        capsys.readouterr()
        assert main(["analyze", "race-prediction", trace_file]) == 0
        out = capsys.readouterr().out
        _, result = spy_run[-1]
        assert out == result.to_table() + "\n"

    def test_independent_session_run_matches_modulo_timing(self, trace_file,
                                                           capsys):
        assert main(["analyze", "race-prediction", trace_file,
                     "--format", "json"]) == 0
        cli_document = json.loads(capsys.readouterr().out)
        api_document = Session().run(
            AnalyzeConfig(analysis="race-prediction",
                          trace=trace_file)).to_dict()
        assert _without_timing(cli_document) == _without_timing(api_document)


class TestSweepParity:
    ARGS = ["sweep", "--suite", "smoke", "--analyses", "race-prediction",
            "--backends", "vc-flat,st", "--baseline", "vc-flat"]
    CONFIG = SweepConfig(suite="smoke", analyses="race-prediction",
                         backends="vc-flat,st", baseline="vc-flat", format="json")

    def test_cli_json_is_the_session_result_json(self, spy_run, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        config, result = spy_run[-1]
        assert config == self.CONFIG
        assert out == result.to_json() + "\n"

    def test_cli_table_is_the_session_result_table(self, spy_run, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        _, result = spy_run[-1]
        assert out == result.to_table() + "\n"

    def test_independent_session_run_matches_modulo_timing(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        cli_document = json.loads(capsys.readouterr().out)
        api_document = Session().run(self.CONFIG).to_dict()
        # Speedup ratios derive from wall clock; everything else is pinned.
        cli_document.pop("speedups"), api_document.pop("speedups")
        assert _without_timing(cli_document) == _without_timing(api_document)


class TestGenParity:
    def test_cli_json_is_byte_identical_to_session_json(self, tmp_path,
                                                        capsys):
        from repro.runner.corpus import SUITES

        argv_out = tmp_path / "cli-corpus"
        api_out = tmp_path / "api-corpus"
        try:
            assert main(["gen", "corpus", "--out", str(argv_out), "--name",
                         "parity", "--kinds", "racy,locked-mix", "--count",
                         "1", "--seed", "2", "--format", "json"]) == 0
            cli_json = capsys.readouterr().out
            result = Session().run(GenConfig(out=str(api_out), name="parity",
                                             kinds="racy,locked-mix",
                                             count=1, seed=2))
            assert cli_json == result.to_json() + "\n"
            # ... and the member files themselves are byte-identical
            # (canonical gzip: a corpus is a pure function of its config).
            for member in result.manifest["traces"]:
                assert (argv_out / member["file"]).read_bytes() == \
                    (api_out / member["file"]).read_bytes()
        finally:
            SUITES.pop("corpus:parity", None)


class TestFuzzParity:
    ARGS = ["fuzz", "--seeds", "4", "--quick", "--kinds", "racy,locked-mix",
            "--seed", "3"]

    def test_cli_json_is_byte_identical_to_session_json(self, tmp_path,
                                                        capsys):
        assert main(self.ARGS + ["--out", str(tmp_path / "a"),
                                 "--format", "json"]) == 0
        cli_json = capsys.readouterr().out
        result = Session().run(FuzzConfig(seeds=4, quick=True,
                                          kinds="racy,locked-mix", seed=3,
                                          out=str(tmp_path / "b")))
        assert cli_json == result.to_json() + "\n"

    def test_cli_text_is_the_session_result_table(self, spy_run, capsys,
                                                  tmp_path):
        assert main(self.ARGS + ["--out", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        _, result = spy_run[-1]
        assert out == result.to_table() + "\n"


class TestWatchParity:
    def test_jsonl_summary_is_the_session_result_dict(self, trace_file,
                                                      spy_run, capsys):
        capsys.readouterr()
        assert main(["watch", "--source", trace_file, "--analyses",
                     "race-prediction", "--format", "jsonl"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        summary = [line for line in lines if line["type"] == "summary"][0]
        _, result = spy_run[-1]
        assert summary == result.to_dict()

    def test_text_block_is_the_session_result_table(self, trace_file,
                                                    spy_run, capsys):
        capsys.readouterr()
        assert main(["watch", "--source", trace_file, "--analyses",
                     "race-prediction"]) == 0
        out = capsys.readouterr().out
        _, result = spy_run[-1]
        assert out.endswith(result.to_table() + "\n")


class TestVersionAndCapabilities:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_capabilities_subcommand_is_session_capabilities(self, capsys):
        assert main(["capabilities"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == json.loads(
            json.dumps(Session().capabilities(), sort_keys=True))
        assert document["exit_codes"]["error"] == 2


class TestExitCodes:
    def test_config_errors_exit_2(self, capsys):
        assert main(["fuzz", "--seeds", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_reported_failures_exit_1(self, tmp_path, capsys):
        # A truncated linearizability stream leaves no final result.
        path = tmp_path / "h.std"
        main(["generate", "history", "--threads", "2", "--events", "8",
              "--out", str(path)])
        assert main(["watch", "--source", str(path), "--analyses",
                     "linearizability", "--max-events", "3"]) == 1

    @pytest.mark.parametrize("argv, missing", [
        (["watch", "--analyses", "race-prediction"], "checkpoint path"),
        (["serve", "--analyses", "race-prediction", "--workers", "0"],
         "checkpoint_dir"),
    ], ids=["watch", "serve"])
    def test_checkpoint_every_without_a_destination_exits_2(
            self, trace_file, tmp_path, monkeypatch, capsys, argv, missing):
        # Such a run could never save a checkpoint; it is refused before
        # any event is consumed and writes nothing.
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--source", trace_file,
                            "--checkpoint-every", "5"]) == 2
        assert missing in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "trace.std"]

    def test_os_errors_exit_2(self, capsys):
        assert main(["analyze", "race-prediction",
                     "/no/such/trace.std"]) == 2
        assert "error:" in capsys.readouterr().err
