"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.trace import read_jsonl, validate_chrome_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_testbed_defaults(self):
        args = build_parser().parse_args(["testbed"])
        assert args.policy == "LRS"
        assert args.app == "face_recognition"
        assert args.duration == 60.0

    def test_app_alias_translation(self):
        args = build_parser().parse_args(["testbed", "--app", "translation"])
        assert args.app == "voice_translation"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["testbed", "--app", "weather"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["testbed", "--policy", "FIFO"])

    def test_extension_policies_accepted(self):
        args = build_parser().parse_args(["testbed", "--policy", "PRS"])
        assert args.policy == "PRS"


class TestCommands:
    def test_testbed_summary(self, capsys):
        assert main(["testbed", "--duration", "8", "--policy", "LRS"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "FPS" in out
        assert "aggregate power" in out

    def test_single_decomposition(self, capsys):
        assert main(["single", "--device", "B", "--rate", "4",
                     "--duration", "5", "--signal", "poor"]) == 0
        out = capsys.readouterr().out
        assert "transmission" in out
        assert "processing" in out

    @pytest.mark.parametrize("mode", ["join", "leave", "move"])
    def test_dynamics_modes(self, capsys, mode):
        assert main(["dynamics", "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_compare_with_seeds(self, capsys):
        assert main(["compare", "--duration", "6", "--seeds", "0", "1"]) == 0
        out = capsys.readouterr().out
        for policy in ("RR", "PR", "LR", "PRS", "LRS"):
            assert policy in out
        assert "±" in out

    def test_cloudlet(self, capsys):
        assert main(["cloudlet", "--duration", "8"]) == 0
        out = capsys.readouterr().out
        assert "phones only" in out
        assert "with cloudlet" in out


class TestCsvOption:
    def test_trace_written(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        assert main(["testbed", "--duration", "5", "--csv", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("seq,device_id")
        assert text.count("\n") > 50


class TestTraceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scenario == "single"
        assert args.sample_rate == 1.0
        assert args.out == "swing.trace.json"

    def test_sample_rate_validated(self):
        with pytest.raises(SystemExit):
            main(["trace", "--sample-rate", "1.5"])

    def test_trace_artifacts_written(self, capsys, tmp_path):
        out = tmp_path / "run.trace.json"
        jsonl = tmp_path / "spans.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main(["trace", "--duration", "4",
                     "--out", str(out), "--jsonl", str(jsonl),
                     "--metrics-json", str(metrics_path)]) == 0
        printed = capsys.readouterr().out
        assert "measured" in printed
        assert "analytic" in printed

        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace)
        assert read_jsonl(jsonl)
        metrics_doc = json.loads(metrics_path.read_text())
        assert "metrics" in metrics_doc
        assert "trace" in metrics_doc
        assert metrics_doc["metrics"]["histograms"]

    def test_testbed_scenario_supported(self, capsys, tmp_path):
        out = tmp_path / "tb.trace.json"
        assert main(["trace", "--scenario", "testbed", "--duration", "6",
                     "--sample-rate", "0.5", "--out", str(out)]) == 0
        assert validate_chrome_trace(json.loads(out.read_text()))


class TestSkewCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["skew"])
        assert args.keys == 64
        assert args.alpha == 1.2
        assert not args.static
        assert not args.best_effort

    def test_splitting_run_summary(self, capsys):
        assert main(["skew", "--duration", "12"]) == 0
        out = capsys.readouterr().out
        assert "hot-range splitting" in out
        assert "range splits" in out
        assert "end-to-end lost" in out

    def test_static_baseline_mode(self, capsys):
        assert main(["skew", "--duration", "8", "--static"]) == 0
        out = capsys.readouterr().out
        assert "static hash routing" in out

    def test_metrics_json_carries_keyed_families(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["skew", "--duration", "12",
                     "--metrics-json", str(path)]) == 0
        doc = json.loads(path.read_text())
        counters = doc["metrics"]["counters"]
        assert any(name.startswith("swing_hot_keys_detected_total")
                   for name in counters)
        assert any(name.startswith("swing_key_range_moves_total")
                   for name in counters)
        assert any(name.startswith("swing_state_migration_seconds")
                   for name in doc["metrics"]["histograms"])


class TestMetricsJsonOption:
    def test_single_dumps_registry(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["single", "--device", "B", "--duration", "3",
                     "--metrics-json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert set(doc) >= {"metrics"}
        assert "counters" in doc["metrics"]

    def test_testbed_dumps_registry(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["testbed", "--duration", "5",
                     "--metrics-json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert any(name.startswith("swing_")
                   for name in doc["metrics"]["counters"])


class TestVerifyCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["verify", "--schedules", "2", "--seed", "1",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_sweep_prints_its_coverage_notes(self, capsys):
        # Notes never fail a sweep, but they are printed: how many runs
        # carried one, per substrate, then each distinct text once.
        assert main(["verify", "--schedules", "3", "--seed", "1",
                     "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verify: 3 schedule(s) x sim -> 3/3 run(s) clean"
        assert lines[1] == "coverage notes: sim 2/3 run(s)"
        assert lines[2:] == [
            "  sim, 1 run(s): chaos_corrupt window on A>B has no "
            "discrete-event mirror",
            "  sim, 1 run(s): chaos_corrupt window on A>H has no "
            "discrete-event mirror",
            "  sim, 1 run(s): chaos_duplicate window on A>B has no "
            "discrete-event mirror"]

    def test_violation_exits_one_and_writes_repro(self, tmp_path,
                                                  seeded_redelivery_bug,
                                                  capsys):
        repro = tmp_path / "repro.json"
        code = main(["verify", "--schedules", "1", "--seed", "1",
                     "--quiet", "--out", str(repro)])
        assert code == 1
        assert repro.exists()
        doc = json.loads(repro.read_text())
        assert doc["substrate"] == "sim"
        assert doc["violations"]
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_replay_reproduces_then_clears(self, tmp_path,
                                           seeded_redelivery_bug, capsys):
        repro = tmp_path / "repro.json"
        assert main(["verify", "--schedules", "1", "--seed", "1",
                     "--quiet", "--out", str(repro)]) == 1
        capsys.readouterr()
        assert main(["verify", "--replay", str(repro), "--quiet"]) == 1
        # The "fix" (the seeded bug undone) turns the same repro clean: exit 0.
        seeded_redelivery_bug.undo()
        assert main(["verify", "--replay", str(repro), "--quiet"]) == 0

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--substrate", "quantum"])
        assert exc.value.code == 2
