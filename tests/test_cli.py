"""End-to-end command-line flows on temporary directories."""

import csv
import json
import struct
import warnings

import numpy as np
import pytest

from spectrig import io
from spectrig import pipeline as pipeline_module
from spectrig.cli import main
from spectrig.envsim import SyntheticStream, replica_scenario


@pytest.fixture(scope="module")
def replica_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("replica")
    assert main(["replica", "--seed", "42", "--out-dir", str(out)]) == 0
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestReplica:
    def test_emits_expected_files(self, replica_dir):
        for name in (
            "scenario.json",
            "pipeline.json",
            "frames.bin",
            "truth.csv",
            "events.csv",
            "series.csv",
            "metrics.json",
            "confusion.csv",
            "per_phase.csv",
            "report.json",
        ):
            assert (replica_dir / name).exists(), name

    def test_metrics_hit_the_targets(self, replica_dir):
        metrics = read_json(replica_dir / "metrics.json")
        assert metrics["confusion"]["fp"] == 0
        assert metrics["derived"]["sensitivity"] >= 0.95
        assert 3.0 <= metrics["threshold"]["adaptation_ratio"] <= 8.0

    def test_series_covers_every_frame(self, replica_dir):
        series = io.read_series(replica_dir / "series.csv")
        scenario = io.load_scenario(replica_dir / "scenario.json")
        assert len(series["frame"]) == scenario.total_frames
        assert set(series) == {"frame", "rms", "feature", "threshold", "margin", "event"}

    def test_series_rms_is_each_frames_rms(self, replica_dir):
        samples, _ = io.read_frames(replica_dir / "frames.bin")
        series = io.read_series(replica_dir / "series.csv")
        assert np.array_equal(series["rms"], np.sqrt(np.mean(samples**2, axis=1)))

    def test_report_echoes_reproducible_config(self, replica_dir):
        report = read_json(replica_dir / "report.json")
        assert report["config"]["scenario"]["seed"] == 42
        assert report["config"]["generator"] == "v2:numpy:PCG64:phase-table-2^16"
        assert report["payload_comparison_bits"]["trigger_only"] == 64
        # the echoed scenario reloads into the exact replica definition
        assert io.scenario_from_dict(report["config"]["scenario"]) == replica_scenario(42)

    def test_one_pass_reads_nothing_back(self, replica_dir, tmp_path, monkeypatch):
        def no_reading(*args, **kwargs):
            raise AssertionError("replica read a frame container")

        monkeypatch.setattr(io, "read_frames", no_reading)
        monkeypatch.setattr(io.FrameReader, "__init__", no_reading)
        out = tmp_path / "replica"
        assert main(["replica", "--seed", "42", "--out-dir", str(out)]) == 0
        for name in ("frames.bin", "events.csv", "series.csv", "report.json"):
            assert (out / name).read_bytes() == (replica_dir / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["eval", "replica"])
    def test_csv_format_lists_the_metrics(self, replica_dir, tmp_path, capsys, command):
        """--format csv prints a metric,value line per confusion count, then one per derived
        metric in name order, with the values metrics.json holds."""
        out = tmp_path / command
        if command == "eval":
            argv = ["eval", "--events", str(replica_dir / "events.csv"), "--truth",
                    str(replica_dir / "truth.csv"), "--scenario", str(replica_dir / "scenario.json")]
        else:
            argv = ["replica", "--seed", "42"]
        assert main([*argv, "--format", "csv", "--out-dir", str(out)]) == 0
        metrics = read_json(out / "metrics.json")
        counts = [(key, metrics["confusion"][key]) for key in ("tp", "fp", "fn", "tn")]
        derived = sorted(metrics["derived"].items())
        expected = ["metric,value"] + [f"{key},{value}" for key, value in counts + derived]
        lines = capsys.readouterr().out.splitlines()
        assert lines[: len(expected)] == expected
        assert len(lines) == len(expected) + (command == "replica")  # then its runtime line

    def test_emitted_files_reload_through_own_parsers(self, replica_dir):
        samples, _ = io.read_frames(replica_dir / "frames.bin")
        truth = io.read_truth(replica_dir / "truth.csv")
        events = io.read_events(replica_dir / "events.csv")
        assert len(samples) == 6784
        assert len(truth) == 139
        assert len(events) > 0


class TestRoundTrip:
    @pytest.mark.parametrize("tracker", ["median", "ema"])
    def test_generate_detect_eval_equals_replica(self, replica_dir, tmp_path, tracker):
        if tracker != "median":
            replica_dir = tmp_path / "replica"
            argv = ["replica", "--seed", "42", "--tracker", tracker, "--out-dir", str(replica_dir)]
            assert main(argv) == 0
        gen_dir = tmp_path / "gen"
        det_dir = tmp_path / "det"
        eval_dir = tmp_path / "eval"

        assert main([
            "generate",
            "--config", str(replica_dir / "scenario.json"),
            "--out-dir", str(gen_dir),
        ]) == 0
        assert (gen_dir / "frames.bin").read_bytes() == (replica_dir / "frames.bin").read_bytes()
        assert (gen_dir / "truth.csv").read_bytes() == (replica_dir / "truth.csv").read_bytes()

        assert main([
            "detect",
            "--frames", str(gen_dir / "frames.bin"),
            "--detector", "proposed",
            "--config", str(replica_dir / "pipeline.json"),
            "--out-dir", str(det_dir),
        ]) == 0
        assert (det_dir / "events.csv").read_bytes() == (replica_dir / "events.csv").read_bytes()
        assert (det_dir / "series.csv").read_bytes() == (replica_dir / "series.csv").read_bytes()

        assert main([
            "eval",
            "--events", str(det_dir / "events.csv"),
            "--truth", str(gen_dir / "truth.csv"),
            "--scenario", str(gen_dir / "scenario.json"),
            "--series", str(det_dir / "series.csv"),
            "--out-dir", str(eval_dir),
        ]) == 0
        assert (eval_dir / "metrics.json").read_bytes() == (replica_dir / "metrics.json").read_bytes()
        for step_dir, names in (
            (gen_dir, ("scenario.json",)),
            (det_dir, ("pipeline.json",)),
            (eval_dir, ("confusion.csv", "per_phase.csv")),
        ):
            for name in names:
                assert (step_dir / name).read_bytes() == (replica_dir / name).read_bytes(), name

    def test_eval_of_truth_against_itself_is_perfect(self, replica_dir, tmp_path):
        # use the truth file as the event stream: every interval is hit
        truth = io.read_truth(replica_dir / "truth.csv")
        rows = [
            io.EventRow(frame=iv.start_frame, frame_delta=0, bin=iv.bin, strength=0.0, payload=0)
            for iv in truth
        ]
        events_path = tmp_path / "events.csv"
        io.write_events(events_path, rows)
        out = tmp_path / "eval"
        assert main([
            "eval",
            "--events", str(events_path),
            "--truth", str(replica_dir / "truth.csv"),
            "--scenario", str(replica_dir / "scenario.json"),
            "--out-dir", str(out),
        ]) == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["derived"]["sensitivity"] == 1.0
        assert metrics["confusion"]["fp"] == 0

    def test_phase_name_with_a_comma_is_quoted(self, replica_dir, tmp_path):
        document = read_json(replica_dir / "scenario.json")
        document["phases"][0]["name"] = "low,noise"
        io.dump_json(tmp_path / "scenario.json", document)
        out = tmp_path / "eval"
        assert main([
            "eval",
            "--events", str(replica_dir / "events.csv"),
            "--truth", str(replica_dir / "truth.csv"),
            "--scenario", str(tmp_path / "scenario.json"),
            "--out-dir", str(out),
        ]) == 0
        with open(out / "per_phase.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [7] * 4
        assert [row[0] for row in rows[1:]] == ["low,noise", "transition", "high_noise"]


class TestBaselineDetectors:
    def test_fixed_detector_false_alarms_on_replica(self, replica_dir, tmp_path):
        det_dir = tmp_path / "fixed"
        eval_dir = tmp_path / "fixed-eval"
        assert main([
            "detect",
            "--frames", str(replica_dir / "frames.bin"),
            "--detector", "fixed",
            "--config", str(replica_dir / "pipeline.json"),
            "--calib-frames", "2800",
            "--out-dir", str(det_dir),
        ]) == 0
        assert main([
            "eval",
            "--events", str(det_dir / "events.csv"),
            "--truth", str(replica_dir / "truth.csv"),
            "--scenario", str(replica_dir / "scenario.json"),
            "--out-dir", str(eval_dir),
        ]) == 0
        metrics = read_json(eval_dir / "metrics.json")
        assert metrics["confusion"]["fp"] > 0

    def test_detect_without_config_uses_builtin_defaults(self, replica_dir, tmp_path):
        det_dir = tmp_path / "default-cfg"
        assert main([
            "detect",
            "--frames", str(replica_dir / "frames.bin"),
            "--out-dir", str(det_dir),
        ]) == 0
        assert (det_dir / "events.csv").read_bytes() == (replica_dir / "events.csv").read_bytes()

    def test_fixed_detector_saturates_a_huge_strength(self, tmp_path):
        """A finite sample near the float maximum fires with a saturated strength field."""
        samples = np.random.default_rng(1).normal(size=(20, 128))
        samples[12, 7] = 1e308
        io.write_frames(tmp_path / "frames.bin", samples, 1000.0)
        assert main([
            "detect",
            "--frames", str(tmp_path / "frames.bin"),
            "--detector", "fixed",
            "--calib-frames", "5",
            "--out-dir", str(tmp_path / "out"),
        ]) == 0
        (row,) = [row for row in io.read_events(tmp_path / "out" / "events.csv") if row.frame == 12]
        assert row.strength > 1e306
        assert (row.payload >> 40) & 0xFFFF == 0xFFFF

    def test_all_zero_calibration_is_an_error_line(self, tmp_path, capsys):
        """Mean + 3 sigma over all-zero frames is a zero threshold: an error line that names
        --calib-frames, and no out-dir."""
        io.write_frames(tmp_path / "frames.bin", np.zeros((20, 128)), 1000.0)
        out = tmp_path / "out"
        assert main([
            "detect",
            "--frames", str(tmp_path / "frames.bin"),
            "--detector", "fixed",
            "--calib-frames", "5",
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: --calib-frames 5:") and "> 0" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("calib_frames", [20, 100])
    def test_fixed_detector_names_an_overflowed_frame(self, tmp_path, capsys, calib_frames):
        """Finite samples whose |X| overflows are named by their frame, after the calibration
        stretch or inside it, and never blamed on calibration."""
        samples = np.random.default_rng(3).normal(size=(200, 64))
        samples[40] = 1.5e307 * np.cos(2 * np.pi * 3 * np.arange(64) / 64)
        io.write_frames(tmp_path / "frames.bin", samples, 1000.0)
        io.dump_json(
            tmp_path / "pipeline.json", {"frame_size": 64, "sample_rate_hz": 1000.0, "bins": [3, 9]}
        )
        out = tmp_path / "out"
        assert main([
            "detect",
            "--frames", str(tmp_path / "frames.bin"),
            "--config", str(tmp_path / "pipeline.json"),
            "--detector", "fixed",
            "--calib-frames", str(calib_frames),
            "--out-dir", str(out),
        ]) == 2
        assert capsys.readouterr().err == "error: frame 40: magnitudes must be finite and >= 0\n"
        assert not out.exists()

    def test_decimated_detector_runs(self, replica_dir, tmp_path):
        det_dir = tmp_path / "decimated"
        assert main([
            "detect",
            "--frames", str(replica_dir / "frames.bin"),
            "--detector", "decimated",
            "--decimation", "4",
            "--config", str(replica_dir / "pipeline.json"),
            "--out-dir", str(det_dir),
        ]) == 0
        assert (det_dir / "events.csv").exists()


class TestErrors:
    def test_missing_config_exits_nonzero(self, tmp_path):
        assert main([
            "generate",
            "--config", str(tmp_path / "absent.json"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 2

    def test_eval_requires_frame_count(self, replica_dir, tmp_path):
        assert main([
            "eval",
            "--events", str(replica_dir / "events.csv"),
            "--truth", str(replica_dir / "truth.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 2
        assert not (tmp_path / "out").exists()

    def test_eval_series_without_scenario_is_rejected(self, replica_dir, tmp_path, capsys, monkeypatch):
        """Without phase bounds the series would be parsed and then dropped; nothing is read."""
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(io, "read_series", unread)
        monkeypatch.setattr(io, "read_events", unread)
        out = tmp_path / "out"
        assert main([
            "eval",
            "--events", str(replica_dir / "events.csv"),
            "--truth", str(replica_dir / "truth.csv"),
            "--series", str(replica_dir / "series.csv"),
            "--total-frames", "6784",
            "--out-dir", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: --series needs --scenario")
        assert not out.exists()

    def test_bin_above_payload_limit_rejected_before_any_frame(
        self, tmp_path, capsys, monkeypatch
    ):
        rng = np.random.default_rng(1)
        io.write_frames(tmp_path / "frames.bin", rng.normal(size=(20, 1024)), 8000.0)
        io.dump_json(
            tmp_path / "pipeline.json",
            {"frame_size": 1024, "sample_rate_hz": 8000.0, "bins": [37, 300]},
        )

        def no_frames_expected(self, frames):
            raise AssertionError("a frame was processed")

        monkeypatch.setattr(pipeline_module.Pipeline, "decide", no_frames_expected)
        out = tmp_path / "out"
        assert main([
            "detect",
            "--frames", str(tmp_path / "frames.bin"),
            "--config", str(tmp_path / "pipeline.json"),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and "300" in stderr and "255" in stderr
        assert not out.exists()

    def test_frame_size_above_the_container_limit(self, replica_dir, tmp_path, capsys):
        document = {
            **read_json(replica_dir / "scenario.json"),
            "frame_size": 131072,
            "phases": [{"name": "only", "frames": 2, "level": 1.0}],
        }
        io.dump_json(tmp_path / "scenario.json", document)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and "65535" in stderr
        assert not (out / "frames.bin").exists()

    def test_rate_the_container_cannot_hold_exactly(self, replica_dir, tmp_path, capsys):
        document = {**read_json(replica_dir / "scenario.json"), "sample_rate_hz": 44100.3}
        io.dump_json(tmp_path / "scenario.json", document)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {tmp_path / 'scenario.json'}: sample rate 44100.3") and "f32" in stderr
        assert not out.exists()

    def test_rejected_container_header_makes_no_out_dir(self, replica_dir, tmp_path, capsys):
        document = {
            **read_json(replica_dir / "scenario.json"),
            "frame_size": 131072,
            "phases": [{"name": "only", "frames": 2, "level": 1.0}],
        }
        io.dump_json(tmp_path / "scenario.json", document)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["threshold-beside-coefficients", "level-on-a-ramp"])
    def test_a_key_that_would_go_unused_is_an_error_line(self, replica_dir, tmp_path, capsys, case):
        config = tmp_path / "config.json"
        if case == "threshold-beside-coefficients":
            document = {**read_json(replica_dir / "pipeline.json"), "threshold": 1.9}
            args = ["detect", "--frames", str(replica_dir / "frames.bin"), "--config", str(config)]
            keys = ("'threshold'", "'threshold_coefficients'")
        else:
            document = read_json(replica_dir / "scenario.json")
            document["phases"][1]["level"] = 40.0  # the transition phase, a ramp
            args = ["generate", "--config", str(config)]
            keys = ("'ramp'", "'level'")
        io.dump_json(config, document)
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {config}: ") and all(key in stderr for key in keys)
        assert not out.exists()

    @pytest.mark.parametrize("field, value, match", [("frame_size", 131072, "65535"), ("sample_rate_hz", 1000.1, "f32")])
    def test_pipeline_config_the_container_cannot_hold(self, replica_dir, tmp_path, capsys, field, value, match):
        config = tmp_path / "pipeline.json"
        io.dump_json(config, {**read_json(replica_dir / "pipeline.json"), field: value})
        out = tmp_path / "out"
        assert main([
            "detect", "--frames", str(replica_dir / "frames.bin"), "--config", str(config), "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {config}: ") and match in stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "detect", "eval"])
    def test_wrongly_typed_json_field_is_an_error_line(self, replica_dir, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        if command == "generate":
            document = {**read_json(replica_dir / "scenario.json"), "phases": 5}
            args = ["generate", "--config", str(config)]
        elif command == "detect":
            document = {**read_json(replica_dir / "pipeline.json"), "bins": 5}
            args = ["detect", "--frames", str(replica_dir / "frames.bin"), "--config", str(config)]
        else:
            document = {**read_json(replica_dir / "scenario.json"), "phases": 5}
            args = [
                "eval", "--events", str(replica_dir / "events.csv"),
                "--truth", str(replica_dir / "truth.csv"), "--scenario", str(config),
            ]
        io.dump_json(config, document)
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, raw",
        [("seed", "1.5"), ("frame_size", "1e999"), ("bins", "[3, 9, " + "1" * 400 + "]")],
        ids=["fractional-seed", "overflowing-frame-size", "400-digit-bin"],
    )
    def test_integer_fields_are_parsed_strictly(self, replica_dir, tmp_path, capsys, field, raw):
        """An integer field takes an integral JSON number of any size; anything else is an
        error line, not a truncated value or a traceback."""
        text = json.dumps({**read_json(replica_dir / "scenario.json"), field: "RAW"})
        (tmp_path / "scenario.json").write_text(text.replace('"RAW"', raw))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_non_finite_window_is_a_config_error(self, replica_dir, tmp_path, capsys):
        document = {**read_json(replica_dir / "pipeline.json"), "window": [1.0] * 127 + [float("nan")]}
        io.dump_json(tmp_path / "pipeline.json", document)
        out = tmp_path / "out"
        assert main([
            "detect",
            "--frames", str(replica_dir / "frames.bin"),
            "--config", str(tmp_path / "pipeline.json"),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and "window" in stderr and "frame 0" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", ["replica-seed", "generate-seed-flag", "generate-seed-field", "unplaceable-events"]
    )
    def test_scenario_the_generator_rejects_makes_no_out_dir(self, replica_dir, tmp_path, capsys, case):
        document = read_json(replica_dir / "scenario.json")
        config = tmp_path / "scenario.json"
        args = ["generate", "--config", str(config)]
        if case == "replica-seed":
            args = ["replica", "--seed", "-1"]
        elif case == "generate-seed-flag":
            args += ["--seed", "-1"]
        elif case == "generate-seed-field":
            document["seed"] = -1
        else:
            document["phases"][0]["events"] = 5000
        io.dump_json(config, document)
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 2
        expected = "cannot place 5000 events" if case == "unplaceable-events" else "seed must be >= 0"
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and expected in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, change",
        [
            ("events.csv", (3, "")), ("truth.csv", (2, "")), ("events.csv", (5, ",9")), ("truth.csv", (3, ",9")),
            ("events.csv", "renamed-column"), ("truth.csv", "renamed-column"),
            ("events.csv", "empty"), ("truth.csv", "empty"),
        ],
        ids=[
            "short-event", "short-truth", "long-event", "long-truth",
            "renamed-event-column", "renamed-truth-column", "empty-event", "empty-truth",
        ],
    )
    def test_csv_row_with_missing_or_extra_fields(self, replica_dir, tmp_path, capsys, name, change):
        """A malformed events.csv or truth.csv names the file: a row with another field count
        than its header also names the line, a header other than the log's exact one is
        quoted, and a 0-byte file is not read as a log without rows."""
        for log in ("events.csv", "truth.csv"):
            (tmp_path / log).write_bytes((replica_dir / log).read_bytes())
        lines = (tmp_path / name).read_text().splitlines()
        if change == "renamed-column":
            header, lines[0] = lines[0], lines[0].rsplit(",", 1)[0] + ",target"
            expected = f"expected the header {header}, got {lines[0]}"
        elif change == "empty":
            lines, expected = [], "empty file, expected a header line"
        else:
            keep, extra = change
            lines[-1] = ",".join(lines[-1].split(",")[:keep]) + extra
            expected = f"line {len(lines)}:"
        (tmp_path / name).write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        assert main([
            "eval",
            "--events", str(tmp_path / "events.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--scenario", str(replica_dir / "scenario.json"),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and name in stderr and expected in stderr
        assert not out.exists()

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_csv_that_is_not_utf8_names_its_file(self, replica_dir, tmp_path, capsys, where):
        """A byte that is not UTF-8, in the header or in a row, is an error line naming the file."""
        lines = (replica_dir / "truth.csv").read_bytes().splitlines(keepends=True)
        at = 0 if where == "header" else len(lines) // 2
        lines[at] = lines[at][:2] + b"\xff" + lines[at][2:]
        truth = tmp_path / "truth.csv"
        truth.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        assert main([
            "eval",
            "--events", str(replica_dir / "events.csv"),
            "--truth", str(truth),
            "--scenario", str(replica_dir / "scenario.json"),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {truth}: ") and "can't decode byte 0xff" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("frame", [99999, -5])
    def test_event_frame_outside_the_stream(self, replica_dir, tmp_path, capsys, frame):
        """An event frame no confusion cell or phase can count is an error naming it, not an
        event that only the traffic figures see."""
        io.write_events(tmp_path / "events.csv", [io.EventRow(frame, 0, 3, 1.0, 0)])
        out = tmp_path / "out"
        assert main([
            "eval",
            "--events", str(tmp_path / "events.csv"),
            "--truth", str(replica_dir / "truth.csv"),
            "--scenario", str(replica_dir / "scenario.json"),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and f"event frame {frame} outside" in stderr
        assert not out.exists()

    def test_event_frame_before_warmup_is_valid(self, replica_dir, tmp_path, capsys):
        """Frame 0 lies in the stream but before the warm-up: valid, and not scored."""
        io.write_events(tmp_path / "events.csv", [io.EventRow(0, 0, 3, 1.0, 0)])
        assert main([
            "eval",
            "--events", str(tmp_path / "events.csv"),
            "--truth", str(replica_dir / "truth.csv"),
            "--scenario", str(replica_dir / "scenario.json"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 0
        metrics = read_json(tmp_path / "out" / "metrics.json")
        assert metrics["confusion"]["fp"] == 0 and metrics["events_transmitted"] == 0

    @pytest.mark.parametrize("case", ["truncated-config", "binary-scenario"])
    def test_unreadable_json_names_its_file(self, replica_dir, tmp_path, capsys, case):
        """A JSON input that does not parse, or is not UTF-8 text, is an error naming the file."""
        out = tmp_path / "out"
        if case == "truncated-config":
            document = tmp_path / "pipeline.json"
            document.write_bytes((replica_dir / "pipeline.json").read_bytes()[:20])
            args = ["detect", "--frames", str(replica_dir / "frames.bin"), "--config", str(document)]
        else:
            document = replica_dir / "frames.bin"
            args = [
                "eval",
                "--events", str(replica_dir / "events.csv"),
                "--truth", str(replica_dir / "truth.csv"),
                "--scenario", str(document),
            ]
        assert main(args + ["--out-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {document}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "detect", "eval"])
    def test_bad_config_field_names_its_file(self, replica_dir, tmp_path, capsys, command):
        """A JSON input that parses but holds a bad field is an error naming the file and field."""
        name = "pipeline.json" if command == "detect" else "scenario.json"
        document = tmp_path / name
        io.dump_json(document, {**read_json(replica_dir / name), "warmup_frames": "x"})
        args = {
            "generate": ["generate", "--config", str(document)],
            "detect": ["detect", "--frames", str(replica_dir / "frames.bin"), "--config", str(document)],
            "eval": [
                "eval", "--events", str(replica_dir / "events.csv"),
                "--truth", str(replica_dir / "truth.csv"), "--scenario", str(document),
            ],
        }[command]
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {document}: ") and "field 'warmup_frames'" in stderr
        assert not out.exists()

    def test_scenario_as_detect_config_is_rejected(self, replica_dir, tmp_path, capsys):
        """A scenario file passed as the pipeline config: its scenario-only keys are unknown
        there, so detect stops with an error line naming the file and the first such key (the
        file's keys are sorted), not with a pipeline of defaults."""
        document = replica_dir / "scenario.json"
        out = tmp_path / "out"
        assert main([
            "detect", "--frames", str(replica_dir / "frames.bin"), "--config", str(document),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {document}: PipelineConfig: unknown field 'events'")
        assert not out.exists()

    def test_replica_generation_failure_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        """Generation failing on a later chunk's rows: an error line, exit 2 and no out-dir."""
        step = SyntheticStream._synthesize_range

        def fail_past_row_3000(self, start, phases, magnitude, half_spectrum, out):
            if start + len(out) > 3000:
                raise ValueError("synthesis failed")
            step(self, start, phases, magnitude, half_spectrum, out)

        monkeypatch.setattr(SyntheticStream, "_synthesize_range", fail_past_row_3000)
        out = tmp_path / "out"
        assert main(["replica", "--seed", "42", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: synthesis failed")
        assert not out.exists()

    def test_detect_without_config_on_another_frame_size(self, tmp_path, capsys):
        """The built-in pipeline is the replica's: on frames of another size, detect without
        --config is an error line that asks for one, and makes no out-dir."""
        io.write_frames(tmp_path / "frames.bin", np.zeros((4, 64)), 1000.0)
        out = tmp_path / "out"
        assert main(["detect", "--frames", str(tmp_path / "frames.bin"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: frame size differs from the built-in defaults; pass --config\n"
        )
        assert not out.exists()

    def test_zero_frame_container_without_config(self, replica_dir, tmp_path):
        """A header-only frames.bin gives the same empty outputs with and without --config."""
        frames = tmp_path / "frames.bin"
        frames.write_bytes(struct.pack("<4sHHfI", b"STFR", 1, 128, 1000.0, 0))
        default, configured = tmp_path / "default", tmp_path / "configured"
        assert main(["detect", "--frames", str(frames), "--out-dir", str(default)]) == 0
        assert main([
            "detect",
            "--frames", str(frames),
            "--config", str(replica_dir / "pipeline.json"),
            "--out-dir", str(configured),
        ]) == 0
        for name in ("events.csv", "series.csv", "pipeline.json"):
            assert (default / name).read_bytes() == (configured / name).read_bytes(), name
        assert io.read_events(default / "events.csv") == []
        assert set(io.read_series(default / "series.csv")) == {
            "frame", "rms", "feature", "threshold", "margin", "event"
        }
        assert len(io.read_series(default / "series.csv")["frame"]) == 0

    @pytest.mark.parametrize(
        "field, raw", [("slow_window", "1000000000"), ("fast_window", "1" + "0" * 400)],
        ids=["billion-frame-window", "401-digit-window"],
    )
    def test_window_above_the_bound(self, replica_dir, tmp_path, capsys, field, raw):
        """A window the history cannot be allocated for is a config error naming the field.
        Both values are ones numpy refuses without touching memory."""
        text = json.dumps({**read_json(replica_dir / "pipeline.json"), field: "RAW"})
        (tmp_path / "pipeline.json").write_text(text.replace('"RAW"', raw))
        out = tmp_path / "out"
        assert main([
            "detect",
            "--frames", str(replica_dir / "frames.bin"),
            "--config", str(tmp_path / "pipeline.json"),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and field in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", ["empty", "short-row", "non-number", "no-threshold-column", "short-series"]
    )
    def test_bad_series_file(self, replica_dir, tmp_path, capsys, case):
        """eval --series on a malformed series.csv: an error line naming the file, or
        the series' length, and no out-dir."""
        lines = (replica_dir / "series.csv").read_text().splitlines()
        expected = f"line {len(lines)}:"
        if case == "empty":
            lines, expected = [], "empty file"
        elif case == "short-row":
            lines[-1] = lines[-1].rsplit(",", 1)[0]
        elif case == "non-number":
            frame, _, rest = lines[-1].split(",", 2)
            lines[-1] = f"{frame},abc,{rest}"
        elif case == "no-threshold-column":
            lines[0], expected = lines[0].replace("threshold", "limit"), "no threshold column"
        else:
            lines, expected = lines[:-100], "threshold series of shape (6684,), expected (6784,)"
        series = tmp_path / "series.csv"
        series.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        assert main([
            "eval",
            "--events", str(replica_dir / "events.csv"),
            "--truth", str(replica_dir / "truth.csv"),
            "--scenario", str(replica_dir / "scenario.json"),
            "--series", str(series),
            "--out-dir", str(out),
        ]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and expected in stderr
        assert case == "short-series" or str(series) in stderr
        assert not out.exists()

    def test_eval_series_with_a_phase_inside_the_warmup(self, tmp_path, capsys):
        """A phase wholly inside the warm-up has no threshold to summarize: an error line
        naming it before any reduction, so no numpy warning and no out-dir."""
        bins = [3, 9]
        io.dump_json(tmp_path / "scenario.json", {
            "seed": 1, "frame_size": 64, "sample_rate_hz": 1000.0, "bins": bins,
            "warmup_frames": 120,
            "phases": [
                {"name": "a", "frames": 100, "events": 0, "level": 1.0},
                {"name": "b", "frames": 300, "events": 3, "level": 1.0},
            ],
            "events": {"target_bins": bins, "amplitude_ratio": 6.0, "min_gap_frames": 2},
        })
        io.dump_json(tmp_path / "pipeline.json", {
            "frame_size": 64, "sample_rate_hz": 1000.0, "bins": bins, "warmup_frames": 120,
        })
        assert main([
            "generate", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(tmp_path / "gen"),
        ]) == 0
        assert main([
            "detect", "--frames", str(tmp_path / "gen" / "frames.bin"),
            "--config", str(tmp_path / "pipeline.json"), "--out-dir", str(tmp_path / "det"),
        ]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "eval",
                "--events", str(tmp_path / "det" / "events.csv"),
                "--truth", str(tmp_path / "gen" / "truth.csv"),
                "--scenario", str(tmp_path / "scenario.json"),
                "--series", str(tmp_path / "det" / "series.csv"),
                "--out-dir", str(out),
            ]) == 2
        assert capsys.readouterr().err == (
            "error: phase 'a' [0, 100) has no frame after the 120-frame warm-up\n"
        )
        assert not out.exists()

    def test_unknown_detector_rejected_by_parser(self, replica_dir, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "detect",
                "--frames", str(replica_dir / "frames.bin"),
                "--detector", "quantum",
                "--out-dir", str(tmp_path / "out"),
            ])


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["replica", "--seed", "7", "--out-dir", str(first)]) == 0
        assert main(["replica", "--seed", "7", "--out-dir", str(second)]) == 0
        for name in ("report.json", "metrics.json", "events.csv", "series.csv", "frames.bin"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
