"""The ``kamel serve`` and ``kamel loadtest`` commands.

The loadtest run here is deliberately tiny (small training set, few
trajectories) — it exercises the full path (train, save, pool, verify,
``--json`` report) without dominating the suite's wall time. The ``serve``
tests reuse the session-trained system so no extra training happens.
"""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.io.serialize import save_kamel
from repro.resilience.journal import trajectory_to_payload


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_model")
    save_kamel(trained_kamel, directory)
    return directory


@pytest.fixture(scope="module")
def input_jsonl(small_split, tmp_path_factory):
    _, test = small_split
    path = tmp_path_factory.mktemp("cli_feed") / "sparse.jsonl"
    with open(path, "w") as handle:
        for trajectory in test[:5]:
            payload = trajectory_to_payload(trajectory.sparsify(800.0))
            handle.write(json.dumps(payload) + "\n")
    return path


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "--demo"])
        assert args.workers == 2
        assert args.strategy == "hash"
        assert args.lru_capacity == 64

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--strategy", "modulo"])

    def test_needs_model_or_demo(self, capsys):
        assert main(["serve"]) == 2
        assert "--model-dir or --demo" in capsys.readouterr().err

    def test_needs_input_without_demo(self, capsys, saved_dir):
        assert main(["serve", "--model-dir", str(saved_dir)]) == 2
        assert "--input" in capsys.readouterr().err


class TestServeCommand:
    def test_jsonl_roundtrip(self, capsys, saved_dir, input_jsonl, tmp_path):
        out_path = tmp_path / "dense.jsonl"
        rc = main(
            [
                "serve",
                "--model-dir", str(saved_dir),
                "--input", str(input_jsonl),
                "--output", str(out_path),
                "--workers", "2",
                "--journal-dir", str(tmp_path / "journal"),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert re.search(r"trajectories completed\s+5\b", captured.out)
        assert re.search(r"trajectories lost\s+0\b", captured.out)
        lines = [
            json.loads(line) for line in out_path.read_text().splitlines() if line
        ]
        assert len(lines) == 5
        for record in lines:
            assert record["error"] is None
            assert 0 <= record["shard"] < 2
            for trip in record["trips"]:
                assert trip["points"]  # dense output, journal payload shape


class TestLoadtestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.workers == 4
        assert args.trajectories == 200
        assert args.rate == 0.0
        assert not args.no_verify
        assert not args.trace
        assert args.trace_out is None
        assert args.flight_out is None
        assert args.flight_capacity == 64

    def test_assertion_flags(self):
        args = build_parser().parse_args(
            ["loadtest", "--min-throughput", "1.5", "--max-p99-ms", "5000"]
        )
        assert args.min_throughput == 1.5
        assert args.max_p99_ms == 5000.0

    def test_tracing_flags(self):
        args = build_parser().parse_args(
            ["loadtest", "--trace-out", "t.json", "--flight-out", "f.json"]
        )
        assert args.trace_out == "t.json"
        assert args.flight_out == "f.json"


class TestLoadtestCommand:
    @pytest.fixture(scope="class")
    def run(self):
        """One tiny end-to-end loadtest shared by the assertions below."""
        import io
        from contextlib import redirect_stdout

        stdout = io.StringIO()
        with redirect_stdout(stdout):
            rc = main(
                [
                    "loadtest",
                    "--workers", "2",
                    "--trajectories", "6",
                    "--train-trajectories", "40",
                    "--seed", "7",
                    "--json",
                ]
            )
        return rc, stdout.getvalue()

    def test_passes_and_verifies(self, run):
        rc, stdout = run
        assert rc == 0
        report = json.loads(stdout)
        assert report["ok"] is True
        assert report["completed"] == 6
        assert report["lost"] == 0
        assert report["verified"] is True
        assert report["mismatches"] == 0
        assert report["throughput_tps"] > 0

    def test_json_report_carries_the_figures(self, run):
        """The ``--json`` report is the run's machine-readable record."""
        _, stdout = run
        report = json.loads(stdout)
        assert report["workers"] == 2
        assert report["trajectories"] == 6
        assert report["mismatches"] == 0
        assert report["throughput_tps"] > 0
        assert report["single_throughput_tps"] > 0
        assert 0 < report["latency_p50_ms"] <= report["latency_p99_ms"]
        assert report["segments"] == sum(report["rungs"].values()) > 0
        assert report["model_calls"] > 0


@pytest.fixture()
def flight_file(tmp_path):
    """A small flight payload the way ``loadtest --flight-out`` writes it."""
    from repro.obs.flight import FlightRecord, FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Span

    recorder = FlightRecorder(capacity=4, registry=MetricsRegistry())
    for i in range(3):
        root = Span("serve.request", trace_id=f"{i:016x}")
        root.start_s = 0.0
        root.end_s = 0.01 * (i + 1)
        recorder.record(
            FlightRecord(
                trace_id=f"{i:016x}",
                traj_id=f"traj-{i}",
                latency_s=0.01 * (i + 1),
                stages={
                    "queue_wait": 0.001,
                    "model_load": 0.0,
                    "inference": 0.009 * (i + 1),
                    "detokenize": 0.0,
                    "result_transit": 0.0,
                },
                shard=i % 2,
                roots=[root],
            )
        )
    path = tmp_path / "flight.json"
    path.write_text(json.dumps(recorder.to_dict(), default=float))
    return path


class TestTailCommand:
    def test_prints_attribution_and_slowest_tables(self, capsys, flight_file):
        assert main(["tail", str(flight_file)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder: 3 requests recorded, 3 retained" in out
        for column in ("stage", "p50 ms", "p99 ms", "worst trace"):
            assert column in out
        for stage in ("queue_wait", "inference", "result_transit"):
            assert stage in out
        # Slowest-first: record 2 (30ms) leads the slow-request table.
        assert f"{2:016x}" in out
        assert "traj-2" in out

    def test_slowest_limit(self, capsys, flight_file):
        assert main(["tail", str(flight_file), "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        assert "traj-2" in out
        assert "traj-0" not in out

    def test_json_round_trips_the_payload(self, capsys, flight_file):
        assert main(["tail", str(flight_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(flight_file.read_text())

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["tail", str(tmp_path / "nope.json")]) == 2
        assert "cannot read flight payload" in capsys.readouterr().err


class TestTraceFromFile:
    def test_loads_spans_from_flight_payload(self, capsys, flight_file):
        assert main(["trace", "--from", str(flight_file), "--export", "text"]) == 0
        out = capsys.readouterr().out
        assert out.count("serve.request") == 3

    def test_trace_id_filter_selects_one_tree(self, capsys, flight_file):
        rc = main(
            [
                "trace",
                "--from", str(flight_file),
                "--trace-id", f"{1:016x}",
                "--export", "jsonl",
            ]
        )
        assert rc == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        assert lines[0]["trace_id"] == f"{1:016x}"

    def test_unknown_trace_id_reports_and_fails(self, capsys, flight_file):
        rc = main(
            ["trace", "--from", str(flight_file), "--trace-id", "f" * 16]
        )
        assert rc == 1
        assert "no span trees carry trace id" in capsys.readouterr().err

    def test_unreadable_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace", "--from", str(tmp_path / "nope.json")]) == 2
        assert "cannot load spans" in capsys.readouterr().err

    def test_exports_that_carry_cpu_s_still_load(self, capsys, tmp_path, flight_file):
        """Spans written while a profiler captured thread CPU time have a
        ``cpu_s`` key per node; flight payloads and JSONL exports (one
        tree per line) holding it load as if it were absent."""
        payload = json.loads(flight_file.read_text())
        for record in payload["slowest"]:
            for tree in record["spans"]:
                tree["cpu_s"] = 0.25
        old_flight = tmp_path / "old-flight.json"
        old_flight.write_text(json.dumps(payload))
        assert main(["trace", "--from", str(old_flight), "--export", "text"]) == 0
        assert capsys.readouterr().out.count("serve.request") == 3

        old_jsonl = tmp_path / "old-spans.jsonl"
        old_jsonl.write_text(
            '{"name": "eval.impute", "duration_s": 0.5, "cpu_s": 0.4,'
            ' "children": [{"name": "impute.segment", "cpu_s": 0.1}]}\n'
            '{"name": "kamel.fit", "duration_s": 0.2, "cpu_s": 0.2}\n'
        )
        assert main(["trace", "--from", str(old_jsonl), "--export", "jsonl"]) == 0
        trees = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert [t["name"] for t in trees] == ["eval.impute", "kamel.fit"]
        assert trees[0]["children"][0]["name"] == "impute.segment"
        assert "cpu_s" not in trees[0]
