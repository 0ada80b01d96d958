"""The ``kamel serve``, ``kamel tail`` and ``kamel trace --from`` commands.

The ``serve`` tests reuse the trained system the whole suite shares, so
no extra training happens. The ``tail`` and ``trace --from`` tests read a hand-built flight
payload; tests/test_serve_tracing.py feeds both a live pool's ``/slow``.
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
        assert args.lru_capacity == 64

    @pytest.mark.parametrize("verb, retired, value", [("serve", "strategy", "hash")])
    def test_retired_routing_and_admission_flags_are_usage_errors(
        self, capsys, verb, retired, value
    ):
        # One route and one admission rule: the flags that chose among
        # several are gone, and naming one is a usage error (exit 2).
        with pytest.raises(SystemExit) as excinfo:
            main([verb, f"--{retired}", value])
        assert excinfo.value.code == 2
        assert f"--{retired}" in capsys.readouterr().err

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

    def test_summary_accounts_for_every_request(self, capsys, saved_dir, input_jsonl):
        """Five requests, two shards, one outstanding request per shard:
        all five are submitted before a spawned worker has loaded its
        model, so at least one shard sheds. The table shows where each
        request went: submitted = completed + shed + expired + lost."""
        rc = main(
            [
                "serve",
                "--model-dir", str(saved_dir),
                "--input", str(input_jsonl),
                "--workers", "2",
                "--max-queue-depth", "1",
                "--request-deadline-ms", "60000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rows = {
            name: int(value)
            for name, value in re.findall(r"trajectories (\w+)\s+(\d+)", out)
        }
        assert set(rows) == {"submitted", "completed", "shed", "expired", "lost"}
        assert rows["submitted"] == 5
        assert rows["shed"] >= 1 and rows["lost"] == 0
        assert rows["submitted"] == (
            rows["completed"] + rows["shed"] + rows["expired"] + rows["lost"]
        )


@pytest.fixture()
def flight_file(tmp_path):
    """A small flight payload shaped like a pool's ``/slow`` response."""
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
