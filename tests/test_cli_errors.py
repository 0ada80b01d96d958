"""CLI error paths: bad input must exit non-zero with a clean message.

Every scenario here once produced (or could produce) a traceback; the
contract under test is a one-line ``error:`` diagnostic on stderr, a
non-zero exit code, and no stack trace leaking to the terminal.
"""

import json

import pytest

from repro.cli import main


def _registry_snapshot(**counters):
    """A ``--metrics-out`` document holding the given counters."""
    return json.dumps(
        {name: {"type": "counter", "value": value} for name, value in counters.items()}
    )


def _no_traceback(capsys):
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out
    assert "Traceback" not in captured.err
    return captured


class TestUnknownSubcommand:
    def test_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        captured = _no_traceback(capsys)
        assert "invalid choice" in captured.err


class TestMetricsOutErrors:
    def test_unwritable_snapshot_path_is_a_clean_failure(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "metrics.json"
        assert main(["--metrics-out", str(target), "list-figures"]) == 2
        captured = _no_traceback(capsys)
        assert "error: cannot write metrics snapshot" in captured.err

    def test_writable_snapshot_path_still_succeeds(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(["--metrics-out", str(target), "list-figures"]) == 0
        # list-figures emits no metric, so alone in a fresh registry the
        # snapshot is `{}`: the file being a JSON object is the claim.
        assert isinstance(json.loads(target.read_text()), dict)
        _no_traceback(capsys)


class TestStatsSnapshotErrors:
    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["stats", str(missing)]) == 2
        captured = _no_traceback(capsys)
        assert "error: cannot read snapshot" in captured.err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", str(bad)]) == 2
        captured = _no_traceback(capsys)
        assert "is not a valid snapshot" in captured.err

    def test_malformed_json_in_two_file_compare(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(_registry_snapshot(a=1.0))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert main(["stats", str(good), str(bad)]) == 2
        captured = _no_traceback(capsys)
        assert "is not a valid snapshot" in captured.err

    def test_missing_file_in_two_file_compare(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(_registry_snapshot(a=1.0))
        assert main(["stats", str(good), str(tmp_path / "gone.json")]) == 2
        captured = _no_traceback(capsys)
        assert "error: cannot read snapshot" in captured.err

    def test_valid_json_but_not_a_snapshot(self, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"hello": "world"}))
        assert main(["stats", str(odd), str(odd)]) == 2
        captured = _no_traceback(capsys)
        assert "is not a valid snapshot" in captured.err

    @pytest.mark.parametrize(
        "document",
        [
            # What the retired bench harness wrote: int and dict values.
            {"schema": "bench-observability/2", "repeats": 1, "modules": {}},
            {"runs": [{"workload": "bulk_porto"}]},
            [{"type": "counter", "value": 1}],
            {"a": {"type": "counter"}},
        ],
        ids=["bench-schema", "perf-record", "list", "counter-no-value"],
    )
    def test_one_file_that_is_not_a_registry_snapshot(self, tmp_path, capsys, document):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(document))
        assert main(["stats", str(odd)]) == 2
        captured = _no_traceback(capsys)
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(odd) in line
        assert "is not a valid snapshot" in line


class TestStatsOneSidedMetrics:
    def test_added_and_removed_metrics_are_labelled(self, tmp_path, capsys):
        """Metrics on one side only show up as added/removed."""
        before = tmp_path / "a.json"
        after = tmp_path / "b.json"
        before.write_text(_registry_snapshot(kept=4.0, retired=2.0))
        after.write_text(_registry_snapshot(kept=5.0, fresh=3.0))
        assert main(["stats", str(before), str(after)]) == 0
        captured = _no_traceback(capsys)
        rows = {
            line.split()[0]: line.split()[1:] for line in captured.out.splitlines()
        }
        assert rows["kept"] == ["4", "5", "+1", "+25.0%"]
        assert rows["retired"] == ["2", "-", "removed", "-"]
        assert rows["fresh"] == ["-", "3", "added", "-"]


class TestStatsDelta:
    def test_two_metrics_out_runs_diff(self, tmp_path, capsys):
        """The real thing: two ``--metrics-out`` files, histograms included."""
        from repro.obs import MetricsRegistry

        paths = []
        for calls in (2, 3):
            registry = MetricsRegistry()
            registry.counter("repro.kamel.model_calls_total").inc(calls)
            for _ in range(calls):
                registry.histogram("repro.kamel.impute_seconds").observe(0.5)
            registry.histogram("repro.kamel.fit_seconds")  # never observed
            paths.append(tmp_path / f"run{calls}.json")
            registry.write_json(paths[-1])
        assert main(["stats", *map(str, paths)]) == 0
        out = _no_traceback(capsys).out
        assert "repro.kamel.model_calls_total" in out
        assert "repro.kamel.impute_seconds.count" in out
        assert "+50.0%" in out
        assert "repro.kamel.fit_seconds" not in out
