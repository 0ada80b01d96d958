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


class TestImputeInputErrors:
    def _good_csv(self, path):
        path.write_text("traj_id,lat,lon,t\na,41.15,-8.61,0\na,41.16,-8.62,60\n")
        return path

    def test_missing_train_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        sparse = self._good_csv(tmp_path / "sparse.csv")
        args = ["impute", "--train", str(missing), "--input", str(sparse),
                "--output", str(tmp_path / "out.csv")]
        assert main(args) == 2
        captured = _no_traceback(capsys)
        assert f"error: cannot read {missing}" in captured.err

    def test_nan_row(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("traj_id,lat,lon,t\na,41.15,-8.61,0\na,nan,-8.62,60\n")
        sparse = self._good_csv(tmp_path / "sparse.csv")
        args = ["impute", "--train", str(train), "--input", str(sparse),
                "--output", str(tmp_path / "out.csv")]
        assert main(args) == 2
        captured = _no_traceback(capsys)
        assert f"{train}:3: bad coordinate" in captured.err
        assert not (tmp_path / "out.csv").exists()


class TestBadFlagValues:
    """A value the verb's config rejects is an ``error:`` line and exit 2,
    checked before any training or pool start."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0"], "workers must be >= 1"),
            (["--lru-capacity", "0"], "lru_capacity must be >= 1"),
        ],
        ids=["workers", "lru_capacity"],
    )
    def test_serve(self, capsys, flags, message):
        args = ["serve", "--demo", "--trajectories", "4", "--train-trajectories", "30"]
        assert main(args + flags) == 2
        captured = _no_traceback(capsys)
        assert f"error: {message}" in captured.err
        assert "training the demo serving system" not in captured.err

    def test_serve_repeated_traj_id(self, tmp_path, capsys):
        """The pool answers one result per id: a repeated ``traj_id`` is
        refused before any worker starts, not summarised as ``lost 1``."""
        feed = tmp_path / "sparse.jsonl"
        line = {"traj_id": "a", "points": [[0.0, 0.0, 0.0], [100.0, 0.0, 60.0]]}
        other = dict(line, traj_id="b")
        feed.write_text("\n".join(json.dumps(p) for p in (line, other, line)) + "\n")
        args = ["serve", "--model-dir", str(tmp_path / "model"), "--input", str(feed)]
        assert main(args) == 2
        captured = _no_traceback(capsys)
        lines = captured.err.strip().splitlines()
        assert lines == [f"error: {feed}:3: traj_id 'a' repeats line 1"]
        assert captured.out == ""

    @pytest.mark.parametrize("problem", ["missing", "wrong_version"])
    def test_serve_an_unloadable_model_directory(
        self, trained_kamel, tmp_path, capsys, problem
    ):
        """A directory ``load_kamel`` would refuse is one ``error:`` line
        before any worker starts, not a traceback per worker death."""
        from repro.io.serialize import save_kamel

        model = tmp_path / "model"
        if problem == "wrong_version":
            save_kamel(trained_kamel, model)
            payload = json.loads((model / "config.json").read_text())
            payload["version"] = 4
            (model / "config.json").write_text(json.dumps(payload))
        feed = tmp_path / "one.jsonl"
        feed.write_text(json.dumps(
            {"traj_id": "a", "points": [[0.0, 0.0, 0.0], [100.0, 0.0, 60.0]]}
        ) + "\n")
        assert main(["serve", "--model-dir", str(model), "--input", str(feed)]) == 2
        captured = _no_traceback(capsys)
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("error: ")
        assert ("no saved system" if problem == "missing" else "version 4") in line
        assert "serving" not in captured.err

    def test_impute_training_without_movement(self, tmp_path, capsys):
        """Every training trip a single fix: nothing to learn from."""
        train = tmp_path / "train.csv"
        train.write_text("traj_id,lat,lon,t\na,41.15,-8.61,0\nb,41.16,-8.62,60\n")
        sparse = tmp_path / "sparse.csv"
        sparse.write_text("traj_id,lat,lon,t\nc,41.15,-8.61,0\nc,41.16,-8.62,60\n")
        args = ["impute", "--train", str(train), "--input", str(sparse),
                "--output", str(tmp_path / "out.csv")]
        assert main(args) == 2
        captured = _no_traceback(capsys)
        assert captured.err.strip().splitlines() == [
            "error: Kamel.fit needs a training trajectory of at least two points"
        ]
        assert not (tmp_path / "out.csv").exists()

    def test_impute(self, tmp_path, capsys):
        csv = tmp_path / "trips.csv"
        csv.write_text("traj_id,lat,lon,t\na,41.15,-8.61,0\na,41.16,-8.62,60\n")
        args = ["impute", "--train", str(csv), "--input", str(csv),
                "--output", str(tmp_path / "out.csv"), "--cell-size", "0"]
        assert main(args) == 2
        captured = _no_traceback(capsys)
        assert "error: cell_edge_m must be positive" in captured.err
        assert not (tmp_path / "out.csv").exists()


class TestReportNames:
    def test_a_bad_name_runs_no_figure(self, tmp_path, capsys, monkeypatch):
        """Every name is checked before the first figure runs."""
        from repro import cli

        ran = []
        stubs = {name: (lambda scale, name=name: ran.append(name)) for name in ("fig9", "fig10")}
        monkeypatch.setattr(cli, "ALL_FIGURES", stubs)
        out = tmp_path / "report.md"
        assert main(["report", "--figures", "fig9", "nope", "--output", str(out)]) == 2
        captured = _no_traceback(capsys)
        assert "unknown figure 'nope'" in captured.err
        assert ran == []
        assert not out.exists()
