"""Tests for CSV I/O and the `kamel impute` CLI command."""

import csv

import pytest

from repro.cli import main
from repro.errors import EmptyInputError, KamelError
from repro.geo import LocalProjection, Point, Trajectory
from repro.io import imputed_point_flags, read_latlon_csv, write_latlon_csv

REF = LocalProjection(41.15, -8.61)


def write_fixture_csv(path, rows, header=("traj_id", "lat", "lon", "t")):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class TestReadCsv:
    def test_groups_and_sorts(self, tmp_path):
        path = tmp_path / "fixes.csv"
        write_fixture_csv(
            path,
            [
                ("a", 41.150, -8.610, 10.0),
                ("b", 41.160, -8.620, 0.0),
                ("a", 41.151, -8.611, 0.0),  # out of order on purpose
            ],
        )
        logs = read_latlon_csv(path)
        assert [tid for tid, _ in logs] == ["a", "b"]
        a_records = dict(logs)["a"]
        assert [r[2] for r in a_records] == [0.0, 10.0]

    def test_missing_time_column_ok(self, tmp_path):
        path = tmp_path / "fixes.csv"
        write_fixture_csv(path, [("a", 41.15, -8.61)], header=("traj_id", "lat", "lon"))
        logs = read_latlon_csv(path)
        assert logs[0][1][0][2] is None

    def test_empty_time_value(self, tmp_path):
        path = tmp_path / "fixes.csv"
        write_fixture_csv(path, [("a", 41.15, -8.61, "")])
        assert read_latlon_csv(path)[0][1][0][2] is None

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_fixture_csv(path, [("a", 41.15)], header=("traj_id", "lat"))
        with pytest.raises(KamelError):
            read_latlon_csv(path)

    @pytest.mark.parametrize(
        "lat,lon,t,message",
        [
            ("not-a-number", -8.61, 0.0, "bad coordinate"),
            ("nan", -8.61, 0.0, "bad coordinate"),
            ("inf", -8.61, 0.0, "bad coordinate"),
            ("91", -8.61, 0.0, "bad coordinate"),
            (41.15, "-inf", 0.0, "bad coordinate"),
            (41.15, -8.61, "nan", "bad timestamp"),
        ],
        ids=["not-a-number", "nan-lat", "inf-lat", "lat-91", "-inf-lon", "nan-t"],
    )
    def test_bad_coordinate_rejected(self, tmp_path, lat, lon, t, message):
        path = tmp_path / "bad.csv"
        write_fixture_csv(path, [("a", 41.15, -8.61, 0.0), ("a", lat, lon, t)])
        with pytest.raises(KamelError, match=f"bad.csv:3: {message}"):
            read_latlon_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_fixture_csv(path, [])
        with pytest.raises(EmptyInputError):
            read_latlon_csv(path)

    def test_custom_column_names(self, tmp_path):
        path = tmp_path / "fixes.csv"
        write_fixture_csv(
            path, [("x", 41.15, -8.61, 5.0)], header=("id", "latitude", "longitude", "ts")
        )
        logs = read_latlon_csv(
            path, id_column="id", lat_column="latitude", lon_column="longitude", time_column="ts"
        )
        assert logs[0][0] == "x"


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        traj = Trajectory("rt", [Point(0, 0, t=0.0), Point(100, 50, t=10.0)])
        path = tmp_path / "out.csv"
        write_latlon_csv(path, [traj], REF, [[False, True]])
        logs = read_latlon_csv(path)
        assert logs[0][0] == "rt"
        records = logs[0][1]
        back = [REF.to_local(lat, lon, t) for lat, lon, t in records]
        assert back[1].distance_to(traj.points[1]) < 0.5
        # The imputed flag column is written.
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert [r["imputed"] for r in rows] == ["0", "1"]

    def test_flags_default_to_zero(self, tmp_path):
        traj = Trajectory("t", [Point(0, 0, t=0.0)])
        path = tmp_path / "out.csv"
        write_latlon_csv(path, [traj], REF)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["imputed"] == "0"


class TestImputedFlags:
    def test_flags_inserted_points(self):
        sparse = Trajectory("s", [Point(0, 0), Point(100, 0)])
        dense = Trajectory("s", [Point(0, 0), Point(50, 0), Point(100, 0)])
        assert imputed_point_flags(sparse, dense) == [False, True, False]

    def test_all_original(self):
        sparse = Trajectory("s", [Point(0, 0), Point(100, 0)])
        assert imputed_point_flags(sparse, sparse) == [False, False]


class TestImputeCommand:
    def test_end_to_end(self, tmp_path, small_split, capsys):
        train, test = small_split
        projection = LocalProjection(41.15, -8.61)

        def dump(path, trajectories):
            rows = []
            for traj in trajectories:
                for p in traj.points:
                    lat, lon = projection.to_latlon(p)
                    rows.append((traj.traj_id, f"{lat:.7f}", f"{lon:.7f}", p.t))
            write_fixture_csv(path, rows)

        train_csv = tmp_path / "train.csv"
        sparse_csv = tmp_path / "sparse.csv"
        out_csv = tmp_path / "dense.csv"
        dump(train_csv, train[:40])
        dump(sparse_csv, [t.sparsify(500.0) for t in test[:2]])

        code = main(
            [
                "impute",
                "--train", str(train_csv),
                "--input", str(sparse_csv),
                "--output", str(out_csv),
            ]
        )
        assert code == 0
        assert "imputed 2 trajectories" in capsys.readouterr().out

        dense_logs = read_latlon_csv(out_csv)
        sparse_logs = read_latlon_csv(sparse_csv)
        assert len(dense_logs) == 2
        for (tid, dense_records), (_, sparse_records) in zip(dense_logs, sparse_logs):
            assert len(dense_records) >= len(sparse_records)
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert any(r["imputed"] == "1" for r in rows)


class TestInspectCommand:
    def test_inspect_saved_model(self, tmp_path, trained_kamel, capsys):
        trained_kamel.save(tmp_path / "model")
        assert main(["inspect", str(tmp_path / "model")]) == 0
        out = capsys.readouterr().out
        assert "vocabulary" in out
        assert "single-cell models" in out
        assert "stored trajectories" in out

    def test_inspect_counts_distinct_models(self, tmp_path, capsys):
        """The golden recipe's five slots (one cell, four pairs) enclose the
        same trajectories, so they share one model and one file."""
        from tests.test_golden_counters import golden_world

        system, _ = golden_world()
        system.save(tmp_path / "golden")
        assert len(list((tmp_path / "golden" / "models").iterdir())) == 1
        assert main(["inspect", str(tmp_path / "golden")]) == 0
        values = {}
        for line in capsys.readouterr().out.splitlines():
            label, _, value = line.rstrip().rpartition("  ")
            values[label.strip()] = value
        assert values["models"] == "5"
        assert values["single-cell models"] == "1"
        assert values["neighbor-cell models"] == "4"
        assert values["distinct models"] == "1"

    def test_inspect_says_when_the_pyramid_holds_no_model(
        self, tmp_path, small_split, capsys
    ):
        from repro import Kamel, KamelConfig

        train, _ = small_split
        Kamel(KamelConfig(model_threshold_k=10**9)).fit(train[:20]).save(tmp_path / "m")
        assert main(["inspect", str(tmp_path / "m")]) == 0
        (row,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("models ")
        ]
        assert "0 — every lookup will miss and fall to the fallback rung" in row
