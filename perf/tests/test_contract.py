"""``BENCHMARK.json`` stays inside the driver's limits, and the harness
and the contract name the same things."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


def test_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_units_and_bounds_are_within_limits():
    names = []
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_s_is_gated_with_the_largest_bound():
    by_name = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_harness_and_contract_name_the_same_workloads():
    from perf.workloads import WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        size = str(WORKLOADS[workload["name"]].feed)
        assert size in workload["why"], "final sizes are recorded in the why"
