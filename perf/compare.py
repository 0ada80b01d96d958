"""``--compare A.json B.json`` and the ``--runs N`` summary.

A file is one run record or ``{"runs": [records]}``. For each workload
and end-to-end metric the rule is choosing-metrics section 6.5: B has
*regressed* when its median is worse than A's by more than the metric's
bound; where the run-to-run spread is wider than the bound the row is
*unresolved*, not unchanged, unless every B run beats every A run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Sequence

from perf import spec
from perf.stats import quartiles, spread


def load_runs(path: str) -> list[dict]:
    with open(path) as handle:
        payload = json.load(handle)
    return payload["runs"] if "runs" in payload else [payload]


def _by_workload(runs: Sequence[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for record in runs:
        grouped[record["workload"]].append(record)
    return grouped


def _values(records: Sequence[dict], metric: str) -> list[float]:
    return [
        r["end_to_end"][metric]["value"] for r in records if metric in r["end_to_end"]
    ]


def verdict(metric: dict, a: Sequence[float], b: Sequence[float]) -> tuple[str, float, float]:
    """(``ok`` | ``regressed`` | ``unresolved``, A median, B median)."""
    lower = metric["better"] == "lower"
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    allowed = max(
        metric["bound"] * abs(a_med), spec.ABS_FLOOR.get(metric["name"], 0.0)
    )
    worse_by = (b_med - a_med) if lower else (a_med - b_med)
    if max(a_q3 - a_q1, b_q3 - b_q1) > allowed:
        clear_win = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if clear_win else "unresolved"), a_med, b_med
    return ("regressed" if worse_by > allowed else "ok"), a_med, b_med


def compare_files(path_a: str, path_b: str) -> int:
    """Print one row per (workload, metric); 1 if anything regressed or
    a deterministic value differs."""
    runs_a, runs_b = _by_workload(load_runs(path_a)), _by_workload(load_runs(path_b))
    metrics = {**spec.END_TO_END, **spec.HARNESS_ONLY}
    bad = 0
    print(f"{'workload':<12} {'metric':<20} {'A median':>13} {'B median':>13}  verdict")
    for workload in spec.WHY:
        a_records, b_records = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_records or not b_records:
            print(f"{workload:<12} (missing from one side)")
            continue
        for name, metric in metrics.items():
            a, b = _values(a_records, name), _values(b_records, name)
            if not a or not b:
                continue
            word, a_med, b_med = verdict(metric, a, b)
            same_seeds = [r["seed"] for r in a_records] == [r["seed"] for r in b_records]
            if name in spec.EXACT and same_seeds and a != b:
                word = "differs (must repeat exactly)"
            bad += word not in ("ok", "unresolved")
            print(f"{workload:<12} {name:<20} {a_med:>13.6g} {b_med:>13.6g}  {word}")
        for label in ("digest", "anchor"):
            a = {json.dumps(r["info"].get(label), sort_keys=True) for r in a_records}
            b = {json.dumps(r["info"].get(label), sort_keys=True) for r in b_records}
            same = a == b
            bad += not same
            print(f"{workload:<12} {label:<20} {'':>13} {'':>13}  {'same' if same else 'differs'}")
    return 1 if bad else 0


def summarize(records: Sequence[dict]) -> None:
    """Median and quartiles of every end-to-end metric over repeated runs."""
    print(f"\n{'workload':<12} {'metric':<20} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}  runs")
    for workload, group in _by_workload(records).items():
        for name in {**spec.END_TO_END, **spec.HARNESS_ONLY}:
            values = _values(group, name)
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            print(
                f"{workload:<12} {name:<20} {q1:>12.6g} {q2:>12.6g} {q3:>12.6g} "
                f"{spread(values):>7.1%}  {len(values)}"
            )
