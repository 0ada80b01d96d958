"""Metric definitions: ``BENCHMARK.json`` is the single source.

The driver gates the ``end_to_end`` metrics listed there, every one of
which every workload reports. The harness reports two more end-to-end
values the contract cannot carry — ``within_limit_share`` (tiny and
quantised on ``serve_paced`` at the seed commit, undefined on
``serve_flood``) and ``ops_failed_share`` (0 on a correct run, and a
gated metric may never be 0) — and ``--compare`` applies the absolute
floors of the issue's table on top of the relative bounds.
"""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END: dict[str, dict] = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER: dict[str, dict] = {m["name"]: m for m in BENCHMARK["per_layer"]}
WHY: dict[str, str] = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
RUN_SECONDS: int = BENCHMARK["run_seconds"]

HARNESS_ONLY: dict[str, dict] = {
    "within_limit_share": {
        "name": "within_limit_share", "unit": "share", "better": "higher", "bound": 0.0,
    },
    "ops_failed_share": {
        "name": "ops_failed_share", "unit": "share", "better": "lower", "bound": 0.0,
    },
}
"""Reported and compared, not gated by the driver. ``bound`` 0 with an
absolute floor below: 0.02 for the share within the limit, and any rise
at all for failed operations."""

ABS_FLOOR: dict[str, float] = {
    "setup_s": 0.5,
    "within_limit_share": 0.02,
    "failure_rate": 0.005,
    "recall": 0.005,
    "precision": 0.005,
}
"""A metric has regressed only when it is worse by more than
``max(bound x |baseline median|, floor)``."""

EXACT = ("failure_rate", "recall", "precision")
"""Deterministic for a seed: two runs of one commit must agree exactly."""
