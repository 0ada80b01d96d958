"""The streaming examples run to completion (each asserts its own story:
the chaos one that no trajectory is lost and that a pool whose worker
crashed returns the undisturbed service's results, the telemetry one
that the scraped counters give the service's failure rate)."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("example", ["streaming_imputation.py", "chaos_streaming.py"])
def test_example_exits_zero(example, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
        TMPDIR=str(tmp_path),  # chaos_streaming.py keeps its journal in a temp dir
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
