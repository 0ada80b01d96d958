"""Partition routing: determinism and the root-cell rule.

The hard requirement under test here is that routing is a pure function
of explicit cell bytes — the same trajectory must land on the same shard
in the parent router, in a respawned worker replaying its journal, and
in a fresh interpreter with a different ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.tokenization import make_grid
from repro.geo import Point, Trajectory
from repro.io.serialize import save_kamel
from repro.serve import ServeConfig, ServingPool
from repro.serve.pool import stable_shard


def _traj(traj_id: str, x: float, y: float) -> Trajectory:
    return Trajectory(traj_id, (Point(x, y, 0.0), Point(x + 50.0, y, 30.0)))


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("routing_model")
    save_kamel(trained_kamel, directory)
    return directory


def _router(saved_dir, workers: int) -> ServingPool:
    """A pool that is never started: routing needs no workers."""
    return ServingPool(str(saved_dir), ServeConfig(workers=workers))


class TestStableShard:
    def test_golden_values(self):
        # Pinned outputs: any change here silently reshuffles every
        # journal and worker assignment in deployed pools.
        cells = [(0, 0), (1, -2), (-3, 7), (12, 5)]
        assert [stable_shard(c, 4) for c in cells] == [0, 3, 2, 3]

    def test_in_range_and_stable(self):
        for cell in [(-5, -5), (0, 0), (100, 3), (7, -13)]:
            for n in (1, 2, 3, 7):
                shard = stable_shard(cell, n)
                assert 0 <= shard < n
                assert shard == stable_shard(cell, n)

    def test_independent_of_pythonhashseed(self):
        # A fresh interpreter with a different hash salt must agree with
        # this process on every assignment — the property builtin hash()
        # would break.
        cells = [(0, 0), (3, -4), (-17, 9), (256, 1024)]
        local = [stable_shard(c, 8) for c in cells]
        script = (
            "import json, sys\n"
            "from repro.serve.pool import stable_shard\n"
            "cells = json.loads(sys.argv[1])\n"
            "print(json.dumps([stable_shard(tuple(c), 8) for c in cells]))\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        for hashseed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src_dir, env.get("PYTHONPATH", "")])
            )
            out = subprocess.run(
                [sys.executable, "-c", script, json.dumps(cells)],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert out.returncode == 0, out.stderr
            assert json.loads(out.stdout) == local


class TestRootCellRouting:
    def test_same_start_cell_same_shard(self, saved_dir):
        a, b = _traj("a", 10.0, 10.0), _traj("b", 40.0, 30.0)
        grid = make_grid("hex", 75.0)  # the saved system's grid
        assert grid.cell_of(a.points[0]) == grid.cell_of(b.points[0])
        router = _router(saved_dir, 4)
        assert router.shard_for(a) == router.shard_for(b)
        assert 0 <= router.shard_for(a) < 4

    def test_empty_trajectory_routes_to_zero(self, saved_dir):
        assert _router(saved_dir, 4).shard_for(Trajectory("empty", ())) == 0

    def test_spreads_across_shards(self, saved_dir):
        router = _router(saved_dir, 4)
        shards = {
            router.shard_for(_traj(f"t{i}", i * 137.0, i * 59.0))
            for i in range(40)
        }
        assert len(shards) >= 3


class TestRoutingIdentity:
    # Twenty fixed start points over a 5 km square and their pinned
    # shards on the saved system's grid (hex, 75 m edge), routing seed
    # 0. A different list means every deployed journal is owned by the
    # wrong worker.
    POINTS = [
        ((i * 347) % 5000 - 2500.0, (i * 829) % 5000 - 2500.0) for i in range(20)
    ]
    PINNED = {
        2: [1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1],
        3: [1, 1, 1, 0, 2, 2, 1, 1, 0, 2, 2, 2, 2, 0, 0, 1, 2, 1, 2, 2],
        4: [3, 3, 1, 2, 2, 2, 3, 3, 0, 3, 3, 0, 2, 0, 2, 1, 3, 2, 2, 3],
    }

    @pytest.mark.parametrize("workers", sorted(PINNED))
    def test_shards_pinned(self, saved_dir, workers):
        router = _router(saved_dir, workers)
        trajectories = [
            _traj(f"g{i}", x, y) for i, (x, y) in enumerate(self.POINTS)
        ]
        assert [router.shard_for(t) for t in trajectories] == self.PINNED[workers]
