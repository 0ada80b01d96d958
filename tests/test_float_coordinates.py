"""Every coordinate the program carries is a Python ``float``.

``Point`` converts numpy scalars once, at construction, so the per-point
steps of a request and the pickles that cross the pool's process
boundary never meet a numpy scalar. Checked on the benchmark's own world
(``golden_world``): the dataset, the simulated feed, the detokenizer's
stored points and the imputed outputs; then the bytes of a task
envelope and of a worker's result message.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.roadnet.datasets import make_porto_like
from repro.serve.protocol import TaskEnvelope, WorkerSpec
from repro.serve.worker import _process_one
from tests.test_golden_counters import golden_world


def _non_floats(points):
    """The (field, type name) pairs of ``points`` that are not floats."""
    bad = set()
    for p in points:
        for name in ("x", "y", "t"):
            value = getattr(p, name)
            if type(value) is not float and not (name == "t" and value is None):
                bad.add((name, type(value).__name__))
    return bad


@pytest.fixture(scope="module")
def world():
    return golden_world()


def test_dataset_points_are_floats():
    dataset = make_porto_like(200, seed=7)
    assert _non_floats(p for t in dataset.trajectories for p in t.points) == set()


def test_feed_points_are_floats(world):
    _, feed = world
    assert _non_floats(p for t in feed for p in t.points) == set()


def test_detokenizer_points_are_floats(world):
    system, _ = world
    stored = []
    for info in system.detokenizer._cells.values():
        stored.append(info.data_centroid)
        stored.extend(cluster.centroid for cluster in info.clusters)
    assert stored and _non_floats(stored) == set()


def test_imputed_points_are_floats(world):
    system, feed = world
    outputs = [system.impute(t).trajectory for t in feed]
    assert _non_floats(p for t in outputs for p in t.points) == set()


def test_envelopes_and_results_pickle_without_numpy(world):
    system, feed = world
    service = StreamingImputationService(system, StreamingConfig())
    spec = WorkerSpec(worker_id=0, shard=0, model_dir="unused")
    messages = []
    for trajectory in feed[:40]:
        envelope = pickle.dumps(TaskEnvelope(trajectory, "trace", 0.0))
        assert b"numpy" not in envelope
        _process_one(spec, service, None, SimpleNamespace(put=messages.append),
                     trajectory, False)
    assert len(messages) == 40 and all(m["error"] is None for m in messages)
    assert sum(len(m["trips"]) for m in messages) >= 40
    for message in messages:
        assert b"numpy" not in pickle.dumps(message)
