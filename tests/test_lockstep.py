"""Lockstep is an execution order, not a decision.

``Kamel.impute`` runs a trajectory's gap segments together, one model
invocation per round for all of them. The reference drives the very same
search generators one lane at a time, each to its end, in order — every
segment alone. The two must agree on every output coordinate, on every
``SegmentOutcome`` field and on every counter but the one that counts
invocations.
"""

import pytest

from repro import Kamel, KamelConfig
from repro.core import kamel as kamel_module
from repro.core.imputation import run_lockstep
from repro.obs import MetricsRegistry, set_registry
from repro.obs.tracing import clear_spans, disable_tracing, enable_tracing, finished_spans
from repro.roadnet.datasets import make_porto_like

from tests.test_golden_counters import golden_world

INVOCATIONS = "repro.imputation.model_invocations_total"


def one_lane_at_a_time(searches):
    """The reference: each lane driven alone, to its end, in order."""
    return [run_lockstep([search])[0] for search in searches]


def _impute(system, feed, max_rung=None, *, alone=False, monkeypatch=None):
    """Outputs and every ``repro.*`` counter of one pass over ``feed``."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with monkeypatch.context() as patch:
            if alone:
                patch.setattr(kamel_module, "run_lockstep", one_lane_at_a_time)
            results = [system.impute(t, max_rung=max_rung) for t in feed]
    finally:
        set_registry(previous)
    counters = {
        name: data["value"]
        for name, data in registry.snapshot("repro.").items()
        if data["type"] == "counter"
    }
    return results, counters


def _coordinates(results):
    return [[(p.x, p.y, p.t) for p in r.trajectory.points] for r in results]


def _assert_lockstep_is_one_at_a_time(system, feed, monkeypatch, max_rung=None):
    got, got_counts = _impute(system, feed, max_rung, monkeypatch=monkeypatch)
    ref, ref_counts = _impute(system, feed, max_rung, alone=True, monkeypatch=monkeypatch)
    assert _coordinates(got) == _coordinates(ref)
    got_segments = [s for r in got for s in r.segments]
    ref_segments = [s for r in ref for s in r.segments]
    assert len(got_segments) == len(ref_segments)
    # Every field: rung, fallback_reason, model_calls, imputed_points, ...
    assert got_segments == ref_segments
    pooled, alone = got_counts.pop(INVOCATIONS), ref_counts.pop(INVOCATIONS)
    assert got_counts == ref_counts
    assert 0 < pooled < alone  # segments did share invocations
    return got


@pytest.fixture(scope="module")
def golden_systems():
    """The golden-counter world, fitted once per configuration asked for."""
    built = {}

    def system(**config):
        key = tuple(sorted(config.items()))
        if key not in built:
            built[key] = golden_world(**config)
        return built[key]

    return system


@pytest.mark.parametrize(
    "config, max_rung",
    [
        ({}, None),
        ({"imputer": "iterative"}, None),
        ({"use_multipoint": False}, None),
        ({}, "reduced_beam"),
    ],
    ids=["fixed-beam", "iterative", "no_multipoint", "max_rung_reduced_beam"],
)
def test_golden_world(golden_systems, monkeypatch, config, max_rung):
    system, feed = golden_systems(**config)
    results = _assert_lockstep_is_one_at_a_time(system, feed, monkeypatch, max_rung)
    assert sum(r.num_segments for r in results) == 597


def test_small_bert_world(monkeypatch):
    dataset = make_porto_like(200, scale=0.6, seed=11)
    train, test = dataset.split(seed=1)
    system = Kamel(
        KamelConfig(
            model_backend="bert", bert_epochs=10, use_partitioning=False,
            max_model_calls=300,
        )
    ).fit(train)
    bert = system._global_model
    lengths = []
    predict = bert.predict_masked_batch
    monkeypatch.setattr(
        bert, "predict_masked_batch",
        lambda queries, top_k=10: lengths.append({len(t) for t, _ in queries})
        or predict(queries, top_k),
    )
    _assert_lockstep_is_one_at_a_time(system, [t.sparsify(300.0) for t in test], monkeypatch)
    assert any(len(widths) > 1 for widths in lengths)  # rows were padded


def test_traced_spans_nest_and_count_pooled_invocations(golden_systems):
    system, feed = golden_systems()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    clear_spans()
    enable_tracing()
    try:
        results = [system.impute(t) for t in feed[:40]]
    finally:
        disable_tracing()
        set_registry(previous)
    roots = [s for s in finished_spans() if s.name == "impute.trajectory"]
    clear_spans()
    assert len(roots) == len(results)
    for root in roots:
        for parent in root.walk():
            for child in parent.children:
                assert parent.start_s <= child.start_s <= child.end_s <= parent.end_s
    predicts = sum(len(root.find("model.predict")) for root in roots)
    assert predicts == registry.get(INVOCATIONS).value > 0
    # One filter span per segment's ask: fewer invocations than asks is
    # rounds answering several segments at once.
    assert predicts < sum(len(root.find("constraints.filter")) for root in roots)
