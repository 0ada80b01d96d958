"""One fit per distinct training set (paper Section 4.2 maintenance).

A maintenance pass (re)builds models at the anchor cell, its neighbour
pairs, its ancestors and its descendants; regions that enclose the same
stored trajectories (an ancestor with one populated child, a pair with one
empty side, a pair reached from both of its cells) get the same training
set. A fit is a deterministic function of its sequences, so the repository
fits each set once per pass and lets those slots share the model. These
tests hold the shared model to a fresh per-slot fit, on a pyramid with
models at several levels and leaves.
"""

import numpy as np
import pytest

from repro import Kamel, KamelConfig
from repro.mlm import CountingMaskedLM
from repro.obs import MetricsRegistry, set_registry
from tests.conftest import MULTILEAF_CONFIG


def slots(repository):
    """Every stored slot, single cells first, then pairs."""
    return list(by_key(repository).values())


def by_key(repository):
    """Every stored slot by its cell or pair key (the two never collide)."""
    return {**repository._single, **repository._neighbor}


def training_set(system, stored):
    """The identities of the stored sequences a slot's region encloses."""
    return [id(s) for s in system.store.sequences_within(stored.region)]


def fitted_counting(registry, train):
    """A multi-leaf counting system, fitted while ``registry`` counts."""
    previous = set_registry(registry)
    try:
        return Kamel(KamelConfig(**MULTILEAF_CONFIG)).fit(train)
    finally:
        set_registry(previous)


def builds(registry):
    return registry.snapshot()["repro.partitioning.model_builds_total"]["value"]


class TestCountingFits:
    def test_the_world_has_shared_and_unshared_slots(self, multileaf_kamel):
        stats = multileaf_kamel.repository.stats()
        assert (stats.single_models, stats.neighbor_models) == (7, 31)
        assert stats.distinct_models == 30
        assert len(stats.models_per_level) >= 2

    def test_every_slot_equals_a_fresh_fit(self, multileaf_kamel):
        vocab_size = len(multileaf_kamel.tokenizer.vocabulary)
        for stored in slots(multileaf_kamel.repository):
            sequences = multileaf_kamel.store.sequences_within(stored.region)
            fresh = CountingMaskedLM().fit([s.tokens for s in sequences], vocab_size)
            assert stored.model.to_dict() == fresh.to_dict()
            assert stored.token_count == sum(len(s) for s in sequences)

    def test_slots_share_a_model_exactly_when_their_sets_match(self, multileaf_kamel):
        every = slots(multileaf_kamel.repository)
        sets = [training_set(multileaf_kamel, s) for s in every]
        for a, set_a in zip(every, sets):
            for b, set_b in zip(every, sets):
                assert (a.model is b.model) == (set_a == set_b)

    def test_one_fit_runs_per_distinct_set(self, porto_small):
        registry = MetricsRegistry()
        system = fitted_counting(registry, porto_small.split(seed=1)[0])
        distinct_sets = {tuple(training_set(system, s)) for s in slots(system.repository)}
        assert builds(registry) == len(distinct_sets) == 30
        assert system.repository.stats().distinct_models == 30

    def test_sharing_never_crosses_passes(self, porto_small):
        train, _ = porto_small.split(seed=1)
        system = fitted_counting(MetricsRegistry(), train[:100])
        # Holding the first pass's models keeps their ids from being reused.
        kept = {key: (s.model, s.builds) for key, s in by_key(system.repository).items()}
        first_pass = {id(model) for model, _ in kept.values()}

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            system.add_training(train[100:])
        finally:
            set_registry(previous)

        refit = []
        for key, stored in by_key(system.repository).items():
            model, builds_before = kept.get(key, (None, 0))
            if stored.builds == builds_before:
                assert stored.model is model  # not rebuilt by the second pass
                continue
            assert id(stored.model) not in first_pass, key  # a fresh fit, never an old one
            refit.append(stored)
        assert refit
        assert builds(registry) == len({tuple(training_set(system, s)) for s in refit})
        vocab_size = len(system.tokenizer.vocabulary)
        for stored in refit:
            sequences = system.store.sequences_within(stored.region)
            fresh = CountingMaskedLM().fit([s.tokens for s in sequences], vocab_size)
            assert stored.model.to_dict() == fresh.to_dict()


class TestBertFits:
    @pytest.fixture(scope="class")
    def system(self, porto_small):
        train, _ = porto_small.split(seed=1)
        config = KamelConfig(model_backend="bert", bert_epochs=2, **MULTILEAF_CONFIG)
        return Kamel(config).fit(train)

    def test_every_shared_model_equals_a_fresh_fit(self, system):
        vocab_size = len(system.tokenizer.vocabulary)
        every = slots(system.repository)
        distinct = {id(s.model): s for s in every}
        assert len(distinct) < len(every)
        for stored in distinct.values():
            sequences = system.store.sequences_within(stored.region)
            fresh = system._model_factory().fit([s.tokens for s in sequences], vocab_size)
            expected = fresh.model.state_dict()
            actual = stored.model.model.state_dict()
            assert actual.keys() == expected.keys()
            for name, array in expected.items():
                assert np.array_equal(actual[name], array), name
