"""Lazy model loading for serving workers: a bounded LRU over the store.

``load_kamel`` parses every pyramid model eagerly — right for offline
evaluation, wrong for a sharded worker that will only ever be asked about
its own partition. :func:`load_kamel_lazy` restores the same system with
every repository slot holding a :class:`LazyModel` proxy instead: the
first prediction (either method) pulls the real model out of the
:class:`~repro.io.serialize.ModelStore` through a bounded
:class:`ModelLRU`, and models that fall out of the working set are
evicted. A worker's resident memory is then O(LRU capacity), not
O(pyramid size) — the paper's "no single process holds every model"
posture, made literal.

Cache traffic is observable: hits, misses (= disk parses), and evictions
feed the ``repro.serve.model_lru.*`` counters, and the ``resident`` gauge
tracks occupancy, so ``kamel loadtest`` can show whether a partition
strategy actually bought model locality.
"""

from __future__ import annotations

import pathlib
from collections import OrderedDict
from typing import Sequence, Union

from repro.core.kamel import Kamel
from repro.io.serialize import ModelStore, load_kamel
from repro.mlm.base import MaskQuery, MaskedModel, TokenProb
from repro.obs import instrument as obs
from repro.obs.tracing import span

__all__ = ["DEFAULT_LRU_CAPACITY", "LazyModel", "ModelLRU", "load_kamel_lazy"]

DEFAULT_LRU_CAPACITY = 64
"""Resident models per worker unless configured otherwise."""


class ModelLRU:
    """A bounded, least-recently-used cache of parsed models.

    One per worker process. All access happens on the worker's single
    processing thread, so no locking; the :class:`~repro.io.serialize.ModelStore`
    underneath opens a fresh handle per parse, so N workers over the same
    directory never contend.
    """

    def __init__(self, store: ModelStore, capacity: int = DEFAULT_LRU_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity!r}")
        self.store = store
        self.capacity = capacity
        self._cache: "OrderedDict[str, MaskedModel]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, file_name: str) -> MaskedModel:
        model = self._cache.get(file_name)
        if model is not None:
            self._cache.move_to_end(file_name)
            self.hits += 1
            obs.count("repro.serve.model_lru.hits_total")
            return model
        self.misses += 1
        obs.count("repro.serve.model_lru.misses_total")
        with span("serve.model_load", model=file_name):
            model = self.store.load(file_name)
        self._cache[file_name] = model
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.evictions += 1
            obs.count("repro.serve.model_lru.evictions_total")
        obs.gauge("repro.serve.model_lru.resident").set(len(self._cache))
        return model

    def resident(self) -> list[str]:
        """File names currently cached, least recently used first."""
        return list(self._cache)

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:
        return (
            f"ModelLRU(capacity={self.capacity}, resident={len(self._cache)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


class LazyModel(MaskedModel):
    """A repository slot that loads its real model on first prediction.

    Stands in for one serialized model file. ``is_fitted`` answers
    ``True`` without touching disk — only *trained* models are ever
    serialized, and the ladder checks fitness before every rung, so a
    disk parse there would defeat the laziness. ``num_training_tokens``
    comes from the manifest metadata, also without a parse.
    """

    def __init__(self, cache: ModelLRU, file_name: str) -> None:
        self._cache = cache
        self.file_name = file_name
        self._token_count = int(
            cache.store.entry(file_name).get("token_count", 0) or 0
        )

    def fit(self, sequences: Sequence[Sequence[int]], vocab_size: int) -> MaskedModel:
        raise NotImplementedError(
            "LazyModel is a read-only serving proxy; retrain offline and re-save"
        )

    def predict_masked(
        self, tokens: Sequence[int], position: int, top_k: int = 10
    ) -> list[TokenProb]:
        return self._cache.get(self.file_name).predict_masked(tokens, position, top_k)

    def predict_masked_batch(
        self, queries: Sequence[MaskQuery], top_k: int = 10
    ) -> list[list[TokenProb]]:
        return self._cache.get(self.file_name).predict_masked_batch(queries, top_k)

    @property
    def is_fitted(self) -> bool:
        return True

    @property
    def num_training_tokens(self) -> int:
        return self._token_count

    def __repr__(self) -> str:
        loaded = self.file_name in set(self._cache.resident())
        return f"LazyModel({self.file_name!r}, loaded={loaded})"


def load_kamel_lazy(
    directory: Union[str, pathlib.Path],
    lru_capacity: int = DEFAULT_LRU_CAPACITY,
) -> tuple[Kamel, ModelLRU]:
    """Restore a saved system with lazily loaded models.

    Same contract as :func:`~repro.io.serialize.load_kamel` — the
    returned system imputes bit-for-bit identically — except every
    repository model is a :class:`LazyModel` backed by one shared
    per-process :class:`ModelLRU`. Returns ``(system, cache)`` so callers
    can inspect cache traffic.
    """
    store = ModelStore(directory)
    cache = ModelLRU(store, lru_capacity)
    system = load_kamel(directory, model_loader=lambda name: LazyModel(cache, name))
    return system, cache
