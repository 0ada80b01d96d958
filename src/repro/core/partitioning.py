"""Partitioning: the pyramid model repository (paper Section 4).

A pyramid of ``H`` levels covers "the whole space" (a large square rooted
around the training data); level ``l`` splits the root into ``4**l`` equal
cells. Only the lowest ``L`` levels *maintain* models. Two model kinds
exist (Section 4.1):

* **single-cell** models trained on the trajectories fully enclosed in one
  cell — built when the cell holds at least ``k * 4**(leaf - l)`` tokens;
* **neighbor-cell** models trained on the union of two edge-sharing cells
  (stored at the north/west cell), built at double that threshold — they
  cover trajectories that straddle a cell border.

Retrieval for a sparse trajectory finds the smallest cell (or neighbor
pair) fully enclosing its bounding rectangle that has a model; when none
exists the caller degrades per the paper (split, then straight line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.core.config import KamelConfig
from repro.core.store import TrajectoryStore
from repro.core.tokenization import Tokenizer, TokenSequence
from repro.errors import ModelRepositoryError
from repro.geo import BoundingBox, Point
from repro.mlm.base import MaskedModel
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.tracing import span

_log = get_logger("core.partitioning")

CellKey = tuple[int, int, int]
"""(level, i, j): cell j-th row, i-th column of the 2**level split."""

PairKey = tuple[CellKey, CellKey]
"""A neighbor-cell model key, ordered (storage cell, pointing cell)."""

PassFits = dict[tuple[int, ...], tuple[MaskedModel, int]]
"""One maintenance pass's fits: training-sequence identities -> (model, tokens)."""


class PyramidIndex:
    """Pure geometry of the pyramid decomposition."""

    def __init__(self, root: BoundingBox, height: int) -> None:
        if height < 1:
            raise ModelRepositoryError(f"pyramid height must be >= 1, got {height}")
        if root.width <= 0 or root.height <= 0:
            raise ModelRepositoryError("pyramid root must have positive extent")
        self.root = root
        self.height = height

    @classmethod
    def rooted_at(cls, center: Point, extent_m: float, height: int) -> "PyramidIndex":
        """Root a pyramid of the given extent around ``center``.

        The root is anchored so ``center`` falls at the *center of a leaf
        cell* near the root's middle. Naively centering the root on the
        data would put cell boundaries of every level exactly through the
        data centroid (the worst case for "smallest cell fully enclosing
        the trajectory" retrieval); the half-leaf shift keeps the data
        comfortably inside one cell per maintained level instead.
        """
        leaf = extent_m / 2 ** (height - 1)
        shift = (2 ** max(0, height - 2) + 0.5) * leaf
        min_x = center.x - shift
        min_y = center.y - shift
        return cls(
            BoundingBox(min_x, min_y, min_x + extent_m, min_y + extent_m),
            height,
        )

    @property
    def leaf_level(self) -> int:
        return self.height - 1

    def cells_per_side(self, level: int) -> int:
        return 2**level

    def cell_bbox(self, key: CellKey) -> BoundingBox:
        level, i, j = key
        n = self.cells_per_side(level)
        w = self.root.width / n
        h = self.root.height / n
        return BoundingBox(
            self.root.min_x + i * w,
            self.root.min_y + j * h,
            self.root.min_x + (i + 1) * w,
            self.root.min_y + (j + 1) * h,
        )

    def cell_containing_point(self, p: Point, level: int) -> Optional[CellKey]:
        n = self.cells_per_side(level)
        if not self.root.contains_point(p):
            return None
        i = min(n - 1, int(math.floor((p.x - self.root.min_x) / self.root.width * n)))
        j = min(n - 1, int(math.floor((p.y - self.root.min_y) / self.root.height * n)))
        return (level, i, j)

    def cell_containing_bbox(self, box: BoundingBox, level: int) -> Optional[CellKey]:
        """The level-``level`` cell fully enclosing ``box``, if any."""
        lo = self.cell_containing_point(Point(box.min_x, box.min_y), level)
        hi = self.cell_containing_point(Point(box.max_x, box.max_y), level)
        if lo is None or hi is None or lo != hi:
            return None
        return lo

    def pair_containing_bbox(self, box: BoundingBox, level: int) -> Optional[PairKey]:
        """An edge-sharing cell pair at ``level`` enclosing ``box``, if any."""
        lo = self.cell_containing_point(Point(box.min_x, box.min_y), level)
        hi = self.cell_containing_point(Point(box.max_x, box.max_y), level)
        if lo is None or hi is None or lo == hi:
            return None
        (_, i1, j1), (_, i2, j2) = lo, hi
        if abs(i1 - i2) + abs(j1 - j2) != 1:
            return None
        return _pair_key(lo, hi)

    def parent(self, key: CellKey) -> Optional[CellKey]:
        level, i, j = key
        if level == 0:
            return None
        return (level - 1, i // 2, j // 2)

    def children(self, key: CellKey) -> list[CellKey]:
        level, i, j = key
        if level >= self.leaf_level:
            return []
        return [
            (level + 1, 2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)
        ]

    def neighbors(self, key: CellKey) -> list[CellKey]:
        """Edge-sharing same-level neighbours inside the root."""
        level, i, j = key
        n = self.cells_per_side(level)
        out = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < n and 0 <= nj < n:
                out.append((level, ni, nj))
        return out

    def smallest_enclosing(
        self, box: BoundingBox, maintained_levels: Iterator[int]
    ) -> Optional[CellKey]:
        """Deepest maintained-level single cell fully enclosing ``box``."""
        for level in sorted(maintained_levels, reverse=True):
            cell = self.cell_containing_bbox(box, level)
            if cell is not None:
                return cell
        return None


def _pair_key(a: CellKey, b: CellKey) -> PairKey:
    """Canonical neighbor-model key: the north-or-west cell stores it."""
    (_, ia, ja), (_, ib, jb) = a, b
    # West = smaller i; north = larger j (y grows north in the local frame).
    if (ia < ib) or (ia == ib and ja > jb):
        return (a, b)
    return (b, a)


@dataclass
class StoredModel:
    """A model plus the metadata the paper keeps beside it."""

    model: MaskedModel
    region: BoundingBox
    token_count: int
    kind: str
    """``"single"`` or ``"neighbor"``."""
    builds: int = 1
    """How many times this slot has been (re)built."""


@dataclass
class RepositoryStats:
    """Counters mirroring the deployment numbers the paper reports."""

    single_models: int = 0
    neighbor_models: int = 0
    models_per_level: dict = field(default_factory=dict)
    rebuilds: int = 0
    distinct_models: int = 0
    """Model objects behind the slots: slots with one training set share one."""


class ModelRepository:
    """Builds, stores, and retrieves per-area masked models."""

    def __init__(
        self,
        tokenizer: Tokenizer,
        store: TrajectoryStore,
        config: KamelConfig,
        model_factory: Callable[[], MaskedModel],
    ) -> None:
        self.tokenizer = tokenizer
        self.store = store
        self.config = config
        self.model_factory = model_factory
        self.pyramid: Optional[PyramidIndex] = None
        """Built around the first point seen; a loaded system assigns it."""
        self._single: dict[CellKey, StoredModel] = {}
        self._neighbor: dict[PairKey, StoredModel] = {}
        self._token_counts: dict[CellKey, int] = {}

    # -- bookkeeping -------------------------------------------------------

    @property
    def maintained_levels(self) -> list[int]:
        """The lowest L levels of the pyramid (deepest last)."""
        leaf = self.config.leaf_level
        first = max(0, leaf - self.config.pyramid_levels + 1)
        return list(range(first, leaf + 1))

    def _ensure_pyramid(self, around: Point) -> PyramidIndex:
        if self.pyramid is None:
            self.pyramid = PyramidIndex.rooted_at(
                around, self.config.pyramid_root_extent_m, self.config.pyramid_height
            )
        return self.pyramid

    def token_count(self, key: CellKey) -> int:
        return self._token_counts.get(key, 0)

    def stats(self) -> RepositoryStats:
        per_level: dict[int, int] = {}
        for (level, _, _), _m in self._single.items():
            per_level[level] = per_level.get(level, 0) + 1
        slots = list(self._single.values()) + list(self._neighbor.values())
        return RepositoryStats(
            single_models=len(self._single),
            neighbor_models=len(self._neighbor),
            models_per_level=per_level,
            rebuilds=sum(m.builds - 1 for m in slots),
            distinct_models=len({id(m.model) for m in slots}),
        )

    # -- maintenance (Section 4.2) -------------------------------------------

    def add_training(self, sequences: list[TokenSequence]) -> None:
        """Ingest a batch of tokenized training trajectories.

        Implements the four maintenance steps of Section 4.2: store the
        data, find the smallest enclosing cell C, then (re)build models at
        C, its neighbor pairs, its ancestors, and its descendants wherever
        token thresholds are now met. Slots of one pass whose regions enclose
        the same stored sequences share one fitted model: a fit is a
        deterministic function of its sequences, so a second fit would only
        repeat the first.
        """
        sequences = [s for s in sequences if len(s) >= 2]
        if not sequences:
            return
        self.store.add_many(sequences)
        pyramid = self._ensure_pyramid(self._batch_centroid(sequences))
        self._update_token_counts(sequences, pyramid)

        batch_box = BoundingBox.union_all(
            [self.tokenizer.sequence_bbox(s) for s in sequences]
        )
        anchor = pyramid.smallest_enclosing(batch_box, iter(self.maintained_levels))
        touched: list[CellKey] = []
        if anchor is not None:
            touched.append(anchor)
            # Step 3: ancestors up to the lowest maintained level.
            cursor = pyramid.parent(anchor)
            while cursor is not None and cursor[0] >= self.maintained_levels[0]:
                touched.append(cursor)
                cursor = pyramid.parent(cursor)
            # Step 4: descendants down to the leaves.
            frontier = pyramid.children(anchor)
            while frontier:
                touched.extend(frontier)
                nxt: list[CellKey] = []
                for child in frontier:
                    nxt.extend(pyramid.children(child))
                frontier = nxt
        else:
            # The batch spans more than any maintained cell: refresh every
            # maintained cell it overlaps.
            for level in self.maintained_levels:
                n = pyramid.cells_per_side(level)
                for i in range(n):
                    for j in range(n):
                        key = (level, i, j)
                        if self.token_count(key) and pyramid.cell_bbox(key).intersects(
                            batch_box
                        ):
                            touched.append(key)

        fits: PassFits = {}
        pairs: set[PairKey] = set()
        for key in touched:
            self._maybe_build_single(key, fits)
            self._maybe_build_neighbors(key, fits, pairs)
        _log.debug(
            "maintenance pass",
            extra={"data": {
                "sequences": len(sequences),
                "touched_cells": len(touched),
                "models": self.num_models,
            }},
        )

    def _batch_centroid(self, sequences: list[TokenSequence]) -> Point:
        boxes = [self.tokenizer.sequence_bbox(s) for s in sequences]
        box = BoundingBox.union_all(boxes)
        return box.center

    def _update_token_counts(
        self, sequences: list[TokenSequence], pyramid: PyramidIndex
    ) -> None:
        vocab = self.tokenizer.vocabulary
        for seq in sequences:
            for token in seq.tokens:
                if vocab.is_special(token):
                    continue
                centroid = self.tokenizer.centroid_of_token(token)
                for level in self.maintained_levels:
                    key = pyramid.cell_containing_point(centroid, level)
                    if key is not None:
                        self._token_counts[key] = self._token_counts.get(key, 0) + 1

    def _train_model(
        self, region: BoundingBox, fits: PassFits
    ) -> Optional[tuple[MaskedModel, int]]:
        """The ``(model, tokens)`` fitted on the sequences ``region`` encloses.

        ``fits`` is the current maintenance pass's, keyed by the identities
        of those sequences in store order: a set already fitted this pass
        is handed back rather than fitted again.
        """
        sequences = self.store.sequences_within(region)
        if not sequences:
            return None
        key = tuple(id(s) for s in sequences)
        trained = fits.get(key)
        if trained is None:
            model = self.model_factory()
            with span("repository.build_model", sequences=len(sequences)):
                with obs.stopwatch("repro.partitioning.model_build_seconds"):
                    model.fit([s.tokens for s in sequences], len(self.tokenizer.vocabulary))
            obs.count("repro.partitioning.model_builds_total")
            trained = fits[key] = (model, sum(len(s) for s in sequences))
        return trained

    def _maybe_build_single(self, key: CellKey, fits: PassFits) -> None:
        assert self.pyramid is not None
        level = key[0]
        if self.token_count(key) < self.config.model_threshold(level):
            return
        trained = self._train_model(self.pyramid.cell_bbox(key), fits)
        if trained is None:
            return
        model, tokens = trained
        existing = self._single.get(key)
        self._single[key] = StoredModel(
            model,
            self.pyramid.cell_bbox(key),
            tokens,
            "single",
            builds=(existing.builds + 1) if existing else 1,
        )

    def _maybe_build_neighbors(
        self, key: CellKey, fits: PassFits, pairs: set[PairKey]
    ) -> None:
        """(Re)build the pairs of ``key`` and its neighbours.

        ``pairs`` holds the pairs the current pass has already visited: a
        pair is reached from both of its cells, and is built once a pass.
        """
        assert self.pyramid is not None
        level = key[0]
        threshold = 2 * self.config.model_threshold(level)
        for other in self.pyramid.neighbors(key):
            pair = _pair_key(key, other)
            if pair in pairs:
                continue
            pairs.add(pair)
            if self.token_count(key) + self.token_count(other) < threshold:
                continue
            region = self.pyramid.cell_bbox(pair[0]).union(self.pyramid.cell_bbox(pair[1]))
            trained = self._train_model(region, fits)
            if trained is None:
                continue
            model, tokens = trained
            existing = self._neighbor.get(pair)
            self._neighbor[pair] = StoredModel(
                model,
                region,
                tokens,
                "neighbor",
                builds=(existing.builds + 1) if existing else 1,
            )

    # -- retrieval (Section 4.1) ------------------------------------------------

    def retrieve(self, box: BoundingBox) -> Optional[StoredModel]:
        """The model of the smallest cell or neighbor pair enclosing ``box``."""
        obs.count("repro.partitioning.lookup_total")
        if self.pyramid is None:
            self._record_miss()
            return None
        for level in sorted(self.maintained_levels, reverse=True):
            cell = self.pyramid.cell_containing_bbox(box, level)
            if cell is not None and cell in self._single:
                self._record_hit("single", level)
                return self._single[cell]
            pair = self.pyramid.pair_containing_bbox(box, level)
            if pair is not None and pair in self._neighbor:
                self._record_hit("neighbor", level)
                return self._neighbor[pair]
        self._record_miss()
        return None

    @staticmethod
    def _record_hit(kind: str, level: int) -> None:
        obs.count(f"repro.partitioning.lookup_hit.{kind}_total")
        obs.observe("repro.partitioning.lookup_hit_level", level)

    @staticmethod
    def _record_miss() -> None:
        obs.count("repro.partitioning.lookup_miss_total")

    @property
    def num_models(self) -> int:
        return len(self._single) + len(self._neighbor)

    def __repr__(self) -> str:
        return (
            f"ModelRepository(single={len(self._single)}, "
            f"neighbor={len(self._neighbor)}, levels={self.maintained_levels})"
        )
