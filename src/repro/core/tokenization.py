"""Tokenization: points -> grid-cell tokens (paper Section 3).

Every input trajectory — training or sparse — passes through here first.
Points are mapped to grid cells; the cell is interned in a shared
:class:`~repro.mlm.vocab.Vocabulary` so downstream models work on small
integer ids. Consecutive points falling in the same cell collapse into
one token occurrence (a vehicle sampled at 1 Hz can sit in a 75 m hexagon
for many samples; the language analogy wants one "word", and the
timestamps of the collapsed run are kept as the token's entry time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigError
from repro.geo import BoundingBox, Point, Trajectory
from repro.grid import Cell, Grid, HexGrid, SquareGrid
from repro.mlm.vocab import Vocabulary


@dataclass(frozen=True)
class TokenSequence:
    """A tokenized trajectory: ids plus the entry time of each token."""

    traj_id: str
    tokens: tuple[int, ...]
    times: tuple[Optional[float], ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.times):
            raise ValueError("tokens and times must have equal length")
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if not isinstance(self.times, tuple):
            object.__setattr__(self, "times", tuple(self.times))

    def __len__(self) -> int:
        return len(self.tokens)


def make_grid(grid_type: str, cell_edge_m: float) -> Grid:
    """Factory for the two tokenization grids."""
    if grid_type == "hex":
        return HexGrid(cell_edge_m)
    if grid_type == "square":
        return SquareGrid(cell_edge_m)
    raise ConfigError(f"unknown grid_type {grid_type!r}")


class Tokenizer:
    """Maps trajectories to token sequences over a shared vocabulary.

    ``grid`` and ``vocabulary`` are fixed for the tokenizer's lifetime
    (the vocabulary may *grow*; it is never replaced): token geometry is
    computed once per token id and kept.
    """

    def __init__(self, grid: Grid, vocabulary: Optional[Vocabulary] = None) -> None:
        self.grid = grid
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        # Token id -> cell centroid, filled on first use. Ids are
        # append-only and the grid never moves, so an entry cannot go
        # stale; a racing thread stores an equal Point (an idempotent
        # dict store under the GIL), so streaming threads share it unlocked.
        self._centroids: dict[int, Point] = {}

    # -- encoding -----------------------------------------------------------

    def tokenize(self, trajectory: Trajectory, grow: bool = False) -> TokenSequence:
        """Tokenize one trajectory.

        ``grow=True`` interns unseen cells (training data); sparse query
        trajectories should use ``grow=False`` so cells the models never
        saw come out as ``[UNK]`` — mirroring BERT's out-of-vocabulary
        behaviour. Consecutive duplicate cells are collapsed.
        """
        tokens: list[int] = []
        times: list[Optional[float]] = []
        last_cell: Optional[Cell] = None
        for p in trajectory.points:
            cell = self.grid.cell_of(p)
            if cell == last_cell:
                continue
            last_cell = cell
            if grow:
                tokens.append(self.vocabulary.add(cell))
            else:
                tokens.append(self.vocabulary.encode(cell))
            times.append(p.t)
        return TokenSequence(trajectory.traj_id, tuple(tokens), tuple(times))

    def tokenize_many(
        self, trajectories: Iterable[Trajectory], grow: bool = False
    ) -> list[TokenSequence]:
        return [self.tokenize(t, grow=grow) for t in trajectories]

    # -- token geometry -------------------------------------------------------

    def cell_of_token(self, token_id: int) -> Cell:
        """The grid cell a (non-special) token id stands for."""
        item = self.vocabulary.decode(token_id)
        if self.vocabulary.is_special(token_id):
            raise ConfigError(f"token {token_id} ({item!r}) has no cell")
        return item  # type: ignore[return-value]

    def token_for_point(self, p: Point) -> int:
        """Encode a single point (``[UNK]`` for unseen cells)."""
        return self.vocabulary.encode(self.grid.cell_of(p))

    def centroid_of_token(self, token_id: int) -> Point:
        """Centroid of the token's cell (special / unknown ids raise)."""
        point = self._centroids.get(token_id)
        if point is None:
            point = self.grid.centroid(self.cell_of_token(token_id))
            self._centroids[token_id] = point
        return point

    def token_distance_m(self, a: int, b: int) -> float:
        """Centroid distance between two tokens in meters."""
        return self.centroid_of_token(a).distance_to(self.centroid_of_token(b))

    def sequence_bbox(self, seq: TokenSequence) -> BoundingBox:
        """Bounding box of a token sequence's cell centroids."""
        return BoundingBox.from_points(
            self.centroid_of_token(t)
            for t in seq.tokens
            if not self.vocabulary.is_special(t)
        )

    def polyline_of(self, tokens: Sequence[int]) -> list[Point]:
        """Cell-centroid polyline of a token sequence (skips specials)."""
        return [
            self.centroid_of_token(t)
            for t in tokens
            if not self.vocabulary.is_special(t)
        ]

    def __repr__(self) -> str:
        return f"Tokenizer(grid={self.grid!r}, vocab={self.vocabulary!r})"
