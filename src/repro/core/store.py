"""The raw trajectory store backing the model repository (Section 4).

The paper keeps "a simple trajectory store" of every tokenized training
trajectory so the partitioning module can re-read an area's trajectories
when (re)building models. This in-memory implementation indexes sequences
by bounding box and answers the query maintenance needs: "all
sequences fully inside region R".
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import EmptyInputError
from repro.geo import BoundingBox
from repro.core.tokenization import Tokenizer, TokenSequence


class TrajectoryStore:
    """Holds tokenized training trajectories with bbox metadata."""

    def __init__(self, tokenizer: Tokenizer) -> None:
        self._tokenizer = tokenizer
        self._sequences: list[TokenSequence] = []
        self._bboxes: list[Optional[BoundingBox]] = []
        self._token_count = 0

    def add(self, sequence: TokenSequence) -> None:
        """Store one tokenized trajectory."""
        self._sequences.append(sequence)
        box: Optional[BoundingBox] = None
        if len(sequence) > 0:
            try:
                box = self._tokenizer.sequence_bbox(sequence)
            except EmptyInputError:
                box = None  # all-special sequence: unplaceable but kept
        self._bboxes.append(box)
        self._token_count += len(sequence)

    def add_many(self, sequences: list[TokenSequence]) -> None:
        for seq in sequences:
            self.add(seq)

    def __len__(self) -> int:
        return len(self._sequences)

    def __iter__(self) -> Iterator[TokenSequence]:
        return iter(self._sequences)

    @property
    def total_tokens(self) -> int:
        return self._token_count

    def bbox(self) -> BoundingBox:
        """The bounding box of everything stored."""
        boxes = [b for b in self._bboxes if b is not None]
        if not boxes:
            raise EmptyInputError("trajectory store is empty")
        return BoundingBox.union_all(boxes)

    def sequences_within(self, region: BoundingBox) -> list[TokenSequence]:
        """Sequences whose bounding box is fully enclosed by ``region``."""
        return [
            seq
            for seq, box in zip(self._sequences, self._bboxes)
            if box is not None and region.contains_box(box)
        ]
