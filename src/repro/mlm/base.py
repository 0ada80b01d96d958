"""The masked-model interface shared by the BERT and counting backends."""

from __future__ import annotations

import abc
from typing import Sequence

TokenProb = tuple[int, float]
"""A candidate token id with its predicted probability."""

MaskQuery = tuple[Sequence[int], int]
"""One masked-token question: ``(tokens, position)``."""


class MaskedModel(abc.ABC):
    """Predicts the token at a masked position of a token sequence.

    This is the "BERT black box" of the paper's architecture diagram: the
    partitioning module trains one instance per spatial area, and the
    multipoint-imputation module queries it with partially imputed
    segments. Sequences are plain token-id lists *without* special tokens;
    the position being predicted is identified by index (implementations
    substitute their own mask sentinel internally).

    There are two prediction methods and one contract. A backend must
    implement :meth:`predict_masked`; :meth:`predict_masked_batch` is what
    the imputation module calls, and by default it asks the scalar method
    once per query. A backend whose cost is dominated by a fixed per-call
    overhead (the BERT forward pass) overrides the batch method and
    reduces the scalar one to a one-element batch. Either way the answer
    to a query must not depend on which other queries share its batch.
    """

    @abc.abstractmethod
    def fit(self, sequences: Sequence[Sequence[int]], vocab_size: int) -> "MaskedModel":
        """Train on tokenized trajectories. Returns self."""

    @abc.abstractmethod
    def predict_masked(
        self, tokens: Sequence[int], position: int, top_k: int = 10
    ) -> list[TokenProb]:
        """Candidate tokens for ``tokens[position]``.

        ``tokens[position]`` is ignored (treated as masked); the rest are
        context. Results are sorted by probability, highest first, and the
        probabilities are a proper distribution over the vocabulary (so
        they can be multiplied along a beam-search path).
        """

    def predict_masked_batch(
        self, queries: Sequence[MaskQuery], top_k: int = 10
    ) -> list[list[TokenProb]]:
        """Candidates for every ``(tokens, position)`` query, in order.

        ``result[i]`` equals ``predict_masked(*queries[i], top_k)`` exactly
        (the same floats, not merely close ones): batching is a cost
        optimisation that never changes an answer.
        """
        return [
            self.predict_masked(tokens, position, top_k)
            for tokens, position in queries
        ]

    @property
    @abc.abstractmethod
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called with non-empty data."""

    @property
    @abc.abstractmethod
    def num_training_tokens(self) -> int:
        """Total number of tokens seen during training (model metadata)."""


def validate_mask_query(tokens: Sequence[int], position: int) -> None:
    """Shared argument validation for :meth:`MaskedModel.predict_masked`."""
    if not tokens:
        raise ValueError("cannot predict on an empty token sequence")
    if not 0 <= position < len(tokens):
        raise ValueError(
            f"mask position {position} out of range for sequence of length {len(tokens)}"
        )
