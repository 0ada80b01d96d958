"""A bidirectional context-counting masked model with route tables.

This backend answers the same masked-token queries as the BERT backend by
counting, over the training trajectories, which token appears between
which neighbours. Training records five context tables:

* ``(left1, right1)`` — the token's two immediate neighbours,
* ``("dst", left1, future)`` / ``("rdst", right1, past)`` — the *route*
  tables: which token followed/preceded an anchor on trips that also
  passed a cell up to :data:`HORIZON` steps away (the counting-model
  analogue of BERT attending to the far gap endpoint),
* the ``(left1,)`` / ``(right1,)`` unigrams.

A query for the gap ``left1 .. right1`` multiplies the local transition
*policy* (``l1``, ``l1r1``, else ``r1``) by the route *value* (``dst`` and
``rdst``), falling back to the smoothed global unigram distribution when
no local table matched. The backend exists because sweeping every figure
of the paper with the numpy BERT would take hours; system behaviour
(candidates + probabilities feeding the spatial constraints and beam
search) is identical in kind.

An answer depends only on the gap endpoints ``(left1, right1)``, ``top_k``
and the fitted tables, and a search asks about the same endpoints many
times (one ``bulk_porto`` pass: 31,300 queries, 5,874 distinct contexts).
Each model therefore memoises its answers by ``(left1, right1, top_k)``,
first in first out, at most :data:`ANSWER_MEMO_ENTRIES` of them;
:meth:`CountingMaskedLM.fit` empties the memo and it is never saved.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from repro.errors import NotFittedError
from repro.mlm.base import MaskedModel, TokenProb, validate_mask_query

_ContextKey = tuple

HORIZON = 10
"""How far ahead/behind the route tables look during training."""

SMOOTHING = 0.1
"""Additive smoothing of the global unigram back-off."""

ANSWER_MEMO_ENTRIES = 4096
"""Answers one model memoises before dropping the oldest (~2 MB at
``top_k=10``, against ~6 MB of count tables for a ``bulk_porto`` model)."""


def _training_contexts(tokens: Sequence[int], position: int) -> list[_ContextKey]:
    """Context keys recorded for the token at ``position`` during training.

    Besides the immediate-neighbour tables, two *route* tables give the
    model the long-range signal that BERT's attention provides:

    * ``("dst", left1, future)`` — the token that followed ``left1`` on
      trips that later (within :data:`HORIZON` steps) passed through
      ``future``;
    * ``("rdst", right1, past)`` — the token that preceded ``right1`` on
      trips that earlier passed through ``past``.

    At imputation time the masked position sits between the two current
    gap endpoints; querying ``dst``/``rdst`` with that pair retrieves
    "how trips travelling from here toward there actually moved".
    """
    n = len(tokens)

    def at(i: int):
        return tokens[i] if 0 <= i < n else None

    left1, right1 = at(position - 1), at(position + 1)
    keys: list[_ContextKey] = []
    if left1 is not None and right1 is not None:
        keys.append(("l1r1", left1, right1))
    if left1 is not None:
        for d in range(2, HORIZON + 1):
            future = at(position + d)
            if future is None:
                break
            keys.append(("dst", left1, future))
    if right1 is not None:
        for d in range(2, HORIZON + 1):
            past = at(position - d)
            if past is None:
                break
            keys.append(("rdst", right1, past))
    if left1 is not None:
        keys.append(("l1", left1))
    if right1 is not None:
        keys.append(("r1", right1))
    return keys


class CountingMaskedLM(MaskedModel):
    """Masked-token prediction from bidirectional context counts."""

    def __init__(self) -> None:
        self._tables: dict[_ContextKey, Counter] = defaultdict(Counter)
        self._unigram: Counter = Counter()
        self._total_tokens = 0
        self._vocab_size = 0
        self._answers: dict[tuple, tuple[TokenProb, ...]] = {}

    # -- MaskedModel interface ---------------------------------------------

    def fit(self, sequences: Sequence[Sequence[int]], vocab_size: int) -> "CountingMaskedLM":
        if vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {vocab_size!r}")
        self._vocab_size = max(self._vocab_size, vocab_size)
        self._answers.clear()
        for seq in sequences:
            for i, token in enumerate(seq):
                self._unigram[token] += 1
                self._total_tokens += 1
                for key in _training_contexts(seq, i):
                    self._tables[key][token] += 1
        return self

    @property
    def is_fitted(self) -> bool:
        return self._total_tokens > 0

    @property
    def num_training_tokens(self) -> int:
        return self._total_tokens

    def _normalized(self, key: _ContextKey) -> dict[int, float]:
        table = self._tables.get(key)
        if not table:
            return {}
        total = sum(table.values())
        return {token: count / total for token, count in table.items()}

    def predict_masked(
        self, tokens: Sequence[int], position: int, top_k: int = 10
    ) -> list[TokenProb]:
        """Policy-times-value scoring.

        The *policy* term is the local transition evidence — which token
        follows the left gap endpoint ``u`` (and, when populated, which
        token was seen exactly between ``u`` and the right endpoint ``v``).
        The *value* term is the route evidence from the ``dst``/``rdst``
        tables — how often a candidate appeared on training trips running
        from ``u`` toward ``v``. Their product mirrors what BERT's
        attention computes: a locally plausible next token that also lies
        on an observed route to the destination. A small epsilon keeps
        locally plausible candidates alive when no route evidence exists.

        The answer is memoised by ``(left1, right1, top_k)`` (see the
        module docstring); every call returns a fresh list.
        """
        validate_mask_query(tokens, position)
        if not self.is_fitted:
            raise NotFittedError("CountingMaskedLM.predict_masked before fit")

        n = len(tokens)
        left1 = tokens[position - 1] if position >= 1 else None
        right1 = tokens[position + 1] if position + 1 < n else None
        key = (left1, right1, top_k)
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = tuple(
                self._policy_value(left1, right1, top_k)
            )
            if len(self._answers) > ANSWER_MEMO_ENTRIES:
                del self._answers[next(iter(self._answers))]
        return list(answer)

    def _policy_value(
        self, left1: int | None, right1: int | None, top_k: int
    ) -> list[TokenProb]:
        """The uncached answer for the gap ``left1 .. right1``."""
        policy: dict[int, float] = defaultdict(float)
        if left1 is not None:
            for token, p in self._normalized(("l1", left1)).items():
                policy[token] += p
        if left1 is not None and right1 is not None:
            for token, p in self._normalized(("l1r1", left1, right1)).items():
                policy[token] += 4.0 * p
        if not policy and right1 is not None:
            # Left endpoint never seen: fall back to predecessors of v.
            for token, p in self._normalized(("r1", right1)).items():
                policy[token] += p

        scores: dict[int, float]
        if policy:
            value: dict[int, float] = defaultdict(float)
            if left1 is not None and right1 is not None:
                for token, p in self._normalized(("dst", left1, right1)).items():
                    value[token] += p
                for token, p in self._normalized(("rdst", right1, left1)).items():
                    value[token] += p
            eps = 0.05
            scores = {t: p * (eps + value.get(t, 0.0)) for t, p in policy.items()}
        else:
            # Nothing local at all: global unigram back-off.
            denom = self._total_tokens + SMOOTHING * self._vocab_size
            scores = {
                token: (count + SMOOTHING) / denom
                for token, count in self._unigram.items()
            }

        total = sum(scores.values())
        if total <= 0.0:
            return []
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        return [(token, score / total) for token, score in ranked]

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable dump (context keys flattened to strings)."""
        return {
            "vocab_size": self._vocab_size,
            "total_tokens": self._total_tokens,
            "unigram": dict(self._unigram),
            "tables": {
                "|".join(str(part) for part in key): dict(counter)
                for key, counter in self._tables.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CountingMaskedLM":
        model = cls()
        model._vocab_size = payload["vocab_size"]
        model._total_tokens = payload["total_tokens"]
        model._unigram = Counter({int(k): v for k, v in payload["unigram"].items()})
        for flat_key, counts in payload["tables"].items():
            parts = flat_key.split("|")
            key: tuple = (parts[0], *(int(p) for p in parts[1:]))
            model._tables[key] = Counter({int(k): v for k, v in counts.items()})
        return model
