"""Masked language models over trajectory tokens.

KAMEL treats a tokenized trajectory as a sentence and asks a masked
language model "which token belongs here?". Two interchangeable backends
implement the :class:`MaskedModel` interface:

* :class:`BertMaskedLM` — a transformer-encoder masked LM built on the
  :mod:`repro.nn` autograd engine: token+position embeddings, multi-head
  self-attention, GELU feed-forward blocks, and an MLM head, trained with
  BERT's 15 % / 80-10-10 masking recipe. This is the faithful (scaled-down)
  reproduction of the paper's model.
* :class:`CountingMaskedLM` — a bidirectional context-counting model
  with route tables and a smoothed unigram back-off. It answers the same
  queries orders of magnitude faster and is the default backend for
  full-sweep benchmarks.
"""

from repro.mlm.vocab import Vocabulary
from repro.mlm.base import MaskedModel, TokenProb
from repro.mlm.counting import CountingMaskedLM
from repro.mlm.bert import BertConfig, BertMaskedLM, BertModel, TrainingConfig

__all__ = [
    "BertConfig",
    "BertMaskedLM",
    "BertModel",
    "CountingMaskedLM",
    "MaskedModel",
    "TokenProb",
    "TrainingConfig",
    "Vocabulary",
]
