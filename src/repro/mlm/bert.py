"""A scaled-down BERT masked language model on the numpy autograd engine.

Architecture follows Devlin et al. (2018): token + learned position
embeddings, post-LN transformer encoder blocks (multi-head self-attention
and a GELU feed-forward), and an MLM head (dense + GELU + LayerNorm +
output projection). Training uses BERT's recipe: mask 15 % of positions,
of which 80 % become ``[MASK]``, 10 % a random token, 10 % are kept.

The paper trains a 768/12/12 BERT on a TPU; this reproduction defaults to
a 2-layer, 48-dimensional model that trains in seconds on CPU while
exercising the identical code path (mask -> contextual distribution over
the hexagon-token vocabulary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError, NotFittedError
from repro.mlm.base import MaskQuery, MaskedModel, TokenProb, validate_mask_query
from repro.nn import Adam, Dropout, Embedding, LayerNorm, Linear, Module, clip_grad_norm
from repro.nn.functional import cross_entropy, gelu, layernorm, softmax
from repro.nn.tensor import Tensor
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.tracing import span

_log = get_logger("mlm.bert")

_NUM_SPECIAL = 3  # [PAD], [MASK], [UNK] — must match repro.mlm.vocab
_PAD_ID, _MASK_ID, _UNK_ID = 0, 1, 2
_ATTN_NEG = -1e9


@dataclass(frozen=True)
class BertConfig:
    """Transformer hyperparameters."""

    vocab_size: int
    hidden_size: int = 48
    num_layers: int = 2
    num_heads: int = 2
    ffn_size: int = 0
    """Defaults to 4 x hidden_size when 0."""
    max_seq_len: int = 64
    dropout: float = 0.1
    share_layers: bool = False
    """ALBERT-style cross-layer parameter sharing: one transformer block
    applied ``num_layers`` times. The paper notes "other BERT variants ...
    can also be used with different adaptations"; this is the cheapest
    such variant (Lan et al., ICLR 2020) and cuts parameters roughly by
    the layer count."""
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size <= _NUM_SPECIAL:
            raise ConfigError(f"vocab_size must exceed {_NUM_SPECIAL}, got {self.vocab_size}")
        if self.hidden_size % max(1, self.num_heads) != 0:
            raise ConfigError("hidden_size must be divisible by num_heads")
        if self.num_layers < 1 or self.num_heads < 1:
            raise ConfigError("num_layers and num_heads must be >= 1")
        if self.ffn_size == 0:
            object.__setattr__(self, "ffn_size", 4 * self.hidden_size)


@dataclass(frozen=True)
class TrainingConfig:
    """Masked-LM training hyperparameters."""

    epochs: int = 25
    batch_size: int = 16
    lr: float = 3e-3
    warmup_steps: int = 20
    mask_prob: float = 0.15
    grad_clip: float = 1.0
    seed: int = 0
    max_steps: Optional[int] = None
    log_every: int = 0
    """Log loss (at INFO, logger ``repro.mlm.bert``) every N steps when
    > 0; training progress is otherwise logged at DEBUG."""


# The inference forward (the ``infer`` methods below) runs on bare arrays:
# no Tensor, no tape, no dropout. Each step reads ``Parameter.data`` when
# it runs and keeps nothing, so ``load_state_dict`` and a refit, which
# rebind ``data``, are seen by the next call.


def _affine(layer: Linear, x: np.ndarray) -> np.ndarray:
    return x @ layer.weight.data + layer.bias.data


def _norm(layer: LayerNorm, x: np.ndarray) -> np.ndarray:
    return layernorm(x, layer.weight.data, layer.bias.data, layer.eps)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads."""

    def __init__(self, config: BertConfig, rng: np.random.Generator) -> None:
        super().__init__()
        d = config.hidden_size
        self.num_heads = config.num_heads
        self.head_dim = d // config.num_heads
        self.query = Linear(d, d, rng)
        self.key = Linear(d, d, rng)
        self.value = Linear(d, d, rng)
        self.output = Linear(d, d, rng)
        self.dropout = Dropout(config.dropout, rng=np.random.default_rng(config.seed + 101))

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, T, D) -> (B, H, T, dh)
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(1, 2)

    def forward(self, x: Tensor, attn_bias: np.ndarray) -> Tensor:
        batch, seq, _ = x.shape
        q = self._split_heads(self.query(x), batch, seq)
        k = self._split_heads(self.key(x), batch, seq)
        v = self._split_heads(self.value(x), batch, seq)
        scores = (q @ k.transpose(2, 3)) * (1.0 / math.sqrt(self.head_dim))
        scores = scores + Tensor(attn_bias)  # (B, 1, 1, T) broadcast
        weights = self.dropout(scores.softmax(axis=-1))
        context = weights @ v  # (B, H, T, dh)
        merged = context.transpose(1, 2).reshape(batch, seq, self.num_heads * self.head_dim)
        return self.output(merged)

    def infer(self, x: np.ndarray, queries: np.ndarray, attn_bias: np.ndarray) -> np.ndarray:
        """``forward`` for the rows ``queries`` (B, Tq, D) attending over ``x`` (B, T, D)."""
        batch = x.shape[0]
        heads = (batch, -1, self.num_heads, self.head_dim)
        q = _affine(self.query, queries).reshape(heads).transpose(0, 2, 1, 3)
        k = _affine(self.key, x).reshape(heads).transpose(0, 2, 3, 1)
        v = _affine(self.value, x).reshape(heads).transpose(0, 2, 1, 3)
        scores = (q @ k) * (1.0 / math.sqrt(self.head_dim)) + attn_bias
        context = softmax(scores) @ v  # (B, H, Tq, dh)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, -1, self.num_heads * self.head_dim)
        return _affine(self.output, merged)


class TransformerLayer(Module):
    """Post-LN encoder block: attention + FFN, each with residual."""

    def __init__(self, config: BertConfig, rng: np.random.Generator) -> None:
        super().__init__()
        d = config.hidden_size
        self.attention = MultiHeadSelfAttention(config, rng)
        self.attn_norm = LayerNorm(d)
        self.ffn_in = Linear(d, config.ffn_size, rng)
        self.ffn_out = Linear(config.ffn_size, d, rng)
        self.ffn_norm = LayerNorm(d)
        self.dropout = Dropout(config.dropout, rng=np.random.default_rng(config.seed + 202))

    def forward(self, x: Tensor, attn_bias: np.ndarray) -> Tensor:
        x = self.attn_norm(x + self.dropout(self.attention(x, attn_bias)))
        hidden = self.ffn_out(self.ffn_in(x).gelu())
        return self.ffn_norm(x + self.dropout(hidden))

    def infer(self, x: np.ndarray, queries: np.ndarray, attn_bias: np.ndarray) -> np.ndarray:
        """The block's output for the rows ``queries`` of ``x`` (all of them: pass ``x``)."""
        h = _norm(self.attn_norm, queries + self.attention.infer(x, queries, attn_bias))
        hidden = _affine(self.ffn_out, gelu(_affine(self.ffn_in, h)))
        return _norm(self.ffn_norm, h + hidden)


class BertModel(Module):
    """Encoder + MLM head producing per-position vocabulary logits."""

    def __init__(self, config: BertConfig) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        d = config.hidden_size
        self.token_embedding = Embedding(config.vocab_size, d, rng)
        self.position_embedding = Embedding(config.max_seq_len, d, rng)
        self.embed_norm = LayerNorm(d)
        self.embed_dropout = Dropout(config.dropout, rng=np.random.default_rng(config.seed + 303))
        if config.share_layers:
            shared = TransformerLayer(config, rng)
            self.layers = [shared] * config.num_layers
        else:
            self.layers = [TransformerLayer(config, rng) for _ in range(config.num_layers)]
        self.mlm_dense = Linear(d, d, rng)
        self.mlm_norm = LayerNorm(d)
        self.mlm_decoder = Linear(d, config.vocab_size, rng)

    def forward(self, ids: np.ndarray, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """``ids``: (B, T) int array. Returns logits of shape (B, T, V)."""
        ids = np.asarray(ids, dtype=np.int64)
        batch, seq = ids.shape
        self._check_length(seq)
        with obs.stopwatch("repro.bert.forward_seconds"):
            if attention_mask is None:
                attention_mask = (ids != _PAD_ID).astype(np.float64)
            attn_bias = (1.0 - attention_mask)[:, None, None, :] * _ATTN_NEG

            positions = np.broadcast_to(np.arange(seq), (batch, seq))
            x = self.token_embedding(ids) + self.position_embedding(positions)
            x = self.embed_dropout(self.embed_norm(x))
            for layer in self.layers:
                x = layer(x, attn_bias)
            x = self.mlm_norm(self.mlm_dense(x).gelu())
            logits = self.mlm_decoder(x)
        obs.observe("repro.bert.forward_batch_size", batch)
        return logits

    def infer(self, ids: np.ndarray, positions: Sequence[int]) -> np.ndarray:
        """Inference forward: the logits at ``positions[b]`` of row ``b``, (B, V).

        Eval semantics on bare arrays (see ``_affine``). Every layer but
        the last runs on all rows; the last needs every row's key and
        value but only the asked row's query, so its attention output,
        FFN and the MLM head are computed for that one row. The asked rows
        stay ``(B, 1, D)``: numpy then issues one BLAS call per row, so a
        row's floats do not depend on what is stacked with it. Against
        :meth:`forward` the values agree to ~1e-15, not bit for bit (one
        row goes through ``gemv`` where all rows go through ``gemm``).
        """
        ids = np.asarray(ids, dtype=np.int64)
        batch, seq = ids.shape
        self._check_length(seq)
        with obs.stopwatch("repro.bert.forward_seconds"):
            attn_bias = (ids == _PAD_ID)[:, None, None, :] * _ATTN_NEG
            x = self.token_embedding.weight.data[ids] + self.position_embedding.weight.data[:seq]
            x = _norm(self.embed_norm, x)
            for layer in self.layers[:-1]:
                x = layer.infer(x, x, attn_bias)
            asked = x[np.arange(batch), positions][:, None, :]
            h = self.layers[-1].infer(x, asked, attn_bias)
            h = _norm(self.mlm_norm, gelu(_affine(self.mlm_dense, h)))
            logits = _affine(self.mlm_decoder, h)[:, 0, :]
        obs.observe("repro.bert.forward_batch_size", batch)
        return logits

    def _check_length(self, seq: int) -> None:
        if seq > self.config.max_seq_len:
            raise ConfigError(
                f"sequence length {seq} exceeds max_seq_len {self.config.max_seq_len}"
            )


def _mask_batch(
    batch: np.ndarray,
    mask_prob: float,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply BERT's 80/10/10 masking. Returns (inputs, targets)."""
    inputs = batch.copy()
    targets = np.full_like(batch, -100)
    maskable = batch >= _NUM_SPECIAL
    lottery = rng.random(batch.shape)
    chosen = maskable & (lottery < mask_prob)
    # Guarantee at least one masked position per sequence with any
    # maskable token, otherwise short sequences never contribute loss.
    for row in range(batch.shape[0]):
        if maskable[row].any() and not chosen[row].any():
            candidates = np.nonzero(maskable[row])[0]
            chosen[row, rng.choice(candidates)] = True
    targets[chosen] = batch[chosen]
    action = rng.random(batch.shape)
    to_mask = chosen & (action < 0.8)
    to_random = chosen & (action >= 0.8) & (action < 0.9)
    inputs[to_mask] = _MASK_ID
    n_random = int(to_random.sum())
    if n_random:
        inputs[to_random] = rng.integers(_NUM_SPECIAL, vocab_size, size=n_random)
    return inputs, targets


class BertMaskedLM(MaskedModel):
    """The :class:`MaskedModel` backend wrapping :class:`BertModel`."""

    def __init__(
        self,
        config: Optional[BertConfig] = None,
        training: Optional[TrainingConfig] = None,
        vocab_size: Optional[int] = None,
    ) -> None:
        if config is None and vocab_size is None:
            # Deferred: built at fit() time when the vocab size is known.
            self._config: Optional[BertConfig] = None
        else:
            self._config = config or BertConfig(vocab_size=int(vocab_size))  # type: ignore[arg-type]
        self.training_config = training or TrainingConfig()
        self.model: Optional[BertModel] = None
        self._num_training_tokens = 0
        self.loss_history: list[float] = []

    # -- data preparation ----------------------------------------------------

    def _chunk(self, sequences: Sequence[Sequence[int]], max_len: int) -> list[list[int]]:
        chunks: list[list[int]] = []
        for seq in sequences:
            seq = list(seq)
            if len(seq) < 2:
                continue
            for start in range(0, len(seq), max_len - 1):
                piece = seq[start : start + max_len]
                if len(piece) >= 2:
                    chunks.append(piece)
        return chunks

    def _batches(
        self, chunks: list[list[int]], rng: np.random.Generator
    ) -> list[np.ndarray]:
        order = rng.permutation(len(chunks))
        size = self.training_config.batch_size
        batches = []
        for start in range(0, len(chunks), size):
            group = [chunks[i] for i in order[start : start + size]]
            width = max(len(c) for c in group)
            arr = np.full((len(group), width), _PAD_ID, dtype=np.int64)
            for row, c in enumerate(group):
                arr[row, : len(c)] = c
            batches.append(arr)
        return batches

    # -- MaskedModel interface -------------------------------------------------

    def fit(self, sequences: Sequence[Sequence[int]], vocab_size: int) -> "BertMaskedLM":
        if self._config is None:
            self._config = BertConfig(vocab_size=vocab_size)
        elif vocab_size > self._config.vocab_size:
            raise ConfigError(
                f"vocab_size {vocab_size} exceeds model capacity {self._config.vocab_size}"
            )
        cfg = self._config
        tcfg = self.training_config
        rng = np.random.default_rng(tcfg.seed)
        self.model = BertModel(cfg)
        self.model.train()

        chunks = self._chunk(sequences, cfg.max_seq_len)
        self._num_training_tokens = sum(len(c) for c in chunks)
        if not chunks:
            return self

        with span("bert.fit", chunks=len(chunks), vocab=cfg.vocab_size):
            with obs.stopwatch("repro.bert.fit_seconds"):
                self._train_loop(chunks, cfg, tcfg, rng)
        self.model.eval()
        return self

    def _train_loop(self, chunks, cfg: BertConfig, tcfg: TrainingConfig, rng) -> None:
        params = list(self.model.parameters())
        optimizer = Adam(params, lr=tcfg.lr, warmup_steps=tcfg.warmup_steps)
        steps = obs.counter("repro.bert.train_steps_total")
        step = 0
        for _ in range(tcfg.epochs):
            for batch in self._batches(chunks, rng):
                inputs, targets = _mask_batch(batch, tcfg.mask_prob, cfg.vocab_size, rng)
                if (targets != -100).sum() == 0:
                    continue
                logits = self.model(inputs)
                loss = cross_entropy(logits, targets)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(params, tcfg.grad_clip)
                optimizer.step()
                self.loss_history.append(loss.item())
                steps.inc()
                if tcfg.log_every and step % tcfg.log_every == 0:
                    _log.info(
                        "bert training step",
                        extra={"data": {"step": step, "loss": round(loss.item(), 4)}},
                    )
                step += 1
                if tcfg.max_steps is not None and step >= tcfg.max_steps:
                    return

    @property
    def is_fitted(self) -> bool:
        return self.model is not None and self._num_training_tokens > 0

    @property
    def num_training_tokens(self) -> int:
        return self._num_training_tokens

    def predict_masked(
        self, tokens: Sequence[int], position: int, top_k: int = 10
    ) -> list[TokenProb]:
        return self.predict_masked_batch([(tokens, position)], top_k)[0]

    def predict_masked_batch(
        self, queries: Sequence[MaskQuery], top_k: int = 10
    ) -> list[list[TokenProb]]:
        """One :meth:`BertModel.infer` per group of equal-length queries.

        Rows are stacked, never padded: a padded row attends over a longer
        (masked) sequence and sums in another order, which moves the last
        bits of its logits, while stacking B same-shape rows runs the same
        per-row BLAS calls and reductions as B single forwards. The queries
        of one beam round all have the same length, so a round is one
        forward.
        """
        for tokens, position in queries:
            validate_mask_query(tokens, position)
        if not self.is_fitted:
            raise NotFittedError("BertMaskedLM.predict_masked before fit")
        assert self.model is not None and self._config is not None
        obs.count("repro.bert.predictions_total", len(queries))

        # Clip a context window around the masked position when the
        # sequence exceeds the model's maximum length.
        max_len = self._config.max_seq_len
        by_length: dict[int, list[tuple[int, list[int], int]]] = {}
        for index, (tokens, position) in enumerate(queries):
            tokens = list(tokens)
            start = 0
            if len(tokens) > max_len:
                start = min(max(0, position - max_len // 2), len(tokens) - max_len)
                tokens = tokens[start : start + max_len]
            local = position - start
            tokens[local] = _MASK_ID
            by_length.setdefault(len(tokens), []).append((index, tokens, local))

        out: list[list[TokenProb]] = [[] for _ in queries]
        for group in by_length.values():
            logits = self.model.infer(
                [tokens for _, tokens, _ in group], [local for _, _, local in group]
            )
            probs = softmax(logits)
            probs[:, :_NUM_SPECIAL] = 0.0  # never propose special tokens
            best = np.argsort(-probs, axis=-1)[:, :top_k]
            for (index, _, _), row, order in zip(group, probs, best):
                out[index] = [(int(i), float(row[i])) for i in order if row[i] > 0.0]
        return out
