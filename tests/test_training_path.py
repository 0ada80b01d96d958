"""BERT training does only the work its loss reads — with the same numbers.

Three changes to the training step are pinned here against the bodies
they replaced, kept below as the reference:

* the MLM head runs on the masked cells only (``BertModel.forward(ids,
  rows)``), not on every cell: the loss and every parameter's gradient
  agree with the all-cells head within 1e-12 (the head's matmuls see
  fewer rows, so their sums may round differently in the last bits);
* a node's first gradient is stored by assignment into a buffer laid out
  like its ``data``, not added onto zeros: ``==``, and the same strides;
* Adam updates every parameter from one flat moment vector: ``==`` bit
  for bit against the per-parameter loop, warm-up and a ``None`` grad
  included.
"""

import numpy as np
import pytest

from repro.mlm.bert import BertConfig, BertModel, _mask_batch
from repro.nn import Adam, Parameter, Tensor
from repro.nn.functional import cross_entropy

_PAD_ID, _ATTN_NEG = 0, -1e9


# -- the bodies this change replaced, kept as the reference ---------------------


def parent_forward(model, ids):
    """``BertModel.forward`` as it was: the MLM head on every cell, (B, T, V)."""
    batch, seq = ids.shape
    attention_mask = (ids != _PAD_ID).astype(np.float64)
    attn_bias = (1.0 - attention_mask)[:, None, None, :] * _ATTN_NEG
    positions = np.broadcast_to(np.arange(seq), (batch, seq))
    x = model.token_embedding(ids) + model.position_embedding(positions)
    x = model.embed_dropout(model.embed_norm(x))
    for layer in model.layers:
        x = layer(x, attn_bias)
    x = model.mlm_norm(model.mlm_dense(x).gelu())
    return model.mlm_decoder(x)


def parent_accumulate(self, grad):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


class ParentAdam:
    """``Adam.step`` as it was: about ten array ops per parameter."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, warmup_steps=0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.warmup_steps = warmup_steps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def current_lr(self):
        if self.warmup_steps and self.t < self.warmup_steps:
            return self.lr * (self.t + 1) / self.warmup_steps
        return self.lr

    def step(self):
        lr = self.current_lr()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


# -- (a) the MLM head on the masked rows ---------------------------------------------


def tiny_config():
    return BertConfig(vocab_size=24, hidden_size=16, num_layers=2, num_heads=2, max_seq_len=12)


def padded_masked_batch(seed):
    """A right-padded batch through ``_mask_batch``, and the rows whose only
    masked cell is its guaranteed pick (the lottery chose none of theirs)."""
    rng = np.random.default_rng(seed)
    lengths = [2, 3, 9, 5, 12, 3, 7, 2]
    batch = np.zeros((len(lengths), max(lengths)), dtype=np.int64)
    for row, n in enumerate(lengths):
        batch[row, :n] = rng.integers(3, 24, size=n)
    lottery = np.random.default_rng(seed).random(batch.shape)
    maskable = batch >= 3
    guaranteed = [
        row for row in range(len(lengths)) if not (maskable[row] & (lottery[row] < 0.15)).any()
    ]
    inputs, targets = _mask_batch(batch, 0.15, 24, np.random.default_rng(seed))
    return inputs, targets, guaranteed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_head_on_masked_rows_matches_the_full_head(seed):
    inputs, targets, guaranteed = padded_masked_batch(seed)
    assert guaranteed, "the batch must hold a row masked only by the guarantee"
    for row in guaranteed:
        assert (targets[row] != -100).sum() == 1
    assert (inputs == _PAD_ID).any()

    # Two models, same seed: same weights, same dropout streams (training mode).
    reference, model = BertModel(tiny_config()), BertModel(tiny_config())
    ref_loss = cross_entropy(parent_forward(reference, inputs), targets)
    ref_loss.backward()

    flat = targets.reshape(-1)
    rows = np.flatnonzero(flat != -100)
    loss = cross_entropy(model(inputs, rows), flat[rows])
    loss.backward()

    assert abs(loss.item() - ref_loss.item()) <= 1e-12
    ref_params = dict(reference.named_parameters())
    for name, p in model.named_parameters():
        assert p.grad is not None, name
        assert np.abs(p.grad - ref_params[name].grad).max() <= 1e-12, name


def test_take_rows_backward_scatters_into_zeros():
    data = np.arange(24.0).reshape(2, 3, 4)
    t = Tensor(data, requires_grad=True)
    out = t.take_rows(np.array([4, 0, 5]))
    assert (out.data == data.reshape(6, 4)[[4, 0, 5]]).all()
    out.backward(np.ones((3, 4)))
    expected = np.zeros((6, 4))
    expected[[0, 4, 5]] = 1.0
    assert (t.grad == expected.reshape(2, 3, 4)).all()


# -- (b) the first gradient is stored, not added to zeros ---------------------------


def _leaf_grads(build):
    leaves, out = build()
    out.sum().backward()
    return leaves, [leaf.grad for leaf in leaves]


def _transposed_data():
    base = np.random.default_rng(3).normal(size=(3, 5))
    t = Tensor(base.T, requires_grad=True)  # data is a transposed view
    assert not t.data.flags.c_contiguous
    w = Tensor(np.random.default_rng(4).normal(size=(5, 3)), requires_grad=True)
    return [t, w], (t * w) + (t * 2.0)  # t gets two contributions


def _transposed_grad():
    t = Tensor(np.random.default_rng(5).normal(size=(3, 5)), requires_grad=True)
    w = Tensor(np.random.default_rng(6).normal(size=(5, 3)), requires_grad=True)
    # transpose's backward hands t a transposed view of its gradient.
    return [t, w], t.transpose(0, 1) * w


@pytest.mark.parametrize("build", [_transposed_data, _transposed_grad])
def test_first_gradient_keeps_the_layout_of_data(build, monkeypatch):
    leaves, grads = _leaf_grads(build)
    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_accumulate", parent_accumulate)
        _, reference = _leaf_grads(build)
    for leaf, got, want in zip(leaves, grads, reference):
        assert got.strides == leaf.data.strides == want.strides
        assert (got == want).all()


def test_first_gradient_is_a_copy():
    t = Tensor(np.zeros(3), requires_grad=True)
    incoming = np.array([1.0, 2.0, 3.0])
    t._accumulate(incoming)
    t._accumulate(incoming)
    assert (incoming == [1.0, 2.0, 3.0]).all()
    assert (t.grad == [2.0, 4.0, 6.0]).all()


# -- (c) one flat Adam step ---------------------------------------------------------


SHAPES = [(4, 3), (3,), (2, 2, 2), (1,), (5, 1)]


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adam_equals_the_per_parameter_loop(weight_decay):
    rng = np.random.default_rng(7)
    init = [rng.normal(size=s) for s in SHAPES]
    params = [Parameter(a.copy()) for a in init]
    ref_params = [Parameter(a.copy()) for a in init]
    arrays = [p.data for p in params]
    opt = Adam(params, lr=0.05, weight_decay=weight_decay, warmup_steps=3)
    ref = ParentAdam(ref_params, lr=0.05, weight_decay=weight_decay, warmup_steps=3)
    for step in range(5):
        for k, (p, q) in enumerate(zip(params, ref_params)):
            # Parameter 1 never has a gradient; parameter 3 misses step 2.
            if k == 1 or (k == 3 and step == 2):
                p.grad = q.grad = None
                continue
            g = rng.normal(size=p.data.shape)
            p.grad, q.grad = g.copy(), g.copy()
        opt.step()
        ref.step()
        for p, q in zip(params, ref_params):
            assert p.data.tobytes() == q.data.tobytes()
    assert (params[1].data == init[1]).all()
    # Parameters keep their own arrays: updated in place, never a view
    # into optimizer memory.
    for p, array in zip(params, arrays):
        assert p.data is array
        assert not np.shares_memory(p.data, opt._m) and not np.shares_memory(p.data, opt._g)
