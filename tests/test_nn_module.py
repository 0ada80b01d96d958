"""Tests for the Module/Parameter system and the Adam optimizer."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Tensor,
    clip_grad_norm,
)

RNG = np.random.default_rng(0)


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(1)
        self.layers = [Linear(4, 8, rng), Linear(8, 2, rng)]
        self.norm = LayerNorm(2)

    def forward(self, x):
        return self.norm(self.layers[1](self.layers[0](x).gelu()))


class TestModule:
    def test_parameters_discovered_recursively(self):
        net = TinyNet()
        params = list(net.parameters())
        # 2 Linears (weight+bias) + LayerNorm (weight+bias) = 6 tensors.
        assert len(params) == 6
        assert all(isinstance(p, Parameter) for p in params)

    def test_named_parameters_paths(self):
        names = {name for name, _ in TinyNet().named_parameters()}
        assert "layers.0.weight" in names
        assert "norm.bias" in names

    def test_num_parameters(self):
        net = TinyNet()
        sizes = sum(p.data.size for p in net.parameters())
        assert sizes == (4 * 8 + 8) + (8 * 2 + 2) + (2 + 2)

    def test_shared_parameter_counted_once(self):
        class Shared(Module):
            def __init__(self):
                super().__init__()
                self.a = Parameter(np.zeros(3))
                self.b = self.a

        assert len(list(Shared().parameters())) == 1

    def test_train_eval_propagates(self):
        net = Module()
        net.modules = [Dropout(0.5), Dropout(0.2)]
        net.eval()
        assert all(not m.training for m in net.modules)
        net.train()
        assert all(m.training for m in net.modules)

    def test_state_dict_round_trip(self):
        net1, net2 = TinyNet(), TinyNet()
        net2.layers[0].weight.data += 1.0
        net2.load_state_dict(net1.state_dict())
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(net1(Tensor(x)).data, net2(Tensor(x)).data)

    def test_state_dict_mismatch_raises(self):
        net = TinyNet()
        state = net.state_dict()
        del state["norm.bias"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["norm.bias"] = np.zeros(5)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_zero_grad(self):
        net = TinyNet()
        net(Tensor(RNG.normal(size=(2, 4)))).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(5, 3, RNG)
        out = layer(Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_linear_batched_input(self):
        layer = Linear(5, 3, RNG)
        out = layer(Tensor(RNG.normal(size=(2, 7, 5))))
        assert out.shape == (2, 7, 3)

    def test_embedding_shapes(self):
        emb = Embedding(10, 6, RNG)
        out = emb(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, 6)

    def test_layernorm_affine(self):
        norm = LayerNorm(4)
        norm.weight.data[:] = 2.0
        norm.bias.data[:] = 1.0
        out = norm(Tensor(RNG.normal(size=(5, 4))))
        assert out.data.mean(axis=-1) == pytest.approx(np.ones(5), abs=1e-9)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestOptim:
    def test_adam_reduces_loss_on_regression(self):
        rng = np.random.default_rng(3)
        true_w = rng.normal(size=(4, 1))
        x = rng.normal(size=(64, 4))
        y = x @ true_w
        layer = Linear(4, 1, rng)
        optimizer = Adam(list(layer.parameters()), lr=0.05)
        first = None
        for _ in range(150):
            diff = layer(Tensor(x)) - y
            loss = (diff * diff).mean()
            if first is None:
                first = loss.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert loss.item() < first * 0.01
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)

    def test_adam_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)

    def test_warmup_schedule(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0, warmup_steps=10)
        assert opt.current_lr() == pytest.approx(0.1)
        for _ in range(10):
            p.grad = np.ones(1)
            opt.step()
        assert opt.current_lr() == pytest.approx(1.0)

    def test_step_skips_gradless_params(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad: must not move or crash
        np.testing.assert_allclose(p.data, np.ones(2))

    def test_clip_grad_norm(self):
        p1 = Parameter(np.zeros(2))
        p2 = Parameter(np.zeros(2))
        p1.grad = np.array([3.0, 0.0])
        p2.grad = np.array([0.0, 4.0])
        pre = clip_grad_norm([p1, p2], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        total = np.sqrt((p1.grad**2).sum() + (p2.grad**2).sum())
        assert total == pytest.approx(1.0)

    def test_clip_noop_under_limit(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])
