import numpy as np
import pytest

from omivae import layers
from omivae.errors import ValidationError
from omivae.layers import (
    BN_EPSILON,
    BN_MOMENTUM,
    GRAD_SLAB,
    SLAB_ALIGN,
    BatchNormLayer,
    FcBlock,
    LinearLayer,
    Sequence,
    slab_rows,
)
from omivae.numerics import RngState
from standalone import Collect, allocate, gradient_check


def make_block(in_dim, out_dim, seed=0):
    block = FcBlock(in_dim, out_dim)
    allocate(block, seed=seed)
    return block


def allocated(module, seed=0):
    """`module` allocated alone, and a `Collect` sink over its arena."""
    return module, Collect(allocate(module, seed=seed))


class TestForward:
    def test_identity_configuration(self):
        # an output layer is a plain linear layer: with identity weights and
        # its zero initial bias it passes the input through
        layer = LinearLayer(3, 3)
        allocate(layer)
        layer.weights[:] = np.eye(3)
        x = RngState(1).standard_normal(4, 3)
        assert np.array_equal(layer.forward(x, train=False), x)

    def test_relu_definition(self):
        # identity weights and infer-mode batch norm that scales by 1/sqrt(1 + eps)
        block = make_block(3, 3)
        block.linear.weights[:] = np.eye(3)
        out = block.forward(np.array([[-1.0, 0.0, 2.0]]), train=False)
        assert np.array_equal(out[0, :2], [0.0, 0.0])
        assert abs(out[0, 2] - 2.0 / np.sqrt(1.0 + BN_EPSILON)) < 1e-15

    def test_batchnorm_normalizes_in_train_mode(self):
        norm = BatchNormLayer(6)
        allocate(norm)
        x = RngState(2).standard_normal(32, 6) * 3.0 + 1.0
        out = norm.forward(x, train=True)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-6
        # biased batch variance is 1 up to the epsilon in the denominator
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-4

    def test_train_batchnorm_rejects_single_sample(self):
        block = make_block(3, 3)
        with pytest.raises(ValidationError):
            block.forward(np.zeros((1, 3)), train=True)

    def test_dimension_mismatch(self):
        block = make_block(3, 2)
        with pytest.raises(ValidationError):
            block.forward(np.zeros((4, 5)), train=False)

    def test_a_block_names_its_parts_and_their_errors(self):
        block = FcBlock(3, 2, name="encoder.fusion")
        assert [name for name, _ in allocate(block).tensors] == [
            "encoder.fusion.linear.weights",
            "encoder.fusion.norm.gamma",
            "encoder.fusion.norm.beta_shift",
            "encoder.fusion.norm.running_mean",
            "encoder.fusion.norm.running_var",
        ]
        with pytest.raises(ValidationError, match=r"^encoder\.fusion\.linear: expected 3 input"):
            block.forward(np.zeros((4, 5)), train=False)
        with pytest.raises(ValidationError, match=r"^encoder\.fusion\.norm: train-mode batch"):
            block.forward(np.zeros((1, 3)), train=True)

    def test_infer_mode_mutates_nothing(self):
        block, sink = allocated(FcBlock(4, 4))
        x = RngState(3).standard_normal(8, 4)
        before_mean = block.norm.running_mean.copy()
        before_var = block.norm.running_var.copy()
        first = block.forward(x, train=False)
        second = block.forward(x, train=False)
        assert np.array_equal(first, second)
        assert np.array_equal(block.norm.running_mean, before_mean)
        assert np.array_equal(block.norm.running_var, before_var)
        with pytest.raises(ValidationError):
            block.backward(np.zeros_like(first), sink)
        assert sink.taken == []


class Stepping(Collect):
    """A `Collect` sink that also changes each parameter as it takes its
    gradient, as Adam does."""

    def take(self, value, grad):
        super().take(value, grad)
        value += 0.5


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        block, sink = allocated(FcBlock(4, 3))
        x = RngState(4).standard_normal(6, 4)
        out = block.forward(x, train=True)
        din = block.backward(np.zeros_like(out), sink)
        assert np.array_equal(din, np.zeros_like(x))
        assert np.array_equal(sink.flat, np.zeros_like(sink.flat))

    def test_sum_loss_gradient_is_column_sums(self):
        # loss = sum(outputs) of a bare linear layer: dW rows are input column sums
        layer, sink = allocated(LinearLayer(2, 2), seed=5)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = layer.forward(x, train=True)
        layer.backward(np.ones_like(out), sink)
        expected = np.tile(x.sum(axis=0), (2, 1))
        assert np.allclose(sink.grad(layer.weights), expected)
        assert np.allclose(sink.grad(layer.bias), [2.0, 2.0])

    def test_backward_requires_cache_and_consumes_it(self):
        block, sink = allocated(FcBlock(3, 3))
        with pytest.raises(ValidationError):
            block.backward(np.zeros((2, 3)), sink)
        out = block.forward(RngState(6).standard_normal(4, 3), train=True)
        block.backward(np.ones_like(out), sink)
        with pytest.raises(ValidationError):
            block.backward(np.ones_like(out), sink)

    def test_upstream_shape_checked(self):
        block, sink = allocated(FcBlock(3, 3))
        block.forward(RngState(6).standard_normal(4, 3), train=True)
        with pytest.raises(ValidationError):
            block.backward(np.zeros((4, 7)), sink)

    def test_forward_backward_leaves_parameters_unchanged(self):
        block, sink = allocated(FcBlock(5, 4))
        params = sink.arena.params
        snapshot = [p.value.copy() for p in params]
        x = RngState(7).standard_normal(8, 5)
        out = block.forward(x, train=True)
        block.backward(RngState(8).standard_normal(*out.shape), sink)
        for p, saved in zip(params, snapshot):
            assert np.array_equal(p.value, saved)
            assert not np.array_equal(sink.grad(p.value), np.zeros_like(p.value))

    def test_each_gradient_is_handed_on_once_in_backward_order(self):
        stack = Stack(FcBlock(4, 3, name="fc"), LinearLayer(3, 2, name="head"), seed=9)
        sink = Collect(stack.arena)
        out = stack.forward(RngState(10).standard_normal(6, 4), train=True)
        stack.backward(np.ones_like(out), sink)
        assert sink.taken == ["head.weights", "head.bias", "fc.norm.gamma",
                              "fc.norm.beta_shift", "fc.linear.weights"]

    def test_a_weight_gradient_is_handed_on_in_row_slabs(self, monkeypatch):
        """At 256 elements a slab, a 13-wide weight matrix goes in slabs of
        16 rows (19 would fit; 16 is the aligned count), the last one
        partial: each step hands every weight on exactly once, in row
        order, then the bias, and the slabs make up `upstream.T @ x`."""
        monkeypatch.setattr(layers, "GRAD_SLAB", 2**8)
        layer, sink = allocated(LinearLayer(13, 101), seed=50)
        bounds = [13 * r for r in (0, 16, 32, 48, 64, 80, 96, 101)]
        spans = list(zip(bounds[:-1], bounds[1:])) + [(1313, 1414)]
        for seed in (51, 52):
            x, upstream = (RngState(seed).standard_normal(7, n) for n in (13, 101))
            layer.forward(x, train=True)
            layer.backward(upstream, sink)
            assert sink.spans[-len(spans):] == spans
            assert sink.taken[-len(spans):] == ["linear.weights"] * 7 + ["linear.bias"]
            np.testing.assert_allclose(sink.grad(layer.weights), upstream.T @ x,
                                       rtol=1e-12, atol=0.0)
        assert len(sink.spans) == 2 * len(spans)

    @pytest.mark.parametrize("in_dim", [1, 13, 300, 2**14, 2**14 + 1, 58_043])
    def test_a_slab_is_the_most_aligned_rows_that_fit(self, in_dim):
        rows = slab_rows(in_dim)
        assert rows >= SLAB_ALIGN and rows % SLAB_ALIGN == 0
        assert rows * in_dim <= GRAD_SLAB or rows == SLAB_ALIGN
        assert (rows + SLAB_ALIGN) * in_dim > GRAD_SLAB

    def test_the_input_gradient_is_formed_before_the_sink_steps(self):
        """A sink may change a parameter when it takes its gradient: the
        input gradient and the gradients of the tensors taken later are
        those of the parameters as they were."""
        x, upstream = (RngState(s).standard_normal(6, 4) for s in (47, 48))
        got = []
        for kind in (Collect, Stepping):
            block = FcBlock(4, 4)
            sink = kind(allocate(block, seed=49))
            block.forward(x, train=True)
            got.append((block.backward(upstream, sink), sink.flat))
        (din, grads), (stepped_din, stepped_grads) = got
        assert stepped_din.tobytes() == din.tobytes()
        assert stepped_grads.tobytes() == grads.tobytes()

    def test_backward_writes_grads_instead_of_adding(self):
        # NaN in every lent buffer, then two backwards into the same
        # buffers: the gradients are those of the last one alone, bit for bit
        x, first, second = (RngState(s).standard_normal(6, 4) for s in (40, 41, 42))
        (fresh, fresh_sink), (block, sink) = (allocated(FcBlock(4, 4), seed=43) for _ in range(2))
        fresh.forward(x, train=True)
        fresh.backward(second, fresh_sink)
        for upstream in (first, second):
            block.forward(x, train=True)
            block.backward(upstream, sink)
        assert sink.flat.tobytes() == fresh_sink.flat.tobytes()

    def test_skipping_the_input_gradient_keeps_the_parameter_grads(self):
        x = RngState(44).standard_normal(5, 3)
        upstream = RngState(45).standard_normal(5, 2)
        grads = []
        for needs_input_grad in (True, False):
            layer, sink = allocated(LinearLayer(3, 2, needs_input_grad=needs_input_grad), seed=46)
            layer.forward(x, train=True)
            din = layer.backward(upstream, sink)
            assert (din is None) == (not needs_input_grad)
            grads.append(sink.flat)
        assert grads[0].tobytes() == grads[1].tobytes()
        block, sink = allocated(FcBlock(3, 2, needs_input_grad=False), seed=46)
        block.forward(x, train=True)
        assert block.backward(upstream, sink) is None


def out_of_place_block(block, batch, upstream, train):
    """An `FcBlock`'s forward (and, in train mode, backward) in the
    reference form: every intermediate a new array, batch norm by
    `mean`/`var`, the ReLU mask a product. Returns each result by name,
    with the gradients that enter batch norm and the linear layer."""
    weights, norm = block.linear.weights, block.norm
    gamma, beta_shift = norm.gamma, norm.beta_shift
    x = batch @ weights.T
    if train:
        mean, var = x.mean(axis=0), x.var(axis=0)
        running_mean = norm.running_mean * (1.0 - BN_MOMENTUM) + BN_MOMENTUM * mean
        running_var = norm.running_var * (1.0 - BN_MOMENTUM) + BN_MOMENTUM * var
    else:
        mean, var = norm.running_mean, norm.running_var
        running_mean, running_var = mean.copy(), var.copy()
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    x_hat = (x - mean) * inv_std
    out = np.maximum(gamma * x_hat + beta_shift, 0.0)
    results = dict(out=out, running_mean=running_mean, running_var=running_var)
    if train:
        n = x.shape[0]
        d = upstream * (out > 0.0)
        d_hat = d * gamma
        d_norm = (inv_std / n) * (
            n * d_hat - d_hat.sum(axis=0) - x_hat * np.sum(d_hat * x_hat, axis=0)
        )
        results.update(
            relu_grad=d,
            norm_grad=d_norm,
            din=d_norm @ weights,
            grad_weights=d_norm.T @ batch,
            grad_gamma=np.sum(d * x_hat, axis=0),
            grad_beta_shift=d.sum(axis=0),
        )
    return results


class TestOutOfPlaceOracle:
    """`FcBlock` works in place on its linear output, yet every result is
    bit-equal to the out-of-place reference form."""

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("rows, in_dim, out_dim", [(37, 9, 6), (1030, 20, 40)])
    def test_bit_equal_to_the_reference(self, train, rows, in_dim, out_dim):
        block = FcBlock(in_dim, out_dim)
        arena = allocate(block, seed=60)
        norm = block.norm
        norm.gamma[:] = RngState(61).uniform(0.5, 1.5, (out_dim,))
        norm.beta_shift[:] = RngState(62).standard_normal(1, out_dim)[0]
        norm.beta_shift[0] = -50.0  # a dead unit: the ReLU zeroes its whole column
        norm.running_mean[:] = RngState(63).standard_normal(1, out_dim)[0]
        norm.running_var[:] = RngState(64).uniform(0.5, 2.0, (out_dim,))
        batch = RngState(65).standard_normal(rows, in_dim) * 2.0 + 0.5
        upstream = RngState(66).standard_normal(rows, out_dim)
        # negative upstream on the dead unit: the masked gradient there is
        # -0.0, which a mask by np.where would turn into +0.0
        upstream[:, 0] = -np.abs(upstream[:, 0]) - 0.1
        expected = out_of_place_block(block, batch, upstream, train)
        given = batch.copy()
        got = {}
        for key, layer in (("relu_grad", norm), ("norm_grad", block.linear)):
            def spy(grad, sink, key=key, backward=layer.backward):
                got[key] = grad.copy()
                return backward(grad, sink)

            layer.backward = spy

        got["out"] = block.forward(given, train=train).copy()
        assert given.tobytes() == batch.tobytes()
        if train:
            sink = Collect(arena)
            got["din"] = block.backward(upstream, sink)
            got["grad_weights"] = sink.grad(block.linear.weights)
            got["grad_gamma"] = sink.grad(norm.gamma)
            got["grad_beta_shift"] = sink.grad(norm.beta_shift)
            assert np.signbit(got["relu_grad"][:, 0]).all()
        got["running_mean"] = norm.running_mean
        got["running_var"] = norm.running_var
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            assert got[name].tobytes() == value.tobytes(), name


def weighted_sum_loss(weights):
    def loss_fn(block, batch, sink):
        out = block.forward(batch, train=True)
        block.backward(weights, sink)
        return float((out * weights).sum())

    return loss_fn


class Stack(Sequence):
    """A sequence whose modules share one allocated arena, for `gradient_check`."""

    def __init__(self, *modules, seed):
        super().__init__(*modules)
        self.arena = allocate(*modules, seed=seed)


class TestGradientCheck:
    def test_linear_relu_block(self):
        # a block feeding a plain linear layer, as before each model output
        module = Stack(FcBlock(4, 3), LinearLayer(3, 2, name="head"), seed=20)
        x = RngState(21).standard_normal(6, 4)
        w = RngState(22).standard_normal(6, 2)
        result = gradient_check(module, weighted_sum_loss(w), x)
        assert result.max_rel_error <= 1e-4

    def test_linear_batchnorm_relu_block(self):
        module = Stack(FcBlock(5, 4), seed=23)
        x = RngState(24).standard_normal(8, 5)
        w = RngState(25).standard_normal(8, 4)
        result = gradient_check(module, weighted_sum_loss(w), x)
        assert result.max_rel_error <= 1e-4

    def test_a_doubled_gradient_is_reported(self):
        # the checker itself: a loss that writes twice the true gradient
        # gives a relative error of 1/2 wherever that gradient is nonzero
        module = Stack(FcBlock(4, 3), LinearLayer(3, 2, name="head"), seed=26)
        x = RngState(27).standard_normal(6, 4)
        true_loss = weighted_sum_loss(RngState(28).standard_normal(6, 2))

        def doubled_loss(stack, batch, sink):
            loss = true_loss(stack, batch, sink)
            sink.flat *= 2.0
            return loss

        result = gradient_check(module, doubled_loss, x)
        assert result.max_rel_error > 0.1, str(result)
