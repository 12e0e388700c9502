import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from omivae.data import SyntheticSpec
from omivae.errors import ValidationError
from omivae.layers import softmax
from omivae.losses import LossWeights, bce
from omivae.model import ModelConfig, build_model, reparameterize
from omivae.numerics import RngState
from standalone import Collect, gradient_check

# what a model build allocates besides its arena: Python's and numpy's small
# objects, never a tensor's draw
BUILD_MARGIN = 2**21


def tiny_config(latent_dim=3, num_classes=4, **overrides):
    base = dict(
        methyl_block_dims=(6, 5),
        expr_dim=7,
        per_block_hidden=4,
        modality_dim=6,
        fusion_dim=5,
        latent_dim=latent_dim,
        classifier_hidden=(5, 4),
        num_classes=num_classes,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_batch(config, rows=4, seed=0):
    rng = RngState(seed)
    x_expr = rng.uniform(0.05, 0.95, (rows, config.expr_dim)) if config.has_expression else None
    x_blocks = (
        [rng.uniform(0.05, 0.95, (rows, d)) for d in config.methyl_block_dims]
        if config.has_methylation
        else None
    )
    return x_expr, x_blocks


def params_under(model, prefix):
    """The model's parameters whose names start with `prefix`."""
    return [p for p in model.parameters() if p.name.startswith(prefix)]


def expected_param_count(config: ModelConfig) -> int:
    """Closed-form parameter count for the architecture layout."""

    def bn_block(i, o):
        return i * o + 2 * o  # no linear bias under batch norm; gamma + shift

    def plain_block(i, o):
        return i * o + o

    n_mod = int(config.has_expression) + int(config.has_methylation)
    m = config.num_blocks
    pbh = config.per_block_hidden
    total = 0
    if config.has_methylation:
        total += sum(bn_block(d, pbh) for d in config.methyl_block_dims)
        total += bn_block(m * pbh, config.modality_dim)
    if config.has_expression:
        total += bn_block(config.expr_dim, config.expr_hidden)
        total += bn_block(config.expr_hidden, config.modality_dim)
    total += bn_block(n_mod * config.modality_dim, config.fusion_dim)
    total += 2 * plain_block(config.fusion_dim, config.latent_dim)  # mu and logvar heads
    total += bn_block(config.latent_dim, config.fusion_dim)
    total += bn_block(config.fusion_dim, n_mod * config.modality_dim)
    if config.has_methylation:
        total += bn_block(config.modality_dim, m * pbh)
        total += sum(plain_block(pbh, d) for d in config.methyl_block_dims)
    if config.has_expression:
        total += bn_block(config.modality_dim, config.expr_hidden)
        total += plain_block(config.expr_hidden, config.expr_dim)
    h1, h2 = config.classifier_hidden
    total += bn_block(config.latent_dim, h1)
    total += bn_block(h1, h2)
    total += plain_block(h2, config.num_classes)
    return total


class TestBuild:
    def test_block_widths_follow_annotation_dims(self):
        dims = tuple(30 + 7 * j % 23 for j in range(23))
        config = ModelConfig(
            methyl_block_dims=dims,
            expr_dim=40,
            per_block_hidden=8,
            modality_dim=12,
            fusion_dim=10,
            latent_dim=4,
            classifier_hidden=(8, 6),
            num_classes=34,
        )
        model = build_model(config, RngState(0))
        encoders = [
            p.value for p in model.parameters() if p.name.startswith("encoder.methyl.block")
            and p.name.endswith(".linear.weights")
        ]
        assert len(encoders) == 23
        for weights, d in zip(encoders, dims):
            assert weights.shape == (8, d)

    def test_param_count_matches_closed_form(self):
        config = tiny_config()
        model = build_model(config, RngState(1))
        assert model.arena.values.size == expected_param_count(config)

    def test_full_scale_capacity_is_about_seven_hundred_million(self):
        # the published design at full TCGA scale carries ~7e8 learnable weights
        per_block = [392_761 // 23] * 23
        per_block[0] += 392_761 - sum(per_block)
        config = ModelConfig(
            methyl_block_dims=tuple(per_block),
            expr_dim=58_043,
            latent_dim=128,
            num_classes=34,
        )
        count = expected_param_count(config)
        assert 6.0e8 < count < 8.0e8

    def test_building_allocates_each_tensor_once(self):
        """The default-synth model's blocks draw into the arena in place, so
        building it peaks at the arena plus `BUILD_MARGIN` for numpy's and
        Python's small objects (0.8 MiB here): no array the size of a
        tensor, whose largest is 10 MiB, is drawn and copied in."""
        spec = SyntheticSpec()
        config = ModelConfig(methyl_block_dims=(spec.features_per_block,) * spec.num_blocks,
                             expr_dim=spec.expr_features, num_classes=spec.num_classes)
        tracemalloc.start()
        try:
            model = build_model(config, RngState(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(a.nbytes for _, a in model.state_tensors())
        assert largest > 4 * BUILD_MARGIN
        assert peak <= model.arena.state.nbytes + BUILD_MARGIN, (
            (peak - model.arena.state.nbytes) / 2**20)

    def test_a_dropped_model_frees_its_arena_at_once(self):
        # crossval builds a model per fold: no layer may refer to itself, or
        # each fold's arena would stay until the cycle collector ran
        gc.disable()
        try:
            model = build_model(tiny_config(), RngState(0))
            buffer = weakref.ref(model.arena.state)
            del model
            assert buffer() is None
        finally:
            gc.enable()

    def test_single_modality_expression(self):
        config = tiny_config(methyl_block_dims=())
        model = build_model(config, RngState(2))
        x_expr, _ = tiny_batch(config)
        recon_expr, recon_blocks = model.decode(model.embed(x_expr, None))
        assert recon_expr.shape == x_expr.shape
        assert recon_blocks is None

    def test_single_modality_methylation(self):
        config = tiny_config(expr_dim=0)
        model = build_model(config, RngState(3))
        _, x_blocks = tiny_batch(config)
        recon_expr, recon_blocks = model.decode(model.embed(None, x_blocks))
        assert recon_expr is None
        assert [b.shape for b in recon_blocks] == [b.shape for b in x_blocks]

    def test_deterministic_snapshot_for_seed(self):
        config = tiny_config()
        a = build_model(config, RngState(7))
        b = build_model(config, RngState(7))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)
        # frozen fingerprint of the seed-7 initialization (expression hidden width 8)
        checksum = sum(float(np.abs(p.value).sum()) for p in a.parameters())
        assert abs(checksum - 281.7737392783085) < 1e-9

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            ModelConfig(methyl_block_dims=(), expr_dim=0)
        with pytest.raises(ValidationError):
            tiny_config(num_classes=1)
        with pytest.raises(ValidationError):
            tiny_config(latent_dim=0)


class TestEncode:
    def test_output_shapes(self):
        config = tiny_config()
        model = build_model(config, RngState(4))
        x_expr, x_blocks = tiny_batch(config)
        mu, logvar = model.encode(x_expr, x_blocks)
        assert mu.shape == (4, config.latent_dim)
        assert logvar.shape == (4, config.latent_dim)

    def test_row_equivariance_in_infer_mode(self):
        config = tiny_config()
        model = build_model(config, RngState(5))
        x_expr, x_blocks = tiny_batch(config, rows=6)
        perm = np.array([3, 0, 5, 1, 4, 2])
        mu, logvar = model.encode(x_expr, x_blocks)
        mu_p, logvar_p = model.encode(x_expr[perm], [b[perm] for b in x_blocks])
        assert np.array_equal(mu[perm], mu_p)
        assert np.array_equal(logvar[perm], logvar_p)

    def test_zero_weights_zero_input(self):
        config = tiny_config()
        model = build_model(config, RngState(6))
        for p in model.parameters():
            p.value[:] = 0.0
        x_expr = np.zeros((3, config.expr_dim))
        x_blocks = [np.zeros((3, d)) for d in config.methyl_block_dims]
        mu, logvar = model.encode(x_expr, x_blocks)
        assert np.array_equal(mu, np.zeros_like(mu))
        assert np.array_equal(logvar, np.zeros_like(logvar))

    def test_input_widths_checked_by_modality(self):
        """A direct call's wrong width stops at the modality's input layer."""
        config = tiny_config()
        model = build_model(config, RngState(7))
        _, x_blocks = tiny_batch(config)
        expected = "^encoder.expr.hidden1.linear: expected 7 input features, got 8$"
        with pytest.raises(ValidationError, match=expected):
            model.encode(np.zeros((4, 8)), x_blocks)

    def test_an_absent_modality_is_none(self):
        model = build_model(tiny_config(methyl_block_dims=()), RngState(7))
        x_expr, x_blocks = tiny_batch(model.config)
        assert x_blocks is None
        assert model.decode(model.embed(x_expr, x_blocks))[1] is None


class TestReparameterize:
    def test_vanishing_variance_returns_mu(self):
        mu = RngState(8).standard_normal(4, 3)
        z, _ = reparameterize(mu, np.full_like(mu, -np.inf), RngState(10))
        assert np.array_equal(z, mu)

    def test_unit_sigma_adds_epsilon(self):
        mu = RngState(9).standard_normal(4, 3)
        z, epsilon = reparameterize(mu, np.zeros_like(mu), RngState(11))
        assert epsilon.tobytes() == RngState(11).standard_normal(4, 3).tobytes()
        assert np.array_equal(z, mu + epsilon)

    def test_moments(self):
        n = 100_000
        mu = np.ones((n, 1))
        logvar = np.full((n, 1), math.log(4.0))
        z, _ = reparameterize(mu, logvar, rng=RngState(12))
        assert abs(z.mean() - 1.0) < 0.05
        assert abs(z.var() - 4.0) < 0.1

    def test_invariant_formula_held_exactly(self):
        rng = RngState(13)
        mu = rng.standard_normal(5, 4)
        logvar = rng.standard_normal(5, 4)
        z, epsilon = reparameterize(mu, logvar, rng=rng)
        assert np.array_equal(z, mu + np.exp(0.5 * logvar) * epsilon)


class TestDecode:
    def test_outputs_strictly_inside_unit_interval(self):
        # the reconstruction the logits predict, sigmoid(logits): the
        # residual of `bce` against target 0
        config = tiny_config()
        model = build_model(config, RngState(14))
        z = RngState(15).standard_normal(4, config.latent_dim) * 3.0
        recon_expr, recon_blocks = model.decode(z)
        for m in [recon_expr] + recon_blocks:
            _, predicted = bce(np.zeros_like(m), m)
            assert np.all(predicted > 0.0)
            assert np.all(predicted < 1.0)

    def test_outputs_are_the_output_layers_logits(self):
        # zero weights: each output is its layer's bias, well outside [0, 1]
        config = tiny_config()
        model = build_model(config, RngState(14))
        biases = []
        for name in ("decoder.expr.out", "decoder.methyl.out00", "decoder.methyl.out01"):
            (w,) = params_under(model, f"{name}.linear.weights")
            (b,) = params_under(model, f"{name}.linear.bias")
            w.value[:] = 0.0
            b.value[:] = np.linspace(-30.0, 30.0, b.value.size)
            biases.append(b.value.copy())
        recon_expr, recon_blocks = model.decode(RngState(15).standard_normal(4, config.latent_dim))
        for got, bias in zip([recon_expr] + recon_blocks, biases):
            assert got.tobytes() == np.tile(bias, (4, 1)).tobytes()

    def test_shapes_mirror_inputs(self):
        config = tiny_config()
        model = build_model(config, RngState(16))
        recon_expr, recon_blocks = model.decode(np.zeros((4, config.latent_dim)))
        assert recon_expr.shape == (4, config.expr_dim)
        assert [b.shape[1] for b in recon_blocks] == list(config.methyl_block_dims)

    def test_duplicate_latent_rows_reconstruct_identically(self):
        config = tiny_config()
        model = build_model(config, RngState(17))
        z = np.vstack([np.full((1, config.latent_dim), 0.37)] * 2)
        recon_expr, recon_blocks = model.decode(z)
        assert np.array_equal(recon_expr[0], recon_expr[1])
        for b in recon_blocks:
            assert np.array_equal(b[0], b[1])

    def test_latent_width_checked(self):
        model = build_model(tiny_config(), RngState(18))
        with pytest.raises(ValidationError):
            model.decode(np.zeros((2, 9)))


class TestClassify:
    def test_zero_classifier_is_uniform(self):
        config = tiny_config(num_classes=5)
        model = build_model(config, RngState(19))
        for p in params_under(model, "classifier."):
            p.value[:] = 0.0
        logits = model.classify(RngState(20).standard_normal(3, config.latent_dim))
        assert np.array_equal(logits, np.zeros((3, 5)))
        assert np.allclose(softmax(logits), 0.2)

    def test_34_way_output_width(self):
        config = tiny_config(num_classes=34)
        model = build_model(config, RngState(21))
        logits = model.classify(np.zeros((2, config.latent_dim)))
        assert logits.shape == (2, 34)
        assert np.allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_shift_invariance(self):
        logits = RngState(22).standard_normal(3, 6)
        a = softmax(logits)
        b = softmax(logits + 123.456)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_infer_classification_is_deterministic(self):
        config = tiny_config()
        model = build_model(config, RngState(23))
        x_expr, x_blocks = tiny_batch(config)
        first = model.predict_proba(x_expr, x_blocks)
        second = model.predict_proba(x_expr, x_blocks)
        assert np.array_equal(first, second)


class TestForwardBackward:
    def test_unsupervised_phase_leaves_classifier_untouched(self):
        config = tiny_config()
        model = build_model(config, RngState(24))
        x_expr, x_blocks = tiny_batch(config, rows=6)
        sink = Collect(model.arena)
        model.forward_backward(
            x_expr, x_blocks, None, LossWeights(alpha=1.0, beta=0.0), RngState(25), sink
        )
        assert not any(name.startswith("classifier.") for name in sink.taken)
        (fusion,) = params_under(model, "encoder.fusion.linear.weights")
        assert not np.array_equal(sink.grad(fusion.value), np.zeros_like(fusion.value))

    @pytest.mark.parametrize(
        "beta, skipped", [(0.0, ("classifier.",)), (1.0, ())], ids=["phase1", "joint"]
    )
    def test_grads_are_written_whatever_they_held(self, beta, skipped):
        # a step into NaN-filled buffers gives the gradients of a step into
        # zeros, bit for bit; each parameter is handed on exactly once,
        # except those of the tower that runs no backward
        config = tiny_config()
        x_expr, x_blocks = tiny_batch(config, rows=6)
        labels = np.array([0, 1, 2, 3, 0, 1]) if beta else None
        sinks = []
        for fill in (0.0, np.nan):
            model = build_model(config, RngState(37))
            sink = Collect(model.arena, fill)
            model.forward_backward(
                x_expr, x_blocks, labels, LossWeights(alpha=1.0, beta=beta), RngState(36), sink
            )
            sinks.append(sink)
        zeros, nans = sinks
        names = [p.name for p in model.parameters() if not p.name.startswith(skipped)]
        assert nans.taken == zeros.taken
        assert sorted(nans.taken) == sorted(names)
        taken = np.isfinite(nans.flat)
        assert nans.flat[taken].tobytes() == zeros.flat[taken].tobytes()
        for p in model.parameters():
            assert taken[p.start : p.start + p.value.size].all() == (p.name in nans.taken), p.name

    @pytest.mark.parametrize(
        "overrides, inputs, input_grads",
        [
            ({}, ["encoder.methyl.block00", "encoder.methyl.block01", "encoder.expr.hidden1"],
             [[None, None], None]),
            (dict(methyl_block_dims=()), ["encoder.expr.hidden1"], [None]),
            (dict(expr_dim=0),
             ["encoder.methyl.block00", "encoder.methyl.block01"], [[None, None]]),
        ],
        ids=["both", "expression", "methylation"],
    )
    def test_only_the_input_layers_skip_the_data_gradient(self, overrides, inputs, input_grads):
        model = build_model(tiny_config(**overrides), RngState(38))
        skipping = [b.name for b in model.blocks if not getattr(b, "linear", b).needs_input_grad]
        assert skipping == inputs
        x_expr, x_blocks = tiny_batch(model.config, rows=4)
        batch = [x for x in (x_blocks, x_expr) if x is not None]
        fused = model.encoder.forward(batch, train=True)
        assert model.encoder.backward(np.ones_like(fused), Collect(model.arena)) == input_grads

    def test_labels_required_when_supervised(self):
        config = tiny_config()
        model = build_model(config, RngState(28))
        x_expr, x_blocks = tiny_batch(config, rows=4)
        with pytest.raises(ValidationError):
            model.forward_backward(x_expr, x_blocks, None, LossWeights(alpha=1.0, beta=1.0),
                                   RngState(29), Collect(model.arena))

    def test_a_training_batch_is_validated_once_and_labels_first(self):
        """Missing labels are refused before the forward pass moves any
        batch-norm running statistic."""
        config = tiny_config()
        model = build_model(config, RngState(28))
        x_expr, x_blocks = tiny_batch(config, rows=4)
        sink = Collect(model.arena)
        model.forward_backward(x_expr, x_blocks, None, LossWeights(1.0, 0.0), RngState(29), sink)
        stats = model.arena.state[model.arena.values.size :].copy()
        with pytest.raises(ValidationError, match="no labels were given"):
            model.forward_backward(
                np.zeros((4, 8)), x_blocks, None, LossWeights(1.0, 1.0), RngState(29), sink
            )
        assert model.arena.state[model.arena.values.size :].tobytes() == stats.tobytes()

    def test_doubling_alpha_doubles_decoder_gradients(self):
        config = tiny_config()
        x_expr, x_blocks = tiny_batch(config, rows=6)
        grads = []
        for alpha in (1.0, 2.0):
            model = build_model(config, RngState(31))
            sink = Collect(model.arena)
            model.forward_backward(
                x_expr, x_blocks, None, LossWeights(alpha=alpha, beta=0.0), RngState(30), sink
            )
            (weights,) = params_under(model, "decoder.expr.out.linear.weights")
            grads.append(sink.grad(weights.value))
        assert np.allclose(2.0 * grads[0], grads[1], rtol=0, atol=1e-18)

    def test_zero_model_closed_form_loss(self):
        config = tiny_config()
        model = build_model(config, RngState(32))
        for p in model.parameters():
            p.value[:] = 0.0
        x_expr = np.zeros((4, config.expr_dim))
        x_blocks = [np.zeros((4, d)) for d in config.methyl_block_dims]
        report = model.forward_backward(
            x_expr, x_blocks, None, LossWeights(alpha=1.0, beta=0.0), RngState(32),
            Collect(model.arena)
        )
        assert abs(report.recon_methyl - math.log(2.0)) < 1e-9
        assert abs(report.recon_expr - math.log(2.0)) < 1e-9
        assert abs(report.kl) < 1e-12
        assert abs(report.total - 2.0 * math.log(2.0)) < 1e-9

    @staticmethod
    def saturated_step(out_layer, bias, labels, weights):
        """(central difference of the reported total, the backward's gradient)
        with respect to output 0's bias of `out_layer`, whose weights are
        zero, so output 0's logit is `bias[0]` in every row."""
        config = tiny_config()
        model = build_model(config, RngState(39))
        (w,) = params_under(model, f"{out_layer}.linear.weights")
        (b,) = params_under(model, f"{out_layer}.linear.bias")
        w.value[:] = 0.0
        b.value[:] = bias
        x_expr, x_blocks = tiny_batch(config, rows=6)
        x_blocks[0][:, 0] = 0.0  # target 0 under decoder.methyl.out00's output 0
        sink = Collect(model.arena)

        def total():
            return model.forward_backward(x_expr, x_blocks, labels, weights, RngState(40),
                                          sink).total

        h = 1e-3
        b.value[0] = bias[0] + h
        up = total()
        b.value[0] = bias[0] - h
        down = total()
        b.value[0] = bias[0]
        total()
        return (up - down) / (2.0 * h), sink.grad(b.value)[0]

    def test_a_saturated_decoder_logit_moves_the_reported_loss(self):
        # logit 30 against target 0: the loss still rises at slope sigmoid(30)
        bias = np.zeros(6)
        bias[0] = 30.0
        slope, grad = self.saturated_step(
            "decoder.methyl.out00", bias, None, LossWeights(alpha=1.0, beta=0.0)
        )
        assert abs(grad - 1.0 / (2 * 6)) < 1e-12  # alpha / (blocks * width), summed over rows
        assert abs(slope - grad) <= 1e-6 * grad

    def test_a_trailing_class_logit_moves_the_reported_loss(self):
        # the true class trails the others by 800: the loss still falls at slope 1
        bias = np.array([-800.0, 0.0, 0.0, 0.0])
        slope, grad = self.saturated_step(
            "classifier.out", bias, np.zeros(6, dtype=np.int64), LossWeights(alpha=1.0, beta=1.0)
        )
        assert abs(grad + 1.0) < 1e-12
        assert abs(slope - grad) <= 1e-6

    @staticmethod
    def check_full_model_gradients(config):
        model = build_model(config, RngState(33))
        x_expr, x_blocks = tiny_batch(config, rows=8, seed=34)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        weights = LossWeights(alpha=1.0, beta=1.0)

        def loss_fn(m, batch, sink):
            be, bb = batch
            return m.forward_backward(be, bb, labels, weights, RngState(35), sink).total

        result = gradient_check(model, loss_fn, (x_expr, x_blocks), max_entries_per_param=8)
        assert result.max_rel_error <= 1e-3, str(result)

    def test_full_model_gradient_check(self):
        self.check_full_model_gradients(tiny_config())

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(methyl_block_dims=()),
            dict(expr_dim=0),
        ],
        ids=["expression", "methylation"],
    )
    def test_single_modality_gradient_check(self, overrides):
        # a one-branch join and split on each side of the latent space
        self.check_full_model_gradients(tiny_config(**overrides))
