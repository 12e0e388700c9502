"""The parameter arena, the fused Adam step, snapshots and restores, the
memory training holds, validation-loss weighting, the history TSV and the
checkpoint format."""

import sys
from dataclasses import replace
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from omivae import data, layers, optim
from omivae.container import fields_to_text, read_container, write_container
from omivae.data import SyntheticSpec, synthesize
from omivae.errors import FormatError, NumericError, ValidationError
from omivae.layers import FcBlock, LinearLayer, largest_slab
from omivae.losses import LossWeights
from omivae.model import ModelConfig, OmiVaeModel, build_model
from omivae.numerics import RngState
from omivae.optim import Adam, TrainConfig, TrainingHistory
from standalone import Poison, allocate

TINY = ModelConfig(
    methyl_block_dims=(3,),
    expr_dim=4,
    per_block_hidden=2,
    modality_dim=3,
    fusion_dim=5,
    latent_dim=2,
    classifier_hidden=(3, 2),
    num_classes=2,
)


def tiny_dataset(samples_per_class=20, seed=1):
    """Synthetic data shaped for TINY: one 3-probe block, 4 genes, 2 classes."""
    spec = SyntheticSpec(
        num_classes=2,
        samples_per_class=samples_per_class,
        num_blocks=1,
        features_per_block=3,
        expr_features=4,
        seed=seed,
    )
    return synthesize(spec)


def textbook_adam_step(values, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba's update, one tensor at a time, in the per-tensor form."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for w, g, m, v in zip(values, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        w -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class Record:
    """A sink that hands each gradient on to `sink`, after `edit(grad)` if
    `edit` is given, and keeps a copy of it in `grads` by tensor name. A
    tensor joins `stepped` once `sink` has taken its gradient."""

    def __init__(self, sink, arena, edit=None):
        self.sink, self.arena, self.edit = sink, arena, edit
        self.grads: dict[str, np.ndarray] = {}
        self.stepped: list[str] = []

    def lend(self, value):
        return self.sink.lend(value)

    def take(self, value, grad):
        if self.edit is not None:
            self.edit(grad)
        name = self.arena.owner(self.arena.offset(value)).name
        self.grads[name] = grad.copy()
        self.sink.take(value, grad)
        self.stepped.append(name)


def hand_on(adam, gradients):
    """One step of `adam`: each (parameter value, gradient) pair of
    `gradients` is lent, written and taken in turn."""
    adam.begin_step()
    for value, grad in gradients:
        buffer = adam.lend(value)
        buffer[...] = grad
        adam.take(value, buffer)


def follow_textbook(adam, hand, steps):
    """Step `adam` and `textbook_adam_step` side by side from t = 1 to
    `steps`, `hand(t, sink)` handing step t's gradients to `sink`, which
    passes them to `adam`. A tensor given no gradient in a step follows the
    textbook on a zero one.

    After step t every weight is within 1e-12*lr*t of the textbook's, and
    `(1 - b1) * m` and `(1 - b2) * v` are the textbook moments to 1e-14
    relative. For m that is relative to the same average of |g|, since an
    average of gradients of both signs may cancel to zero.
    """
    b1, b2 = optim.ADAM_BETA1, optim.ADAM_BETA2
    params = adam.arena.params
    values = [p.value.copy() for p in params]
    ms, vs, scales = ([np.zeros_like(w) for w in values] for _ in range(3))
    for t in range(1, steps + 1):
        sink = Record(adam, adam.arena)
        adam.begin_step()
        hand(t, sink)
        grads = [sink.grads.get(p.name, np.zeros_like(p.value)) for p in params]
        textbook_adam_step(values, grads, ms, vs, t, adam.lr)
        for scale, g in zip(scales, grads):
            scale *= b1
            scale += (1.0 - b1) * np.abs(g)
        assert adam.t == t
        drift = np.abs(adam.arena.values - flat(values)).max()
        assert drift <= 1e-12 * adam.lr * t, (t, drift / (adam.lr * t))
        assert np.all(np.abs((1.0 - b1) * adam.m - flat(ms)) <= 1e-14 * flat(scales)), t
        assert np.all(np.abs((1.0 - b2) * adam.v - flat(vs)) <= 1e-14 * flat(vs)), t


class TestArena:
    def test_every_tensor_is_a_view_into_the_arena(self):
        model = build_model(TINY, RngState(0))
        arena = model.arena
        params = model.parameters()
        assert len(params) == 43
        for p in params:
            assert np.shares_memory(p.value, arena.values[p.start : p.start + p.value.size])
            assert arena.offset(p.value) == p.start and arena.owner(p.start) is p
            assert arena.owner(p.start + p.value.size - 1) is p
        stats = [a for n, a in model.state_tensors() if ".running_" in n]
        assert len(stats) == 22
        for a in stats:
            assert np.shares_memory(a, arena.state)
            assert not np.shares_memory(a, arena.values)
        for block in model.blocks:
            for layer in (getattr(block, "linear", block), getattr(block, "norm", None)):
                if layer is None:
                    continue
                for attr, array in vars(layer).items():
                    if isinstance(array, np.ndarray):
                        assert np.shares_memory(array, arena.state), f"{block.name}.{attr}"
        assert arena.values.size == sum(p.value.size for p in model.parameters())
        # no region holds gradients
        assert arena.state.size == arena.values.size + sum(a.size for a in stats)

    def test_arena_keeps_the_initialization(self):
        # the layers draw into the arena: the model's first weights are the
        # first Glorot draw of its seed, as in a standalone layer of that shape
        a = build_model(TINY, RngState(7))
        layer = LinearLayer(3, 2, use_bias=False)
        allocate(layer, seed=7)
        limit = np.sqrt(6.0 / (3 + 2))
        expected = RngState(7).uniform(-limit, limit, (2, 3))
        first = a.parameters()[0]
        assert first.name == "encoder.methyl.block00.linear.weights"
        assert first.value.tobytes() == layer.weights.tobytes() == expected.tobytes()
        for name, arr in a.state_tensors():
            if name.endswith("running_var") or name.endswith("gamma"):
                assert np.all(arr == 1.0)

    def test_batchnorm_running_statistics_update_in_place(self):
        model = build_model(TINY, RngState(0))
        (norm,) = [b.norm for b in model.blocks if b.name == "encoder.fusion"]
        before = norm.running_mean, norm.running_var
        ds = tiny_dataset()
        model.encode(*ds.batch(np.arange(8)), train=True)
        assert norm.running_mean is before[0] and norm.running_var is before[1]
        assert np.any(norm.running_mean != 0.0)


class TestFusedAdam:
    def test_follows_the_textbook_update_on_a_model(self):
        """24 steps: eight with the classifier's weight at zero, as in phase
        1, then the joint loss; step 12 has a zero gradient and step 16 a
        zero gradient on every third entry of each tensor."""
        model = build_model(TINY, RngState(0))
        ds = tiny_dataset()
        adam = Adam(model.arena, lr=0.01)
        classifier = [p for p in model.parameters() if p.name.startswith("classifier.")]
        entry = [p.value.copy() for p in classifier]
        edits = {12: lambda g: g.fill(0.0), 16: lambda g: g.reshape(-1)[::3].fill(0.0)}

        def hand(t, sink):
            chosen = np.arange(8 * (t - 1), 8 * t) % ds.num_samples
            weights = LossWeights(1.0, 0.0 if t <= 8 else 1.0)
            if t == 9:  # a parameter that has had no gradient has not moved
                for p, w in zip(classifier, entry):
                    assert p.value.tobytes() == w.tobytes(), p.name
            sink.edit = edits.get(t)
            model.forward_backward(*ds.batch(chosen), ds.labels[chosen], weights, RngState(t),
                                   sink)
            assert sorted(sink.grads) == sorted(
                p.name for p in model.parameters() if t > 8 or p not in classifier)

        follow_textbook(adam, hand, 24)
        assert any(p.value.tobytes() != w.tobytes() for p, w in zip(classifier, entry))

    def test_follows_the_textbook_update_across_chunk_boundaries(self):
        # 75,000 weights, two whole chunks and a partial third, then 250 biases
        layer = LinearLayer(300, 250)
        arena = allocate(layer, seed=2)
        assert layer.weights.size > 2 * optim.ADAM_CHUNK
        assert layer.weights.size % optim.ADAM_CHUNK != 0
        rng = np.random.default_rng(3)

        def hand(t, sink):
            for value in (layer.weights, layer.bias):
                grad = sink.lend(value)
                grad[...] = rng.standard_normal(value.shape) * 10.0 ** rng.integers(-6, 2)
                if t == 5:
                    grad.fill(0.0)
                if t == 9:
                    grad.reshape(-1)[::3] = 0.0
                sink.take(value, grad)

        follow_textbook(Adam(arena, lr=0.003), hand, 24)

    def test_two_hand_worked_steps(self):
        layer = LinearLayer(2, 1, use_bias=False)
        arena = allocate(layer)
        layer.weights[...] = [[1.0, -2.0]]
        adam = Adam(arena, lr=0.1)
        # step 1, g = (0.5, -1): the unscaled moments are m = g and v = g^2;
        # the textbook's 0.1 g / c1 and 0.001 g^2 / c2 are g and g^2 too, so
        # each weight moves by 0.1 g / (|g| + eps)
        hand_on(adam, [(layer.weights, [[0.5, -1.0]])])
        assert np.allclose(adam.m, [0.5, -1.0], rtol=1e-12, atol=0.0)
        assert np.allclose(adam.v, [0.25, 1.0], rtol=1e-12, atol=0.0)
        w1 = np.array([1.0 - 0.05 / (0.5 + 1e-8), -2.0 + 0.1 / (1.0 + 1e-8)])
        assert np.allclose(layer.weights[0], w1, rtol=1e-12, atol=0.0)
        # step 2, g = (0.5, 1): m = 0.9 m + g = (0.95, 0.1) and
        # v = 0.999 v + g^2 = (0.49975, 1.999); c1 = 0.19 and c2 = 0.001999,
        # so the textbook m/c1 = 0.1 m / c1 = (0.5, 1/19) and
        # v/c2 = 0.001 v / c2 = (0.25, 1)
        hand_on(adam, [(layer.weights, [[0.5, 1.0]])])
        assert adam.t == 2
        assert np.allclose(adam.m, [0.95, 0.1], rtol=1e-12, atol=0.0)
        assert np.allclose(adam.v, [0.49975, 1.999], rtol=1e-12, atol=0.0)
        w2 = w1 - np.array([0.05 / (0.5 + 1e-8), (0.1 / 19.0) / (1.0 + 1e-8)])
        assert np.allclose(layer.weights[0], w2, rtol=1e-12, atol=0.0)

    def test_non_finite_gradient_names_the_tensor_and_changes_nothing(self):
        """Nothing of the bad tensor changes, nor of any tensor taken after
        it; those taken before it have stepped."""
        ds = tiny_dataset()
        batch = (*ds.batch(np.arange(8)), ds.labels[:8], LossWeights(1.0, 1.0))
        target = "encoder.fusion.norm.gamma"
        for bad in (np.nan, np.inf):
            model = build_model(TINY, RngState(0))
            adam = Adam(model.arena, lr=0.01)
            adam.begin_step()
            model.forward_backward(*batch, RngState(1), adam)
            before = [a.copy() for a in (model.arena.values, adam.m, adam.v)]
            sink = Record(Poison(adam, model.arena, target, bad), model.arena)
            adam.begin_step()
            with pytest.raises(NumericError) as info:
                model.forward_backward(*batch, RngState(2), sink)
            assert str(info.value) == f"non-finite gradient in {target}; step aborted"
            assert target in sink.grads and target not in sink.stepped
            assert "encoder.fusion.linear.weights" not in sink.grads  # it comes next
            for p in model.parameters():
                span = slice(p.start, p.start + p.value.size)
                for saved, live in zip(before, (model.arena.values, adam.m, adam.v)):
                    moved = saved[span].tobytes() != live[span].tobytes()
                    assert moved == (p.name in sink.stepped), (bad, p.name)

    def test_non_finite_gradient_in_a_later_slab_stops_at_that_slab(self, monkeypatch):
        """With 16-row slabs, a NaN in the fourth slab of a 101-row weight
        matrix: its first three slabs have stepped; nothing of that slab,
        of the later ones or of the bias changes."""
        monkeypatch.setattr(layers, "GRAD_SLAB", 2**8)
        layer = LinearLayer(13, 101)
        arena = allocate(layer, seed=6)
        adam = Adam(arena, lr=0.01)
        assert largest_slab(layer.weights.shape) == 16 * 13 < layer.weights.size
        x, upstream = (RngState(seed).standard_normal(7, n) for seed, n in ((7, 13), (8, 101)))
        sink = Record(Poison(adam, arena, "linear.weights", index=3 * 16 * 13 + 5), arena)
        before = [a.copy() for a in (arena.values, adam.m, adam.v)]
        adam.begin_step()
        layer.forward(x, train=True)
        with pytest.raises(NumericError) as info:
            layer.backward(upstream, sink)
        assert str(info.value) == "non-finite gradient in linear.weights; step aborted"
        assert sink.stepped == ["linear.weights"] * 3
        stepped = 3 * 16 * 13
        for saved, live in zip(before, (arena.values, adam.m, adam.v)):
            assert (saved[:stepped] != live[:stepped]).all()
            assert saved[stepped:].tobytes() == live[stepped:].tobytes()

    def test_adam_takes_only_pieces_of_the_arena_values(self):
        block = FcBlock(3, 2)
        arena = allocate(block)
        adam = Adam(arena, lr=0.01)
        adam.begin_step()
        for value in (np.zeros(2), block.linear.weights[:, :2], block.norm.running_mean):
            with pytest.raises(ValidationError, match="contiguous piece"):
                adam.take(value, np.zeros(value.shape))

    def test_huge_finite_gradient_steps(self):
        # 1e200 squared overflows the fast finiteness test, and the exact
        # check it falls back to finds every entry finite
        layer = LinearLayer(3, 2)
        arena = allocate(layer, seed=4)
        adam = Adam(arena, lr=0.01)
        grads = np.split(np.linspace(-1.0, 1.0, arena.values.size), [layer.weights.size])
        grads[0][2] = 1e200
        values = [layer.weights.copy(), layer.bias.copy()]
        entry = arena.values.copy()
        ms = [np.zeros_like(v) for v in values]
        vs = [np.zeros_like(v) for v in values]
        with np.errstate(over="ignore"):  # Adam's own square of 1e200
            hand_on(adam, [(layer.weights, grads[0].reshape(2, 3)), (layer.bias, grads[1])])
            textbook_adam_step(values, [grads[0].reshape(2, 3), grads[1]], ms, vs, 1, lr=0.01)
        assert adam.t == 1
        # its v is inf, so only the 1e200 entry does not move
        assert list(np.flatnonzero(arena.values == entry)) == [2]
        assert np.abs(arena.values - flat(values)).max() <= 1e-12 * 0.01


WIDE = ModelConfig(
    methyl_block_dims=(300,) * 4,
    expr_dim=2_000,
    per_block_hidden=128,
    modality_dim=2_048,
    fusion_dim=128,
    latent_dim=16,
    classifier_hidden=(32, 16),
    num_classes=2,
)
# what training holds besides the arena, the snapshot, m, v and the lent
# buffer: each batch's activations and caches, Adam's two chunk buffers
# (512 KiB) and numpy's and Python's small objects, 3.6 MiB in all on WIDE
# at batch 8; a buffer of its largest tensor, 8 MiB, would add 6 MiB more
ACTIVATIONS = 4 * 2**20


def test_training_holds_four_copies_of_the_values_and_one_slab():
    """Building a model of 4.64M parameters and training it peaks at four
    arena-sized arrays (the arena and the snapshot, each with the running
    statistics, and Adam's m and v), Adam's one lent buffer and
    `ACTIVATIONS`. The buffer holds one row slab of a weight gradient: no
    array holds a whole model's gradient, nor the whole of the largest
    tensor's, which spans four slabs here."""
    spec = SyntheticSpec(num_classes=2, samples_per_class=20, num_blocks=4,
                         features_per_block=300, expr_features=2_000, seed=4)
    dataset = synthesize(spec)
    config = TrainConfig(batch_size=8, phase1_epochs=1, phase2_epochs=1, patience=100)
    tracemalloc.start()
    try:
        model = build_model(WIDE, RngState(0))
        optim.train_two_phase(model, dataset, np.arange(32), np.arange(32, 40), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arena = model.arena
    lent = 8 * max(largest_slab(p.value.shape) for p in arena.params)
    assert max(p.value.nbytes for p in arena.params) >= 4 * lent
    held = 2 * arena.state.nbytes + 2 * arena.values.nbytes + lent
    assert peak <= held + ACTIVATIONS, (peak - held) / 2**20


@pytest.mark.parametrize(
    "overrides, diverge, phases",
    [
        ({}, False, [1, 2]),
        (dict(phase2_epochs=0), False, [1]),
        (dict(phase1_epochs=0), False, [2]),
        ({}, True, []),
    ],
    ids=["both", "no-phase2-epochs", "phase2-only", "phase1-diverges"],
)
def test_the_phases_that_run_and_the_moment_reset(monkeypatch, overrides, diverge, phases):
    """A phase runs only with epochs, and phase 2 not after a divergence;
    Adam's moments are zeroed before phase 2 and only then. A NaN in the
    first step's gradient of the fusion weights, which backward hands on
    after the decoder's and the heads', stops training on the entry state."""
    resets = []
    reset = Adam.reset
    monkeypatch.setattr(Adam, "reset", lambda self: resets.append(self.t) or reset(self))
    target = "encoder.fusion.linear.weights"
    if diverge:
        forward_backward = OmiVaeModel.forward_backward

        def poisoned(self, *args):
            return forward_backward(self, *args[:-1], Poison(args[-1], self.arena, target))

        monkeypatch.setattr(OmiVaeModel, "forward_backward", poisoned)
    model = build_model(TINY, RngState(0))
    entry = model.arena.state.copy()
    config = TrainConfig(**{**dict(batch_size=8, phase1_epochs=1, phase2_epochs=1,
                                    patience=100), **overrides})
    history = optim.train_two_phase(model, tiny_dataset(), np.arange(32), np.arange(32, 40), config)
    assert [r.phase for r in history.records] == phases
    assert history.diverged == (
        f"phase 1, epoch 1, step 1: non-finite gradient in {target}; step aborted"
        if diverge else "")
    if diverge:
        assert model.arena.state.tobytes() == entry.tobytes()
    # one reset, after phase 1's four steps (none when phase 1 has no epochs)
    assert resets == ([4 * config.phase1_epochs] if 2 in phases else [])


def test_threads_training_at_once_match_serial_runs():
    """Each model owns its arena, m, v and chunk buffers: crossval's fold
    threads must not see each other's state."""
    ds = tiny_dataset()
    config = TrainConfig(batch_size=4, phase1_epochs=3, phase2_epochs=3, patience=100)

    def fit(seed):
        model = build_model(TINY, RngState(seed))
        optim.train_two_phase(model, ds, np.arange(32), np.arange(32, 40), config, RngState(seed))
        return model.arena.state.copy()

    seeds = range(1, 5)  # more threads than the two cores crossval is tuned for
    serial = [fit(s) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            futures = [pool.submit(fit, s) for s in seeds]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for s, a, b in zip(seeds, serial, threaded):
        assert a.tobytes() == b.tobytes(), s


class TestRunPhaseRestore:
    @pytest.mark.parametrize("fail_at", [2, 6])
    def test_divergence_restores_the_saved_state(self, monkeypatch, fail_at):
        """A NaN on step 2 (epoch 1) restores the entry state and records no
        best epoch; on step 6 (epoch 2, four steps an epoch) the state saved
        after epoch 1, which stays the phase's best."""
        ds = tiny_dataset()
        model = build_model(TINY, RngState(0))
        entry = model.arena.state.copy()
        evaluated = []
        original_evaluate = optim.evaluate_losses

        def recording_evaluate(m, *args, **kwargs):
            evaluated.append(m.arena.state.copy())
            return original_evaluate(m, *args, **kwargs)

        calls = []
        original_step = model.forward_backward
        name = model.parameters()[3].name

        def failing_step(*args):
            calls.append(None)
            sink = Poison(args[-1], model.arena, name) if len(calls) == fail_at else args[-1]
            try:
                return original_step(*args[:-1], sink)
            finally:
                calls[-1] = model.arena.state.copy()

        monkeypatch.setattr(optim, "evaluate_losses", recording_evaluate)
        monkeypatch.setattr(model, "forward_backward", failing_step)
        config = TrainConfig(batch_size=8, learning_rate=0.01, phase1_epochs=3, phase2_epochs=0,
                             patience=100)
        history = optim.train_two_phase(
            model, ds, np.arange(32), np.arange(32, 40), config, RngState(5)
        )
        epoch = 1 if fail_at == 2 else 2
        assert history.diverged == (
            f"phase 1, epoch {epoch}, step {fail_at}: non-finite gradient in {name}; step aborted"
        )
        assert len(calls) == fail_at
        expected = entry if fail_at == 2 else evaluated[0]
        assert len(evaluated) == (0 if fail_at == 2 else 1)
        # arena.state is [values | running statistics]: the failing step's
        # forward moved the statistics and its backward stepped the tensors
        # taken before the NaN, and the restore puts both back
        values = model.arena.values.size
        assert not np.array_equal(calls[-1][values:], expected[values:])
        assert not np.array_equal(calls[-1][:values], expected[:values])
        assert model.arena.state.tobytes() == expected.tobytes()
        assert history.best_epoch == ({} if fail_at == 2 else {1: 1})
        assert history.best_metric == ({} if fail_at == 2 else {1: history.records[0].val.total})

    def test_divergence_in_a_later_slab_restores_the_saved_state(self, monkeypatch):
        """With 16-row slabs, the expression output weights (40 rows) span
        three: a NaN in the third, on step 6 (epoch 2), stops training after
        the first two slabs have stepped, and the state saved after epoch 1
        comes back bit for bit."""
        monkeypatch.setattr(layers, "GRAD_SLAB", 2**4)
        spec = SyntheticSpec(num_classes=2, samples_per_class=20, num_blocks=1,
                             features_per_block=3, expr_features=40, seed=1)
        model = build_model(replace(TINY, expr_dim=40), RngState(0))
        target = "decoder.expr.out.linear.weights"
        (weights,) = [p for p in model.parameters() if p.name == target]
        assert weights.value.shape == (40, 8)
        evaluated = []
        original_evaluate = optim.evaluate_losses

        def recording_evaluate(m, *args, **kwargs):
            evaluated.append(m.arena.state.copy())
            return original_evaluate(m, *args, **kwargs)

        steps = []
        original_step = model.forward_backward

        def failing_step(*args):
            sink = args[-1]
            if len(steps) == 5:
                sink = Record(Poison(sink, model.arena, target, index=2 * 16 * 8), model.arena)
            try:
                return original_step(*args[:-1], sink)
            finally:
                steps.append((sink, model.arena.state.copy()))

        monkeypatch.setattr(optim, "evaluate_losses", recording_evaluate)
        monkeypatch.setattr(model, "forward_backward", failing_step)
        config = TrainConfig(batch_size=8, learning_rate=0.01, phase1_epochs=3, phase2_epochs=0,
                             patience=100)
        history = optim.train_two_phase(model, synthesize(spec), np.arange(32),
                                        np.arange(32, 40), config, RngState(5))
        assert history.diverged == (
            f"phase 1, epoch 2, step 6: non-finite gradient in {target}; step aborted")
        (saved,) = evaluated  # epoch 1 improved on nothing, so it was saved
        (_, last), (sink, failed) = steps[-2:]
        assert sink.stepped.count(target) == 2
        done, end = weights.start + 2 * 16 * 8, weights.start + weights.value.size
        assert (failed[weights.start : done] != last[weights.start : done]).all()
        assert failed[done:end].tobytes() == last[done:end].tobytes()
        assert model.arena.state.tobytes() == saved.tobytes()


class TestEvaluateLosses:
    def test_classification_loss_weighted_by_labeled_count(self, monkeypatch):
        ds = tiny_dataset(samples_per_class=550)
        assert ds.num_samples == 1100 and data.INFER_ROWS == 1024
        labels = ds.labels.copy()
        # first chunk: one sample in four keeps its label; second chunk: all 76 do
        labels[:1024][np.arange(1024) % 4 != 0] = -1
        ds.labels = labels
        model = build_model(TINY, RngState(2))
        weights = LossWeights(1.0, 1.0)
        every = np.arange(ds.num_samples)
        chunked, acc_chunked = optim.evaluate_losses(model, ds, every, weights)
        monkeypatch.setattr(data, "INFER_ROWS", 2048)
        whole, acc_whole = optim.evaluate_losses(model, ds, every, weights)
        assert acc_chunked == acc_whole
        for field in ("recon_methyl", "recon_expr", "kl", "classification", "total"):
            a, b = getattr(chunked, field), getattr(whole, field)
            assert abs(a - b) <= 1e-12 * abs(b), field

    def test_unlabeled_split_has_zero_classification_loss(self, monkeypatch):
        ds = tiny_dataset()
        ds.labels = np.full(ds.num_samples, -1)
        model = build_model(TINY, RngState(2))
        monkeypatch.setattr(data, "INFER_ROWS", 16)  # three chunks of the 40 samples
        report, accuracy = optim.evaluate_losses(
            model, ds, np.arange(ds.num_samples), LossWeights(1.0, 1.0)
        )
        assert report.classification == 0.0
        assert np.isnan(accuracy)


def test_history_cells_are_plain_floats():
    ds = tiny_dataset()
    model = build_model(TINY, RngState(0))
    config = TrainConfig(batch_size=8, phase1_epochs=2, phase2_epochs=1, patience=100)
    history = optim.train_two_phase(model, ds, np.arange(32), np.arange(32, 40), config)
    lines = history.to_tsv().splitlines()
    assert lines[0].split("\t") == list(TrainingHistory.TSV_COLUMNS)
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split("\t")
        assert len(cells) == len(TrainingHistory.TSV_COLUMNS)
        for cell in cells:
            float(cell)


MODEL_TENSORS = [
    ("encoder.methyl.block00.linear.weights", (2, 3)),
    ("encoder.methyl.block00.norm.gamma", (2,)),
    ("encoder.methyl.block00.norm.beta_shift", (2,)),
    ("encoder.methyl.block00.norm.running_mean", (2,)),
    ("encoder.methyl.block00.norm.running_var", (2,)),
    ("encoder.methyl.merge.linear.weights", (3, 2)),
    ("encoder.methyl.merge.norm.gamma", (3,)),
    ("encoder.methyl.merge.norm.beta_shift", (3,)),
    ("encoder.methyl.merge.norm.running_mean", (3,)),
    ("encoder.methyl.merge.norm.running_var", (3,)),
    ("encoder.expr.hidden1.linear.weights", (8, 4)),
    ("encoder.expr.hidden1.norm.gamma", (8,)),
    ("encoder.expr.hidden1.norm.beta_shift", (8,)),
    ("encoder.expr.hidden1.norm.running_mean", (8,)),
    ("encoder.expr.hidden1.norm.running_var", (8,)),
    ("encoder.expr.hidden2.linear.weights", (3, 8)),
    ("encoder.expr.hidden2.norm.gamma", (3,)),
    ("encoder.expr.hidden2.norm.beta_shift", (3,)),
    ("encoder.expr.hidden2.norm.running_mean", (3,)),
    ("encoder.expr.hidden2.norm.running_var", (3,)),
    ("encoder.fusion.linear.weights", (5, 6)),
    ("encoder.fusion.norm.gamma", (5,)),
    ("encoder.fusion.norm.beta_shift", (5,)),
    ("encoder.fusion.norm.running_mean", (5,)),
    ("encoder.fusion.norm.running_var", (5,)),
    ("encoder.mu_head.weights", (2, 5)),
    ("encoder.mu_head.bias", (2,)),
    ("encoder.logvar_head.weights", (2, 5)),
    ("encoder.logvar_head.bias", (2,)),
    ("decoder.from_latent.linear.weights", (5, 2)),
    ("decoder.from_latent.norm.gamma", (5,)),
    ("decoder.from_latent.norm.beta_shift", (5,)),
    ("decoder.from_latent.norm.running_mean", (5,)),
    ("decoder.from_latent.norm.running_var", (5,)),
    ("decoder.to_modalities.linear.weights", (6, 5)),
    ("decoder.to_modalities.norm.gamma", (6,)),
    ("decoder.to_modalities.norm.beta_shift", (6,)),
    ("decoder.to_modalities.norm.running_mean", (6,)),
    ("decoder.to_modalities.norm.running_var", (6,)),
    ("decoder.methyl.expand.linear.weights", (2, 3)),
    ("decoder.methyl.expand.norm.gamma", (2,)),
    ("decoder.methyl.expand.norm.beta_shift", (2,)),
    ("decoder.methyl.expand.norm.running_mean", (2,)),
    ("decoder.methyl.expand.norm.running_var", (2,)),
    ("decoder.methyl.out00.linear.weights", (3, 2)),
    ("decoder.methyl.out00.linear.bias", (3,)),
    ("decoder.expr.expand.linear.weights", (8, 3)),
    ("decoder.expr.expand.norm.gamma", (8,)),
    ("decoder.expr.expand.norm.beta_shift", (8,)),
    ("decoder.expr.expand.norm.running_mean", (8,)),
    ("decoder.expr.expand.norm.running_var", (8,)),
    ("decoder.expr.out.linear.weights", (4, 8)),
    ("decoder.expr.out.linear.bias", (4,)),
    ("classifier.hidden1.linear.weights", (3, 2)),
    ("classifier.hidden1.norm.gamma", (3,)),
    ("classifier.hidden1.norm.beta_shift", (3,)),
    ("classifier.hidden1.norm.running_mean", (3,)),
    ("classifier.hidden1.norm.running_var", (3,)),
    ("classifier.hidden2.linear.weights", (2, 3)),
    ("classifier.hidden2.norm.gamma", (2,)),
    ("classifier.hidden2.norm.beta_shift", (2,)),
    ("classifier.hidden2.norm.running_mean", (2,)),
    ("classifier.hidden2.norm.running_var", (2,)),
    ("classifier.out.linear.weights", (2, 2)),
    ("classifier.out.linear.bias", (2,)),
]


class TestCheckpointFormat:
    def test_tensor_names_order_and_shapes(self, tmp_path):
        model = build_model(TINY, RngState(0))
        path = str(tmp_path / "model.omvae")
        optim.save_checkpoint(path, model)
        _, tensors, _ = read_container(path, optim.CHECKPOINT_MAGIC, optim.CHECKPOINT_VERSION)
        assert [(n, a.shape) for n, a in tensors] == MODEL_TENSORS

    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = tiny_dataset()
        model = build_model(TINY, RngState(0))
        adam = Adam(model.arena, lr=0.01)
        for t in range(3):
            chosen = np.arange(8 * t, 8 * t + 8)
            adam.begin_step()
            model.forward_backward(
                *ds.batch(chosen), ds.labels[chosen], LossWeights(1.0, 1.0), RngState(t), adam
            )
        path = str(tmp_path / "model.omvae")
        optim.save_checkpoint(path, model, metadata={"note": "x"})
        checkpoint = optim.load_checkpoint(path)
        assert checkpoint.metadata == {"note": "x"}
        rebuilt = checkpoint.build()
        pairs = list(zip(model.state_tensors(), rebuilt.state_tensors()))
        assert len(pairs) == len(MODEL_TENSORS)
        for (name, a), (name_b, b) in pairs:
            assert name == name_b
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert rebuilt.arena.state.tobytes() == model.arena.state.tobytes()

    def test_build_draws_no_initialization(self, tmp_path, monkeypatch):
        model = build_model(TINY, RngState(0))
        path = str(tmp_path / "model.omvae")
        optim.save_checkpoint(path, model)
        checkpoint = optim.load_checkpoint(path)

        def forbidden(*args):
            raise AssertionError("Checkpoint.build drew an initialization")

        monkeypatch.setattr(RngState, "uniform", forbidden)
        rebuilt = checkpoint.build()
        assert rebuilt.arena.state.tobytes() == model.arena.state.tobytes()

    def test_older_checkpoint_of_another_expression_width_is_refused(self, tmp_path, monkeypatch):
        # earlier versions let `expr_hidden` override the width rule (8 for
        # TINY); a checkpoint of another width loads and then fails to build
        with monkeypatch.context() as patch:
            patch.setattr(ModelConfig, "expr_hidden", property(lambda self: 2))
            tensors = build_model(TINY, RngState(0)).state_tensors()
        path = str(tmp_path / "model.omvae")
        config = fields_to_text(TINY) | {"expr_hidden": "2"}
        write_container(path, optim.CHECKPOINT_MAGIC, optim.CHECKPOINT_VERSION, config, tensors, {})
        checkpoint = optim.load_checkpoint(path)
        assert checkpoint.config == TINY
        with pytest.raises(FormatError, match=r"'encoder\.expr\.hidden1\.linear\.weights' "
                                              r"has shape \(2, 4\), expected \(8, 4\)"):
            checkpoint.build()

    @pytest.mark.parametrize("edit, problem", [
        (lambda ts: ts + [("bogus", np.zeros(2))],
         "has 'bogus' at position 66, expected no tensor"),
        (lambda ts: ts[:5] + [(ts[4][0], ts[4][1] + 1.0)] + ts[5:],
         "has 'encoder.methyl.block00.norm.running_var' at position 6, "
         "expected 'encoder.methyl.merge.linear.weights'"),
        (lambda ts: ts[::-1],
         "has 'classifier.out.linear.bias' at position 1, "
         "expected 'encoder.methyl.block00.linear.weights'"),
        (lambda ts: ts[:-1], "has no tensor at position 65, expected 'classifier.out.linear.bias'"),
    ], ids=["extra", "repeated", "reversed", "short"])
    def test_any_other_tensor_list_is_refused(self, tmp_path, edit, problem):
        """Only the model's `state_tensors()`, in order, build a model: the
        first tensor out of place is named."""
        model = build_model(TINY, RngState(0))
        path = str(tmp_path / "model.omvae")
        tensors = edit(model.state_tensors())
        write_container(path, optim.CHECKPOINT_MAGIC, optim.CHECKPOINT_VERSION,
                        fields_to_text(TINY), tensors, {})
        with pytest.raises(FormatError) as got:
            optim.load_checkpoint(path).build()
        assert str(got.value) == f"checkpoint {problem}"
