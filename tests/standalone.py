"""Standalone layers for tests, gradient sinks, and the finite-difference
gradient checker.

A layer or block holds no arrays until a `ParameterArena` allocates them,
so a test declares its modules and then calls `allocate`, as `OmiVaeModel`
does for its blocks. A backward hands each gradient to a sink (see
`omivae.layers`), a weight matrix's in row slabs: `Collect` keeps them
in one flat vector in arena order, and `Poison` puts a NaN (or another bad
value) into one entry of one tensor's gradient on its way to another
sink. `gradient_check` compares the gradients of anything with an `arena`,
such as a model, with central finite differences."""

from dataclasses import dataclass

import numpy as np

from omivae.errors import NumericError
from omivae.layers import ParameterArena
from omivae.numerics import RngState


class Collect:
    """A sink that keeps each gradient in `flat`, which lines up with
    `arena.values`. Each take appends the name of its tensor to `taken`,
    once per slab, and the (start, stop) span of `values` it covers to
    `spans`. `flat` starts filled with `fill`, so an entry no backward
    wrote still reads `fill`."""

    def __init__(self, arena: ParameterArena, fill: float = np.nan):
        self.arena = arena
        self.flat = np.full(arena.values.size, fill)
        self.taken: list[str] = []
        self.spans: list[tuple[int, int]] = []

    def lend(self, value):
        return self.grad(value)

    def take(self, value, grad):
        assert np.shares_memory(grad, self.grad(value))
        start = self.arena.offset(value)
        self.taken.append(self.arena.owner(start).name)
        self.spans.append((start, start + value.size))

    def grad(self, value):
        """The kept gradient of `value`, a parameter or a slab of one, as a
        view of `flat`."""
        start = self.arena.offset(value)
        return self.flat[start : start + value.size].reshape(value.shape)


class Poison:
    """A sink that hands every gradient on to `sink`, with `bad` (NaN
    unless given) put into entry `index` (0 unless given) of tensor
    `name`'s flattened gradient, in whichever slab holds it."""

    def __init__(self, sink, arena: ParameterArena, name: str, bad: float = np.nan,
                 index: int = 0):
        self.sink, self.arena, self.name, self.bad, self.index = sink, arena, name, bad, index

    def lend(self, value):
        return self.sink.lend(value)

    def take(self, value, grad):
        start = self.arena.offset(value)
        p = self.arena.owner(start)
        at = p.start + self.index - start
        if p.name == self.name and 0 <= at < grad.size:
            grad.flat[at] = self.bad
        self.sink.take(value, grad)


def allocate(*modules, seed=0) -> ParameterArena:
    """Allocate `modules` in one arena, then draw each one's initialization,
    in order, from `RngState(seed)`."""
    arena = ParameterArena(modules)
    rng = RngState(seed)
    for module in modules:
        module.init(rng)
    return arena


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    worst_index: int
    entries_checked: int

    def __str__(self) -> str:  # pragma: no cover
        return (
            f"max relative error {self.max_rel_error:.3e} at {self.worst_param}[{self.worst_index}] "
            f"({self.entries_checked} entries)"
        )


def gradient_check(
    module,
    loss_fn,
    batch,
    step: float = 1e-5,
    max_entries_per_param: int = 64,
    seed: int = 0,
) -> GradCheckResult:
    """Compare analytic gradients of `loss_fn` against central differences.

    `module` must have an `arena`; `loss_fn(module, batch, sink)` must
    return a scalar loss and hand every parameter's gradient to `sink` (it
    is called repeatedly, so it must be deterministic: fixed batch, fixed
    noise). Large tensors are sub-sampled. The result reports the largest
    relative error, |analytic - numeric| / max(|analytic|, |numeric|, 1e-12);
    the caller compares it with its own tolerance. A relative error that is
    not finite raises, since no comparison with a tolerance would catch it.
    """
    sink = Collect(module.arena)
    base = float(loss_fn(module, batch, sink))
    if not np.isfinite(base):
        raise NumericError("gradient_check: loss is not finite")
    analytic = sink.flat.copy()

    picker = np.random.Generator(np.random.PCG64(seed))
    worst = GradCheckResult(0.0, "", -1, 0)
    for p in module.arena.params:
        flat_value = p.value.reshape(-1)
        n = flat_value.size
        flat_analytic = analytic[p.start : p.start + n]
        if n <= max_entries_per_param:
            indices = np.arange(n)
        else:
            indices = np.sort(picker.choice(n, size=max_entries_per_param, replace=False))
        for idx in indices:
            original = flat_value[idx]
            flat_value[idx] = original + step
            loss_plus = float(loss_fn(module, batch, sink))
            flat_value[idx] = original - step
            loss_minus = float(loss_fn(module, batch, sink))
            flat_value[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            rel = abs(flat_analytic[idx] - numeric) / max(
                abs(flat_analytic[idx]), abs(numeric), 1e-12
            )
            if not np.isfinite(rel):
                raise NumericError(f"gradient_check: non-finite error at {p.name}[{idx}]")
            worst.entries_checked += 1
            if rel > worst.max_rel_error:
                worst.max_rel_error = rel
                worst.worst_param = p.name
                worst.worst_index = int(idx)
    return worst
