"""Standalone layers for tests, and the finite-difference gradient checker.

A layer or block holds no arrays until a `ParameterArena` allocates them,
so a test declares its modules and then calls `allocate`, as `OmiVaeModel`
does for its blocks. `gradient_check` compares the gradients of anything
that lists its `parameters()`, such as a model, with central finite
differences."""

from dataclasses import dataclass

import numpy as np

from omivae.errors import NumericError
from omivae.layers import ParameterArena
from omivae.numerics import RngState


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

    `module` must expose `parameters()`; `loss_fn(module, batch)` must
    return a scalar loss and write every gradient buffer whole (it is called
    repeatedly, so it must be deterministic: fixed batch, fixed noise).
    Large tensors are sub-sampled. The result reports the largest relative
    error, |analytic - numeric| / max(|analytic|, |numeric|, 1e-12); the
    caller compares it with its own tolerance. A relative error that is not
    finite raises, since no comparison with a tolerance would catch it.
    """
    base = float(loss_fn(module, batch))
    if not np.isfinite(base):
        raise NumericError("gradient_check: loss is not finite")
    params = module.parameters()
    analytic = [p.grad.copy() for p in params]

    picker = np.random.Generator(np.random.PCG64(seed))
    worst = GradCheckResult(0.0, "", -1, 0)
    for p, a in zip(params, analytic):
        flat_value = p.value.reshape(-1)
        flat_analytic = a.reshape(-1)
        n = flat_value.size
        if n <= max_entries_per_param:
            indices = np.arange(n)
        else:
            indices = np.sort(picker.choice(n, size=max_entries_per_param, replace=False))
        for idx in indices:
            original = flat_value[idx]
            flat_value[idx] = original + step
            loss_plus = float(loss_fn(module, batch))
            flat_value[idx] = original - step
            loss_minus = float(loss_fn(module, batch))
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
