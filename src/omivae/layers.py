"""Fully connected blocks (linear -> batch norm -> ReLU) and the composites
that wire them into towers: a sequence, a column join of branches and a
column split into branches. The model's output layers are plain
`LinearLayer`s that give logits: `losses` forms the gradients at them, and
`softmax` turns class logits into probabilities.

A layer or block owns no arrays of its own. Its `declared()` rows name
each tensor it will hold; a `ParameterArena` over the modules allocates them
all at once, as views of one buffer, and sets them as the modules'
attributes; then `init(rng)` draws a fresh initialization into them in
place, or the arena copies in saved tensors. Declare, allocate, then
initialize or load.

Forward and backward passes are written out by hand, once per block or
composite. A backward hands each parameter's gradient to the sink it is
given, as soon as it has formed it, one slab at a time: `sink.lend(value)`
lends a buffer shaped like `value`, a C-contiguous piece of a parameter,
the layer writes that piece's gradient into it whole, and `sink.take(value,
grad)` takes it. A weight matrix goes in row slabs of `slab_rows` rows, in
row order, each formed and taken before the next, so that a sink can use a
slab while it is still in cache; a bias or a batch-norm tensor is one slab,
whole. No arena region holds gradients. The sink may change `value` when
it takes its gradient (in training it is `optim.Adam`, which steps that
slab then), so a layer forms its input gradient from its parameters before
it hands any of their gradients on, and it holds at most one lent buffer
at a time.

Arrays written in place: besides parameters and running statistics (see
`Parameter`) and the buffers a sink lends, only arrays that one module made
and nothing else holds. `FcBlock` hands its fresh linear output to
`BatchNormLayer`, which consumes it (normalizes it in place; in train mode
it becomes the cached `x_hat`), and applies the ReLU in place on batch
norm's output. No forward or backward writes the inputs or upstream
gradients it is given.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .numerics import RngState

BN_MOMENTUM = 0.1  # running <- (1 - momentum) * running + momentum * batch
BN_EPSILON = 1e-5  # added to the variance before the square root
GRAD_SLAB = 2**18  # elements of one weight-gradient slab: 2 MiB, a core's L2
SLAB_ALIGN = 16  # a slab's row count is a multiple of this


def slab_rows(in_dim: int) -> int:
    """The rows of one gradient slab of a weight matrix `in_dim` wide: as
    many multiples of `SLAB_ALIGN` as fit in `GRAD_SLAB` elements, and at
    least `SLAB_ALIGN` rows, however wide."""
    return max(SLAB_ALIGN, GRAD_SLAB // in_dim // SLAB_ALIGN * SLAB_ALIGN)


def largest_slab(shape: tuple[int, ...]) -> int:
    """The most elements a backward hands on at once of a tensor of
    `shape`: one row slab of a weight matrix, or the whole of a 1-D tensor."""
    if len(shape) == 1:
        return shape[0]
    out_dim, in_dim = shape
    return min(out_dim, slab_rows(in_dim)) * in_dim


@dataclass
class Parameter:
    """A named learnable tensor, which sits in `ParameterArena.values` from
    element `start` on.

    `value` is a view into a `ParameterArena`, as are the batch-norm running
    statistics. Write them in place (`value[...] = x`, `running_mean *= c`)
    and never rebind them or the layer attributes they come from: a rebound
    array leaves the arena, so the optimizer and snapshots no longer see it.
    """

    name: str
    value: np.ndarray
    start: int


class ParameterArena:
    """One contiguous float64 buffer behind a set of modules' tensors.

    Each module's `declared()` gives one row per tensor: (owner,
    attribute, learnable, name, shape), a parameter with learnable True and
    a running statistic with False. The arena allocates one zeroed buffer
    for every row and sets each attribute to its view; nothing is copied in
    unless `saved` is given.

    Layout: `state` is `[values | running statistics]`, each region in
    declaration order. `state` is everything a snapshot or checkpoint must
    keep, and `values` is what an optimizer steps. `tensors` lists each
    (name, view) of `state` in declaration order, which is the order of
    checkpoints; `params` lists the parameters, in `values` order.
    `offset(view)` is the element at which a piece of `values` starts,
    and `owner(offset)` the parameter that holds that element.

    `saved`, the (name, array) list of a checkpoint, must match the
    declarations name for name and shape for shape. It is checked before
    anything is allocated, so a config that claims an impossible width
    fails on the first mismatch with a `FormatError`, and then copied in.
    A buffer numpy cannot allocate is a `ValidationError` naming its bytes.
    """

    def __init__(self, modules, saved: list[tuple[str, np.ndarray]] | None = None):
        rows = [row for m in modules for row in m.declared()]
        if saved is not None:
            found = [(name, array.shape) for name, array in saved]
            expected = [(name, shape) for *_, name, shape in rows]
            if found != expected:
                i = next((i for i, (f, e) in enumerate(zip(found, expected)) if f != e),
                         min(len(found), len(expected)))
                if i < min(len(found), len(expected)) and found[i][0] == expected[i][0]:
                    (name, shape), want = found[i], expected[i][1]
                    raise FormatError(
                        f"checkpoint tensor {name!r} has shape {shape}, expected {want}"
                    )
                got, want = (repr(t[i][0]) if i < len(t) else "no tensor"
                             for t in (found, expected))
                raise FormatError(f"checkpoint has {got} at position {i + 1}, expected {want}")
        params = [row for row in rows if row[2]]
        stats = [row for row in rows if not row[2]]
        n_values = sum(math.prod(shape) for *_, shape in params)
        n_state = n_values + sum(math.prod(shape) for *_, shape in stats)
        try:
            self.state = np.zeros(n_state)
        except (MemoryError, ValueError):  # ValueError: more elements than an index holds
            raise ValidationError(f"the model's tensors need {8 * n_state} bytes, "
                                  "which numpy cannot allocate") from None
        self.values = self.state[:n_values]
        self.params = []
        offset = 0
        for owner, attr, learnable, name, shape in params + stats:
            view = self.state[offset : offset + math.prod(shape)].reshape(shape)
            setattr(owner, attr, view)
            if learnable:
                self.params.append(Parameter(name, view, offset))
            offset += view.size
        self.tensors = [(name, getattr(owner, attr)) for owner, attr, _, name, _ in rows]
        for (_, view), (_, array) in zip(self.tensors, saved or ()):
            view[...] = array

    def offset(self, view: np.ndarray) -> int:
        """The element of `values` at which `view`, a C-contiguous piece of
        it, starts."""
        start = (view.ctypes.data - self.values.ctypes.data) // self.values.itemsize
        if not (view.flags.c_contiguous and 0 <= start <= self.values.size - view.size):
            raise ValidationError("not a contiguous piece of the arena's values")
        return start

    def owner(self, offset: int) -> Parameter:
        """The parameter that holds element `offset` of `values`."""
        return self.params[bisect.bisect_right(self.params, offset, key=lambda p: p.start) - 1]


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum."""
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


class LinearLayer:
    """y = x W^T + b with weights of shape (out_dim, in_dim).

    `use_bias=False` drops the bias entirely; a linear layer feeding batch
    norm uses this since the normalization would cancel any bias anyway.
    `needs_input_grad=False` makes backward skip the gradient with respect
    to the input and return None; a model's input layers use it, since
    nothing reads the gradient of the data.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        name: str = "linear",
        use_bias: bool = True,
        needs_input_grad: bool = True,
    ):
        if in_dim < 1 or out_dim < 1:
            raise ValidationError(f"{name}: dimensions must be >= 1, got {in_dim}x{out_dim}")
        self.name = name
        self._tensors = [("weights", True, f"{name}.weights", (out_dim, in_dim))]
        self.bias = None
        if use_bias:
            self._tensors.append(("bias", True, f"{name}.bias", (out_dim,)))
        self.needs_input_grad = needs_input_grad
        self._input: np.ndarray | None = None

    def declared(self) -> list[tuple]:
        # made on each call: a stored row would refer to the layer itself,
        # and that cycle would keep a dropped model's arena alive until the
        # cycle collector ran
        return [(self, *row) for row in self._tensors]

    def init(self, rng: RngState) -> None:
        """Draw the weights from Glorot's uniform range, in place; a bias
        stays zero."""
        limit = np.sqrt(6.0 / sum(self.weights.shape))
        rng.uniform_into(self.weights, -limit, limit)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        in_dim = self.weights.shape[1]
        if x.shape[1] != in_dim:
            raise ValidationError(
                f"{self.name}: expected {in_dim} input features, got {x.shape[1]}"
            )
        self._input = x if train else None
        out = x @ self.weights.T
        if self.bias is not None:
            out += self.bias
        return out

    def backward(self, upstream: np.ndarray, sink) -> np.ndarray | None:
        """Hand the weights' gradient to `sink` in row slabs, in row order,
        then the bias's; return the input gradient if needed, formed first,
        from the weights `sink` has not yet seen."""
        x = self._input
        if x is None:
            raise ValidationError(f"{self.name}: backward without a cached training forward")
        if upstream.shape != (x.shape[0], self.weights.shape[0]):
            raise ValidationError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        self._input = None
        din = upstream @ self.weights if self.needs_input_grad else None
        rows = slab_rows(x.shape[1])
        for start in range(0, upstream.shape[1], rows):
            slab = slice(start, start + rows)
            grad = sink.lend(self.weights[slab])
            np.matmul(upstream[:, slab].T, x, out=grad)
            sink.take(self.weights[slab], grad)
        if self.bias is not None:
            grad = sink.lend(self.bias)
            np.sum(upstream, axis=0, out=grad)
            sink.take(self.bias, grad)
        return din


class BatchNormLayer:
    """Per-feature batch normalization with learnable scale/shift.

    Train mode normalizes by batch statistics (biased variance) and updates
    the running statistics with momentum `BN_MOMENTUM`. Infer mode normalizes
    by the running statistics and mutates nothing but its input.

    `forward` consumes the array it is given: it normalizes it in place.
    In train mode that array becomes the cached `x_hat` and the output is a
    new array; in infer mode it is scaled and shifted in place and returned
    as the output. The caller must hold no other reference to it.
    """

    def __init__(self, dim: int, *, name: str = "norm"):
        self.name = name
        self._tensors = [
            ("gamma", True, f"{name}.gamma", (dim,)),
            ("beta_shift", True, f"{name}.beta_shift", (dim,)),
            ("running_mean", False, f"{name}.running_mean", (dim,)),
            ("running_var", False, f"{name}.running_var", (dim,)),
        ]
        self._cache: tuple | None = None

    def declared(self) -> list[tuple]:
        return [(self, *row) for row in self._tensors]  # made on each call, as in LinearLayer

    def init(self, rng: RngState) -> None:
        """Unit scale and running variance; the arena's zeros are the shift
        and the running mean. Draws nothing from `rng`."""
        self.gamma.fill(1.0)
        self.running_var.fill(1.0)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        # every element takes the same rounded operations, in the same
        # order, as the out-of-place (x - mean) * inv_std * gamma + beta
        if train:
            n = x.shape[0]
            if n < 2:
                raise ValidationError(
                    f"{self.name}: train-mode batch norm needs batch size >= 2, got {n}"
                )
            mean = x.mean(axis=0)
            x -= mean
            var = np.add.reduce(x * x, axis=0) / n  # numpy's own x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
            x *= inv_std
            # in place: the running statistics may be views into an arena
            self.running_mean *= 1.0 - BN_MOMENTUM
            self.running_mean += BN_MOMENTUM * mean
            self.running_var *= 1.0 - BN_MOMENTUM
            self.running_var += BN_MOMENTUM * var
            self._cache = (x, inv_std)
            out = self.gamma * x
        else:
            x -= self.running_mean
            x *= 1.0 / np.sqrt(self.running_var + BN_EPSILON)
            x *= self.gamma
            out = x
            self._cache = None
        out += self.beta_shift
        return out

    def backward(self, upstream: np.ndarray, sink) -> np.ndarray:
        """Hand the gradients of gamma and the shift to `sink`; return the
        input gradient, whose gamma factor is formed first, from the gamma
        `sink` has not yet seen."""
        if self._cache is None:
            raise ValidationError(f"{self.name}: backward without a cached training forward")
        x_hat, inv_std = self._cache
        self._cache = None
        n = x_hat.shape[0]
        d_hat = upstream * self.gamma
        work = upstream * x_hat
        grad = sink.lend(self.gamma)
        np.sum(work, axis=0, out=grad)
        sink.take(self.gamma, grad)
        grad = sink.lend(self.beta_shift)
        np.sum(upstream, axis=0, out=grad)
        sink.take(self.beta_shift, grad)
        # d/dx of (x - mean)/std going through mean and variance:
        # (inv_std / n) * (n * d_hat - sum(d_hat) - x_hat * sum(d_hat * x_hat))
        d_hat_x_hat = np.sum(np.multiply(d_hat, x_hat, out=work), axis=0)
        d_hat_sum = d_hat.sum(axis=0)
        din = d_hat
        din *= n
        din -= d_hat_sum
        din -= np.multiply(x_hat, d_hat_x_hat, out=work)
        din *= inv_std / n
        return din


class FcBlock:
    """linear (no bias) -> batch norm -> ReLU, with a consumable cache.

    The linear part has no bias because batch norm would cancel it. The
    linear output is a new array that nothing else holds, so the block hands
    it to batch norm to normalize in place and applies the ReLU in place on
    batch norm's output; the `batch` argument is never written. The cache
    exists only between a train-mode forward and the backward that consumes
    it; infer-mode forwards clear it and mutate nothing else of the block.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        name: str = "fc",
        needs_input_grad: bool = True,
    ):
        self.name = name
        self.linear = LinearLayer(in_dim, out_dim, name=f"{name}.linear", use_bias=False,
                                  needs_input_grad=needs_input_grad)
        self.norm = BatchNormLayer(out_dim, name=f"{name}.norm")
        self._out: np.ndarray | None = None

    def declared(self) -> list[tuple]:
        return self.linear.declared() + self.norm.declared()

    def init(self, rng: RngState) -> None:
        self.linear.init(rng)
        self.norm.init(rng)

    def forward(self, batch: np.ndarray, train: bool) -> np.ndarray:
        out = self.norm.forward(self.linear.forward(batch, train), train)
        np.maximum(out, 0.0, out=out)
        self._out = out if train else None
        return out

    def backward(self, upstream: np.ndarray, sink) -> np.ndarray | None:
        """Gradient through the ReLU, norm, and linear parts."""
        if self._out is None:
            raise ValidationError(f"{self.name}: backward without a cached training forward")
        if upstream.shape != self._out.shape:
            raise ValidationError(
                f"{self.name}: upstream shape {upstream.shape} != output shape {self._out.shape}"
            )
        d = upstream * (self._out > 0.0)
        self._out = None
        return self.linear.backward(self.norm.backward(d, sink), sink)


class Sequence:
    """Modules applied in order; backward runs them in reverse."""

    def __init__(self, *modules):
        self.modules = modules

    def forward(self, x, train: bool):
        for module in self.modules:
            x = module.forward(x, train)
        return x

    def backward(self, upstream, sink):
        for module in reversed(self.modules):
            upstream = module.backward(upstream, sink)
        return upstream


class Join:
    """One branch per input, outputs concatenated by column.

    Backward splits the gradient at the column widths of the last forward
    and returns the branches' input gradients as a list.
    """

    def __init__(self, branches):
        self.branches = branches
        self._bounds: np.ndarray | None = None

    def forward(self, inputs: list, train: bool) -> np.ndarray:
        outs = [b.forward(x, train) for b, x in zip(self.branches, inputs, strict=True)]
        self._bounds = np.cumsum([o.shape[1] for o in outs[:-1]])
        return np.concatenate(outs, axis=1)

    def backward(self, upstream: np.ndarray, sink) -> list:
        parts = np.split(upstream, self._bounds, axis=1)
        return [b.backward(g, sink) for b, g in zip(self.branches, parts)]


class Split:
    """One input cut into column slices of the given widths, one per branch.

    Forward returns the branches' outputs as a list; backward takes one
    gradient per branch and concatenates the branches' input gradients.
    """

    def __init__(self, widths, branches):
        self.branches = branches
        self.bounds = np.cumsum(widths[:-1])

    def forward(self, x: np.ndarray, train: bool) -> list:
        parts = np.split(x, self.bounds, axis=1)
        return [b.forward(part, train) for b, part in zip(self.branches, parts, strict=True)]

    def backward(self, upstreams: list, sink) -> np.ndarray:
        grads = [b.backward(g, sink) for b, g in zip(self.branches, upstreams, strict=True)]
        return np.concatenate(grads, axis=1)
