"""Standalone layers for tests. A layer or block holds no arrays until a
`ParameterArena` allocates them, so a test declares its modules and then
calls `allocate`, as `OmiVaeModel` does for its blocks."""

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
