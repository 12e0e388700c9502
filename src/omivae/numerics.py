"""Dense float64 linear algebra and deterministic, derivable random streams.

All matrices in this package are 2-D row-major numpy arrays of float64.
Operations here raise instead of silently propagating NaN/Inf.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

SYMMETRY_TOL = 1e-10  # sym_eig's largest asymmetry, relative to the largest entry


class RngState:
    """Deterministic random stream with derivable, disjoint child streams.

    A stream is a PCG64 generator keyed through numpy's SeedSequence by
    (seed, derivation path). ``derive(i)`` appends ``i`` to the path and
    returns a fresh stream that is statistically independent of the parent
    and of every sibling, so e.g. cross-validation folds can each own a
    stream derived from the same master seed.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path))
        )

    def derive(self, index: int) -> "RngState":
        """Child stream ``index``; disjoint from the parent and from other indices."""
        return RngState(self.seed, self.path + (int(index),))

    def standard_normal(self, rows: int, cols: int) -> np.ndarray:
        return self._gen.standard_normal((rows, cols))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def uniform_into(self, out: np.ndarray, low: float, high: float) -> None:
        """Fill the C-contiguous float64 `out` in place with the draws
        `uniform(low, high, out.shape)` would return, leaving the stream
        where that call would."""
        self._gen.random(out=out)
        out *= high - low
        out += low

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngState(seed={self.seed}, path={self.path})"


def sym_eig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK, via `np.linalg.eigh`).

    Args:
        s: square symmetric matrix (max asymmetry ``SYMMETRY_TOL`` relative
            to its largest entry).

    Returns:
        (eigenvalues sorted descending, eigenvector matrix with matching
        columns). Eigenvectors are orthonormal to machine precision.
    """
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValidationError(f"sym_eig expects a square matrix, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NumericError("non-finite values in sym_eig input")
    scale = max(1.0, float(np.max(np.abs(s))))
    if float(np.max(np.abs(s - s.T))) > SYMMETRY_TOL * scale:
        raise ValidationError("sym_eig input is not symmetric")
    eigenvalues, v = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], np.ascontiguousarray(v[:, order])
