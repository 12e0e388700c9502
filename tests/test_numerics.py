import numpy as np
import pytest

from omivae.errors import NumericError, ValidationError
from omivae.numerics import RngState, sym_eig


class TestSymEig:
    def test_diagonal(self):
        values, vectors = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [3.0, 2.0, 1.0])
        # axis-aligned up to sign
        assert np.allclose(np.abs(vectors), np.eye(3)[:, [0, 2, 1]])

    def test_two_by_two_closed_form(self):
        values, vectors = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(values, [3.0, 1.0], atol=1e-12)
        v0 = vectors[:, 0] / vectors[0, 0]
        v1 = vectors[:, 1] / vectors[0, 1]
        assert np.allclose(v0, [1.0, 1.0], atol=1e-10)
        assert np.allclose(v1, [1.0, -1.0], atol=1e-10)

    def test_random_residual_and_reconstruction(self):
        rng = RngState(3)
        for trial in range(5):
            base = rng.standard_normal(6, 6)
            s = 0.5 * (base + base.T)
            values, vectors = sym_eig(s)
            norm = np.linalg.norm(s)
            for i in range(6):
                residual = np.linalg.norm(s @ vectors[:, i] - values[i] * vectors[:, i])
                assert residual <= 1e-8 * max(1.0, norm)
            recon = vectors @ np.diag(values) @ vectors.T
            assert np.linalg.norm(recon - s) <= 1e-8 * max(1.0, norm)
            assert np.allclose(vectors.T @ vectors, np.eye(6), atol=1e-8)
            assert np.all(np.diff(values) <= 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            sym_eig(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        # a NaN on the diagonal passes the symmetry test, where it compares false
        s = np.eye(3)
        s[1, 1] = np.nan
        with pytest.raises(NumericError, match="^non-finite values in sym_eig input$"):
            sym_eig(s)


class TestRng:
    def test_same_seed_bit_identical(self):
        a = RngState(42).standard_normal(5, 4)
        b = RngState(42).standard_normal(5, 4)
        assert np.array_equal(a, b)

    def test_moments(self):
        draws = RngState(1).standard_normal(1000, 1000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_derived_streams_differ(self):
        parent = RngState(5)
        a = parent.derive(0).standard_normal(4, 4)
        b = parent.derive(1).standard_normal(4, 4)
        assert not np.array_equal(a, b)

    def test_derivation_is_reproducible(self):
        a = RngState(9).derive(3).derive(1).standard_normal(3, 3)
        b = RngState(9).derive(3).derive(1).standard_normal(3, 3)
        assert np.array_equal(a, b)

    def test_stream_advances(self):
        rng = RngState(2)
        assert not np.array_equal(rng.standard_normal(3, 3), rng.standard_normal(3, 3))

    def test_uniform_into_draws_what_uniform_returns(self):
        """Filling an array in place gives `uniform`'s draws bit for bit and
        leaves the stream where `uniform` would, so a model build that draws
        into its arena initializes as one that draws and copies."""
        expected, into = RngState(7), RngState(7)
        drawn = expected.uniform(-0.3, 0.25, (37, 11))
        out = np.empty((37, 11))
        into.uniform_into(out, -0.3, 0.25)
        assert out.tobytes() == drawn.tobytes()
        assert into.standard_normal(2, 3).tobytes() == expected.standard_normal(2, 3).tobytes()
