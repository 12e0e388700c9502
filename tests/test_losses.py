import math

import numpy as np
import pytest

from omivae.errors import ValidationError
from omivae.losses import (
    LossWeights,
    bce,
    classification_loss,
    kl_gaussian,
    total_loss,
    vae_loss,
)
from omivae.numerics import RngState


def mc_kl_estimate(mu, logvar, draws, rng):
    """Monte Carlo E_q[log q(z) - log p(z)] for diagonal Gaussians vs N(0, I)."""
    sigma = np.exp(0.5 * logvar)
    total = 0.0
    for d in range(mu.shape[1]):
        eps = rng.standard_normal(draws, 1)[:, 0]
        z = mu[0, d] + sigma[0, d] * eps
        log_q = -0.5 * (math.log(2 * math.pi) + logvar[0, d] + eps**2)
        log_p = -0.5 * (math.log(2 * math.pi) + z**2)
        total += float((log_q - log_p).mean())
    return total


class TestBce:
    def test_half_everywhere_is_ln2(self):
        # a zero logit predicts 1/2, whatever the target
        t = RngState(0).uniform(0.0, 1.0, (3, 4))
        assert abs(bce(t, np.zeros((3, 4)))[0] - math.log(2.0)) < 1e-12

    def test_confident_binary_reconstruction_costs_almost_nothing(self):
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert 0.0 < bce(t, 40.0 * (2.0 * t - 1.0))[0] <= 1e-17

    def test_closed_form_point(self):
        # logit log(9) predicts 0.9
        t = np.zeros((1, 1))
        z = np.full((1, 1), math.log(9.0))
        assert abs(bce(t, z)[0] - (-math.log(0.1))) < 1e-12

    def test_a_saturated_logit_costs_its_size(self):
        assert bce(np.zeros((1, 1)), np.full((1, 1), 40.0))[0] == 40.0
        assert bce(np.ones((1, 1)), np.full((1, 1), -40.0))[0] == 40.0

    def test_an_infinite_logit_gives_a_non_finite_loss(self):
        with np.errstate(invalid="ignore"):
            for t in (0.0, 1.0):
                for z in (np.inf, -np.inf):
                    assert not np.isfinite(bce(np.full((1, 1), t), np.full((1, 1), z))[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            bce(np.zeros((2, 2)), np.full((2, 3), 0.5))

    def test_target_is_the_minimizer(self):
        rng = RngState(0)
        for _ in range(10):
            t = rng.uniform(0.01, 0.99, (4, 6))
            z = rng.uniform(-5.0, 5.0, (4, 6))
            assert bce(t, z)[0] >= bce(t, np.log(t) - np.log1p(-t))[0] - 1e-12


def out_of_place_bce(target, logits):
    """Binary cross-entropy as one expression of fresh arrays, the
    reference form of the in-place kernel."""
    per_entry = np.maximum(logits, 0.0) - target * logits + np.log1p(np.exp(-np.abs(logits)))
    return float(per_entry.mean())


class TestBceOracle:
    """`bce` works in place in two buffers, yet every result is bit-equal
    to the out-of-place reference form, and each entry agrees with the
    independent form log(1 + e^z) - t*z."""

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0])
    def test_bit_equal_to_the_out_of_place_form(self, special):
        rng = RngState(3)
        target = rng.uniform(0.0, 1.0, (128, 200))
        logits = rng.uniform(-40.0, 40.0, (128, 200))
        target[0, :4] = [0.0, -0.0, 1.0, 0.5]
        logits[1, :6] = [0.0, -0.0, 5e-324, -5e-324, 800.0, -800.0]
        logits[2, 5] = special
        target[3, 9] = special
        logits[4, 11] = target[4, 11] = special
        with np.errstate(invalid="ignore"):
            for t, z in ((target, logits), (target[:, 3:150], logits[:, 3:150]),
                         (target.T, logits.T)):
                got = np.float64(bce(t, z)[0])
                assert got.tobytes() == np.float64(out_of_place_bce(t, z)).tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.25, 1.0])
    def test_agrees_with_logaddexp_to_a_few_ulp(self, t):
        tiny = np.finfo(np.float64).smallest_subnormal
        for z in (0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1e-9, -1e-9, 1.0, -1.0,
                  16.0, -16.0, 30.0, -30.0, 40.0, -40.0, 800.0, -800.0, 1e300, -1e300):
            got, _ = bce(np.full((1, 1), t), np.full((1, 1), z))
            oracle = np.logaddexp(0.0, z) - t * z
            scale = max(np.logaddexp(0.0, z), abs(t * z))
            assert abs(got - oracle) <= 4.0 * np.spacing(scale), (t, z, got, oracle)


def masked_sigmoid(z):
    """The sigmoid split by sign with boolean masks, the reference form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_division_sigmoid(z):
    """The sigmoid that divides twice and picks the z >= 0 quotient with a
    masked copy, the reference form of the one-division kernel."""
    with np.errstate(under="ignore"):
        out = np.minimum(z, -z)
        np.exp(out, out=out)
        denom = out + 1.0
        np.divide(out, denom, out=out)
        np.divide(1.0, denom, out=denom)
    np.copyto(out, denom, where=z >= 0)
    return out


class TestBceResidual:
    """At target 0 and weight 1, the gradient `bce` returns is the sigmoid
    of the logits, bit-equal to both reference forms."""

    def test_bit_equal_to_the_two_division_form(self):
        # signed zeros and NaNs, infinities, subnormals and the edges of
        # exp's underflow, among a decoder-sized block of ordinary values
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                    708.0, -708.0, 745.2, -745.2, 746.0, -746.0, 1e-300, -1e-300]
        z = RngState(48).standard_normal(128, 200) * 20.0
        z.flat[: len(specials)] = specials
        z[:, 7] = -z[:, 7]
        for given in (z, z[:, 3:150], z.T):
            with np.errstate(invalid="ignore"):  # the loss's 0 * inf
                _, got = bce(np.zeros_like(given), given)
            assert got.tobytes() == two_division_sigmoid(given).tobytes()

    def test_bit_equal_to_the_masked_form_without_warnings(self):
        # every finite logit and NaN; an infinite one warns in the loss's t*z
        specials = [0.0, -0.0, 800.0, -800.0, np.nan, -np.nan]
        z = np.concatenate([specials, RngState(47).standard_normal(1, 42)[0] * 30.0])
        z = z.reshape(4, -1)
        with np.errstate(under="ignore"):
            expected = masked_sigmoid(z)
        with np.errstate(all="raise"):
            _, got = bce(np.zeros_like(z), z)
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(got[0, :4], [0.5, 0.5, 1.0, 0.0])


class TestKl:
    def test_matching_distributions(self):
        assert kl_gaussian(np.zeros((5, 3)), np.zeros((5, 3)))[0] == 0.0

    def test_unit_mean_single_dim(self):
        assert abs(kl_gaussian(np.ones((1, 1)), np.zeros((1, 1)))[0] - 0.5) < 1e-15

    def test_nonnegative(self):
        rng = RngState(1)
        for _ in range(20):
            mu = rng.standard_normal(3, 4)
            logvar = rng.standard_normal(3, 4)
            assert kl_gaussian(mu, logvar)[0] >= 0.0

    def test_monte_carlo_oracle(self):
        rng = RngState(2)
        for _ in range(3):
            mu = rng.uniform(-1.5, 1.5, (1, 2))
            logvar = rng.uniform(-1.0, 1.0, (1, 2))
            estimate = mc_kl_estimate(mu, logvar, 400_000, rng)
            assert abs(kl_gaussian(mu, logvar)[0] - estimate) < 1e-2


class TestVaeLoss:
    def test_single_block_equals_plain_bce(self):
        rng = RngState(3)
        t = rng.uniform(0.0, 1.0, (4, 5))
        p = rng.uniform(0.1, 0.9, (4, 5))
        mu = rng.standard_normal(4, 2)
        logvar = rng.standard_normal(4, 2)
        (rm, re, kl), (d_blocks, d_expr, d_mu, d_logvar) = vae_loss([t], [p], None, None, mu, logvar)
        assert rm == bce(t, p)[0]
        assert re == 0.0
        assert kl == kl_gaussian(mu, logvar)[0]
        assert d_blocks[0].tobytes() == bce(t, p, 1.0 / t.size)[1].tobytes()
        assert d_expr is None
        assert [d.tobytes() for d in (d_mu, d_logvar)] == [
            d.tobytes() for d in kl_gaussian(mu, logvar)[1]
        ]

    def test_expression_only(self):
        rng = RngState(4)
        t = rng.uniform(0.0, 1.0, (4, 5))
        p = rng.uniform(0.1, 0.9, (4, 5))
        (rm, re, kl), (d_blocks, d_expr, _, _) = vae_loss(
            None, None, t, p, np.zeros((4, 2)), np.zeros((4, 2))
        )
        assert rm == 0.0
        assert re == bce(t, p)[0]
        assert kl == 0.0
        assert d_blocks is None
        assert d_expr.tobytes() == bce(t, p, 1.0 / t.size)[1].tobytes()

    def test_block_mean(self):
        # two blocks engineered to known BCEs average to their midpoint
        t1 = np.full((2, 3), 0.5)
        p2_t = np.zeros((2, 5))
        p2 = np.full((2, 5), 0.9)
        b1, _ = bce(t1, t1)
        b2, _ = bce(p2_t, p2)
        (rm, _, _), _ = vae_loss(
            [t1, p2_t], [t1, p2], None, None, np.zeros((2, 1)), np.zeros((2, 1))
        )
        assert abs(rm - 0.5 * (b1 + b2)) < 1e-15


class TestClassification:
    def test_perfect_prediction(self):
        logits = np.array([[800.0, 0.0], [0.0, 800.0]])
        assert classification_loss(np.array([0, 1]), logits)[0] == 0.0

    def test_uniform_over_34(self):
        logits = np.zeros((2, 34))
        assert abs(classification_loss(np.array([3, 20]), logits)[0] - math.log(34.0)) < 1e-12

    def test_quarter_probability(self):
        logits = np.log([[0.25, 0.75]])
        assert abs(classification_loss(np.array([0]), logits)[0] - math.log(4.0)) < 1e-12

    def test_a_gap_of_800_costs_800(self):
        assert classification_loss(np.array([0]), np.array([[0.0, 800.0]]))[0] == 800.0

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            classification_loss(np.array([2]), np.full((1, 2), 0.5))


class TestTotalLoss:
    def test_unsupervised_weighting(self):
        report = total_loss(1.0, 0.5, 0.5, 9.0, LossWeights(alpha=1.0, beta=0.0))
        assert report.total == 2.0

    def test_joint_weighting(self):
        report = total_loss(1.0, 0.5, 0.5, 0.5, LossWeights(alpha=1.0, beta=1.0))
        assert report.total == 2.5

    def test_report_internal_consistency(self):
        rng = RngState(6)
        for _ in range(10):
            rm, re, kl, cls = rng.uniform(0.0, 3.0, (4,)).tolist()
            w = LossWeights(alpha=1.7, beta=0.3)
            report = total_loss(rm, re, kl, cls, w)
            assert abs(report.vae - (rm + re + kl)) <= 1e-12
            assert abs(report.total - (w.alpha * report.vae + w.beta * cls)) <= 1e-12


def central_differences(value, arrays, h=1e-5):
    """float64 central differences of `value()` in each entry of each of
    `arrays`, which `value` reads."""
    grads = []
    for a in arrays:
        grad = np.empty_like(a)
        for i in np.ndindex(a.shape):
            kept = a[i]
            a[i] = kept + h
            up = value()
            a[i] = kept - h
            down = value()
            a[i] = kept
            grad[i] = (up - down) / (2.0 * h)
        grads.append(grad)
    return grads


def assert_near(got, numeric):
    assert got.shape == numeric.shape
    assert np.all(np.abs(got - numeric) <= 1e-6 * np.maximum(np.abs(numeric), 1e-2)), (
        got, numeric,
    )


class TestGradients:
    """Each loss's returned gradient against central differences of the
    value it returns, in float64, with a saturated decoder logit (30
    against target 0) and a true class that trails by 800."""

    @staticmethod
    def reconstruction(rng, rows, cols):
        target = rng.uniform(0.0, 1.0, (rows, cols))
        logits = rng.uniform(-4.0, 4.0, (rows, cols))
        target[0, 0], logits[0, 0] = 0.0, 30.0
        return target, logits

    @pytest.mark.parametrize("weight", [1.0, 0.3])
    def test_bce(self, weight):
        t, z = self.reconstruction(RngState(50), 3, 5)
        _, grad = bce(t, z, weight)
        # weight per entry: `size` times the mean's slope
        (numeric,) = central_differences(lambda: weight * t.size * bce(t, z)[0], [z])
        assert_near(grad, numeric)
        assert abs(grad[0, 0] - weight) <= 1e-12 * weight  # sigmoid(30) - 0

    def test_kl_gaussian(self):
        rng = RngState(51)
        mu, logvar = rng.standard_normal(4, 3), rng.standard_normal(4, 3)
        _, grads = kl_gaussian(mu, logvar, 1.7)
        numeric = central_differences(lambda: 1.7 * kl_gaussian(mu, logvar)[0], [mu, logvar])
        for got, expected in zip(grads, numeric):
            assert_near(got, expected)

    @pytest.mark.parametrize("modalities", ["both", "methylation", "expression"])
    def test_vae_loss(self, modalities):
        rng = RngState(52)
        blocks = [self.reconstruction(rng, 4, d) for d in (3, 5)]
        targets, logits = [t for t, _ in blocks], [z for _, z in blocks]
        expr_t, expr_z = self.reconstruction(rng, 4, 6)
        if modalities == "expression":
            targets = logits = None
        if modalities == "methylation":
            expr_t = expr_z = None
        mu, logvar = rng.standard_normal(4, 2), rng.standard_normal(4, 2)

        def value():
            terms, _ = vae_loss(targets, logits, expr_t, expr_z, mu, logvar)
            return 1.7 * sum(terms)

        _, (d_blocks, d_expr, d_mu, d_logvar) = vae_loss(
            targets, logits, expr_t, expr_z, mu, logvar, 1.7
        )
        inputs = [*(logits or []), *([] if expr_z is None else [expr_z]), mu, logvar]
        got = [*(d_blocks or []), *([] if d_expr is None else [d_expr]), d_mu, d_logvar]
        assert (d_blocks is None) == (logits is None) and (d_expr is None) == (expr_z is None)
        for g, expected in zip(got, central_differences(value, inputs), strict=True):
            assert_near(g, expected)

    def test_classification_loss(self):
        rng = RngState(53)
        logits = rng.standard_normal(5, 4)
        labels = np.array([0, 1, 2, 3, 1])
        logits[0] = [-800.0, 0.0, 0.0, 0.0]  # the true class trails by 800
        _, grad = classification_loss(labels, logits, 0.4)
        (numeric,) = central_differences(
            lambda: 0.4 * classification_loss(labels, logits)[0], [logits]
        )
        assert_near(grad, numeric)
        assert abs(grad[0, 0] + 0.4 / 5) <= 1e-15  # softmax e^-800 - 1, over the batch
