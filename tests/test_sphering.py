import numpy as np
import pytest

from convsep.errors import ParameterError
from convsep.sphering import (
    DEFAULT_EIGENVALUE_FLOOR,
    SpheringTransform,
    apply_sphering,
    compute_sphering,
    estimate_spatial_covariance,
)


def eigen_2x2(cov):
    """Closed-form eigendecomposition oracle for symmetric 2x2 matrices."""
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    tr, det = a + c, a * c - b * b
    disc = np.sqrt(max(tr * tr / 4 - det, 0.0))
    lam = np.array([tr / 2 - disc, tr / 2 + disc])
    vecs = []
    for l in lam:
        v = np.array([b, l - a]) if abs(b) > 1e-15 else (np.array([1.0, 0.0]) if abs(l - a) < abs(l - c) else np.array([0.0, 1.0]))
        vecs.append(v / np.linalg.norm(v))
    return lam, np.stack(vecs, axis=1)


@pytest.mark.parametrize(
    "matrix, eigenvalues, match",
    [
        (np.ones((2, 3)), np.ones(2), "square"),
        (np.eye(2), np.ones(3), "one eigenvalue per channel"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2), "symmetric"),
        (np.eye(2), np.array([1.0, -1e-3]), "non-negative"),
    ],
)
def test_transform_rejects_malformed_fields(matrix, eigenvalues, match):
    # evaluate rebuilds the transform from run_report.json, so these guard file input
    with pytest.raises(ParameterError, match=match):
        SpheringTransform(matrix, eigenvalues)


class TestCovariance:
    def test_zero_signal(self, make_ts):
        cov = estimate_spatial_covariance(make_ts(np.zeros((3, 10))))
        assert np.all(cov == 0.0)

    def test_proportional_channels(self, make_ts):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        ts = make_ts(np.stack([x, 2.0 * x]))
        cov = estimate_spatial_covariance(ts)
        sigma2 = np.mean(x**2)
        want = np.array([[sigma2, 2 * sigma2], [2 * sigma2, 4 * sigma2]])
        np.testing.assert_allclose(cov, want, rtol=1e-12)

    def test_independent_channels_statistics(self, make_ts):
        # statistical oracle, fixed seed
        rng = np.random.default_rng(42)
        n = 20000
        ts = make_ts(rng.standard_normal((3, n)))
        cov = estimate_spatial_covariance(ts)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 5.0 / np.sqrt(n))
        assert np.all(np.abs(np.diag(cov) - 1.0) < 0.1)

    def test_requires_enough_samples(self, make_ts):
        with pytest.raises(ParameterError):
            estimate_spatial_covariance(make_ts(np.zeros((3, 2))))


class TestComputeSphering:
    def test_diagonal_case(self):
        t = compute_sphering(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(t.matrix, np.diag([0.5, 1.0]), atol=1e-12)

    def test_identity_case(self):
        t = compute_sphering(np.eye(3))
        np.testing.assert_allclose(t.matrix, np.eye(3), atol=1e-12)

    def test_whitens_full_rank(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        t = compute_sphering(cov)
        np.testing.assert_allclose(t.matrix @ cov @ t.matrix.T, np.eye(4), atol=1e-8)

    def test_rank_deficient_floored(self):
        # oracle: closed-form 2x2 eigendecomposition
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        lam, vecs = eigen_2x2(cov)
        assert lam[0] == pytest.approx(0.0, abs=1e-12) and lam[1] == pytest.approx(2.0)
        t = compute_sphering(cov)
        assert np.all(np.isfinite(t.matrix))
        assert t.eigenvalues.min() == pytest.approx(DEFAULT_EIGENVALUE_FLOOR * 2.0)
        # the retained direction is whitened to unit power
        out = t.matrix @ cov @ t.matrix.T
        top = vecs[:, 1]
        np.testing.assert_allclose(top @ out @ top, 1.0, atol=1e-8)

    def test_eigenvalue_product_matches_det(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.1 * np.eye(3)
        t = compute_sphering(cov)
        np.testing.assert_allclose(np.prod(t.eigenvalues), np.linalg.det(cov), rtol=1e-6)

    def test_zero_covariance_gives_identity(self):
        t = compute_sphering(np.zeros((3, 3)))
        np.testing.assert_array_equal(t.matrix, np.eye(3))
        np.testing.assert_array_equal(t.eigenvalues, np.zeros(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            compute_sphering(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_matrix_is_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        t = compute_sphering(a @ a.T + np.eye(5))
        assert np.max(np.abs(t.matrix - t.matrix.T)) <= 1e-12 * np.max(np.abs(t.matrix))


class TestApplySphering:
    def test_identity_transform(self, make_ts):
        ts = make_ts(np.random.default_rng(4).standard_normal((2, 30)))
        out = apply_sphering(SpheringTransform.identity(2), ts)
        np.testing.assert_array_equal(out.data, ts.data)

    def test_extreme_imbalance_whitened(self, make_ts):
        # covariance oracle on the 1000x cardiac-interference imbalance
        rng = np.random.default_rng(5)
        base = rng.standard_normal((3, 50000))
        base[0] *= 1000.0
        mixing = np.array([[1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.2, 0.1, 1.0]])
        ts = make_ts(mixing @ base)
        t = compute_sphering(estimate_spatial_covariance(ts))
        out = apply_sphering(t, ts)
        cov_out = estimate_spatial_covariance(out)
        np.testing.assert_allclose(cov_out, np.eye(3), atol=1e-8)
        assert np.all(np.abs(np.diag(cov_out) - 1.0) < 0.01)

    def test_zero_signal(self, make_ts):
        ts = make_ts(np.zeros((2, 10)))
        t = SpheringTransform(np.eye(2) * 2.0, np.ones(2))
        assert np.all(apply_sphering(t, ts).data == 0.0)

    def test_dimension_mismatch(self, make_ts):
        with pytest.raises(ParameterError):
            apply_sphering(SpheringTransform.identity(3), make_ts(np.zeros((2, 10))))

    def test_scale_equivariance(self, make_ts):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((3, 40000))
        for scale in (1.0, 250.0):
            scaled = data.copy()
            scaled[1] *= scale
            ts = make_ts(scaled)
            t = compute_sphering(estimate_spatial_covariance(ts))
            cov_out = estimate_spatial_covariance(apply_sphering(t, ts))
            np.testing.assert_allclose(cov_out, np.eye(3), atol=1e-8)
