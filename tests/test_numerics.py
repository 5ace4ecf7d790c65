import numpy as np
import pytest

from dualora import numerics as nm
from dualora.errors import InvalidInputError, InvalidRankError, ShapeError


class TestSampleOrthogonalRows:
    def test_unit_row(self):
        row = nm.sample_orthogonal_rows(1, 4, nm.make_rng(0))
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-9

    def test_square_orthogonal_det(self):
        b = nm.sample_orthogonal_rows(2, 2, nm.make_rng(5))
        assert abs(abs(np.linalg.det(b)) - 1.0) <= 1e-6

    def test_gram_matrix_oracle(self):
        # oracle: explicit Gram product compared entrywise to the identity
        b = nm.sample_orthogonal_rows(10, 64, nm.make_rng(7))
        gram = b @ b.T
        assert np.abs(gram - np.eye(10)).max() <= 1e-6

    @pytest.mark.parametrize("r,k", [(1, 8), (5, 32), (10, 64)])
    def test_orthonormality_many_seeds(self, r, k):
        for seed in range(100):
            b = nm.sample_orthogonal_rows(r, k, nm.make_rng(seed))
            assert np.abs(b @ b.T - np.eye(r)).max() <= 1e-6

    def test_rank_too_large(self):
        with pytest.raises(InvalidRankError):
            nm.sample_orthogonal_rows(5, 4, nm.make_rng(0))

    def test_same_seed_identical(self):
        a = nm.sample_orthogonal_rows(3, 9, nm.make_rng(11))
        b = nm.sample_orthogonal_rows(3, 9, nm.make_rng(11))
        assert np.array_equal(a, b)


class TestSoftmaxTemperature:
    def test_uniform_on_equal_logits(self):
        for tau in (0.5, 1.0, 2.0):
            out = nm.softmax_temperature([[3.0, 3.0, 3.0]], tau)
            assert np.allclose(out, 1.0 / 3.0, atol=1e-12)

    def test_analytic_sigmoid_value(self):
        out = nm.softmax_temperature([[2.0, 0.0]], 2.0)
        assert np.allclose(out, [[0.7311, 0.2689]], atol=1e-4)

    def test_no_overflow_on_huge_logits(self):
        out = nm.softmax_temperature([[1000.0, 0.0]], 1.0)
        assert np.isfinite(out).all()
        assert np.allclose(out, [[1.0, 0.0]])

    def test_sums_to_one(self):
        rng = nm.make_rng(3)
        for _ in range(50):
            out = nm.softmax_temperature(rng.normal(size=(2, 7)) * 10, rng.uniform(0.1, 5))
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
            assert (out > 0).all()

    def test_shift_invariance(self):
        z = np.array([[0.3, -1.2, 2.0]])
        a = nm.softmax_temperature(z, 1.5)
        b = nm.softmax_temperature(z + 11.0, 1.5)
        assert np.allclose(a, b, atol=1e-12)

    def test_monotone_in_logits(self):
        base = nm.softmax_temperature([[1.0, 0.0, -1.0]], 1.0)
        bumped = nm.softmax_temperature([[1.5, 0.0, -1.0]], 1.0)
        assert bumped[0, 0] > base[0, 0]

    def test_bad_temperature(self):
        with pytest.raises(InvalidInputError):
            nm.softmax_temperature([[1.0, 2.0]], 0.0)

    def test_rows_of_a_batch_match_single_vectors(self):
        z = nm.make_rng(4).normal(size=(5, 3)) * 4
        batch = nm.softmax_temperature(z, 2.0)
        for i in range(len(z)):
            assert np.array_equal(batch[i : i + 1], nm.softmax_temperature(z[i : i + 1], 2.0))

    def test_three_dimensional_logits_rejected(self):
        with pytest.raises(ShapeError):
            nm.softmax_temperature(np.zeros((2, 2, 2)), 1.0)

    def test_one_dimensional_logits_rejected(self):
        with pytest.raises(ShapeError, match="2-D"):
            nm.softmax_temperature([1.0, 2.0], 1.0)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(InvalidInputError):
            nm.softmax_temperature([[1.0, np.inf]], 1.0)


class TestRowL2Norms:
    def test_zero_matrix(self):
        assert np.array_equal(nm.row_l2_norms(np.zeros((3, 4))), np.zeros(3))

    def test_345_triangle(self):
        out = nm.row_l2_norms([[3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(out, [5.0, 0.0])

    def test_identity(self):
        assert np.array_equal(nm.row_l2_norms(np.eye(6)), np.ones(6))


class TestDimensionPreservingNormalize:
    def test_uniform_fixed_point(self):
        out = nm.dimension_preserving_normalize([1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(out, np.ones(4))

    def test_two_entry_case(self):
        out = nm.dimension_preserving_normalize([3.0, 1.0])
        assert np.allclose(out, [1.5, 0.5], atol=1e-12)

    def test_degenerate_all_zero(self):
        out = nm.dimension_preserving_normalize([0.0, 0.0, 0.0])
        assert np.array_equal(out, np.ones(3))

    def test_mean_is_one(self):
        rng = nm.make_rng(9)
        for _ in range(50):
            w = rng.uniform(0.1, 5.0, size=rng.integers(2, 12))
            out = nm.dimension_preserving_normalize(w)
            assert abs(out.mean() - 1.0) <= 1e-9

    def test_scale_invariance(self):
        rng = nm.make_rng(13)
        w = rng.uniform(0.0, 3.0, size=8)
        a = nm.dimension_preserving_normalize(w)
        b = nm.dimension_preserving_normalize(17.5 * w)
        assert np.allclose(a, b, atol=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidInputError):
            nm.dimension_preserving_normalize([1.0, -0.1])


def test_rng_determinism():
    a = nm.make_rng(123).standard_normal(16)
    b = nm.make_rng(123).standard_normal(16)
    assert np.array_equal(a, b)
