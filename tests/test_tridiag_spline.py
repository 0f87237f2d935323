import numpy as np
import pytest
import scipy.linalg

from tarnpricer import fd, natural_cubic_spline
from tarnpricer.fd import ZeroPivotError, tridiagonal_solve


def dense_solve(lower, diag, upper, rhs):
    """Dense Gaussian-elimination oracle for the banded solver."""
    n = len(diag)
    full = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    return np.linalg.solve(full, rhs)


class TestTridiagonalSolve:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.5, 7.0])
        got = tridiagonal_solve(np.zeros(4), np.ones(4), np.zeros(4), rhs)
        assert np.array_equal(got, rhs)

    def test_three_by_three_against_dense(self):
        lower = np.array([0.0, 1.0, 2.0])
        diag = np.array([4.0, 5.0, 6.0])
        upper = np.array([1.5, -2.0, 0.0])
        rhs = np.array([1.0, 2.0, 3.0])
        got = tridiagonal_solve(lower, diag, upper, rhs)
        want = dense_solve(lower, diag, upper, rhs)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_random_diagonally_dominant_against_dense(self):
        rng = np.random.default_rng(42)
        n = 100
        lower = rng.uniform(-1, 1, n)
        upper = rng.uniform(-1, 1, n)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-5, 5, n)
        got = tridiagonal_solve(lower, diag, upper, rhs)
        want = dense_solve(lower, diag, upper, rhs)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(1)
        n, k = 30, 7
        lower = rng.uniform(-1, 1, n)
        upper = rng.uniform(-1, 1, n)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-5, 5, (n, k))
        got = tridiagonal_solve(lower, diag, upper, rhs)
        for j in range(k):
            want = dense_solve(lower, diag, upper, rhs[:, j])
            assert np.max(np.abs(got[:, j] - want)) < 1e-12

    def test_zero_pivot_identifies_row(self):
        lower = np.array([0.0, 0.0, 0.0])
        diag = np.array([1.0, 0.0, 1.0])
        upper = np.array([0.0, 0.0, 0.0])
        with pytest.raises(ZeroPivotError, match="row 1"):
            tridiagonal_solve(lower, diag, upper, np.ones(3))

    def test_pivoted_zero_pivot_names_its_row(self):
        # rows 0 and 2 are equal; row 0 is swapped below row 1, and
        # eliminating with it leaves row 2 without a pivot
        lower = np.array([0.0, 1.0, 1.0])
        diag = np.zeros(3)
        upper = np.array([1.0, 1.0, 0.0])
        with pytest.raises(ZeroPivotError, match="row 2"):
            tridiagonal_solve(lower, diag, upper, np.ones(3))


def diagonally_dominant_bands(rng, n):
    """``ab`` of a random diagonally dominant system, ``ab[1 + i - j, j] = a[i, j]``."""
    ab = rng.uniform(-1.0, 1.0, (3, n))
    ab[1] += 3.0
    ab[0, 0] = ab[2, -1] = 0.0
    return ab


class TestSolveBands:
    # every FD solve goes through fd._solve_bands, one direct LAPACK gtsv
    # call; scipy's solve_banded((1, 1), ...) ends in the same call

    @pytest.mark.parametrize("shape, order", [((60,), "C"), ((60, 7), "C"),
                                              ((60, 7), "F")],
                             ids=["vector", "matrix_C", "matrix_F"])
    def test_matches_solve_banded_bit_for_bit(self, shape, order):
        rng = np.random.default_rng(7)
        ab = diagonally_dominant_bands(rng, shape[0])
        rhs = np.asarray(rng.uniform(-5.0, 5.0, shape), order=order)
        given = rhs.copy()
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
        got = fd._solve_bands(ab.copy(), rhs)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(rhs, given)  # solved in a copy
        lower = np.r_[0.0, ab[2, :-1]]
        upper = np.r_[ab[0, 1:], 0.0]
        assert np.array_equal(tridiagonal_solve(lower, ab[1], upper, rhs), want)

    def test_overwrite_solves_a_fortran_rhs_in_place(self):
        rng = np.random.default_rng(8)
        ab = diagonally_dominant_bands(rng, 40)
        rhs = np.asfortranarray(rng.uniform(-5.0, 5.0, (40, 3)))
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
        got = fd._solve_bands(ab.copy(), rhs, overwrite_rhs=True)
        assert np.shares_memory(got, rhs) and np.array_equal(got, want)


class TestNaturalCubicSpline:
    def test_reproduces_node_values(self):
        nodes = np.linspace(0.0, 2.0, 11)
        vals = np.sin(nodes) + nodes ** 2
        got = natural_cubic_spline(nodes, vals, nodes)
        assert np.max(np.abs(got - vals)) < 1e-14

    def test_exact_on_linear_data(self):
        nodes = np.linspace(0.0, 1.0, 9)
        vals = 2.0 * nodes + 1.0
        q = np.linspace(0.0, 1.0, 357)
        got = natural_cubic_spline(nodes, vals, q)
        assert np.max(np.abs(got - (2.0 * q + 1.0))) < 1e-13

    def test_fourth_order_interior_convergence(self):
        # doubling the node count should shrink the interior error ~16x;
        # the window stays away from the ends, where the natural end
        # condition costs two orders whenever f'' does not vanish there
        def interior_error(j_nodes):
            nodes = np.linspace(0.0, 1.0, j_nodes)
            q = np.linspace(0.25, 0.75, 2001)
            got = natural_cubic_spline(nodes, np.sin(3.0 * nodes), q)
            return np.max(np.abs(got - np.sin(3.0 * q)))

        ratio = interior_error(21) / interior_error(41)
        assert 10.0 < ratio < 24.0

    def test_query_outside_range_rejected(self):
        nodes = np.linspace(0.0, 1.0, 5)
        vals = np.ones(5)
        with pytest.raises(ValueError, match="outside"):
            natural_cubic_spline(nodes, vals, np.array([1.2]))
        with pytest.raises(ValueError, match="outside"):
            natural_cubic_spline(nodes, vals, np.array([-0.1]))

    @pytest.mark.parametrize("queries", [np.nan, [0.5, np.nan]],
                             ids=["scalar", "array"])
    def test_nan_query_rejected_by_name(self, queries):
        nodes = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="queries must not be NaN"):
            natural_cubic_spline(nodes, np.ones(5), queries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_by_name(self, bad):
        nodes = np.linspace(0.0, 1.0, 5)
        vals = np.ones(5)
        vals[2] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            natural_cubic_spline(nodes, vals, np.array([0.5]))

    @pytest.mark.parametrize("nodes, values, message", [
        ([0.0, 1.0], [1.0, 2.0], "spline nodes must be three or more"),
        ([0.0, 1.0, 2.0], [1.0, 2.0], "values must match nodes in shape"),
    ], ids=["two_nodes", "values_shape"])
    def test_too_few_nodes_or_mismatched_values_rejected_by_name(self, nodes, values,
                                                                 message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            natural_cubic_spline(nodes, values, 0.5)

    def test_non_uniform_nodes_rejected(self):
        nodes = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(ValueError, match="uniform"):
            natural_cubic_spline(nodes, np.ones(4), np.array([0.2]))

    def test_matches_scipy_natural_spline(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(7)
        nodes = np.linspace(0.0, 0.3, 40)
        vals = rng.standard_normal(40).cumsum()
        q = rng.uniform(0.0, 0.3, 500)
        got = natural_cubic_spline(nodes, vals, q)
        want = CubicSpline(nodes, vals, bc_type="natural")(q)
        assert np.max(np.abs(got - want)) < 1e-11 * max(1.0, np.max(np.abs(vals)))

    def test_scalar_query_shape(self):
        nodes = np.linspace(0.0, 1.0, 6)
        out = natural_cubic_spline(nodes, nodes ** 2, 0.5)
        assert np.ndim(out) == 0
