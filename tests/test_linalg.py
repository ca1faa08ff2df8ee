import copy
import dataclasses
import gc
import pickle
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shamanskii import linalg
from shamanskii.cli import main
from shamanskii.linalg import (
    EPS,
    LAPACK_MIN_N,
    NUMPY_LAPACK_MIN_N,
    DimensionMismatch,
    LUFactors,
    NonFiniteInput,
    SingularMatrix,
    lu_factor,
    lu_solve,
    norm2,
)
from shamanskii.problems import registry_get
from shamanskii.solver import solve

# numpy's LAPACK takes the first three sizes, scipy's the rest
LAPACK_SIZES = (NUMPY_LAPACK_MIN_N, 8, LAPACK_MIN_N - 1, LAPACK_MIN_N, 64, 101, 301)


def inf_norm(a):
    return float(np.abs(np.atleast_2d(a)).sum(axis=1).max())


def reference_factor(matrix):
    """The numpy-vectorised elimination the Python-float loop replaced."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    threshold = n * EPS * float(np.abs(a).sum(axis=1).max())
    piv = np.empty(n, dtype=np.int32)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = abs(a[p, k])
        if pivot < threshold or pivot == 0.0:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below threshold {threshold:.3e} at column {k}"
            )
        piv[k] = p
        if p != k:
            a[[k, p]] = a[[p, k]]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a, piv


def reference_solve(lu, piv, b):
    x = np.array(b, dtype=np.float64)
    n = x.shape[0]
    for i in range(n):
        p = piv[i]
        if p != i:
            x[i], x[p] = x[p], x[i]
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def scaled_uniform(rng, shape):
    """Entries of either sign whose magnitudes span 1e-8 to 1e8."""
    return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


class TestLuFactor:
    def test_identity(self):
        factors = lu_factor(np.eye(3))
        assert np.array_equal(factors.lower, np.eye(3))
        assert np.array_equal(factors.upper, np.eye(3))
        assert np.array_equal(factors.perm, [0, 1, 2])

    def test_antidiagonal_swaps_rows(self):
        factors = lu_factor([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(factors.perm, [1, 0])
        assert np.array_equal(factors.lower, np.eye(2))
        assert np.array_equal(factors.upper, np.eye(2))

    def test_reconstructs_2x2(self):
        # multiply the factors back together and compare entrywise
        a = np.array([[2.0, 2.0], [2.0, -2.0]])
        factors = lu_factor(a)
        residual = np.abs(a[factors.perm] - factors.lower @ factors.upper)
        assert residual.max() < 1e-14

    def test_random_reconstruction(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            n = int(rng.integers(2, 41))
            a = rng.uniform(-1.0, 1.0, (n, n))
            factors = lu_factor(a)
            err = inf_norm(a[factors.perm] - factors.lower @ factors.upper)
            assert err / inf_norm(a) <= 1e-13

    def test_partial_pivoting_bounds_multipliers(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0, (12, 12))
            factors = lu_factor(a)
            assert np.abs(factors.lower).max() <= 1.0
            assert np.array_equal(factors.lower.diagonal(), np.ones(12))
            assert np.abs(factors.upper.diagonal()).min() > 0.0
            assert sorted(factors.perm) == list(range(12))

    def test_zero_row_raises(self):
        a = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 5.0, 6.0]])
        with pytest.raises(SingularMatrix):
            lu_factor(a)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor([[1.0, 2.0], [2.0, 4.0]])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(NonFiniteInput):
            lu_factor(a)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            lu_factor(np.ones((2, 3)))

    def test_input_unmodified(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        before = a.copy()
        lu_factor(a)
        assert np.array_equal(a, before)


class TestLuSolve:
    def test_identity(self):
        x = lu_solve(lu_factor(np.eye(3)), [1.0, 2.0, 3.0])
        assert np.array_equal(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = lu_solve(lu_factor([[2.0, 0.0], [0.0, 4.0]]), [2.0, 8.0])
        assert np.array_equal(x, [1.0, 2.0])

    def test_hand_solved_2x2(self):
        # 2x + 2y = 1, 2x - 2y = 1  =>  x = 0.5, y = 0
        a = np.array([[2.0, 2.0], [2.0, -2.0]])
        b = np.array([1.0, 1.0])
        x = lu_solve(lu_factor(a), b)
        assert np.allclose(x, [0.5, 0.0], atol=1e-15)
        assert np.abs(a @ x - b).max() < 1e-15

    def test_random_residuals(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            n = int(rng.integers(2, 41))
            a = rng.uniform(-1.0, 1.0, (n, n))
            b = rng.uniform(-1.0, 1.0, n)
            x = lu_solve(lu_factor(a), b)
            rel = np.abs(a @ x - b).max() / (inf_norm(a) * np.abs(x).max())
            assert rel <= 1e-12

    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, (15, 15))
        b = rng.uniform(-1.0, 1.0, 15)
        assert np.allclose(lu_solve(lu_factor(a), b), np.linalg.solve(a, b), rtol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 1.0, (8, 8))
        factors = lu_factor(a)
        b1 = rng.uniform(-1.0, 1.0, 8)
        b2 = rng.uniform(-1.0, 1.0, 8)
        alpha, beta = 0.7, -1.3
        combined = lu_solve(factors, alpha * b1 + beta * b2)
        split = alpha * lu_solve(factors, b1) + beta * lu_solve(factors, b2)
        assert np.abs(combined - split).max() / np.abs(combined).max() <= 1e-12

    def test_dimension_mismatch(self):
        factors = lu_factor(np.eye(3))
        with pytest.raises(DimensionMismatch):
            lu_solve(factors, [1.0, 2.0])

    @pytest.mark.parametrize(
        "b", [np.ones((3, 1)), np.ones((1, 3)), [], 1.0], ids=["column", "row", "empty", "scalar"]
    )
    def test_rejects_a_non_vector(self, b):
        factors = lu_factor(np.eye(3))
        with pytest.raises(DimensionMismatch, match="expected a nonempty 1-D vector"):
            lu_solve(factors, b)


@pytest.mark.parametrize("n", LAPACK_SIZES)
class TestLapackPath:
    """Sizes routed to LAPACK keep every contract of the elimination loop."""

    def test_reconstruction_and_solve(self, n):
        # the criterion-5 bounds
        rng = np.random.default_rng(n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        factors = lu_factor(a)
        err = inf_norm(a[factors.perm] - factors.lower @ factors.upper)
        assert err / inf_norm(a) <= 1e-13
        x = lu_solve(factors, b)
        assert np.abs(a @ x - b).max() / (inf_norm(a) * np.abs(x).max()) <= 1e-12
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10)

    def test_factor_structure(self, n):
        factors = lu_factor(np.random.default_rng(n).uniform(-1.0, 1.0, (n, n)))
        assert factors.n == n
        assert np.abs(factors.lower).max() <= 1.0
        assert np.array_equal(factors.lower.diagonal(), np.ones(n))
        assert np.array_equal(factors.upper, np.triu(factors.upper))
        assert sorted(factors.perm) == list(range(n))
        for arr in (factors.lu, factors.piv):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_unmodified(self, n, order):
        rng = np.random.default_rng(n)
        a = np.asarray(rng.uniform(-1.0, 1.0, (n, n)), order=order)
        b = rng.uniform(-1.0, 1.0, n)
        a_before, b_before = a.copy(), b.copy()
        factors = lu_factor(a)
        piv_before = factors.piv.copy()
        lu_solve(factors, b)
        assert np.array_equal(a, a_before)
        assert np.array_equal(b, b_before)
        assert np.array_equal(factors.piv, piv_before)

    @pytest.mark.parametrize(
        "name,column",
        [("zero", 0), ("ones", 1), ("zero_column", None), ("duplicate_row", None)],
    )
    def test_singular_raises(self, n, name, column):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        if name == "zero":
            a[:] = 0.0
        elif name == "ones":
            a[:] = 1.0
        elif name == "zero_column":
            column = n // 2
            a[:, column] = 0.0
        else:
            a[-1] = a[0]
        message = r"^pivot \S+ below threshold \S+ at column \d+$"
        with pytest.raises(SingularMatrix, match=message) as info:
            lu_factor(a)
        if column is not None:
            assert str(info.value).endswith(f"at column {column}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, n, bad):
        a = np.eye(n)
        a[n // 2, n - 1] = bad
        with pytest.raises(NonFiniteInput):
            lu_factor(a)

    def test_threads_share_factors(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        factors = lu_factor(a)
        expected = lu_solve(factors, b)
        mismatches = []

        def work():
            for _ in range(500):
                if not np.array_equal(lu_solve(factors, b), expected):
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


class TestDispatch:
    """Which kernel factors which size."""

    def test_small_systems_stay_on_the_loop(self, monkeypatch):
        # LAPACK rounds differently, which would change runs of a, b, c and e
        def refuse():
            raise AssertionError("numpy's LAPACK requested for n < NUMPY_LAPACK_MIN_N")

        monkeypatch.setattr(linalg, "_numpy_lapack", refuse)
        for name in "abce":
            assert solve(registry_get(name)).converged

    @pytest.mark.parametrize("n", [NUMPY_LAPACK_MIN_N, LAPACK_MIN_N - 1])
    def test_middle_band_asks_numpy_lapack(self, monkeypatch, n):
        calls = []
        loader = linalg._numpy_lapack
        monkeypatch.setattr(linalg, "_numpy_lapack", lambda: calls.append(n) or loader())
        lu_solve(lu_factor(np.eye(n)), np.ones(n))
        assert calls == [n, n]

    def test_numpy_lapack_found_where_numpy_bundles_openblas(self):
        # without it n = 31 would fall back to the loop, 20-30x slower, with
        # every output unchanged
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        ilp64 = "USE64BITINT" in lapack.get("openblas configuration", "")
        if lapack.get("name") != "scipy-openblas" or not ilp64 or sys.platform == "win32":
            pytest.skip("numpy does not bundle an ILP64 scipy-openblas here")
        assert linalg._numpy_lapack() is not None

    def test_loop_when_numpy_has_no_lapack(self, monkeypatch, capsys):
        def suite_outputs():
            outputs = []
            for fmt in ("table", "csv", "json"):
                assert main(["suite", "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
            return outputs

        expected = suite_outputs()
        monkeypatch.setattr(linalg, "_numpy_lapack", lambda: None)
        assert suite_outputs() == expected
        # n = 31 on the loop still meets the criterion-5 bounds
        n = LAPACK_MIN_N - 1
        rng = np.random.default_rng(n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        factors = lu_factor(a)
        assert factors.lu.flags.c_contiguous  # the loop keeps the input's layout
        err = inf_norm(a[factors.perm] - factors.lower @ factors.upper)
        assert err / inf_norm(a) <= 1e-13
        x = lu_solve(factors, b)
        assert np.abs(a @ x - b).max() / (inf_norm(a) * np.abs(x).max()) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
class TestSmallSystemBits:
    """n <= 3 runs on Python floats, with the vectorised loop's roundings."""

    @pytest.mark.parametrize("kind", ["scaled", "ties"])
    def test_factors_match_reference(self, n, kind):
        # small integers tie often, which pins the choice among equal pivots
        rng = np.random.default_rng(100 + n)
        for _ in range(2000):
            if kind == "scaled":
                a = scaled_uniform(rng, (n, n))
            else:
                a = rng.integers(-2, 3, (n, n)).astype(np.float64)
            try:
                lu, piv = reference_factor(a)
            except SingularMatrix as exc:
                with pytest.raises(SingularMatrix, match=f"^{re.escape(str(exc))}$"):
                    lu_factor(a)
                continue
            factors = lu_factor(a)
            assert factors.lu.tobytes() == lu.tobytes()
            assert factors.lu.flags.c_contiguous
            assert factors.piv.dtype == np.int32
            assert np.array_equal(factors.piv, piv)

    def test_solves_match_reference(self, n):
        # A length-2 dot product in the vectorised substitution goes to BLAS,
        # which may fuse it into one FMA; Python floats round each product,
        # so n = 3 may differ in the last bit and only n = 2 is pinned.
        rng = np.random.default_rng(200 + n)
        for _ in range(2000):
            a = scaled_uniform(rng, (n, n))
            b = scaled_uniform(rng, n)
            try:
                lu, piv = reference_factor(a)
            except SingularMatrix:
                continue
            x = lu_solve(lu_factor(a), b)
            expected = reference_solve(lu, piv, b)
            if n == 2:
                assert x.tobytes() == expected.tobytes()
            assert np.abs(a @ x - b).max() <= 1e-12 * inf_norm(a) * np.abs(x).max()


@st.composite
def small_systems(draw):
    """``(a, b)`` with n in {2, 3}; ``a`` is random, or near-singular: its last
    row is a combination of the others plus 10**-k times itself, k in 0..20."""
    n = draw(st.sampled_from([2, 3]))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)

    def vector(size):
        return np.array(draw(st.lists(entries, min_size=size, max_size=size)))

    a = vector(n * n).reshape(n, n) * 10.0 ** draw(st.integers(-8, 8))
    if draw(st.booleans()):
        a[-1] = vector(n - 1) @ a[:-1] + 10.0 ** -draw(st.integers(0, 20)) * a[-1]
    return a, vector(n)


class TestSmallSystemProperties:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_factor_meets_bounds_or_raises(self, system):
        # the criterion-5 bounds, or SingularMatrix; never a NaN
        a, b = system
        try:
            factors = lu_factor(a)
        except SingularMatrix:
            return
        assert np.isfinite(factors.lu).all()
        err = inf_norm(a[factors.perm] - factors.lower @ factors.upper)
        assert err <= 1e-13 * inf_norm(a)
        x = lu_solve(factors, b)
        assert np.isfinite(x).all()
        assert np.abs(a @ x - b).max() <= 1e-12 * inf_norm(a) * np.abs(x).max()


@pytest.mark.parametrize("n", [2, NUMPY_LAPACK_MIN_N, LAPACK_MIN_N - 1, LAPACK_MIN_N])
class TestSavedPivots:
    """lu_factor keeps LAPACK's 1-based pivots for the solves, out of sight."""

    @staticmethod
    def system(n):
        rng = np.random.default_rng(n)
        return rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, n)

    def test_equality_and_repr_ignore_them(self, n):
        factors = lu_factor(self.system(n)[0])
        assert factors == LUFactors(factors.lu, factors.piv, factors.n)
        assert "_ipiv" not in repr(factors)

    def test_read_only_and_one_based(self, n):
        ipiv = lu_factor(self.system(n)[0])._ipiv
        if n < NUMPY_LAPACK_MIN_N:
            assert ipiv is None
            return
        assert not ipiv.flags.writeable
        assert np.array_equal(ipiv, lu_factor(self.system(n)[0]).piv + 1)

    @pytest.mark.parametrize("layout", ["kept", "C"])
    def test_hand_built_factors_solve(self, n, layout):
        a, b = self.system(n)
        factors = lu_factor(a)
        lu = np.ascontiguousarray(factors.lu) if layout == "C" else factors.lu
        x = lu_solve(LUFactors(lu, factors.piv, n), b)
        assert x.tobytes() == lu_solve(factors, b).tobytes()

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_copies_solve_after_the_original_is_gone(self, n, copier):
        a, b = self.system(n)
        factors = lu_factor(a)
        expected = lu_solve(factors, b)
        duplicate = copier(factors)
        del factors
        gc.collect()
        # reuse the freed memory, so a dangling reference would read garbage
        _ = [np.full((n, n), np.nan) for _ in range(8)]
        assert lu_solve(duplicate, b).tobytes() == expected.tobytes()

    def test_hand_built_c_order_and_int32_pivots_solve(self, n):
        # solves normalise hand-built factors, which LAPACK reads as raw memory
        a, b = self.system(n)
        factors = lu_factor(a)
        lu = np.ascontiguousarray(factors.lu)
        hand_built = LUFactors(lu, factors.piv.astype(np.int32), n)
        assert lu_solve(hand_built, b).tobytes() == lu_solve(factors, b).tobytes()

    def test_replace_leaves_them_behind(self, n):
        a, b = self.system(n)
        factors = lu_factor(a)
        replaced = dataclasses.replace(lu_factor(np.eye(n)), lu=factors.lu, piv=factors.piv)
        assert replaced._ipiv is None and replaced._lists is None
        assert lu_solve(replaced, b).tobytes() == lu_solve(factors, b).tobytes()

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_loop_lists_survive_copies(self, n, copier):
        # the loop keeps its rows and pivots as Python lists; LAPACK sizes do not
        if n >= NUMPY_LAPACK_MIN_N:
            assert lu_factor(self.system(n)[0])._lists is None
        for size in range(n, NUMPY_LAPACK_MIN_N):
            a, b = self.system(size)
            factors = lu_factor(a)
            assert factors._lists == (factors.lu.tolist(), factors.piv.tolist())
            assert "_lists" not in repr(factors)
            expected = lu_solve(factors, b)
            duplicate = copier(factors)
            assert duplicate._lists == factors._lists
            assert duplicate._lists[0] is not factors._lists[0]
            del factors
            gc.collect()
            assert lu_solve(duplicate, b).tobytes() == expected.tobytes()
            hand_built = LUFactors(duplicate.lu, duplicate.piv, size)
            assert lu_solve(hand_built, b).tobytes() == expected.tobytes()


class TestCheapChecks:
    """The checks made without copies give the outcomes the copying ones did."""

    def test_overflowing_row_sum_is_singular_not_non_finite(self):
        # finite entries whose row sum overflows: the threshold is inf
        with pytest.raises(SingularMatrix, match="below threshold inf at column 0"):
            lu_factor([[1e308, 1e308], [1e308, -1e308]])

    @pytest.mark.parametrize("n", [2, 3, NUMPY_LAPACK_MIN_N, LAPACK_MIN_N])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anywhere_raises(self, n, bad):
        for i, j in np.ndindex(n, n):
            a = np.eye(n)
            a[i, j] = bad
            with pytest.raises(NonFiniteInput):
                lu_factor(a)

    def test_non_finite_after_an_overflowing_row(self):
        with pytest.raises(NonFiniteInput):
            lu_factor([[1e308, 1e308], [1.0, np.nan]])

    @pytest.mark.parametrize("n", [NUMPY_LAPACK_MIN_N, LAPACK_MIN_N - 1, LAPACK_MIN_N])
    @pytest.mark.parametrize("row", [0, -1])
    def test_lapack_overflowing_row_sum_is_singular(self, n, row):
        # finite entries, so only the row sum says the threshold is inf
        a = np.eye(n)
        a[row] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="below threshold inf at column 0$"):
                lu_factor(a)

    @pytest.mark.parametrize("n", [NUMPY_LAPACK_MIN_N, LAPACK_MIN_N - 1, LAPACK_MIN_N])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lapack_non_finite_after_an_overflowing_row(self, n, bad):
        a = np.eye(n)
        a[0] = 1e308
        a[n - 1, n - 1] = bad
        with pytest.raises(NonFiniteInput):
            lu_factor(a)

    @pytest.mark.parametrize("n", [2, NUMPY_LAPACK_MIN_N, LAPACK_MIN_N])
    def test_solve_leaves_b_alone(self, n):
        rng = np.random.default_rng(n)
        factors = lu_factor(rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n))
        b = rng.uniform(-1.0, 1.0, n)
        kept = b.copy()
        x = lu_solve(factors, b)
        x[:] = np.nan
        assert np.array_equal(b, kept)
        b.setflags(write=False)
        assert np.isfinite(lu_solve(factors, b)).all()

    @pytest.mark.parametrize("n", [2, NUMPY_LAPACK_MIN_N, LAPACK_MIN_N])
    def test_solve_takes_strided_and_list_rhs(self, n):
        rng = np.random.default_rng(n)
        factors = lu_factor(rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n))
        columns = rng.uniform(-1.0, 1.0, (n, 2))
        expected = lu_solve(factors, np.ascontiguousarray(columns[:, 1]))
        assert lu_solve(factors, columns[:, 1]).tobytes() == expected.tobytes()
        assert lu_solve(factors, columns[:, 1].tolist()).tobytes() == expected.tobytes()

    def test_fortran_ordered_input_factors_the_same(self):
        n = LAPACK_MIN_N
        a = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        c_order, f_order = lu_factor(a), lu_factor(np.asfortranarray(a))
        assert c_order.lu.tobytes() == f_order.lu.tobytes()
        assert np.array_equal(c_order.piv, f_order.piv)


class TestNorm2:
    def test_zero_vector(self):
        assert norm2([0.0, 0.0, 0.0]) == 0.0

    def test_pythagorean(self):
        assert norm2([3.0, 4.0]) == 5.0

    def test_ones(self):
        assert norm2([1.0, 1.0, 1.0, 1.0]) == 2.0

    def test_nan_propagates(self):
        assert np.isnan(norm2([1.0, np.nan]))
