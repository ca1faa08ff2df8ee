import copy
import dataclasses
import gc
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shamanskii import linalg
from shamanskii.linalg import (
    EPS,
    LAPACK_MIN_N,
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

LAPACK_SIZES = (4, 8, 31, 32, 64, 101, 301)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 31])
    def test_pivot_on_threshold_factors(self, n):
        # ||A||_inf = 1, so the last pivot sits exactly on n * eps * ||A||_inf
        a = np.eye(n)
        a[-1, -1] = n * EPS
        factors = lu_factor(a)
        assert factors.upper[-1, -1] == n * EPS


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
            raise AssertionError("LAPACK requested for n < LAPACK_MIN_N")

        monkeypatch.setattr(linalg, "_lapack", refuse)
        for name in "abce":
            assert solve(registry_get(name)).converged

    @pytest.mark.parametrize("n", [4, 31])
    def test_lapack_band_asks_lapack(self, monkeypatch, n):
        calls = []
        loader = linalg._lapack
        monkeypatch.setattr(linalg, "_lapack", lambda: calls.append(n) or loader())
        lu_solve(lu_factor(np.eye(n)), np.ones(n))
        assert calls == [n, n]


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
def small_systems(draw, sizes=(2, 3)):
    """``(a, b)`` with n drawn from ``sizes``; ``a`` is random, or near-singular:
    its last row is a combination of the others plus 10**-k times itself, k in
    0..20."""
    n = draw(st.sampled_from(sizes))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)

    def vector(size):
        return np.array(draw(st.lists(entries, min_size=size, max_size=size)))

    a = vector(n * n).reshape(n, n) * 10.0 ** draw(st.integers(-8, 8))
    if draw(st.booleans()):
        a[-1] = vector(n - 1) @ a[:-1] + 10.0 ** -draw(st.integers(0, 20)) * a[-1]
    return a, vector(n)


# A solution that underflows: x[0] = b[1] / 1e5 is subnormal, so even a
# correctly rounded x leaves a residual near 1e5 times the subnormal spacing.
UNDERFLOW = (np.array([[0.0, 1e5], [1e5, 0.0]]), np.array([0.0, 2.2250738585e-308]))


class TestSmallSystemProperties:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    @example(UNDERFLOW)
    def test_factor_meets_bounds_or_raises(self, system):
        # the criterion-5 bounds, or SingularMatrix; never a NaN
        a, b = system
        n = a.shape[0]
        try:
            factors = lu_factor(a)
        except SingularMatrix:
            return
        assert np.isfinite(factors.lu).all()
        err = inf_norm(a[factors.perm] - factors.lower @ factors.upper)
        assert err <= 1e-13 * inf_norm(a)
        x = lu_solve(factors, b)
        assert np.isfinite(x).all()
        # the absolute term allows for underflow in x, as LAPACK's dgerfs
        # allows (n + 1) * safmin in its backward error
        bound = 1e-12 * inf_norm(a) * np.abs(x).max() + n * inf_norm(a) * 2.0**-1074
        assert np.abs(a @ x - b).max() <= bound

    @settings(max_examples=300, deadline=None)
    @given(small_systems(sizes=(3, 4, 5, 8)))
    @example((np.kron(np.eye(2), UNDERFLOW[0]), np.concatenate([UNDERFLOW[1], [0.0, 0.0]])))
    def test_bounds_hold_on_both_sides_of_lapack_min_n(self, system):
        # the body above, on the loop at n = 3 and on LAPACK from n = 4
        self.test_factor_meets_bounds_or_raises.hypothesis.inner_test(self, system)


@pytest.mark.parametrize("n", [2, 4, 31, 32])
class TestSavedPivots:
    """lu_factor keeps the factors in the form the solves' kernel reads, out of sight."""

    @staticmethod
    def system(n):
        rng = np.random.default_rng(n)
        return rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, n)

    def test_equality_and_repr_ignore_them(self, n):
        factors = lu_factor(self.system(n)[0])
        assert factors == LUFactors(factors.lu, factors.piv, factors.n)
        assert "_kernel" not in repr(factors)

    def test_read_only_and_zero_based(self, n):
        a = self.system(n)[0]
        factors = lu_factor(a)
        lu, piv = factors._kernel
        if n < LAPACK_MIN_N:
            assert (lu, piv) == (factors.lu.tolist(), factors.piv.tolist())
            return
        # LAPACK reads the public arrays themselves: read-only, 0-based pivots
        assert lu is factors.lu and piv is factors.piv
        assert not lu.flags.writeable and not piv.flags.writeable
        assert np.allclose(a[factors.perm], factors.lower @ factors.upper)

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

    @pytest.mark.parametrize("dtype", ["int32", "int64", "uint8"])
    def test_hand_built_c_order_and_integer_pivots_solve(self, n, dtype):
        # f2py converts a C-ordered lu and any integer pivots for LAPACK
        a, b = self.system(n)
        factors = lu_factor(a)
        lu = np.ascontiguousarray(factors.lu)
        hand_built = LUFactors(lu, factors.piv.astype(dtype), n)
        assert lu_solve(hand_built, b).tobytes() == lu_solve(factors, b).tobytes()

    def test_replace_leaves_them_behind(self, n):
        a, b = self.system(n)
        factors = lu_factor(a)
        replaced = dataclasses.replace(lu_factor(np.eye(n)), lu=factors.lu, piv=factors.piv)
        assert replaced._kernel is None
        assert lu_solve(replaced, b).tobytes() == lu_solve(factors, b).tobytes()

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_loop_lists_survive_copies(self, n, copier):
        # the loop's view is Python lists, LAPACK's the arrays; copies keep both
        for size in range(n, LAPACK_MIN_N) if n < LAPACK_MIN_N else [n]:
            a, b = self.system(size)
            factors = lu_factor(a)
            assert "_kernel" not in repr(factors)
            expected = lu_solve(factors, b)
            duplicate = copier(factors)
            (lu, piv), (lu_copy, piv_copy) = factors._kernel, duplicate._kernel
            if size < LAPACK_MIN_N:
                assert (lu, piv) == (factors.lu.tolist(), factors.piv.tolist())
                assert (lu_copy, piv_copy) == (lu, piv) and lu_copy is not lu
            else:
                assert lu_copy is duplicate.lu and piv_copy is duplicate.piv
            assert not duplicate.lu.flags.writeable and not duplicate.piv.flags.writeable
            del factors
            gc.collect()
            assert lu_solve(duplicate, b).tobytes() == expected.tobytes()
            hand_built = LUFactors(duplicate.lu, duplicate.piv, size)
            assert lu_solve(hand_built, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "copier", ["copy.deepcopy", "lambda f: pickle.loads(pickle.dumps(f))"], ids=["deepcopy", "pickle"]
    )
    def test_copies_refuse_a_pivot_out_of_range(self, n, copier):
        # LAPACK reads the view's pivots unchecked, so a write that reached it
        # would kill the interpreter: run in a child process
        script = f"""
import copy, pickle
import numpy as np
from shamanskii.linalg import lu_factor, lu_solve
duplicate = ({copier})(lu_factor(np.random.default_rng({n}).uniform(-1.0, 1.0, ({n}, {n}))))
try:
    duplicate.piv[0] = 10**8
except ValueError as error:
    print("refused:", error)
else:
    print("solved:", lu_solve(duplicate, np.ones({n})))
"""
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, "refused: assignment destination is read-only\n")


COPIERS = {"deepcopy": copy.deepcopy, "pickle": lambda f: pickle.loads(pickle.dumps(f))}


@pytest.mark.parametrize("n", [1, 2, 3])
class TestLazyFactors:
    """Below LAPACK_MIN_N lu_factor keeps the loop's lists; lu and piv wait for a read."""

    @staticmethod
    def factors(n):
        return lu_factor(np.random.default_rng(n).uniform(-1.0, 1.0, (n, n)) + n * np.eye(n))

    @pytest.mark.parametrize("first", ["lu", "piv"])
    def test_first_access_builds_read_only_arrays(self, n, first):
        factors = self.factors(n)
        assert "lu" not in vars(factors) and "piv" not in vars(factors)
        rows, piv = copy.deepcopy(factors._kernel)
        getattr(factors, first)
        assert factors.lu is factors.lu and factors.piv is factors.piv
        expected = {"lu": np.array(rows), "piv": np.array(piv, dtype=np.int32)}
        for name, array in expected.items():
            built = getattr(factors, name)
            assert (built.dtype, built.shape) == (array.dtype, array.shape)
            assert built.tobytes() == array.tobytes()
            assert built.flags.c_contiguous and not built.flags.writeable
        assert factors._kernel == (rows, piv)

    @pytest.mark.parametrize("accessed", [False, True])
    @pytest.mark.parametrize("copier", sorted(COPIERS))
    def test_copies(self, n, copier, accessed):
        factors = self.factors(n)
        b = np.arange(1.0, n + 1.0)
        if accessed:
            factors.lu
        duplicate = COPIERS[copier](factors)
        assert ("lu" in vars(duplicate)) is accessed
        assert lu_solve(duplicate, b).tobytes() == lu_solve(factors, b).tobytes()
        for name in ("lu", "piv"):
            built = getattr(duplicate, name)
            assert built.tobytes() == getattr(factors, name).tobytes()
            assert not built.flags.writeable
        assert repr(duplicate) == repr(factors)

    @pytest.mark.parametrize("accessed", [False, True])
    def test_replace_equality_and_repr(self, n, accessed):
        factors = self.factors(n)
        b = np.arange(1.0, n + 1.0)
        if accessed:
            factors.piv
        replaced = dataclasses.replace(factors, n=n)
        assert replaced._kernel is None
        assert replaced.lu is factors.lu and replaced.piv is factors.piv
        assert lu_solve(replaced, b).tobytes() == lu_solve(factors, b).tobytes()
        fresh = self.factors(n)
        assert fresh == fresh
        assert repr(fresh) == repr(LUFactors(fresh.lu, fresh.piv, n))
        assert "_kernel" not in repr(fresh)

    def test_other_names_still_raise(self, n):
        factors = self.factors(n)
        with pytest.raises(AttributeError, match="'LUFactors' object has no attribute 'lower_bound'"):
            factors.lower_bound
        assert not hasattr(LUFactors(np.eye(n), np.arange(n), n), "_missing")

    def test_threads_see_one_set_of_arrays(self, n):
        b = np.arange(1.0, n + 1.0)
        threads_count, rounds = 8, 50
        barrier = threading.Barrier(threads_count, timeout=60)
        seen = [[] for _ in range(rounds)]
        shared = [self.factors(n) for _ in range(rounds)]

        def work():
            for factors, results in zip(shared, seen):
                barrier.wait()
                lu, piv = factors.lu, factors.piv
                results.append((id(lu), id(piv), lu.tobytes(), piv.tobytes(),
                                lu_solve(factors, b).tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for factors, results in zip(shared, seen):
            assert len(results) == threads_count and len(set(results)) == 1
            assert results[0][:2] == (id(factors.lu), id(factors.piv))


@pytest.mark.parametrize("n", [2, 3, 4, 31, 32])
class TestHandBuiltFactors:
    """Solves check factors not made by lu_factor before a kernel indexes them."""

    @staticmethod
    def factors(n):
        return lu_factor(np.random.default_rng(n).uniform(-1.0, 1.0, (n, n)) + n * np.eye(n))

    @pytest.mark.parametrize("size", ["n+1", "n-1"])
    def test_n_that_does_not_fit_raises(self, n, size):
        factors = self.factors(n)
        m = n + 1 if size == "n+1" else n - 1
        match = fr"\({m}, {m}\).*\({m},\).*got \({n}, {n}\) and \({n},\)$"
        with pytest.raises(DimensionMismatch, match=match):
            lu_solve(LUFactors(factors.lu, factors.piv, m), np.ones(m))

    def test_short_piv_raises(self, n):
        factors = self.factors(n)
        with pytest.raises(DimensionMismatch, match=fr"got \({n}, {n}\) and \({n - 1},\)$"):
            lu_solve(LUFactors(factors.lu, factors.piv[:-1], n), np.ones(n))

    @pytest.mark.parametrize("pivot", ["-1", "n"])
    def test_pivot_out_of_range_raises(self, n, pivot):
        factors = self.factors(n)
        piv = np.array(factors.piv)
        piv[0] = -1 if pivot == "-1" else n
        with pytest.raises(ValueError, match=fr"^piv must hold integers in 0\.\.{n - 1}, "):
            lu_solve(LUFactors(factors.lu, piv, n), np.ones(n))

    def test_float_pivots_raise(self, n):
        factors = self.factors(n)
        with pytest.raises(ValueError, match="got float64 entries"):
            lu_solve(LUFactors(factors.lu, factors.piv.astype(np.float64), n), np.ones(n))


class TestCheapChecks:
    """The checks made without copies give the outcomes the copying ones did."""

    def test_overflowing_row_sum_is_singular_not_non_finite(self):
        # finite entries whose row sum overflows: the threshold is inf
        with pytest.raises(SingularMatrix, match="below threshold inf at column 0"):
            lu_factor([[1e308, 1e308], [1e308, -1e308]])

    @pytest.mark.parametrize("n", [2, 3, 4, 32])
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

    @pytest.mark.parametrize("n", [4, 31, 32])
    @pytest.mark.parametrize("row", [0, -1])
    def test_lapack_overflowing_row_sum_is_singular(self, n, row):
        # finite entries, so only the row sum says the threshold is inf
        a = np.eye(n)
        a[row] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="below threshold inf at column 0$"):
                lu_factor(a)

    @pytest.mark.parametrize("n", [4, 31, 32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lapack_non_finite_after_an_overflowing_row(self, n, bad):
        a = np.eye(n)
        a[0] = 1e308
        a[n - 1, n - 1] = bad
        with pytest.raises(NonFiniteInput):
            lu_factor(a)

    @pytest.mark.parametrize("n", [2, 4, 32])
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

    @pytest.mark.parametrize("n", [2, 4, 32])
    def test_solve_takes_strided_and_list_rhs(self, n):
        rng = np.random.default_rng(n)
        factors = lu_factor(rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n))
        columns = rng.uniform(-1.0, 1.0, (n, 2))
        expected = lu_solve(factors, np.ascontiguousarray(columns[:, 1]))
        assert lu_solve(factors, columns[:, 1]).tobytes() == expected.tobytes()
        assert lu_solve(factors, columns[:, 1].tolist()).tobytes() == expected.tobytes()

    def test_fortran_ordered_input_factors_the_same(self):
        n = 32
        a = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        c_order, f_order = lu_factor(a), lu_factor(np.asfortranarray(a))
        assert c_order.lu.tobytes() == f_order.lu.tobytes()
        assert np.array_equal(c_order.piv, f_order.piv)


def well_conditioned(n, order="F"):
    rng = np.random.default_rng(n)
    return np.asarray(rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n), order=order)


@pytest.mark.parametrize("n", [4, 31, 32, 301])
class TestFactorOwned:
    """The solver's lu_factor factors a writeable Fortran-ordered float64 array where it lies."""

    def test_factors_in_place_with_the_same_bits(self, n):
        a = well_conditioned(n)
        expected = lu_factor(a)
        assert a.flags.writeable
        factors = linalg._factor_owned(a)
        assert np.shares_memory(factors.lu, a)
        assert not a.flags.writeable
        assert factors.lu.tobytes() == expected.lu.tobytes()
        assert factors.piv.tobytes() == expected.piv.tobytes()
        b = np.ones(n)
        assert lu_solve(factors, b).tobytes() == lu_solve(expected, b).tobytes()

    @pytest.mark.parametrize("kind", ["c_order", "read_only", "integer", "list"])
    def test_other_inputs_are_copied(self, n, kind):
        a = well_conditioned(n)
        if kind == "c_order":
            a = np.ascontiguousarray(a)
        elif kind == "read_only":
            a.setflags(write=False)
        elif kind == "integer":
            a = np.asfortranarray(np.round(4.0 * a).astype(np.int64))
        elif kind == "list":
            a = a.tolist()
        before = np.array(a)
        expected = lu_factor(before)
        factors = linalg._factor_owned(a)
        assert np.array_equal(np.asarray(a), before)
        assert not np.shares_memory(factors.lu, a)
        if isinstance(a, np.ndarray):
            assert a.flags.writeable is (kind != "read_only")
        assert factors.lu.tobytes() == expected.lu.tobytes()
        assert factors.piv.tobytes() == expected.piv.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_before_writing(self, n, bad):
        a = well_conditioned(n)
        a[n // 2, n - 1] = bad
        before = a.copy()
        with pytest.raises(NonFiniteInput):
            linalg._factor_owned(a)
        assert np.array_equal(a, before, equal_nan=True)
        assert a.flags.writeable

    def test_lu_factor_leaves_the_same_array_alone(self, n):
        a = well_conditioned(n)
        before = a.copy()
        factors = lu_factor(a)
        assert np.array_equal(a, before)
        assert a.flags.writeable
        assert not np.shares_memory(factors.lu, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factor_owned_leaves_small_systems_alone(n):
    a = well_conditioned(n)
    before = a.copy()
    factors = linalg._factor_owned(a)
    assert np.array_equal(a, before)
    assert a.flags.writeable
    assert not np.shares_memory(factors.lu, a)
    assert factors.lu.tobytes() == lu_factor(before).lu.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["list", "integer", "f_order", "read_only"])
def test_lu_factor_copies_small_systems_as_c_float64(n, kind):
    a = well_conditioned(n, order="C")
    if kind == "integer":
        a = np.round(4.0 * a).astype(np.int64)
    elif kind == "f_order":
        a = np.asfortranarray(a)
    elif kind == "read_only":
        a.setflags(write=False)
    expected = lu_factor(np.ascontiguousarray(a, dtype=np.float64))
    if kind == "list":
        a = a.tolist()
    before = np.array(a)
    factors = lu_factor(a)
    assert factors.lu.tobytes() == expected.lu.tobytes()
    assert factors.piv.tobytes() == expected.piv.tobytes()
    assert np.array_equal(np.asarray(a), before)
    if isinstance(a, np.ndarray):
        assert a.flags.writeable is (kind != "read_only")
        assert not np.shares_memory(factors.lu, a)


@pytest.mark.parametrize("n", [2, 4, 31])
class TestShallowCopies:
    """copy.copy shares the original's arrays and leaves their flags as the original has them."""

    def test_hand_built_arrays_stay_writeable(self, n):
        factors = lu_factor(well_conditioned(n))
        lu, piv = np.array(factors.lu), np.array(factors.piv)
        duplicate = copy.copy(LUFactors(lu, piv, n))
        assert duplicate.lu is lu and duplicate.piv is piv
        assert lu.flags.writeable and piv.flags.writeable
        b = np.arange(1.0, n + 1.0)
        assert lu_solve(duplicate, b).tobytes() == lu_solve(factors, b).tobytes()

    def test_factors_share_the_kernel_and_stay_read_only(self, n):
        factors = lu_factor(well_conditioned(n))
        duplicate = copy.copy(factors)
        assert duplicate._kernel is factors._kernel
        assert not duplicate.lu.flags.writeable and not duplicate.piv.flags.writeable
        assert duplicate.lu.tobytes() == factors.lu.tobytes()
        assert duplicate.piv.tobytes() == factors.piv.tobytes()
        b = np.arange(1.0, n + 1.0)
        assert lu_solve(duplicate, b).tobytes() == lu_solve(factors, b).tobytes()


class TestNorm2:
    def test_zero_vector(self):
        assert norm2([0.0, 0.0, 0.0]) == 0.0

    def test_pythagorean(self):
        assert norm2([3.0, 4.0]) == 5.0

    def test_ones(self):
        assert norm2([1.0, 1.0, 1.0, 1.0]) == 2.0

    def test_nan_propagates(self):
        assert np.isnan(norm2([1.0, np.nan]))

    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 301])
    def test_bits_of_the_numpy_formula(self, n, scale, bad):
        # at 10**170 the sum of squares overflows to inf, at 10**-170 it
        # underflows to zero; norm2 warns where np.dot does, and only there
        rng = np.random.default_rng(n)
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, n) * scale
            if bad is not None:
                v[rng.integers(n)] = bad
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = norm2(v)
            with warnings.catch_warnings(record=True) as expected_caught:
                warnings.simplefilter("always")
                expected = float(np.sqrt(np.dot(v, v)))
            assert type(result) is float
            assert np.float64(result).tobytes() == np.float64(expected).tobytes()
            warned = [(w.category, str(w.message)) for w in caught]
            assert warned == [(w.category, str(w.message)) for w in expected_caught]
