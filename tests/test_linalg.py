import copy
import dataclasses
import gc
import importlib.util
import math
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

    @pytest.mark.parametrize("n", [4, 31])
    def test_pivot_one_ulp_under_threshold_raises(self, n):
        a = np.eye(n)
        a[-1, -1] = np.nextafter(n * EPS, 0.0)
        message = fr"^pivot \S+ below threshold \S+ at column {n - 1}$"
        with pytest.raises(SingularMatrix, match=message):
            lu_factor(a)


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

    def test_loader_without_scipy_names_the_band(self, monkeypatch):
        cached = linalg._lapack.cache_info()
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
        with pytest.raises(ImportError, match=f"required for n >= {LAPACK_MIN_N}$"):
            linalg._lapack.__wrapped__()
        assert linalg._lapack.cache_info() == cached


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
    # the scaling and the combination can make an entry subnormal again
    a[np.abs(a) < np.finfo(np.float64).tiny] = 0.0
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solution_above_the_largest_float_overflows_to_inf(n):
    # Subnormal pivots pass the threshold, which scales with norm_inf(A); the
    # exact x[-1] = 1 / 2.2250738585e-309 is about 4.49e308, above float64's
    # largest, so it overflows, and 0 * inf makes the other entries NaN.
    a = 2.2250738585e-309 * np.eye(n)
    b = np.zeros(n)
    b[-1] = 1.0
    x = lu_solve(lu_factor(a), b)
    assert x[-1] == np.inf
    if n < LAPACK_MIN_N:
        assert np.isnan(x[:-1]).all()


def loop_factor(a):
    """``(rows, piv)`` of a float64 n x n ``a``, n <= 3, by the generic
    elimination loop on Python floats that the straight-line kernels replaced,
    verbatim; it raises as ``lu_factor`` does."""
    n = a.shape[0]
    rows = a.tolist()
    # row sums left to right, as numpy's reduction adds up short rows; a
    # sum is finite unless an entry is NaN or Inf or the entries overflow it
    norm = 0.0
    for row in rows:
        total = 0.0
        for v in row:
            total += abs(v)
        if not math.isfinite(total) and not all(map(math.isfinite, row)):
            raise NonFiniteInput("matrix contains NaN or Inf entries")
        norm = max(norm, total)
    threshold = n * EPS * norm
    piv = []
    for k in range(n):
        # the first entry of largest magnitude, as np.argmax picks it
        p, pivot = k, abs(rows[k][k])
        for i in range(k + 1, n):
            if abs(rows[i][k]) > pivot:
                p, pivot = i, abs(rows[i][k])
        if pivot < threshold or pivot == 0.0:
            raise linalg._singular(pivot, threshold, k)
        piv.append(p)
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        for row in rows[k + 1 :]:
            row[k] = l = row[k] / top[k]
            for j in range(k + 1, n):
                row[j] -= l * top[j]
    return rows, piv


def loop_solve(lu, piv, x):
    """The generic loop's solve of ``A x = b`` from :func:`loop_factor`'s
    factors (or any lists of that shape, pivots in 0..n-1)."""
    n = len(piv)
    xs = x.tolist()
    # Every interchange comes first, in order, as LAPACK's getrs makes them.
    # Swapping at step i instead makes the same float operations only while
    # every piv[i] >= i, as lu_factor's pivots are.
    for i, p in enumerate(piv):
        xs[i], xs[p] = xs[p], xs[i]
    # Each row's dot product is summed before it is subtracted, as the
    # vectorised substitution did.
    for i in range(n):
        row, dot = lu[i], 0.0
        for j in range(i):
            dot += row[j] * xs[j]
        xs[i] -= dot
    for i in range(n - 1, -1, -1):
        row, dot = lu[i], 0.0
        for j in range(i + 1, n):
            dot += row[j] * xs[j]
        xs[i] = (xs[i] - dot) / row[i]
    return np.array(xs)


def assert_raises_as(expected, fn, *args):
    """``fn(*args)`` raises an exception of ``expected``'s type and message."""
    with pytest.raises(type(expected)) as info:
        fn(*args)
    assert type(info.value) is type(expected) and str(info.value) == str(expected)


# -0.0, subnormals, the largest finite magnitudes, Inf and NaN
SPECIAL_ENTRIES = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf, np.nan)
entries = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(), st.floats(-4.0, 4.0))


@st.composite
def kernel_systems(draw):
    """``(a, b)``, n in 1..3: ``b`` has any entries, and ``a`` is of one of five
    kinds: any entries; small integers and signed zeros, whose pivots tie;
    finite rows whose sums overflow; a finite matrix with NaN or Inf in a drawn
    row; a pivot exactly on the threshold ``n * eps * norm_inf(A)``, or one ulp
    under it."""
    n = draw(st.integers(1, 3))

    def vector(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    kind = draw(st.sampled_from(["entries", "ties", "overflow", "bad_row", "threshold"]))
    if kind == "entries":
        a = vector(entries, n * n).reshape(n, n)
    elif kind == "ties":
        a = vector(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), n * n).reshape(n, n)
    elif kind == "overflow":
        a = vector(st.floats(-4.0, 4.0), n * n).reshape(n, n)
        a[draw(st.integers(0, n - 1))] = vector(st.sampled_from([1e308, -1e308, 1.5e308]), n)
    elif kind == "bad_row":
        a = vector(st.floats(-4.0, 4.0), n * n).reshape(n, n)
        a[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
    else:
        # upper triangular, so elimination leaves the diagonal as it is, with
        # its rows shuffled, so that pivoting has to find them again; row k
        # holds only its pivot, so the other rows set the norm
        k = draw(st.integers(0, n - 1))
        a = np.triu(vector(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), n * n).reshape(n, n))
        a[k, k + 1 :] = 0.0
        norm = max((np.abs(a[i]).sum() for i in range(n) if i != k), default=1.0)
        a[k, k] = n * EPS * norm
        if draw(st.booleans()):
            a[k, k] = np.nextafter(a[k, k], 0.0)
        a = a[draw(st.permutations(range(n)))]
    return a, vector(entries, n)


def hand_built_systems(n):
    """``(lu, piv, b)`` as lists, as hand-built factors may hold them: any
    entries, zeros on the diagonal too, and any pivots in 0..n-1."""
    return st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        st.lists(entries, min_size=n, max_size=n),
    )


# The loop's 0.0 seed of each dot product turns a leading product -0.0 into
# 0.0.  lu_factor([[1, 0], [-0.0, 1]]) leaves l = -0.0 and u01 = 0.0, and with
# the seed x is [-0., -0.].  At n = 3 each of the four seeds meets an all -0.0
# dot product under one of these right-hand sides.
SIGNED_ZERO_3 = np.array([[1.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [-0.0, -0.0, 1.0]])
SIGNED_ZEROS = [
    (np.array([[1.0, 0.0], [-0.0, 1.0]]), np.array([-0.0, -0.0])),
    (SIGNED_ZERO_3, np.array([0.0, -0.0, -0.0])),
    (SIGNED_ZERO_3, np.array([0.0, 0.0, -0.0])),
    (SIGNED_ZERO_3, np.array([-0.0, 0.0, -0.0])),
]


class TestKernelsMatchTheLoop:
    """The straight-line n <= 3 kernels give the generic loop's bits and errors."""

    @settings(max_examples=500, deadline=None)
    @given(kernel_systems())
    @example(SIGNED_ZEROS[0])
    @example(SIGNED_ZEROS[1])
    @example(SIGNED_ZEROS[2])
    @example(SIGNED_ZEROS[3])
    def test_factor_and_solve(self, system):
        a, b = system
        try:
            rows, piv = loop_factor(a.copy())
        except (NonFiniteInput, SingularMatrix) as exc:
            assert_raises_as(exc, linalg._factor_owned, np.asfortranarray(a))
            assert_raises_as(exc, lu_factor, a)
            return
        factors = linalg._factor_owned(np.asfortranarray(a))
        assert type(factors.lu) is list and factors.n == a.shape[0]
        assert np.array(factors.lu).tobytes() == np.array(rows).tobytes()
        assert factors.piv == piv
        x = linalg._solve(factors, b)
        assert x.tobytes() == loop_solve(rows, piv, b).tobytes()
        assert lu_solve(lu_factor(a), b).tobytes() == x.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(hand_built_systems))
    def test_solve_with_hand_built_factors(self, system):
        lu, piv, b = system
        n, b = len(piv), np.array(b)
        public = LUFactors(np.array(lu), np.array(piv, dtype=np.int32), n)
        try:
            expected = loop_solve(lu, piv, b)
        except ZeroDivisionError as exc:
            assert_raises_as(exc, linalg._solve, linalg._Factors(lu, piv, n), b)
            # lu_solve checks the diagonal of U before a kernel divides by it
            column = next(k for k in range(n) if lu[k][k] == 0.0)
            with pytest.raises(SingularMatrix, match=fr"at column {column}$"):
                lu_solve(public, b)
            return
        assert linalg._solve(linalg._Factors(lu, piv, n), b).tobytes() == expected.tobytes()
        assert lu_solve(public, b).tobytes() == expected.tobytes()


@st.composite
def pivoted_factors(draw):
    """``(lower, upper, piv, b)``, n in 1..5, so both bands: a unit lower ``L``
    and an upper ``U`` with entries in [-1, 1] off the diagonal and n or -n on
    it, so that U is well conditioned, and any pivots in 0..n-1, ``piv[k] < k``
    among them."""
    n = draw(st.integers(1, 5))
    unit = st.floats(-1.0, 1.0)

    def vector(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    lower = np.tril(vector(unit, n * n).reshape(n, n), -1) + np.eye(n)
    upper = np.triu(vector(unit, n * n).reshape(n, n), 1) + n * np.diag(
        vector(st.sampled_from([-1.0, 1.0]), n)
    )
    return lower, upper, vector(st.integers(0, n - 1), n).tolist(), vector(unit, n)


# Every pivot swaps row k with row 0.  With L = I the order of the swaps and
# the forward substitution would not matter.
PIVOTS_ALL_ZERO = (
    np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [-0.5, 0.25, 1.0]]),
    np.array([[3.0, 1.0, -1.0], [0.0, -3.0, 1.0], [0.0, 0.0, 3.0]]),
    [0, 0, 0],
    np.array([1.0, 2.0, 3.0]),
)


class TestPivotConvention:
    """Every band reads piv as getrs does: all interchanges, in order, before substitution."""

    @settings(max_examples=300, deadline=None)
    @given(pivoted_factors())
    @example(PIVOTS_ALL_ZERO)
    def test_hand_built_pivots_solve_their_system(self, system):
        lower, upper, piv, b = system
        n = len(piv)
        factors = LUFactors(lower - np.eye(n) + upper, np.array(piv, dtype=np.int32), n)
        # P A = L U, where row i of P A is row perm[i] of A
        a = np.eye(n)[factors.perm].T @ lower @ upper
        x = lu_solve(factors, b)
        # the absolute term allows for underflow in x: b = [0, 5e-324] and
        # U = -2 I give the correctly rounded x = [-0., -0.], residual 5e-324
        scale = inf_norm(np.abs(lower) @ np.abs(upper))
        bound = 1e-13 * scale * np.abs(x).max() + n * scale * 2.0**-1074
        assert np.abs(a @ x - b).max() <= bound


@pytest.mark.parametrize("n", [2, 4, 31, 32])
class TestSavedPivots:
    """lu_factor's arrays hold the solver's factors; every solve checks the arrays it is given."""

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
        # the solver's factors: the loop's lists below LAPACK_MIN_N, getrf's arrays from it up
        lu, piv, size = linalg._factor_owned(np.array(a, order="F"))
        assert isinstance(lu, list) is isinstance(piv, list) is (n < LAPACK_MIN_N)
        assert np.asarray(lu).tolist() == factors.lu.tolist() and size == factors.n == n
        assert np.asarray(piv).tolist() == factors.piv.tolist()
        assert not factors.lu.flags.writeable and not factors.piv.flags.writeable
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
        assert replaced == factors
        assert lu_solve(replaced, b).tobytes() == lu_solve(factors, b).tobytes()

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_loop_lists_survive_copies(self, n, copier):
        # every solve reads the copy's own arrays, as lists below LAPACK_MIN_N
        for size in range(n, LAPACK_MIN_N) if n < LAPACK_MIN_N else [n]:
            a, b = self.system(size)
            factors = lu_factor(a)
            expected = lu_solve(factors, b)
            duplicate = copier(factors)
            for name in ("lu", "piv"):
                kept, copied = getattr(factors, name), getattr(duplicate, name)
                assert copied.tobytes() == kept.tobytes() and copied.dtype == kept.dtype
                assert not np.shares_memory(copied, kept)
            del factors
            gc.collect()
            assert lu_solve(duplicate, b).tobytes() == expected.tobytes()
            hand_built = LUFactors(duplicate.lu, duplicate.piv, size)
            assert lu_solve(hand_built, b).tobytes() == expected.tobytes()

    @staticmethod
    def assert_refused(n, make):
        """A child writes 10**8 into piv of ``make(lu_factor(A))`` and solves:
        a pivot out of range that reached LAPACK unchecked would kill it."""
        script = f"""
import copy, pickle
import numpy as np
from shamanskii.linalg import lu_factor, lu_solve
factors = ({make})(lu_factor(np.random.default_rng({n}).uniform(-1.0, 1.0, ({n}, {n}))))
factors.piv[0] = 10**8
try:
    print("solved:", lu_solve(factors, np.ones({n})))
except ValueError as error:
    print("refused:", error)
"""
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        expected = fr"refused: piv must hold integers in 0\.\.{n - 1}, got int32 entries from \d+ to 100000000\n"
        assert re.fullmatch(expected, done.stdout), done.stdout

    @pytest.mark.parametrize(
        "copier", ["copy.deepcopy", "lambda f: pickle.loads(pickle.dumps(f))"], ids=["deepcopy", "pickle"]
    )
    def test_copies_refuse_a_pivot_out_of_range(self, n, copier):
        # a copy's arrays are its own and writeable, as numpy copies them
        self.assert_refused(n, copier)

    def test_writes_after_setflags_refuse_a_pivot_out_of_range(self, n):
        self.assert_refused(n, "lambda f: f.piv.setflags(write=True) or f")


COPIERS = {"deepcopy": copy.deepcopy, "pickle": lambda f: pickle.loads(pickle.dumps(f))}


@pytest.mark.parametrize("n", [1, 2, 3])
class TestLazyFactors:
    """Below LAPACK_MIN_N lu_factor builds lu and piv from the loop's lists."""

    @staticmethod
    def matrix(n):
        return np.random.default_rng(n).uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)

    @classmethod
    def factors(cls, n):
        return lu_factor(cls.matrix(n))

    @pytest.mark.parametrize("first", ["lu", "piv"])
    def test_first_access_builds_read_only_arrays(self, n, first):
        factors = self.factors(n)
        rows, piv, _ = linalg._factor_owned(self.matrix(n))
        getattr(factors, first)
        assert factors.lu is factors.lu and factors.piv is factors.piv
        expected = {"lu": np.array(rows), "piv": np.array(piv, dtype=np.int32)}
        for name, array in expected.items():
            built = getattr(factors, name)
            assert (built.dtype, built.shape) == (array.dtype, array.shape)
            assert built.tobytes() == array.tobytes()
            assert built.flags.c_contiguous and not built.flags.writeable

    @pytest.mark.parametrize("accessed", [False, True])
    @pytest.mark.parametrize("copier", sorted(COPIERS))
    def test_copies(self, n, copier, accessed):
        factors = self.factors(n)
        b = np.arange(1.0, n + 1.0)
        if accessed:
            lu_solve(factors, b)
        duplicate = COPIERS[copier](factors)
        assert lu_solve(duplicate, b).tobytes() == lu_solve(factors, b).tobytes()
        for name in ("lu", "piv"):
            built = getattr(duplicate, name)
            assert built.tobytes() == getattr(factors, name).tobytes()
            assert not np.shares_memory(built, getattr(factors, name))
        assert repr(duplicate) == repr(factors)

    @pytest.mark.parametrize("accessed", [False, True])
    def test_replace_equality_and_repr(self, n, accessed):
        factors = self.factors(n)
        b = np.arange(1.0, n + 1.0)
        if accessed:
            lu_solve(factors, b)
        replaced = dataclasses.replace(factors, n=n)
        assert replaced.lu is factors.lu and replaced.piv is factors.piv
        assert replaced == factors
        assert lu_solve(replaced, b).tobytes() == lu_solve(factors, b).tobytes()
        fresh = self.factors(n)
        assert fresh == fresh
        assert repr(fresh) == repr(LUFactors(fresh.lu, fresh.piv, n))
        assert [f.name for f in dataclasses.fields(fresh)] == ["lu", "piv", "n"]

    def test_a_write_to_lu_shows_in_the_next_solve(self, n):
        factors = self.factors(n)
        b = np.arange(1.0, n + 1.0)
        before = lu_solve(factors, b)
        factors.lu.setflags(write=True)
        factors.lu[n - 1, n - 1] *= 2.0
        # back substitution ends with x[n-1] = y[n-1] / U[n-1, n-1]
        assert lu_solve(factors, b)[n - 1] == before[n - 1] / 2.0

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

    @pytest.mark.parametrize("bad", ["-1", "float"])
    def test_perm_refuses_the_pivots_lu_solve_refuses(self, n, bad):
        # unchecked, perm reads a pivot of -1 as the last row and raises
        # IndexError on a float one
        factors = self.factors(n)
        piv = np.array(factors.piv)
        if bad == "-1":
            piv[0] = -1
        else:
            piv = piv.astype(np.float64)
        hand_built = LUFactors(factors.lu, piv, n)
        messages = []
        for use in (lambda f: f.perm, lambda f: lu_solve(f, np.ones(n))):
            with pytest.raises(ValueError, match=fr"^piv must hold integers in 0\.\.{n - 1}, ") as raised:
                use(hand_built)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("shape", ["short", "2-D"])
    def test_perm_refuses_the_shapes_lu_solve_refuses(self, n, shape):
        # unchecked, perm read a short piv as the first swaps of a longer one
        # and raised TypeError on a 2-D one
        factors = self.factors(n)
        piv = factors.piv[:-1] if shape == "short" else factors.piv[np.newaxis]
        hand_built = LUFactors(factors.lu, piv, n)
        messages = []
        for use in (lambda f: f.perm, lambda f: lu_solve(f, np.ones(n))):
            with pytest.raises(DimensionMismatch, match=re.escape(f"and {piv.shape}")) as raised:
                use(hand_built)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_on_the_diagonal_raises(self, n, zero):
        # every band would divide by it; no threshold applies to hand-built factors
        factors = self.factors(n)
        lu = np.array(factors.lu)
        lu[n - 1, n - 1] = zero
        with pytest.raises(SingularMatrix, match=fr"^zero on the diagonal of U at column {n - 1}$"):
            lu_solve(LUFactors(lu, factors.piv, n), np.ones(n))

    def test_zero_factors_raise_for_the_first_column(self, n):
        zeros = LUFactors(np.zeros((n, n)), np.arange(n, dtype=np.int32), n)
        with pytest.raises(SingularMatrix, match="at column 0$"):
            lu_solve(zeros, np.ones(n))

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_float_n_raises(self, n, kind):
        # its shapes all fit: (n,) == (float(n),)
        factors = self.factors(n)
        message = fr"^factors\.n must be an integer, got {re.escape(repr(kind(n)))}$"
        with pytest.raises(ValueError, match=message):
            lu_solve(LUFactors(factors.lu, factors.piv, kind(n)), np.ones(n))

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint8])
    def test_numpy_integer_n_solves(self, n, kind):
        factors = self.factors(n)
        b = np.arange(1.0, n + 1.0)
        x = lu_solve(LUFactors(factors.lu, factors.piv, kind(n)), b)
        assert x.tobytes() == lu_solve(factors, b).tobytes()


_EYE3, _PIV3 = np.eye(3), np.arange(3, dtype=np.int32)
_SIZE_RULE = "factors of size {0} need lu of shape ({0}, {0}) and piv of shape ({0},), got "
# name: (lu, piv, n, the exception, its message)
MALFORMED_FACTORS = {
    "n=0": (np.zeros((0, 0)), _PIV3[:0], 0, ValueError, "factors.n must be positive, got 0"),
    "float-n": (_EYE3, _PIV3, 3.0, ValueError, "factors.n must be an integer, got 3.0"),
    "n-below-lu": (_EYE3, _PIV3, 2, DimensionMismatch, _SIZE_RULE.format(2) + "(3, 3) and (3,)"),
    "1-D-lu": (np.arange(1.0, 5.0), np.arange(4, dtype=np.int32), 4, DimensionMismatch,
               _SIZE_RULE.format(4) + "(4,) and (4,)"),
    "complex-lu": (_EYE3 + 0j, _PIV3, 3, TypeError,
                   "factors.lu has complex dtype complex128, expected real values"),
    "short-piv": (_EYE3, _PIV3[:2], 3, DimensionMismatch, _SIZE_RULE.format(3) + "(3, 3) and (2,)"),
    "2-D-piv": (_EYE3, _PIV3[np.newaxis], 3, DimensionMismatch, _SIZE_RULE.format(3) + "(3, 3) and (1, 3)"),
    "pivot-3": (_EYE3, np.array([0, 1, 3], np.int32), 3, ValueError,
                "piv must hold integers in 0..2, got int32 entries from 0 to 3"),
    "float-piv": (_EYE3, _PIV3.astype(np.float64), 3, ValueError,
                  "piv must hold integers in 0..2, got float64 entries from 0.0 to 2.0"),
}
FACTOR_READERS = {
    "lower": lambda f: f.lower,
    "upper": lambda f: f.upper,
    "perm": lambda f: f.perm,
    "lu_solve": lambda f: lu_solve(f, np.ones(3)),
}


@pytest.mark.parametrize("reader", FACTOR_READERS.values(), ids=FACTOR_READERS.keys())
@pytest.mark.parametrize("case", MALFORMED_FACTORS.values(), ids=MALFORMED_FACTORS.keys())
def test_every_reader_refuses_malformed_factors_alike(case, reader):
    """``lower``, ``upper``, ``perm`` and ``lu_solve`` make one check of
    hand-built factors, so each raises the same exception with the same
    message."""
    lu, piv, n, kind, message = case
    with pytest.raises(kind) as raised:
        reader(LUFactors(lu, piv, n))
    assert (type(raised.value), str(raised.value)) == (kind, message)


@pytest.mark.parametrize("n", [True, np.int32(3), np.uint8(3)], ids=["True", "int32", "uint8"])
def test_every_reader_takes_an_integer_n_of_any_type(n):
    # lower raised TypeError from np.eye on an n of True, which lu_solve took as 1
    size = int(n)
    factors = TestHandBuiltFactors.factors(size)
    hand_built = LUFactors(factors.lu, factors.piv, n)
    for name in ("lower", "upper", "perm"):
        assert np.array_equal(getattr(hand_built, name), getattr(factors, name))
    b = np.arange(1.0, size + 1.0)
    assert lu_solve(hand_built, b).tobytes() == lu_solve(factors, b).tobytes()


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
    """The solver's lu_factor factors a writeable Fortran-ordered float64 array
    where it lies.  It converts and copies nothing: its callers hand it only
    such arrays, which the solver's own tests check (TestJacobianOwnership and
    TestJacobianKinds in test_solver.py)."""

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_before_writing(self, n, bad):
        a = well_conditioned(n)
        a[n // 2, n - 1] = bad
        before = a.copy()
        with pytest.raises(NonFiniteInput):
            linalg._factor_owned(a)
        assert np.array_equal(a, before, equal_nan=True)
        assert a.flags.writeable

    def test_getrf_copies_a_misaligned_array(self, n):
        # why the solver's ownership test reads no aligned flag: numpy aligns
        # the memory an array owns, and f2py copies an array that is not
        a = well_conditioned(n)
        raw = np.zeros(a.nbytes + 1, dtype=np.uint8)
        misaligned = np.ndarray(a.shape, dtype=a.dtype, buffer=raw, offset=1, order="F")
        misaligned[...] = a
        assert not misaligned.flags.aligned and misaligned.flags.f_contiguous
        expected = lu_factor(a)
        factors = linalg._factor_owned(misaligned)
        assert not np.shares_memory(factors.lu, raw)
        assert misaligned.tobytes() == a.tobytes() and misaligned.flags.writeable
        assert factors.lu.tobytes() == expected.lu.tobytes()
        assert factors.piv.tobytes() == expected.piv.tobytes()

    def test_lu_factor_leaves_the_same_array_alone(self, n):
        a = well_conditioned(n)
        before = a.copy()
        factors = lu_factor(a)
        assert np.array_equal(a, before)
        assert a.flags.writeable
        assert not np.shares_memory(factors.lu, a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 31])
def test_factor_owned_returns_exactly_factors(n):
    # a plain _Factors tuple; the benchmark's tracer reads factors.n
    factors = linalg._factor_owned(well_conditioned(n))
    assert type(factors) is linalg._Factors
    assert factors.n == n and factors == (factors.lu, factors.piv, factors.n)


def scanned_factor(a):
    """getrf's ``(lu, piv)`` of a finite n x n ``a``, n >= LAPACK_MIN_N, checked
    by a scan of every pivot, as ``_factor_owned`` checked them before it took
    their minimum first; it raises as ``_factor_owned`` does."""
    lapack = linalg._lapack()
    threshold = a.shape[0] * EPS * lapack.dlange("I", a)
    lu, piv, _ = lapack.dgetrf(a)
    pivots = np.abs(lu.diagonal())
    bad = np.flatnonzero(~(pivots >= threshold) | (pivots == 0.0))
    if bad.size:
        k = int(bad[0])
        raise linalg._singular(pivots[k], threshold, k)
    return lu, piv


def growth_matrix(n):
    """Wilkinson's matrix with its last two columns all ones, scaled so that
    the largest row sum is float64's largest value: elimination doubles the
    last two columns at each step, so from n = 5 on they overflow, and the last
    pivot is inf - 0 * inf, NaN, behind finite and infinite pivots."""
    a = np.tril(-np.ones((n, n)), -1) + np.eye(n)
    a[:, -2:] = 1.0
    return a * (np.finfo(np.float64).max / n)


@st.composite
def near_singular_systems(draw):
    """A finite n x n matrix, n in {4, 5, 8}, of one of seven kinds: entries in
    [-4, 4]; small integers and signed zeros, whose pivots tie or vanish; a
    column of zeros or of -0.0; a row that is a combination of two others; a
    pivot exactly on the threshold ``n * eps * norm_inf(A)``, or one ulp under
    it; a row whose sum overflows, so that no finite pivot meets the threshold;
    :func:`growth_matrix`, whose last pivot is NaN from n = 5 on."""
    n = draw(st.sampled_from([4, 5, 8]))

    def vector(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    kind = draw(st.sampled_from(
        ["entries", "ties", "zero_column", "combination", "threshold", "overflow", "growth"]
    ))
    if kind == "growth":
        return growth_matrix(n)
    if kind == "ties":
        a = vector(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), n * n).reshape(n, n)
    else:
        a = vector(st.floats(-4.0, 4.0), n * n).reshape(n, n)
    if kind == "zero_column":
        a[:, draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "combination":
        # exactly singular, or singular but for the rounding of the sum
        i, j, k = draw(st.permutations(range(n)))[:3]
        a[k] = a[i] + draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0])) * a[j]
    elif kind == "threshold":
        # as in kernel_systems: upper triangular, row k holds only its pivot,
        # and the rows are shuffled so that pivoting has to find them again
        k = draw(st.integers(0, n - 1))
        a = np.triu(vector(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), n * n).reshape(n, n))
        a[k, k + 1 :] = 0.0
        a[k, k] = n * EPS * max(np.abs(a[i]).sum() for i in range(n) if i != k)
        if draw(st.booleans()):
            a[k, k] = np.nextafter(a[k, k], 0.0)
        a = a[draw(st.permutations(range(n)))]
    elif kind == "overflow":
        a[draw(st.integers(0, n - 1))] = vector(st.sampled_from([1e308, -1e308, 1.5e308]), n)
    return a


# a -0.0 pivot in column 2, after which getrf goes on to column 3
NEGATIVE_ZERO_PIVOT = np.diag([1.0, 2.0, -0.0, 3.0])


class TestLapackPivotCheck:
    """At n >= LAPACK_MIN_N the minimum pivot decides whether the full scan runs."""

    @settings(max_examples=300, deadline=None)
    @given(near_singular_systems())
    @example(NEGATIVE_ZERO_PIVOT)
    @example(growth_matrix(5))
    def test_raises_exactly_when_a_scan_finds_a_bad_pivot(self, a):
        try:
            lu, piv = scanned_factor(a)
        except SingularMatrix as exc:
            assert_raises_as(exc, linalg._factor_owned, np.asfortranarray(a))
            return
        factors = linalg._factor_owned(np.asfortranarray(a))
        assert factors.lu.tobytes() == lu.tobytes() and factors.piv.tobytes() == piv.tobytes()


@pytest.mark.parametrize("n", [4, 31, 301])
def test_solve_keeps_the_bytes_of_b_and_piv(n):
    # _solve hands dgetrs the factors' own pivots and b, which f2py copies;
    # dgetrs shifts the pivots to 1-based and back in place
    rng = np.random.default_rng(n)
    a = np.asfortranarray(rng.uniform(-1.0, 1.0, (n, n)))
    public = lu_factor(a)
    factors = linalg._factor_owned(a)
    assert not np.array_equal(factors.piv, np.arange(n))
    b = rng.uniform(-1.0, 1.0, n)
    b_before, piv_before = b.tobytes(), factors.piv.tobytes()
    x = linalg._solve(factors, b)
    assert b.tobytes() == b_before and factors.piv.tobytes() == piv_before
    assert not np.shares_memory(x, b)
    assert x.tobytes() == lu_solve(public, b).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factor_owned_leaves_small_systems_alone(n):
    a = well_conditioned(n)
    before = a.copy()
    lu, piv, size = linalg._factor_owned(a)
    assert np.array_equal(a, before)
    assert a.flags.writeable
    # the loop's own lists, which share no memory with a
    assert type(lu) is type(piv) is list and size == n
    expected = lu_factor(before)
    assert (lu, piv) == (expected.lu.tolist(), expected.piv.tolist())


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
        assert duplicate.lu is factors.lu and duplicate.piv is factors.piv
        assert not duplicate.lu.flags.writeable and not duplicate.piv.flags.writeable
        assert duplicate.lu.tobytes() == factors.lu.tobytes()
        assert duplicate.piv.tobytes() == factors.piv.tobytes()
        b = np.arange(1.0, n + 1.0)
        assert lu_solve(duplicate, b).tobytes() == lu_solve(factors, b).tobytes()


def asarray_norm2(v):
    """norm2 written out: asarray to float64, the ndim check, then sqrt of the dot."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim > 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    return math.sqrt(v.dot(v))


class DoubledDot(np.ndarray):
    """An ndarray subclass whose dot is not ndarray's, which norm2 must not call."""

    def dot(self, other):
        return 2.0 * np.asarray(self).dot(np.asarray(other))


def read_only(v):
    v.flags.writeable = False
    return v


# float32 squares summed in float32 round differently; int64 squares of 2**32
# wrap to 0 in int64 arithmetic
NORM2_INPUTS = {
    "contiguous": np.array([0.1, 0.2, 0.3]),
    "strided": (np.arange(1.0, 7.0) / 3.0)[::2],
    "read-only": read_only(np.array([0.1, 0.2, 0.3])),
    "big-endian": np.array([0.1, 0.2, 0.3], dtype=">f8"),
    "subclass": np.array([0.1, 0.2, 0.3]).view(DoubledDot),
    "float32": np.array([0.1, 0.2, 0.3], dtype=np.float32),
    "int64": np.array([2**32, 3], dtype=np.int64),
    "list": [0.1, 0.2, 0.3],
    "float": 0.3,
    "0-d": np.array(0.3),
    "2-D": np.ones((2, 2)),
    "2-D float32": np.ones((2, 3), dtype=np.float32),
}


class TestNorm2:
    def test_zero_vector(self):
        assert norm2([0.0, 0.0, 0.0]) == 0.0

    def test_pythagorean(self):
        assert norm2([3.0, 4.0]) == 5.0

    def test_ones(self):
        assert norm2([1.0, 1.0, 1.0, 1.0]) == 2.0

    def test_nan_propagates(self):
        assert np.isnan(norm2([1.0, np.nan]))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (1, 2, 2)])
    def test_matrix_raises_naming_its_shape(self, shape):
        with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {shape}")):
            norm2(np.ones(shape))

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

    @pytest.mark.parametrize("v", NORM2_INPUTS.values(), ids=NORM2_INPUTS.keys())
    def test_bits_and_errors_of_the_asarray_formula(self, v):
        try:
            expected = asarray_norm2(v)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                norm2(v)
            assert raised.value.args == exc.args
        else:
            result = norm2(v)
            assert type(result) is float
            assert np.float64(result).tobytes() == np.float64(expected).tobytes()
