"""Each problem's F and J against the formula it states, built with sympy.

The formulas of a, b, c and e are parsed from ``Problem.description``, with
``^`` read as ``**`` and the symbols ``x1..xn``; d is built at each size from
its stated rule, ``x_i*x_{i+1} - 1`` with the last index wrapping around to
``x1``.  J is sympy's derivative of each entry of F with respect to each
symbol the entry holds, so every other entry of J must be exactly 0.  The
formulas are evaluated on the same numpy float64 scalars as the callables, so
the two may differ only in the order of their roundings: within a few ulps of
the sum of the magnitudes of an entry's terms.
"""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shamanskii.linalg import EPS
from shamanskii.problems import registry_get

ULPS = 4
# the functions the descriptions name; lambdify's own "numpy" namespace takes
# about 0.3 s to import
NUMPY_FUNCTIONS = {name: getattr(np, name) for name in ("cos", "sin", "exp", "log")}
CYCLIC_SIZES = (1, 2, 3, 4, 5, 31, 301)
CASES = [("a", 2), ("b", 2), ("c", 3), ("e", 2)] + [("d", n) for n in CYCLIC_SIZES]


def stated_residual(name: str, n: int, xs: tuple) -> list:
    """The entries of F that problem ``name`` states, at size ``n``."""
    import sympy

    if name == "d":
        return [xs[i] * xs[(i + 1) % n] - 1 for i in range(n)]
    text = registry_get(name).description.replace("^", "**")
    return list(sympy.parse_expr(text, {str(x): x for x in xs}))


@functools.cache
def stated_system(name: str, n: int):
    """``(f, jac, rows, cols)``: ``f(x)`` gives the entries of F, each as its
    value and the sum of its terms' magnitudes, and ``jac(x)`` the same for
    the nonzero entries of J, which sit at ``(rows, cols)``."""
    import sympy

    xs = sympy.symbols(f"x1:{n + 1}")
    residual = stated_residual(name, n, xs)
    assert len(residual) == n
    column = {x: j for j, x in enumerate(xs)}
    where, jacobian = [], []
    for i, entry in enumerate(residual):
        # the entry with its symbols renamed y0, y1, ... in column order, so
        # that d's entries share one template, differentiated once at any n
        own = sorted(entry.free_symbols, key=column.get)
        ys = sympy.symbols(f"y:{len(own)}")
        template = entry.xreplace(dict(zip(own, ys)))
        for x, y in zip(own, ys):
            where.append((i, column[x]))
            jacobian.append(derivative(template, y).xreplace(dict(zip(ys, own))))
    rows, cols = (np.array(index, dtype=np.intp) for index in zip(*where))
    return evaluator(xs, residual), evaluator(xs, jacobian), rows, cols


@functools.cache
def derivative(template, y):
    return template.diff(y)


def evaluator(xs: tuple, entries: list):
    """``x -> (values, scales)`` for sympy ``entries`` in the symbols ``xs``."""
    import sympy

    terms = [sympy.Add.make_args(entry) for entry in entries]
    owner = np.repeat(np.arange(len(entries)), [len(t) for t in terms])
    flat = sympy.lambdify(xs, [t for ts in terms for t in ts], [NUMPY_FUNCTIONS])

    def evaluate(x: np.ndarray):
        # numpy float64 scalars, so the terms round as the callables' do
        values = np.array(flat(*x), dtype=np.float64)
        return (np.bincount(owner, values, len(entries)),
                np.bincount(owner, np.abs(values), len(entries)))

    return evaluate


def in_domain(name: str, n: int):
    """Points inside ``name``'s domain, in a box where no term overflows."""
    coordinate = st.floats(-10.0, 10.0, allow_subnormal=False)
    if name != "c":
        return arrays(np.float64, n, elements=coordinate)
    # x2 feeds a reciprocal and x3 is the base of a real power.  sympy writes
    # dF2/dx3 as x1*x3**x1/x3, where the callable computes x3**(x1 - 1), whose
    # rounding of x1 - 1 the power scales by |log(x3)|: this box keeps that
    # under 1.4 * EPS of the entry
    away_from_zero = st.floats(0.1, 10.0).flatmap(lambda v: st.sampled_from([v, -v]))
    return st.tuples(st.floats(-2.0, 2.0), away_from_zero, st.floats(0.25, 4.0)).map(np.array)


def assert_within_ulps(got: np.ndarray, stated: np.ndarray, scales: np.ndarray) -> None:
    gap = np.abs(got - stated)
    assert (gap <= ULPS * EPS * scales).all(), (got, stated, gap)


@pytest.mark.parametrize("name, n", CASES, ids=[f"{name}{n}" for name, n in CASES])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_residual_and_jacobian_follow_the_stated_formula(name, n, data):
    # imported when the test runs, not when it is collected: sympy's objects
    # would make every full garbage collection of the rest of the run slower
    pytest.importorskip("sympy")
    problem = registry_get(name)
    f, jac, rows, cols = stated_system(name, n)
    x = data.draw(in_domain(name, n))
    assert_within_ulps(problem.residual(x), *f(x))
    got = np.asarray(problem.jacobian(x))
    assert_within_ulps(got[rows, cols], *jac(x))
    structural_zeros = np.ones((n, n), dtype=bool)
    structural_zeros[rows, cols] = False
    assert (got[structural_zeros] == 0.0).all()
