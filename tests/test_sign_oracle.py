"""Exact sympy oracle for the sign conventions of `exterior`.

An independent implementation in exact Rational arithmetic: wedge signs
from `Permutation.signature()`, Hodge signs from `LeviCivita`, interior
products and pullbacks by evaluating the form on basis vectors with
`sympy.Matrix` minors.  On small-integer forms every float of `exterior`
is an exact integer, so each coefficient must match exactly.  The one
exception is a pullback by a general matrix: `np.linalg.det` exponentiates
the log-determinant of an LU factorization, so its minors are exact only
when every pivot is +-1, as for signed permutation matrices, and a general
integer matrix is compared up to that rounding (det [[-3]] reads
-3.0000000000000004).
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st
from sympy import LeviCivita, Matrix, Rational
from sympy.combinatorics import Permutation

from g2fueter import exterior as ex

EXAMPLES = 40


def _exact(form):
    return {k: Rational(int(c)) for k, c in form.coeffs.items()}


def _floats(exact):
    return {k: float(v) for k, v in exact.items() if v != 0}


def _sorting_sign(seq):
    """Signature of the permutation sorting the distinct indices seq."""
    order = sorted(seq)
    return Permutation([order.index(i) for i in seq]).signature()


def _evaluate(coeffs, columns):
    """a(w_1, ..., w_k) = sum_I a_I det(W[I, :]) for the n x k matrix W."""
    return sum((c * columns.extract([i - 1 for i in idx], list(range(columns.cols))).det()
                for idx, c in coeffs.items()), Rational(0))


def wedge_exact(a, b):
    out = {}
    for (ia, ca), (ib, cb) in itertools.product(a.items(), b.items()):
        if set(ia) & set(ib):
            continue
        key = tuple(sorted(ia + ib))
        out[key] = out.get(key, 0) + _sorting_sign(ia + ib) * ca * cb
    return out


def hodge_exact(a, n):
    # *e^I = eps(I, I^c) e^{I^c}, so that e^I ^ *e^I = vol
    out = {}
    for idx, c in a.items():
        comp = tuple(i for i in range(1, n + 1) if i not in idx)
        out[comp] = out.get(comp, 0) + LeviCivita(*idx, *comp) * c
    return out


def interior_exact(v, a, n, k):
    # (i_v a)(e_J) = a(v, e_J)
    out = {}
    for J in itertools.combinations(range(1, n + 1), k - 1):
        columns = Matrix.hstack(Matrix(v), *(Matrix.eye(n)[:, j - 1] for j in J))
        out[J] = _evaluate(a, columns)
    return out


def pullback_exact(A, a, n, k):
    # (A^* a)(e_J) = a(A e_J)
    return {J: _evaluate(a, A.extract(list(range(n)), [j - 1 for j in J]))
            for J in itertools.combinations(range(1, n + 1), k)}


@st.composite
def integer_forms(draw, n, k):
    keys = list(itertools.combinations(range(1, n + 1), k))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=4))
    return ex.Form(n, k, {key: float(draw(st.integers(-3, 3))) for key in chosen})


@st.composite
def dim_and_form(draw, min_degree):
    n = draw(st.integers(3, 8))
    return n, draw(integer_forms(n, draw(st.integers(min_degree, n))))


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_wedge_matches_permutation_signs(data):
    n = data.draw(st.integers(3, 8))
    p = data.draw(st.integers(0, n))
    q = data.draw(st.integers(0, n - p))
    a, b = data.draw(integer_forms(n, p)), data.draw(integer_forms(n, q))
    assert ex.wedge(a, b).coeffs == _floats(wedge_exact(_exact(a), _exact(b)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(dim_and_form(0))
def test_hodge_matches_levi_civita(case):
    n, a = case
    assert ex.hodge(a).coeffs == _floats(hodge_exact(_exact(a), n))


@settings(max_examples=EXAMPLES, deadline=None)
@given(dim_and_form(1), st.data())
def test_interior_matches_evaluation(case, data):
    n, a = case
    v = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    got = ex.interior(np.array(v, dtype=float), a)
    assert got.coeffs == _floats(interior_exact(v, _exact(a), n, a.degree))


@settings(max_examples=EXAMPLES, deadline=None)
@given(dim_and_form(1), st.data())
def test_pullback_matches_minors_exactly(case, data):
    # signed permutation matrices, whose minors np.linalg.det gets exactly
    n, a = case
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    A = np.zeros((n, n))
    A[list(range(n)), perm] = signs
    got = ex.pullback(A, a)
    assert got.coeffs == _floats(pullback_exact(Matrix(A.astype(int)), _exact(a), n, a.degree))


@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(dim_and_form(1), st.data())
def test_pullback_matches_minors_of_general_matrices(case, data):
    n, a = case
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    A = np.array(entries, dtype=float).reshape(n, n)
    got = ex.pullback(A, a)
    expected = pullback_exact(Matrix(n, n, entries), _exact(a), n, a.degree)
    for J, value in expected.items():
        assert abs(got.coeffs.get(J, 0.0) - float(value)) <= 1e-9 * max(1.0, abs(float(value)))
    assert set(got.coeffs) <= set(expected)
