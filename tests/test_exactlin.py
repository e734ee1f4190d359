import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picstab.exactlin import (
    FieldTooLarge,
    FqMatrix,
    NoSolution,
    NotPrime,
    ZMatrix,
    _canonical_modulus,
    _is_irreducible,
    det,
    fq_make,
    is_prime,
    kernel_basis,
    minor_gcd,
    rank,
    rref,
    smith_normal_form,
    solve,
)

SETTINGS = dict(max_examples=60, derandomize=True, deadline=None)


# ---------------------------------------------------------------------------
# field construction


def poly_eval_f2(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs)) % 2


def test_f2_is_prime_field_with_modulus_x():
    f = fq_make(2, 1)
    assert (f.p, f.e, f.q) == (2, 1, 2)
    assert f.modulus == (0, 1)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: enumerate all 4 monic quadratics over F_2 and keep those
    # without roots (degree 2: no roots == irreducible)
    irreducible = [
        (c0, c1, 1)
        for c0, c1 in product(range(2), repeat=2)
        if all(poly_eval_f2((c0, c1, 1), x) != 0 for x in range(2))
    ]
    assert irreducible == [(1, 1, 1)]
    assert fq_make(2, 2).modulus == (1, 1, 1)


def test_f3_prime_field():
    f = fq_make(3, 1)
    assert f.q == 3 and f.modulus == (0, 1)


def test_field_errors():
    with pytest.raises(NotPrime):
        fq_make(4, 1)
    with pytest.raises(FieldTooLarge):
        fq_make(2, 17)
    assert fq_make(2, 16).q == 65536


def _unfiltered_modulus(p, e):
    """Reference: the first candidate passing the full irreducibility test."""
    for lower in product(range(p), repeat=e):
        if _is_irreducible(list(lower) + [1], p):
            return tuple(lower) + (1,)


def test_canonical_modulus_root_prefilter_keeps_the_modulus():
    cases = [(p, e) for p in range(2, 32) if is_prime(p) for e in range(2, 11) if p**e <= 1024]
    assert len(cases) == 26
    for p, e in cases:
        assert _canonical_modulus(p, e) == _unfiltered_modulus(p, e), (p, e)


@pytest.mark.parametrize("pq", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_field_axioms_exhaustive_small(pq):
    f = fq_make(*pq)
    els = range(f.q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in product(els, els, els):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_primitive_element_order():
    for pq in [(2, 2), (3, 2), (2, 3)]:
        f = fq_make(*pq)
        g = f.primitive_element()
        assert f.element_order(g) == f.q - 1


# ---------------------------------------------------------------------------
# row reduction, kernels, solving


def brute_rank(m: FqMatrix) -> int:
    """Independent oracle: size of the largest invertible square minor."""
    f = m.field
    best = 0
    from itertools import combinations

    for k in range(1, min(m.rows, m.cols) + 1):
        for rws in combinations(range(m.rows), k):
            for cls in combinations(range(m.cols), k):
                sub = FqMatrix(f, m.a[np.ix_(rws, cls)])
                if _brute_invertible(sub):
                    best = k
    return best


def _brute_invertible(m: FqMatrix) -> bool:
    # expansion by permutations (sizes are tiny)
    from itertools import permutations

    f = m.field
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term = f.mul(term, int(m.a[i, perm[i]]))
        sign_is_neg = _perm_sign(perm) < 0
        total = f.add(total, f.neg(term) if sign_is_neg else term)
    return total != 0


def _perm_sign(perm) -> int:
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def test_rref_identity(F2):
    m = FqMatrix.identity(F2, 3)
    r, piv, rk = rref(m)
    assert r == m and rk == 3 and piv == (0, 1, 2)


def test_rref_zero(F2):
    m = FqMatrix.zeros(F2, 2, 2)
    r, piv, rk = rref(m)
    assert r == m and rk == 0 and piv == ()


def test_rref_rank_one(F2):
    m = FqMatrix.from_rows(F2, [[1, 1], [1, 1]])
    r, _, rk = rref(m)
    assert r.a.tolist() == [[1, 1], [0, 0]]
    assert rk == 1 == brute_rank(m)


def test_kernel_identity_and_zero(F2):
    assert kernel_basis(FqMatrix.identity(F2, 3)).cols == 0
    k = kernel_basis(FqMatrix.zeros(F2, 3, 3))
    assert k.cols == 3


def test_kernel_explicit(F2):
    m = FqMatrix.from_rows(F2, [[1, 1]])
    k = kernel_basis(m)
    # oracle: enumerate all 4 vectors of F_2^2
    null = [v for v in product(range(2), repeat=2) if (v[0] + v[1]) % 2 == 0 and any(v)]
    assert null == [(1, 1)]
    assert k.cols == 1 and k.a[:, 0].tolist() == [1, 1]


def test_solve_identity(F2):
    b = FqMatrix.from_rows(F2, [[1], [0]])
    assert solve(FqMatrix.identity(F2, 2), b) == b


def test_solve_no_solution_zero_matrix(F2):
    with pytest.raises(NoSolution):
        solve(FqMatrix.zeros(F2, 2, 2), FqMatrix.from_rows(F2, [[1], [0]]))


def test_solve_no_solution_rank_deficient(F2):
    m = FqMatrix.from_rows(F2, [[1, 1], [0, 0]])
    rhs = FqMatrix.from_rows(F2, [[0], [1]])
    # oracle: all 4 candidate vectors fail
    for x in product(range(2), repeat=2):
        got = [(x[0] + x[1]) % 2, 0]
        assert got != [0, 1]
    with pytest.raises(NoSolution):
        solve(m, rhs)


@st.composite
def fq_matrices(draw, fields=((2, 1), (3, 1), (2, 2))):
    p, e = draw(st.sampled_from(fields))
    f = fq_make(p, e)
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, f.q - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return FqMatrix.from_rows(f, entries)


@given(fq_matrices())
@settings(**SETTINGS)
def test_rref_idempotent_and_rank_transpose(m):
    r, _, rk = rref(m)
    r2, _, rk2 = rref(r)
    assert r2 == r and rk2 == rk
    assert rank(m) == rank(m.t())


@given(fq_matrices())
@settings(**SETTINGS)
def test_kernel_contract(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert rank(k) == k.cols == m.cols - rank(m)


@given(fq_matrices())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_rank_matches_brute_minor_rank(m):
    if m.rows <= 4 and m.cols <= 4:
        assert rank(m) == brute_rank(m)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    m = ZMatrix.identity(3)
    u, d, v = smith_normal_form(m)
    assert u == d == v == m


def test_snf_zero():
    m = ZMatrix.zeros(2, 3)
    _, d, _ = smith_normal_form(m)
    assert d == ZMatrix.zeros(2, 3)


def test_snf_example():
    m = ZMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    # oracle: d1 = gcd of entries, d1*d2 = |det|
    assert d.diagonal_entries() == (2, 4)
    assert (u @ m @ v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(**SETTINGS)
def test_snf_contract(rows):
    m = ZMatrix(rows)
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v) == d
    assert det(u) in (-1, 1) and det(v) in (-1, 1)
    diag = list(d.diagonal_entries())
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    # gcd-of-minors oracle: d1 ... dk = gcd of all k x k minors
    prod = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        prod *= diag[k - 1]
        assert abs(prod) == minor_gcd(m, k) or (prod == 0 and minor_gcd(m, k) == 0)


def test_off_diagonal_is_zero():
    m = ZMatrix([[0, 7], [5, 0], [3, 3]])
    u, d, v = smith_normal_form(m)
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    assert (u @ m @ v) == d


def test_snf_extreme_shapes():
    for rows in ([[6, 10, 15]], [[6], [10], [15]]):
        m = ZMatrix(rows)
        u, d, v = smith_normal_form(m)
        assert (u @ m @ v) == d
        assert d.diagonal_entries() == (1,)  # gcd(6, 10, 15) = 1
    wide = ZMatrix([[0, 0, 0, 0, 0]])
    _, d, _ = smith_normal_form(wide)
    assert d.diagonal_entries() == (0,)


def test_snf_large_entries_stay_exact():
    big = 10**30
    m = ZMatrix([[big, big + 2], [big + 6, big + 12]])
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v) == d
    diag = d.diagonal_entries()
    assert diag[0] == math.gcd(big, big + 2, big + 6)
    assert diag[0] * diag[1] == abs(det(m))


@given(st.data())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_matmul_and_kron_match_scalar_arithmetic(data):
    f = fq_make(*data.draw(st.sampled_from([(2, 2), (3, 2), (2, 3)])))
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = FqMatrix.from_rows(
        f, [[data.draw(st.integers(0, f.q - 1)) for _ in range(k)] for _ in range(n)]
    )
    b = FqMatrix.from_rows(
        f, [[data.draw(st.integers(0, f.q - 1)) for _ in range(m)] for _ in range(k)]
    )
    got = (a @ b).a
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = f.add(acc, f.mul(int(a.a[i, t]), int(b.a[t, j])))
            assert acc == got[i, j]
    kr = a.kron(b).a
    for i in range(n):
        for ii in range(k):
            for j in range(k):
                for jj in range(m):
                    assert kr[i * k + ii, j * m + jj] == f.mul(
                        int(a.a[i, j]), int(b.a[ii, jj])
                    )


@given(st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_vectorized_field_ops_match_scalar(data):
    import numpy as np

    f = fq_make(*data.draw(st.sampled_from([(2, 2), (3, 2), (2, 3)])))
    a = data.draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=8))
    b = data.draw(st.lists(st.integers(0, f.q - 1), min_size=len(a), max_size=len(a)))
    av, bv = np.array(a), np.array(b)
    assert f.vadd(av, bv).tolist() == [f.add(x, y) for x, y in zip(a, b)]
    assert f.vmul(av, bv).tolist() == [f.mul(x, y) for x, y in zip(a, b)]
    assert f.vneg(av).tolist() == [f.neg(x) for x in a]
    nz = [x for x in a if x]
    if nz:
        assert f.vinv(np.array(nz)).tolist() == [f.inv(x) for x in nz]
