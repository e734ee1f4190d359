"""Independent check of an `snf` report against the Smith normal form contract.

U M V = D with D diagonal, non-negative and each entry dividing the next,
det U and det V = +-1; on small matrices also d1...dk = gcd of the k x k
minors of M.  Integer arithmetic only, sharing no code with picstab.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def det(m) -> int:
    """Bareiss fraction-free elimination."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def minor_gcd(m, k: int) -> int:
    n_rows, n_cols = len(m), len(m[0])
    g = 0
    for rows in combinations(range(n_rows), k):
        for cols in combinations(range(n_cols), k):
            g = gcd(g, det([[m[i][j] for j in cols] for i in rows]))
    return g


def check(matrix, report, minors: bool) -> str | None:
    """None when the report honours the contract, else the first violation."""
    u, d, v = report["U"], report["D"], report["V"]
    if _mul(_mul(u, matrix), v) != d:
        return "U M V != D"
    n = min(len(d), len(d[0]))
    if any(d[i][j] for i in range(len(d)) for j in range(len(d[0])) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(n)]
    if any(x < 0 for x in diag):
        return "negative diagonal entry"
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return f"divisibility fails: {a} then {b}"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "U or V is not unimodular"
    if minors:
        prod = 1
        for k in range(1, n + 1):
            prod *= diag[k - 1]
            if minor_gcd(matrix, k) != prod:
                return f"d1..d{k} differs from the gcd of the {k}x{k} minors"
    return None
