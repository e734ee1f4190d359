"""Exact linear algebra over small finite fields F_q and over the integers.

Field elements are stored as integer codes 0..q-1: the base-p digits of a
code are the coefficients (constant term first) of a polynomial over F_p,
reduced modulo a canonical irreducible modulus.  All matrix routines work on
immutable numpy int64 arrays of codes, vectorised per field.  Integer
matrices (for Smith normal form) use arbitrary-precision Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

MAX_FIELD_ORDER = 1 << 16


class NotPrime(ValueError):
    pass


class FieldTooLarge(ValueError):
    pass


class NoSolution(ValueError):
    """Raised by solve() when the right-hand side is outside the column space."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division (inputs stay below 2^16 here)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian coefficient lists)


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    a = _poly_trim([c % p for c in a])
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        a = _poly_trim(a)
    return a


def _poly_powmod(a: Sequence[int], n: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, f, p)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        n >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    e = len(f) - 1
    if e == 1:
        return True
    x = [0, 1]
    # x^(p^e) == x mod f, and gcd(x^(p^(e/r)) - x, f) = 1 for prime r | e
    if _poly_mod(
        [(c1 - c2) % p for c1, c2 in zip_pad(_poly_powmod(x, p**e, f, p), x)], f, p
    ):
        return False
    for r in factorize(e):
        t = _poly_powmod(x, p ** (e // r), f, p)
        diff = _poly_trim([(c1 - c2) % p for c1, c2 in zip_pad(t, x)])
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 >= 1:
            return False
    return True


def zip_pad(a: Sequence[int], b: Sequence[int]) -> Iterable[tuple[int, int]]:
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over F_p.

    Candidates are compared by their coefficient tuples in constant-to-leading
    order, so the choice is reproducible without any polynomial table.
    """
    if e == 1:
        return (0, 1)
    for lower in product(range(p), repeat=e):
        f = list(lower) + [1]
        # a root in F_p is a linear factor; this cheap test rejects most
        # candidates (all those with constant term 0) before the full test
        if not _has_root(f, p) and _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def _has_root(f: Sequence[int], p: int) -> bool:
    for a in range(p):
        value = 0
        for c in reversed(f):
            value = (value * a + c) % p
        if value == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# the field


@dataclass(frozen=True)
class Fq:
    """The finite field F_{p^e} with a deterministic modulus.

    Use :func:`fq_make` rather than the constructor, so that derived lookup
    tables are shared.
    """

    p: int
    e: int
    modulus: tuple[int, ...]
    _tables: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def q(self) -> int:
        return self.p**self.e

    # -- scalar arithmetic --------------------------------------------------

    def _code_to_poly(self, c: int) -> list[int]:
        out = []
        while c:
            out.append(c % self.p)
            c //= self.p
        return out

    def _poly_to_code(self, a: Sequence[int]) -> int:
        return sum(int(ai) * self.p**i for i, ai in enumerate(a))

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(np.int64(a), np.int64(b)))

    def sub(self, a: int, b: int) -> int:
        return int(self.vadd(np.int64(a), self.vneg(np.int64(b))))

    def neg(self, a: int) -> int:
        return int(self.vneg(np.int64(a)))

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(np.int64(a), np.int64(b)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        exp, log = self._exp_log()
        return int(exp[(self.q - 1 - log[a]) % (self.q - 1)])

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n else 1
        exp, log = self._exp_log()
        return int(exp[(int(log[a]) * n) % (self.q - 1)])

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("order of zero")
        _, log = self._exp_log()
        return (self.q - 1) // math.gcd(self.q - 1, int(log[a]))

    def primitive_element(self) -> int:
        exp, _ = self._exp_log()
        return int(exp[1]) if self.q > 2 else 1

    # -- derived tables -----------------------------------------------------

    def _weights(self) -> np.ndarray:
        w = self._tables.get("w")
        if w is None:
            w = self.p ** np.arange(self.e, dtype=np.int64)
            self._tables["w"] = w
        return w

    def _exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        t = self._tables.get("exp_log")
        if t is None:
            q = self.q
            gen = None
            orders = factorize(q - 1) if q > 2 else {}
            for c in range(2, q):
                cp = self._code_to_poly(c)
                ok = True
                for r in orders:
                    t_pow = _poly_powmod(cp, (q - 1) // r, self.modulus, self.p)
                    if self._poly_to_code(t_pow) == 1:
                        ok = False
                        break
                if ok:
                    gen = c
                    break
            if gen is None:
                gen = 1  # q == 2
            exp = np.zeros(max(q - 1, 1), dtype=np.int64)
            log = np.zeros(q, dtype=np.int64)
            acc = [1]
            gp = self._code_to_poly(gen)
            for i in range(q - 1):
                code = self._poly_to_code(acc)
                exp[i] = code
                log[code] = i
                acc = _poly_mod(_poly_mul(acc, gp, self.p), self.modulus, self.p)
            t = (exp, log)
            self._tables["exp_log"] = t
        return t

    def _reduction_matrix(self) -> np.ndarray:
        """R[t, s]: coefficient of x^s in (x^t mod modulus), t < 2e-1."""
        r = self._tables.get("red")
        if r is None:
            rows = []
            for t in range(2 * self.e - 1):
                red = _poly_mod([0] * t + [1], self.modulus, self.p)
                rows.append([red[s] if s < len(red) else 0 for s in range(self.e)])
            r = np.array(rows, dtype=np.int64)
            self._tables["red"] = r
        return r

    # -- vectorised arithmetic on code arrays -------------------------------

    def _digits(self, a: np.ndarray) -> np.ndarray:
        return (a[..., None] // self._weights()) % self.p

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a + b) % self.p
        d = (self._digits(a) + self._digits(b)) % self.p
        return (d * self._weights()).sum(axis=-1)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (-a) % self.p
        d = (self.p - self._digits(a)) % self.p
        return (d * self._weights()).sum(axis=-1)

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vadd(a, self.vneg(b))

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a * b) % self.p
        exp, log = self._exp_log()
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        mask = (a != 0) & (b != 0)
        if out.ndim == 0:
            if mask:
                return exp[(log[a] + log[b]) % (self.q - 1)]
            return out
        av = np.broadcast_to(a, out.shape)[mask]
        bv = np.broadcast_to(b, out.shape)[mask]
        out[mask] = exp[(log[av] + log[bv]) % (self.q - 1)]
        return out

    def vinv(self, a: np.ndarray) -> np.ndarray:
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero field element")
        exp, log = self._exp_log()
        return exp[(self.q - 1 - log[a]) % (self.q - 1)]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a @ b) % self.p
        # convolve base-p digit planes, then reduce modulo the modulus
        ad = self._digits(a)
        bd = self._digits(b)
        planes = np.zeros((2 * self.e - 1,) + (a.shape[0], b.shape[1]), dtype=np.int64)
        for i in range(self.e):
            for j in range(self.e):
                planes[i + j] = (planes[i + j] + ad[..., i] @ bd[..., j]) % self.p
        red = self._reduction_matrix()
        digits = np.tensordot(planes, red, axes=(0, 0)) % self.p
        return (digits * self._weights()).sum(axis=-1)


@lru_cache(maxsize=None)
def fq_make(p: int, e: int) -> Fq:
    """The field F_{p^e} with its canonical (lexicographically least) modulus."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if p**e > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"field order {p}^{e} exceeds {MAX_FIELD_ORDER}")
    return Fq(p, e, _canonical_modulus(p, e))


# ---------------------------------------------------------------------------
# matrices over F_q


class FqMatrix:
    """An immutable matrix of F_q element codes."""

    __slots__ = ("field", "a")

    def __init__(self, fq: Fq, a: np.ndarray):
        a = np.asarray(a, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("FqMatrix requires a 2-d array")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "field", fq)
        object.__setattr__(self, "a", a)

    def __setattr__(self, *args):
        raise AttributeError("FqMatrix is immutable")

    @classmethod
    def zeros(cls, fq: Fq, rows: int, cols: int) -> "FqMatrix":
        return cls(fq, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, fq: Fq, n: int) -> "FqMatrix":
        return cls(fq, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, fq: Fq, rows: Sequence[Sequence[int]]) -> "FqMatrix":
        a = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
        if np.any(a < 0) or np.any(a >= fq.q):
            raise ValueError("entry out of range for field")
        return cls(fq, a)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqMatrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"FqMatrix(F{self.field.q}, {self.a.tolist()})"

    def is_zero(self) -> bool:
        return not np.any(self.a)

    def __add__(self, other: "FqMatrix") -> "FqMatrix":
        return FqMatrix(self.field, self.field.vadd(self.a, other.a))

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        return FqMatrix(self.field, self.field.vsub(self.a, other.a))

    def __neg__(self) -> "FqMatrix":
        return FqMatrix(self.field, self.field.vneg(self.a))

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return FqMatrix(self.field, self.field.matmul(self.a, other.a))

    def t(self) -> "FqMatrix":
        return FqMatrix(self.field, self.a.T)

    def scale(self, c: int) -> "FqMatrix":
        return FqMatrix(self.field, self.field.vmul(self.a, np.int64(c)))

    def kron(self, other: "FqMatrix") -> "FqMatrix":
        f = self.field
        na, ma = self.a.shape
        nb, mb = other.a.shape
        prod = f.vmul(
            self.a[:, None, :, None], other.a[None, :, None, :]
        ).reshape(na * nb, ma * mb)
        return FqMatrix(f, prod)

    def col(self, j: int) -> "FqMatrix":
        return FqMatrix(self.field, self.a[:, j : j + 1])

    def take_cols(self, idx: Sequence[int]) -> "FqMatrix":
        return FqMatrix(self.field, self.a[:, list(idx)].reshape(self.rows, len(idx)))


def hstack(mats: Sequence[FqMatrix]) -> FqMatrix:
    return FqMatrix(mats[0].field, np.hstack([m.a for m in mats]))


def vstack(mats: Sequence[FqMatrix]) -> FqMatrix:
    return FqMatrix(mats[0].field, np.vstack([m.a for m in mats]))


def _rref_array(fq: Fq, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = a.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = fq.vinv(a[r, c : c + 1])[0]
        a[r, c:] = fq.vmul(a[r, c:], inv)
        sel = np.nonzero(a[:, c])[0]
        sel = sel[sel != r]
        if sel.size:
            a[np.ix_(sel, range(c, cols))] = fq.vsub(
                a[np.ix_(sel, range(c, cols))], fq.vmul(a[sel, c][:, None], a[r, c:])
            )
        pivots.append(c)
        r += 1
    return a, pivots


def rref(m: FqMatrix) -> tuple[FqMatrix, tuple[int, ...], int]:
    """Reduced row echelon form; returns (matrix, pivot columns, rank)."""
    a, pivots = _rref_array(m.field, m.a)
    return FqMatrix(m.field, a), tuple(pivots), len(pivots)


def rank(m: FqMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: FqMatrix) -> FqMatrix:
    """Matrix whose columns are a basis of the null space of m."""
    fq = m.field
    r, pivots, rk = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        out[fc, k] = 1
        for i, pc in enumerate(pivots):
            out[pc, k] = fq.vneg(r.a[i, fc : fc + 1])[0]
    return FqMatrix(fq, out)


def solve(m: FqMatrix, rhs: FqMatrix) -> FqMatrix:
    """One solution X of m @ X = rhs, or NoSolution."""
    if m.rows != rhs.rows:
        raise ValueError("shape mismatch")
    fq = m.field
    aug, pivots = _rref_array(fq, np.hstack([m.a, rhs.a]))
    if any(p >= m.cols for p in pivots):
        raise NoSolution("rhs outside column space")
    out = np.zeros((m.cols, rhs.cols), dtype=np.int64)
    for i, pc in enumerate(pivots):
        out[pc, :] = aug[i, m.cols :]
    return FqMatrix(fq, out)


def column_space_basis(m: FqMatrix) -> FqMatrix:
    """Columns of m at the pivot positions of its RREF: a basis of the column space."""
    _, pivots, _ = rref(m)
    return m.take_cols(pivots)


def is_invertible(m: FqMatrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m: FqMatrix) -> FqMatrix:
    if m.rows != m.cols:
        raise ValueError("not square")
    return solve(m, FqMatrix.identity(m.field, m.rows))


def in_column_space(m: FqMatrix, v: FqMatrix) -> bool:
    try:
        solve(m, v)
        return True
    except NoSolution:
        return False


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


class ZMatrix:
    """An immutable integer matrix with arbitrary-precision entries."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, *args):
        raise AttributeError("ZMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ZMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "ZMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    def __eq__(self, other) -> bool:
        return isinstance(other, ZMatrix) and self.entries == other.entries and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.entries, self.cols))

    def __repr__(self) -> str:
        return f"ZMatrix({[list(r) for r in self.entries]})"

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def __matmul__(self, other: "ZMatrix") -> "ZMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.entries else [[]] * other.cols
        out = [
            [sum(a * b for a, b in zip(row, col)) for col in ot] if self.cols else [0] * other.cols
            for row in self.entries
        ]
        return ZMatrix(out, cols=other.cols)

    def __add__(self, other: "ZMatrix") -> "ZMatrix":
        return ZMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __neg__(self) -> "ZMatrix":
        return ZMatrix([[-a for a in r] for r in self.entries], cols=self.cols)

    def __sub__(self, other: "ZMatrix") -> "ZMatrix":
        return self + (-other)

    def t(self) -> "ZMatrix":
        return ZMatrix(list(zip(*self.entries)) if self.entries else [], cols=self.rows)

    def hstack(self, other: "ZMatrix") -> "ZMatrix":
        if self.rows != other.rows:
            raise ValueError("shape mismatch")
        return ZMatrix(
            [list(r1) + list(r2) for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols + other.cols,
        )

    def take_cols(self, idx: Sequence[int]) -> "ZMatrix":
        return ZMatrix([[row[j] for j in idx] for row in self.entries], cols=len(idx))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def det(m: ZMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _snf_with_inverses(m: ZMatrix):
    """Smith normal form with accumulated transforms and the inverse of U.

    Returns (U, Uinv, D, V) with U m V = D.  The pivot at each step is
    a nonzero entry of least absolute value in the remaining block, which
    keeps intermediate entries small.
    """
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    ui = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(dst, src, c):
        # row_dst += c * row_src; the inverse picks up col_src -= c * col_dst
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for r in ui:
            r[src] = r[src] - c * r[dst]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

    def col_add(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    t = 0
    n = min(rows, cols)
    while t < n:
        # locate pivot: least |value| among nonzero entries of the block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if a[t][t] < 0:
            row_negate(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                qc = a[i][t] // a[t][t]
                row_add(i, t, -qc)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                qc = a[t][j] // a[t][t]
                col_add(j, t, -qc)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry; if not, mix that row in
        fix = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            row_add(t, fix, 1)
            continue
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return (
        ZMatrix(u, cols=rows),
        ZMatrix(ui, cols=rows),
        ZMatrix(d, cols=cols),
        ZMatrix(v, cols=cols),
    )


def smith_normal_form(m: ZMatrix) -> tuple[ZMatrix, ZMatrix, ZMatrix]:
    """U, D, V with U m V = D, U and V unimodular, D = diag(d1 | d2 | ...)."""
    u, _, d, v = _snf_with_inverses(m)
    return u, d, v


def minor_gcd(m: ZMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if all vanish): the classical SNF oracle."""
    g = 0
    for rws in combinations(range(m.rows), k):
        for cls_ in combinations(range(m.cols), k):
            sub = ZMatrix([[m.entries[i][j] for j in cls_] for i in rws], cols=k)
            g = math.gcd(g, det(sub))
    return g
