"""Finitely generated abelian groups in invariant-factor form, with homomorphisms.

A group is a list of invariant factors d1 | d2 | ... | dr with di >= 0,
where 0 encodes an infinite cyclic factor; factors equal to 1 are dropped.
One routine gives every normal form: the Smith normal form of a relation
matrix, read by ``_quotient_with_transforms``.  Direct sums, kernels,
cokernels and images all reduce to a presentation Z^m / (relations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterator, Sequence

from .exactlin import ZMatrix, _snf_with_inverses


class IllDefinedHom(ValueError):
    pass


@dataclass(frozen=True)
class FgAbelian:
    """d1 | d2 | ... | dr with 0 = Z."""

    factors: tuple[int, ...]

    def __post_init__(self):
        f = self.factors
        for i in range(len(f) - 1):
            if f[i] == 0 and f[i + 1] != 0:
                raise ValueError("infinite factors must come last")
            if f[i] != 0 and f[i + 1] != 0 and f[i + 1] % f[i]:
                raise ValueError(f"divisibility chain violated: {f}")
        if any(x == 1 for x in f) or any(x < 0 for x in f):
            raise ValueError(f"factors must be 0 or >= 2: {f}")

    @classmethod
    def from_factors(cls, factors: Sequence[int]) -> "FgAbelian":
        """The direct sum of cyclic groups of the given orders (0 = Z, sign ignored)."""
        return presentation_normalize(factors)[0]

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelian":
        return cls(()) if n == 1 else cls((n,))

    @property
    def rank(self) -> int:
        return len(self.factors)

    def is_trivial(self) -> bool:
        return not self.factors

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if any(d == 0 for d in self.factors):
            return None
        return math.prod(self.factors)

    def elements(self) -> Iterator[tuple[int, ...]]:
        if any(d == 0 for d in self.factors):
            raise ValueError("cannot enumerate an infinite group")
        yield from iproduct(*(range(d) for d in self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " x ".join("Z" if d == 0 else f"Z/{d}" for d in self.factors)

    def to_json(self) -> dict:
        # report schema 1 has a "labels" key; generators carry no labels
        return {"invariant_factors": list(self.factors), "labels": []}


@dataclass(frozen=True)
class Ambiguous:
    """Both ends of an extension whose isomorphism type is not determined."""

    sub: FgAbelian
    quot: FgAbelian

    def __str__(self) -> str:
        return f"ambiguous extension of ({self.quot}) by ({self.sub})"


# ---------------------------------------------------------------------------
# presentations:  Z^n / L  for a relation lattice L


def _relations(orders: Sequence[int]) -> ZMatrix:
    """The relation columns o_i e_i of Z^n / <o_i e_i>, one per nonzero order."""
    cols = [i for i, o in enumerate(orders) if o != 0]
    return ZMatrix(
        [[orders[i] if i == j else 0 for j in cols] for i in range(len(orders))],
        cols=len(cols),
    )


def presentation_normalize(orders: Sequence[int]):
    """Normalize Z^n / <o_i e_i> to invariant factors.

    Returns (group, to_normal, from_normal): ``to_normal`` maps old
    coordinates to coordinates on the normalized generators, ``from_normal``
    maps back; both are integer matrices and inverse to each other modulo
    the relations.
    """
    group, from_normal, to_normal = _quotient_with_transforms(_relations(orders))
    return group, to_normal, from_normal


def hom_from_exponents(
    src_orders: Sequence[int], tgt_orders: Sequence[int], raw: ZMatrix
) -> AbHom:
    """The map Z^n / <o_i e_i> -> Z^m / <o'_j e_j> given by an exponent matrix.

    Column i of ``raw`` holds the image of the i-th source generator, of order
    ``src_orders[i]``, in target generator coordinates.  Both ends are
    normalized by :func:`presentation_normalize` and the result is returned on
    invariant-factor coordinates, entries reduced modulo the target factors.
    """
    src, _, from_normal = presentation_normalize(src_orders)
    tgt, to_normal, _ = presentation_normalize(tgt_orders)
    mat = to_normal @ raw @ from_normal
    reduced = [[_reduce_entry(d, x) for x in row] for d, row in zip(tgt.factors, mat.entries)]
    return AbHom(src, tgt, ZMatrix(reduced, cols=src.rank))


def _chain_order(diag: list[int]) -> list[int]:
    """Indices sorting a divisibility-chain diagonal as (finite asc, then 0s)."""
    return sorted(range(len(diag)), key=lambda i: (diag[i] == 0, diag[i]))


@dataclass(frozen=True)
class AbHom:
    """A homomorphism given by an integer matrix on generator coordinates."""

    source: FgAbelian
    target: FgAbelian
    matrix: ZMatrix

    def __post_init__(self):
        m = self.matrix
        if (m.rows, m.cols) != (self.target.rank, self.source.rank):
            raise IllDefinedHom(
                f"matrix shape {(m.rows, m.cols)} does not match "
                f"{self.target.rank} x {self.source.rank}"
            )
        for i in range(self.source.rank):
            d = self.source.factors[i]
            if d == 0:
                continue
            for j in range(self.target.rank):
                f = self.target.factors[j]
                v = d * m.entries[j][i]
                if (f == 0 and v != 0) or (f != 0 and v % f):
                    raise IllDefinedHom(
                        f"generator {i} of order {d} maps outside the target relations"
                    )

    @classmethod
    def zero(cls, source: FgAbelian, target: FgAbelian) -> "AbHom":
        return cls(source, target, ZMatrix.zeros(target.rank, source.rank))

    @classmethod
    def identity(cls, g: FgAbelian) -> "AbHom":
        return cls(g, g, ZMatrix.identity(g.rank))

    def __call__(self, coords: Sequence[int]) -> tuple[int, ...]:
        out = []
        for j in range(self.target.rank):
            v = sum(self.matrix.entries[j][i] * coords[i] for i in range(self.source.rank))
            f = self.target.factors[j]
            out.append(v % f if f else v)
        return tuple(out)

    def compose(self, other: "AbHom") -> "AbHom":
        """self o other."""
        if other.target != self.source:
            raise IllDefinedHom("composition mismatch")
        return AbHom(other.source, self.target, self.matrix @ other.matrix)

    def __sub__(self, other: "AbHom") -> "AbHom":
        return AbHom(self.source, self.target, self.matrix - other.matrix)


def _quotient_with_transforms(rels: ZMatrix):
    """Z^m / Z-span(rels) for an m-row relation matrix, by Smith normal form.

    Returns (group, new_gens, proj): new_gens columns express the
    invariant-factor generators in the m coordinates, and proj maps those
    coordinates onto group coordinates.
    """
    m = rels.rows
    if m == 0:
        return FgAbelian(()), ZMatrix.zeros(0, 0), ZMatrix.zeros(0, 0)
    u, uinv, d, _ = _snf_with_inverses(rels)
    diag = list(d.diagonal_entries()) + [0] * (m - min(d.rows, d.cols))
    keep = [i for i, di in enumerate(diag) if di != 1]
    ordered = [keep[i] for i in _chain_order([diag[i] for i in keep])]
    group = FgAbelian(tuple(diag[i] for i in ordered))
    new_gens = uinv.take_cols(ordered)
    proj = ZMatrix([list(u.entries[i]) for i in ordered], cols=m)
    return group, new_gens, proj


def _solve_integer(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    """X with a @ X = b, for b inside the column lattice of a."""
    u, _, d, v = _snf_with_inverses(a)
    ub = u @ b
    diag = d.diagonal_entries()
    r = sum(1 for x in diag if x != 0)
    rows = []
    for i in range(a.cols):
        if i < r:
            row = []
            for j in range(b.cols):
                num = ub.entries[i][j]
                if num % diag[i]:
                    raise IllDefinedHom("vector outside lattice")
                row.append(num // diag[i])
            rows.append(row)
        else:
            rows.append([0] * b.cols)
    for i in range(r, ub.rows):
        if any(ub.entries[i][j] for j in range(b.cols)):
            raise IllDefinedHom("vector outside lattice")
    return v @ ZMatrix(rows, cols=b.cols)


def _coords_mod(group: FgAbelian, vec: Sequence[int]) -> tuple[int, ...]:
    return tuple(
        v % d if d else v for v, d in zip(vec, group.factors)
    )


def ab_kernel(h: AbHom) -> tuple[FgAbelian, AbHom]:
    """(K, inclusion K -> source) with K in invariant-factor form."""
    n = h.source.rank
    tgt_rel = _relations(h.target.factors)
    stacked = h.matrix.hstack(tgt_rel) if tgt_rel.cols else h.matrix
    # integer solutions of  M x = relation combination; project to the x part
    full_kernel = _z_kernel(stacked)
    xpart = ZMatrix([full_kernel.entries[i] for i in range(n)], cols=full_kernel.cols)
    # lattice of lifts; includes the source relations since h is well defined
    lattice = _lattice_basis(xpart, n)
    # the source relations in the lattice basis
    coords = _solve_integer(lattice, _relations(h.source.factors))
    group, basis_gens, _ = _quotient_with_transforms(coords)
    new_gens = lattice @ basis_gens
    incl = AbHom(group, h.source, ZMatrix(
        [[_coords_mod(h.source, new_gens.column(j))[i] for j in range(new_gens.cols)]
         for i in range(n)], cols=new_gens.cols))
    return group, incl


def _z_kernel(m: ZMatrix) -> ZMatrix:
    _, _, d, v = _snf_with_inverses(m)
    diag = d.diagonal_entries()
    r = sum(1 for x in diag if x != 0)
    return v.take_cols(range(r, m.cols))


def _lattice_basis(cols: ZMatrix, n: int) -> ZMatrix:
    """A basis of the lattice spanned by the given columns in Z^n."""
    if cols.cols == 0:
        return ZMatrix.zeros(n, 0)
    u, uinv, d, _ = _snf_with_inverses(cols)
    diag = d.diagonal_entries()
    r = sum(1 for x in diag if x != 0)
    basis = uinv.take_cols(range(r))
    scaled = ZMatrix(
        [[basis.entries[i][j] * diag[j] for j in range(r)] for i in range(n)], cols=r
    )
    return scaled


def ab_cokernel(h: AbHom) -> tuple[FgAbelian, AbHom]:
    """(C, projection target -> C)."""
    t = h.target.rank
    rels = h.matrix.hstack(_relations(h.target.factors))
    group, _, proj_rows = _quotient_with_transforms(rels)
    proj = AbHom(h.target, group, ZMatrix(
        [[_reduce_entry(group.factors[i], x) for x in proj_rows.entries[i]]
         for i in range(group.rank)], cols=t))
    return group, proj


def _reduce_entry(order: int, x: int) -> int:
    return x % order if order else x


def ab_image(h: AbHom) -> FgAbelian:
    """The image of h as an abstract group: (M + rel) / rel inside the target."""
    t = h.target.rank
    tgt_rel = _relations(h.target.factors)
    span = _lattice_basis(h.matrix.hstack(tgt_rel), t)
    group, _, _ = _quotient_with_transforms(_solve_integer(span, tgt_rel))
    return group


def ab_direct_sum(parts: Sequence[FgAbelian]) -> FgAbelian:
    return FgAbelian.from_factors([d for g in parts for d in g.factors])
