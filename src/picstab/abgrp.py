"""Finitely generated abelian groups in invariant-factor form, with homomorphisms.

A group is a list of invariant factors d1 | d2 | ... | dr with di >= 0,
where 0 encodes an infinite cyclic factor; factors equal to 1 are dropped.
Kernels, cokernels and images of homomorphisms are computed by Smith normal
form on integer presentations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import reduce
from itertools import product as iproduct, zip_longest
from typing import Iterator, Sequence

from .exactlin import ZMatrix, _snf_with_inverses, factorize


class IllDefinedHom(ValueError):
    pass


def _normalize_factors(factors: Sequence[int]) -> tuple[int, ...]:
    """Recombine arbitrary cyclic orders into an invariant-factor chain.

    Works prime by prime: for each prime, sort the exponents descending; the
    k-th invariant factor (from the largest) collects the k-th largest power
    of every prime.  Infinite factors (0) go last.
    """
    free = sum(1 for d in factors if d == 0)
    primes: dict[int, list[int]] = {}
    for d in factors:
        if d in (0, 1):
            continue
        if d < 0:
            d = -d
        for p, e in factorize(d).items():
            primes.setdefault(p, []).append(e)
    for exps in primes.values():
        exps.sort(reverse=True)
    chains = zip_longest(*primes.values(), fillvalue=0)
    torsion = sorted(
        (
            reduce(lambda acc, pe: acc * pe, (p**e for p, e in zip(primes, col)), 1)
            for col in chains
        )
    )
    return tuple(t for t in torsion if t > 1) + (0,) * free


@dataclass(frozen=True)
class FgAbelian:
    """d1 | d2 | ... | dr with 0 = Z; optional generator labels (no algebraic weight)."""

    factors: tuple[int, ...]
    labels: tuple[str, ...] | None = dataclass_field(default=None, compare=False)

    def __post_init__(self):
        f = self.factors
        for i in range(len(f) - 1):
            if f[i] == 0 and f[i + 1] != 0:
                raise ValueError("infinite factors must come last")
            if f[i] != 0 and f[i + 1] != 0 and f[i + 1] % f[i]:
                raise ValueError(f"divisibility chain violated: {f}")
        if any(x == 1 for x in f) or any(x < 0 for x in f):
            raise ValueError(f"factors must be 0 or >= 2: {f}")
        if self.labels is not None and len(self.labels) != len(f):
            object.__setattr__(self, "labels", None)

    @classmethod
    def from_factors(cls, factors: Sequence[int], labels=None) -> "FgAbelian":
        norm = _normalize_factors(factors)
        if labels is not None and tuple(d for d in factors if d != 1) == norm:
            return cls(norm, tuple(labels))
        return cls(norm)

    @classmethod
    def cyclic(cls, n: int, label: str | None = None) -> "FgAbelian":
        if n == 1:
            return cls(())
        return cls((n,), (label,) if label else None)

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
        out = {"invariant_factors": list(self.factors)}
        out["labels"] = list(self.labels) if self.labels else []
        return out


@dataclass(frozen=True)
class Ambiguous:
    """Both ends of an extension whose isomorphism type is not determined."""

    sub: FgAbelian
    quot: FgAbelian

    def __str__(self) -> str:
        return f"ambiguous extension of ({self.quot}) by ({self.sub})"


# ---------------------------------------------------------------------------
# presentations:  Z^n / L  for a relation lattice L


def _relation_matrix(a: FgAbelian) -> ZMatrix:
    cols = [i for i, d in enumerate(a.factors) if d != 0]
    return ZMatrix(
        [[a.factors[i] if i == j else 0 for j in cols] for i in range(a.rank)],
        cols=len(cols),
    )


def presentation_normalize(orders: Sequence[int]):
    """Normalize Z^n / <o_i e_i> to invariant factors.

    Returns (group, to_normal, from_normal): ``to_normal`` maps old
    coordinates to coordinates on the normalized generators, ``from_normal``
    maps back; both are integer matrices and inverse to each other modulo
    the relations.
    """
    n = len(orders)
    rel_cols = [i for i, o in enumerate(orders) if o != 0]
    rel = ZMatrix(
        [[orders[i] if i == j else 0 for j in rel_cols] for i in range(n)],
        cols=len(rel_cols),
    )
    group, from_normal, to_normal = _quotient_with_transforms(ZMatrix.identity(n), rel)
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


def _quotient_with_transforms(gens: ZMatrix, rels: ZMatrix):
    """Z-span(gens) / Z-span(rels), for rels inside the span of gens.

    ``gens`` columns must be a lattice basis.  Returns
    (group, new_gens, proj): new_gens columns express the invariant-factor
    generators in ambient coordinates, and proj maps gens-basis coordinates
    onto group coordinates.
    """
    m = gens.cols
    if m == 0:
        return FgAbelian(()), gens, ZMatrix.zeros(0, 0)
    coords = _solve_integer(gens, rels)
    u, uinv, d, _ = _snf_with_inverses(coords)
    diag = list(d.diagonal_entries()) + [0] * (m - min(d.rows, d.cols))
    keep = [i for i, di in enumerate(diag) if di != 1]
    ordered = [keep[i] for i in _chain_order([diag[i] for i in keep])]
    group = FgAbelian(tuple(diag[i] for i in ordered))
    new_gens = (gens @ uinv).take_cols(ordered)
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
    n, t = h.source.rank, h.target.rank
    tgt_rel = _relation_matrix(h.target)
    stacked = h.matrix.hstack(tgt_rel) if tgt_rel.cols else h.matrix
    # integer solutions of  M x = relation combination; project to the x part
    full_kernel = _z_kernel(stacked)
    xpart = ZMatrix([full_kernel.entries[i] for i in range(n)], cols=full_kernel.cols)
    # lattice of lifts; includes the source relations since h is well defined
    lattice = _lattice_basis(xpart, n)
    src_rel = _relation_matrix(h.source)
    group, new_gens, _ = _quotient_with_transforms(lattice, src_rel)
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
    rel = h.matrix.hstack(_relation_matrix(h.target))
    group, _, proj_rows = _quotient_with_transforms(ZMatrix.identity(t), rel)
    proj = AbHom(h.target, group, ZMatrix(
        [[_reduce_entry(group.factors[i], x) for x in proj_rows.entries[i]]
         for i in range(group.rank)], cols=t))
    return group, proj


def _reduce_entry(order: int, x: int) -> int:
    return x % order if order else x


def ab_image(h: AbHom) -> FgAbelian:
    """The image of h as an abstract group: (M + rel) / rel inside the target."""
    t = h.target.rank
    tgt_rel = _relation_matrix(h.target)
    span = _lattice_basis(h.matrix.hstack(tgt_rel), t)
    group, _, _ = _quotient_with_transforms(span, tgt_rel)
    return group


def ab_direct_sum(parts: Sequence[FgAbelian]) -> FgAbelian:
    factors: list[int] = []
    labels: list[str] = []
    have_labels = True
    for g in parts:
        factors.extend(g.factors)
        if g.labels is None:
            have_labels = False
        else:
            labels.extend(g.labels)
    return FgAbelian.from_factors(factors, labels if have_labels else None)


SPLIT_REASONS = ("sub_trivial", "quot_trivial", "coprime_orders", "split_by_inflation", "none")


def extension_resolve(sub: FgAbelian, quot: FgAbelian, split_reason: str):
    """Resolve 0 -> sub -> E -> quot -> 0 when a splitting rule applies.

    Returns the direct sum for an applicable reason, otherwise the honest
    :class:`Ambiguous` answer carrying both ends.
    """
    if split_reason not in SPLIT_REASONS:
        raise ValueError(f"unknown split reason {split_reason!r}")
    if sub.is_trivial():
        return quot
    if quot.is_trivial():
        return sub
    if split_reason == "coprime_orders":
        so, qo = sub.order(), quot.order()
        if so is None or qo is None or math.gcd(so, qo) != 1:
            raise ValueError("coprime_orders claimed but orders are not coprime")
        return ab_direct_sum([sub, quot])
    if split_reason in ("split_by_inflation",):
        return ab_direct_sum([sub, quot])
    if split_reason in ("sub_trivial", "quot_trivial"):
        raise ValueError(f"{split_reason} claimed but both ends are nontrivial")
    return Ambiguous(sub, quot)
