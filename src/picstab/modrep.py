"""Modules over kG for a finite group G and a finite field k.

A module is stored as one invertible matrix per group generator.  GModule()
checks them against the whole multiplication table; modules that library
operations build are checked when their element matrices are first built.
On top of that sit the stable-category operations: syzygies, duals, tensor
products, stable homs (maps modulo the image of Higman's transfer),
projective stripping, stable isomorphism (exact when either side is
indecomposable; compare decomposable pairs summand by summand),
endotriviality, Tate H^0.

Everything is exact and deterministic.  The projective indecomposables come
from the group's structure (the regular module of a p-group, or modules
induced from a complement of a normal Sylow subgroup), so only groups whose
Sylow subgroup is trivial or not normal decompose kG itself.  That
decomposition search (Fitting splittings of the endomorphism ring) is capped
at dimension DIM_CAP so it stays at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product as iproduct

import numpy as np

from .exactlin import (
    Fq,
    FqMatrix,
    column_space_basis,
    factorize,
    fq_make,
    hstack,
    inverse,
    is_invertible,
    kernel_basis,
    rank,
    rref,
    solve,
    vstack,
)
from .groups import (
    FiniteGroup,
    GroupMono,
    Subgroup,
    subgroup_inclusion_group,
    sylow_complement,
    sylow_subgroup,
)

DIM_CAP = 64


class GroupMismatch(ValueError):
    pass


class FieldMismatch(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


class GModule:
    """A kG-module: one invertible generator matrix per group generator.

    The constructor raises ValueError unless the matrices satisfy every
    product of the multiplication table.  Library operations build their
    results with ``_make``, which defers that check to the first :meth:`act`.
    """

    __slots__ = ("group", "field", "dim", "gen_action", "label", "_cache")

    def __init__(self, group: FiniteGroup, field: Fq, gen_action, label="M"):
        gen_action = tuple(gen_action)
        if len(gen_action) != len(group.generators):
            raise ValueError("need one matrix per group generator")
        if not gen_action:
            raise ValueError("group has no generators, so the dimension is not given")
        dims = {a.rows for a in gen_action} | {a.cols for a in gen_action}
        if len(dims) != 1:
            raise ValueError("generator matrices must be square of equal size")
        self._set(group, field, gen_action, dims.pop(), label)
        self._element_action()

    @classmethod
    def _make(cls, group, field, gen_action, dim: int, label: str) -> "GModule":
        """A module built from valid modules; dim is given for the trivial group's sake."""
        self = object.__new__(cls)
        self._set(group, field, tuple(gen_action), dim, label)
        return self

    def _set(self, group, field, gen_action, dim, label) -> None:
        for name, value in (("group", group), ("field", field), ("gen_action", gen_action),
                            ("dim", dim), ("label", label), ("_cache", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("GModule is immutable")

    def _element_action(self) -> tuple[FqMatrix, ...]:
        """The matrix of every group element, built once by a breadth-first walk.

        Each (element x, generator g) product is formed once: the first to
        reach x * g defines its matrix and every later one must equal it, which
        by induction on word length checks the whole multiplication table.
        """
        acts = self._cache.get("elements")
        if acts is not None:
            return acts
        g = self.group
        acts_l: list[FqMatrix | None] = [None] * g.order
        acts_l[0] = FqMatrix.identity(self.field, self.dim)
        reached = [0]
        for x in reached:  # grows while it is walked
            for k, gi in enumerate(g.generators):
                y = g.mult[x][gi]
                prod = acts_l[x] @ self.gen_action[k]
                if acts_l[y] is None:
                    acts_l[y] = prod
                    reached.append(y)
                elif prod != acts_l[y]:
                    raise ValueError(f"generator matrices violate the relation {x} * gen{k}")
        acts = tuple(acts_l)
        self._cache["elements"] = acts
        return acts

    def act(self, element: int) -> FqMatrix:
        return self._element_action()[element]

    def relabel(self, label: str) -> "GModule":
        out = GModule._make(self.group, self.field, self.gen_action, self.dim, label)
        out._cache.update(self._cache)
        return out

    def __repr__(self) -> str:
        return f"GModule({self.label}, dim {self.dim} over F{self.field.q}{self.group.name})"


def _same_base(m: GModule, n: GModule) -> None:
    if m.group != n.group:
        raise GroupMismatch(f"{m.group.name} vs {n.group.name}")
    if m.field != n.field:
        raise FieldMismatch(f"F{m.field.q} vs F{n.field.q}")


def zero_module(group: FiniteGroup, field: Fq) -> GModule:
    z = FqMatrix.zeros(field, 0, 0)
    return GModule._make(group, field, [z] * len(group.generators), 0, "0")


def trivial_module(group: FiniteGroup, field: Fq) -> GModule:
    one = FqMatrix.identity(field, 1)
    return GModule._make(group, field, [one] * len(group.generators), 1, "k")


def regular_module(group: FiniteGroup, field: Fq) -> GModule:
    n = group.order
    mats = []
    for gi in group.generators:
        a = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            a[group.mult[gi][x], x] = 1
        mats.append(FqMatrix(field, a))
    return GModule._make(group, field, mats, n, f"k{group.name}")


def dual(m: GModule) -> GModule:
    g = m.group
    mats = [m.act(g.inv(gi)).t() for gi in g.generators]
    return GModule._make(g, m.field, mats, m.dim, f"({m.label})*")


def tensor(m: GModule, n: GModule) -> GModule:
    _same_base(m, n)
    mats = [a.kron(b) for a, b in zip(m.gen_action, n.gen_action)]
    return GModule._make(m.group, m.field, mats, m.dim * n.dim, f"{m.label}(x){n.label}")


def direct_sum(group: FiniteGroup, field: Fq, mods) -> GModule:
    mods = list(mods)
    for x in mods:
        if x.group != group or x.field != field:
            raise GroupMismatch("direct summand over a different group or field")
    if not mods:
        return zero_module(group, field)
    dim = sum(x.dim for x in mods)
    mats = []
    for k in range(len(group.generators)):
        a = np.zeros((dim, dim), dtype=np.int64)
        off = 0
        for x in mods:
            a[off : off + x.dim, off : off + x.dim] = x.gen_action[k].a
            off += x.dim
        mats.append(FqMatrix(field, a))
    label = " + ".join(x.label for x in mods)
    return GModule._make(group, field, mats, dim, label)


def restrict(m: GModule, mono: GroupMono) -> GModule:
    """Pull the action back along a monomorphism into m's group."""
    if mono.target != m.group:
        raise GroupMismatch("mono does not land in the module's group")
    mats = [m.act(mono(gi)) for gi in mono.source.generators]
    return GModule._make(mono.source, m.field, mats, m.dim, f"{m.label}|{mono.source.name}")


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class GMap:
    source: GModule
    target: GModule
    matrix: FqMatrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise ValueError("matrix shape does not match source/target")

    def check(self) -> "GMap":
        for a, b in zip(self.source.gen_action, self.target.gen_action):
            if self.matrix @ a != b @ self.matrix:
                raise ValueError("map does not intertwine the actions")
        return self

    def compose(self, inner: "GMap") -> "GMap":
        return GMap(inner.source, self.target, self.matrix @ inner.matrix)


def _vec(mat: FqMatrix) -> FqMatrix:
    """The entries of mat as one column, row by row: hom_space's coordinates."""
    return FqMatrix(mat.field, mat.a.reshape(-1, 1))


def hom_space(m: GModule, n: GModule) -> list[GMap]:
    """A basis of Hom_kG(m, n), from the intertwining equations F A_g = B_g F."""
    _same_base(m, n)
    f = m.field
    nm = n.dim * m.dim
    if nm == 0:
        return []
    blocks = []
    eye_m = FqMatrix.identity(f, m.dim)
    eye_n = FqMatrix.identity(f, n.dim)
    for a, b in zip(m.gen_action, n.gen_action):
        blocks.append(eye_n.kron(a.t()) - b.kron(eye_m))
    system = vstack(blocks) if blocks else FqMatrix.zeros(f, 0, nm)
    basis = kernel_basis(system)
    out = []
    for j in range(basis.cols):
        mat = FqMatrix(f, basis.a[:, j].reshape(n.dim, m.dim))
        out.append(GMap(m, n, mat))
    return out


def submodule(m: GModule, basis: FqMatrix, label="S") -> tuple[GModule, GMap]:
    """The invariant subspace spanned by the basis columns, with its inclusion."""
    if basis.cols == 0:
        z = zero_module(m.group, m.field)
        return z, GMap(z, m, FqMatrix.zeros(m.field, m.dim, 0))
    mats = [solve(basis, a @ basis) for a in m.gen_action]
    sub = GModule._make(m.group, m.field, mats, basis.cols, label)
    return sub, GMap(sub, m, basis)


def quotient_module(m: GModule, sub_basis: FqMatrix, label="Q") -> tuple[GModule, GMap]:
    """m / span(sub_basis), with the projection map."""
    f = m.field
    k = sub_basis.cols
    if k == 0:
        return m, GMap(m, m, FqMatrix.identity(f, m.dim))
    aug = hstack([sub_basis, FqMatrix.identity(f, m.dim)])
    _, pivots, _ = rref(aug)
    comp_cols = [p - k for p in pivots if p >= k]
    comp = FqMatrix(f, np.eye(m.dim, dtype=np.int64)[:, comp_cols])
    t_mat = hstack([sub_basis, comp])
    t_inv = inverse(t_mat)
    pi = FqMatrix(f, t_inv.a[k:, :])
    mats = [pi @ a @ comp for a in m.gen_action]
    quot = GModule._make(m.group, m.field, mats, len(comp_cols), label)
    return quot, GMap(m, quot, pi)


# ---------------------------------------------------------------------------
# radical


def _act_of_algebra_element(m: GModule, coeffs) -> FqMatrix:
    """Action of sum_g coeffs[g] * g on m."""
    f = m.field
    out = FqMatrix.zeros(f, m.dim, m.dim)
    for g, c in enumerate(coeffs):
        if c:
            out = out + m.act(g).scale(int(c))
    return out


def radical(m: GModule) -> FqMatrix:
    """Basis (columns) of J(kG) . m.

    With a normal Sylow p-subgroup P the radical of kG is the ideal generated
    by the augmentation ideal of kP, so J.m is spanned by (t - 1).m over
    t in P.  Otherwise J(kG) itself is computed from the group algebra by
    :func:`jacobson_radical`, which caps the group order times the degree.
    """
    f = m.field
    if m.dim == 0:
        return FqMatrix.zeros(f, 0, 0)
    g = m.group
    if g.order % f.p:
        return FqMatrix.zeros(f, m.dim, 0)
    syl = sylow_subgroup(g, f.p)
    if syl.is_normal():
        eye = FqMatrix.identity(f, m.dim)
        spans = [m.act(t) - eye for t in syl.sorted_elements() if t != 0]
        return column_space_basis(hstack(spans))
    jbasis = jacobson_radical(g, f)
    if not jbasis:
        return FqMatrix.zeros(f, m.dim, 0)
    spans = [_act_of_algebra_element(m, v) for v in jbasis]
    return column_space_basis(hstack(spans))


def jacobson_radical(group: FiniteGroup, field: Fq) -> list[tuple[int, ...]]:
    """F_q-spanning set of J(kG), as coefficient vectors over the group basis.

    Uses the trace-form chain of Cohen-Ivanyos-Wales on the regular
    representation restricted to F_p: starting from the full algebra, cut by
    the bilinear forms f_i(x, y) = p^-i tr((XY)^(p^i)) computed on integer
    lifts, for i = 0 .. log_p(dim).  The final subspace is the radical.
    """
    n = group.order
    p, e = field.p, field.e
    dim = n * e
    if dim > 32:
        raise DimensionTooLarge(
            "generic radical computation is capped at group order x degree <= 32"
        )
    red = field._reduction_matrix()  # (2e-1) x e, entries 0..p-1
    # integer left-multiplication matrices for the F_p-basis g * x^j
    basis_mats = []
    for g in range(n):
        for j in range(e):
            mat = np.zeros((dim, dim), dtype=np.int64)
            for h in range(n):
                gh = group.mult[g][h]
                for i in range(e):
                    for s in range(e):
                        c = red[i + j, s]
                        if c:
                            mat[gh * e + s, h * e + i] = c
            basis_mats.append(mat)
    basis_mats = np.array(basis_mats)

    space = np.eye(dim, dtype=np.int64)  # columns: F_p coords of current subspace
    steps = 1
    while p**steps < dim:
        steps += 1
    for i in range(steps + 1):
        mdim = space.shape[1]
        if mdim == 0:
            break
        modulus = p ** (i + 1)
        mats = np.tensordot(space.T, basis_mats, axes=(1, 0)) % modulus
        gram = np.zeros((mdim, mdim), dtype=np.int64)
        power = p**i
        for s in range(mdim):
            for t in range(mdim):
                prod_st = (mats[s] @ mats[t]) % modulus
                tr = int(np.trace(_int_matrix_power(prod_st, power, modulus))) % modulus
                assert tr % (p**i) == 0, "trace-form scaling failed"
                gram[s, t] = (tr // p**i) % p
        ker = kernel_basis(FqMatrix(fq_make(p, 1), gram.T % p))
        space = (space @ ker.a) % p
    out = []
    for j in range(space.shape[1]):
        coeffs = []
        for g in range(n):
            code = 0
            for jj in range(e):
                code += int(space[g * e + jj, j]) * field.p**jj
            coeffs.append(code)
        out.append(tuple(coeffs))
    return out


def _int_matrix_power(a: np.ndarray, n: int, modulus: int) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=np.int64)
    base = a % modulus
    while n:
        if n & 1:
            out = (out @ base) % modulus
        base = (base @ base) % modulus
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# indecomposable summands and projective covers


def _power_stabilize(mat: FqMatrix, dim: int) -> FqMatrix:
    """mat^(2^t) for the first power 2^t >= dim (Fitting: kernel and image split)."""
    out = mat
    steps = max(1, math.ceil(math.log2(max(dim, 2))))
    for _ in range(steps):
        out = out @ out
    return out


def _fitting_candidates(end_maps: list[GMap], field: Fq, dim: int):
    eye = FqMatrix.identity(field, dim)
    mats = [h.matrix for h in end_maps]
    shifts = [eye.scale(c) for c in range(field.q)]
    for m in mats:
        for s in shifts:
            yield m + s
    for a, b in combinations(mats, 2):
        for s in shifts:
            yield a + b + s
    for a, b in iproduct(mats, mats):
        for s in shifts:
            yield (a @ b) + s


def indecomposable_summands(m: GModule) -> list[GModule]:
    """Complete direct-sum decomposition via Fitting splittings of End(m).

    Endomorphisms that are idempotent modulo nilpotents stabilise under
    repeated squaring; the stabilised power splits m into its kernel and
    image, both submodules.  Scalar shifts of basis elements, pair sums and
    pair products are tried in a fixed order, so the result is deterministic.
    """
    if m.dim > DIM_CAP:
        raise DimensionTooLarge(f"dimension {m.dim} exceeds cap {DIM_CAP}")
    if m.dim == 0:
        return []
    ends = hom_space(m, m)
    if len(ends) == 1:
        return [m]
    for cand in _fitting_candidates(ends, m.field, m.dim):
        s = _power_stabilize(cand, m.dim)
        ker = kernel_basis(s)
        if 0 < ker.cols < m.dim:
            im = column_space_basis(s)
            left, _ = submodule(m, ker, f"{m.label}'")
            right, _ = submodule(m, im, f"{m.label}''")
            return indecomposable_summands(left) + indecomposable_summands(right)
    return [m]


_PIM_CACHE: dict = {}


def _distinct_summands(m: GModule) -> list[GModule]:
    """One indecomposable summand of m per isomorphism class, in the order found."""
    reps: list[GModule] = []
    for part in indecomposable_summands(m):
        if not any(module_iso(part, r) is not None for r in reps):
            reps.append(part)
    return reps


def _induce_from_complement(s: GModule, incl: GroupMono, normal: Subgroup) -> GModule:
    """Ind_H^G s, where incl embeds H as a complement to the normal subgroup N.

    Every element of G is x h with x in N and h in H, uniquely, so the cosets
    of H are x H for x in N.  The basis is x (x) s_j over x in N (sorted) and
    the basis of s, and g sends x (x) v to x' (x) h v where g x = x' h.
    """
    g, f, d = incl.target, s.field, s.dim
    reps = normal.sorted_elements()
    split = {}
    for i, x in enumerate(reps):
        for j, h in enumerate(incl.map):
            split[g.mult[x][h]] = (i, j)
    n = len(reps) * d
    mats = []
    for gi in g.generators:
        a = np.zeros((n, n), dtype=np.int64)
        for i, x in enumerate(reps):
            i2, j = split[g.mult[gi][x]]
            a[i2 * d : (i2 + 1) * d, i * d : (i + 1) * d] = s.act(j).a
        mats.append(FqMatrix(f, a))
    return GModule._make(g, f, mats, n, f"Ind({s.label})")


def pims(group: FiniteGroup, field: Fq) -> tuple[GModule, ...]:
    """The projective indecomposable kG-modules, one per isomorphism class, by dimension.

    Which construction applies depends on the Sylow p-subgroup P of G:

    * G = P: kG is the only PIM, because its socle is the line of the norm
      element, so kG is indecomposable.
    * P normal and non-trivial, with a complement H (Schur-Zassenhaus): the
      PIMs are Ind_H^G S for the simple kH-modules S, because P acts
      trivially on every simple kG-module and Ind_H^G S is projective with
      top S (Alperin, Local Representation Theory, ch. 1-2).  The simples
      are the summands of the semisimple regular module kH.
    * Otherwise (P trivial, or not normal): the indecomposable summands of
      the regular module kG, up to isomorphism.
    """
    key = (group, field)
    got = _PIM_CACHE.get(key)
    if got is not None:
        return got
    syl = sylow_subgroup(group, field.p)
    if syl.order == group.order:
        found = [regular_module(group, field)]
    elif syl.order > 1 and syl.is_normal():
        h, incl = subgroup_inclusion_group(sylow_complement(group, field.p))
        simples = _distinct_summands(regular_module(h, field))
        found = [_induce_from_complement(s, incl, syl) for s in simples]
    else:
        found = _distinct_summands(regular_module(group, field))
    reps = [m.relabel(f"P{i}({group.name})") for i, m in enumerate(found)]
    reps.sort(key=lambda x: x.dim)
    out = tuple(reps)
    _PIM_CACHE[key] = out
    return out


def projective_cover(m: GModule) -> tuple[GModule, GMap]:
    """Minimal projective cover (P, P ->> m): kernel inside rad(P).

    Each h: P_i -> m maps onto a simple or zero part of top(m), so keeping the
    h that grow the covered span covers top(m) minimally, and by Nakayama the
    kept h together map onto m.
    """
    g, f = m.group, m.field
    if m.dim == 0:
        z = zero_module(g, f)
        return z, GMap(z, m, FqMatrix.zeros(f, 0, 0))
    top, pi = quotient_module(m, radical(m), label=f"top({m.label})")
    chosen: list[GMap] = []
    im = FqMatrix.zeros(f, top.dim, 0)
    for p_i in pims(g, f):
        if im.cols == top.dim:
            break
        for h in hom_space(p_i, m):
            grown = column_space_basis(hstack([im, pi.matrix @ h.matrix]))
            if grown.cols > im.cols:
                im = grown
                chosen.append(h)
                if im.cols == top.dim:
                    break
    if im.cols != top.dim:
        raise AssertionError("projective indecomposables failed to cover the top")
    cover_mod = direct_sum(g, f, [h.source for h in chosen])
    cover_map = GMap(cover_mod, m, hstack([h.matrix for h in chosen]))
    if rank(cover_map.matrix) != m.dim:
        raise AssertionError("cover map is not surjective")
    return cover_mod, cover_map


def _omega_label(label: str, step: int = 1) -> str:
    if label.startswith("Omega^") and "(" in label:
        head, rest = label.split("(", 1)
        try:
            power = int(head[len("Omega^") :])
            return f"Omega^{power + step}({rest[:-1]})" if rest.endswith(")") else label
        except ValueError:
            pass
    return f"Omega^{step}({label})"


def syzygy(m: GModule) -> GModule:
    """Omega m: the kernel of a minimal projective cover."""
    cover_mod, cover_map = projective_cover(m)
    ker = kernel_basis(cover_map.matrix)
    sub, _ = submodule(cover_mod, ker, _omega_label(m.label))
    return sub


def cosyzygy(m: GModule) -> GModule:
    """Omega^-1 m, computed as dual(syzygy(dual(m))) via self-injectivity."""
    out = dual(syzygy(dual(m)))
    return out.relabel(f"Omega^-1({m.label})")


# ---------------------------------------------------------------------------
# stable homs


@dataclass(frozen=True)
class StableHomSpace:
    """Hom(m, n), the subspace through projectives, and quotient data."""

    source: GModule
    target: GModule
    full: tuple[GMap, ...]
    phom_reduced: FqMatrix  # RREF rows: PHom coordinates in the full basis
    phom_pivots: tuple[int, ...]

    @property
    def full_dim(self) -> int:
        return len(self.full)

    @property
    def phom_dim(self) -> int:
        return self.phom_reduced.rows

    @property
    def quotient_dim(self) -> int:
        return self.full_dim - self.phom_dim

    @property
    def phom(self) -> list[GMap]:
        """A basis of the maps factoring through a projective."""
        out = []
        for i in range(self.phom_reduced.rows):
            mat = FqMatrix.zeros(self.source.field, self.target.dim, self.source.dim)
            for j in range(self.full_dim):
                c = int(self.phom_reduced.a[i, j])
                if c:
                    mat = mat + self.full[j].matrix.scale(c)
            out.append(GMap(self.source, self.target, mat))
        return out

    @property
    def quotient(self) -> list[GMap]:
        """Coset representatives spanning Hom / PHom."""
        return [self.full[j] for j in range(self.full_dim) if j not in self.phom_pivots]

    def coordinates(self, gmap: GMap) -> FqMatrix:
        return solve(hstack([_vec(h.matrix) for h in self.full]), _vec(gmap.matrix))

    def class_vector(self, gmap: GMap) -> np.ndarray:
        """Canonical coset representative of the map's class modulo PHom."""
        f = self.source.field
        c = self.coordinates(gmap).a[:, 0].copy()
        for i, piv in enumerate(self.phom_pivots):
            ci = c[piv]
            if ci:
                c = f.vsub(c, f.vmul(np.int64(ci), self.phom_reduced.a[i]))
        return c

    def is_stably_zero(self, gmap: GMap) -> bool:
        return not np.any(self.class_vector(gmap))


def stable_hom(m: GModule, n: GModule) -> StableHomSpace:
    """Hom(m, n) together with the subspace of maps factoring through a projective.

    By Higman's criterion a map factors through a projective exactly when it
    is a transfer sum_x x h x^-1 of a k-linear h: m -> n.  In the row-major
    _vec coordinates of hom_space the transfer is the matrix
    sum_x kron(n.act(x), m.act(x^-1)^T), so PHom(m, n) is its column space.
    """
    f, g = m.field, m.group
    full = hom_space(m, n)
    if full:
        transfer = FqMatrix.zeros(f, n.dim * m.dim, n.dim * m.dim)
        for x in range(g.order):
            transfer = transfer + n.act(x).kron(m.act(g.inv(x)).t())
        red, pivots, r = rref(solve(hstack([_vec(h.matrix) for h in full]), transfer).t())
        red = FqMatrix(f, red.a[:r, :])
    else:
        red, pivots = FqMatrix.zeros(f, 0, 0), ()
    return StableHomSpace(m, n, tuple(full), red, tuple(pivots))


# ---------------------------------------------------------------------------
# stripping projective summands


def _is_p_group(group: FiniteGroup, p: int) -> bool:
    return set(factorize(group.order)) <= {p}


def _split_pim(m: GModule) -> tuple[GModule, GMap] | None:
    """A PIM P and a map m -> P that splits, or None when m has no projective summand.

    P is a summand exactly when some fin: P -> m and fout: m -> P compose to
    an automorphism of P; fin is then injective, so ker(fout) is a complement.
    """
    for p_i in pims(m.group, m.field):
        out_maps = hom_space(m, p_i)
        for fin in hom_space(p_i, m):
            for fout in out_maps:
                if is_invertible(fout.matrix @ fin.matrix):
                    return p_i, fout
    return None


def strip_projectives(m: GModule) -> tuple[GModule, GModule]:
    """m = core + projective part, with the core free of projective summands.

    Over a p-group in characteristic p every projective is free, and the
    socle of kG is the line of the norm N = sum_g g, so m has r = rank(N)
    free summands.  They split off in one step: with v_1..v_r such that the
    N v_i are independent and functionals lam_j with lam_j(N v_i) = delta_ij,
    x -> sum_g lam_j(g^-1 x) g e_j is a retraction of m onto kG^r, and the
    core is its kernel, cut out by the r|G| rows lam_j g^-1.  Other groups
    split off one PIM at a time.
    """
    g, f = m.group, m.field
    if g.order % f.p:
        # semisimple group algebra: everything is projective
        return zero_module(g, f), m
    core = m
    split: list[GModule] = []
    if _is_p_group(g, f.p):
        norm = FqMatrix.zeros(f, m.dim, m.dim)
        for x in range(g.order):
            norm = norm + m.act(x)
        _, pivots, r = rref(norm)
        if r:
            images = FqMatrix(f, norm.a[:, list(pivots)])  # N v_i for v_i the pivot unit vectors
            lam = solve(images.t(), FqMatrix.identity(f, r)).t()
            retraction = vstack([lam @ m.act(g.inv(x)) for x in range(g.order)])
            comp = kernel_basis(retraction)
            if comp.cols != m.dim - r * g.order:
                raise AssertionError("free-summand retraction has wrong rank")
            core, _ = submodule(m, comp, m.label)
            split = [regular_module(g, f)] * r
    else:
        while core.dim and (found := _split_pim(core)) is not None:
            p_i, fout = found
            core, _ = submodule(core, kernel_basis(fout.matrix), core.label)
            split.append(p_i)
    return core.relabel(f"core({m.label})"), direct_sum(g, f, split)


# ---------------------------------------------------------------------------
# isomorphism testing


def module_iso(m: GModule, n: GModule) -> GMap | None:
    """The first hom-basis map m -> n that is invertible, or None.

    Exact whenever m or n is indecomposable: say n is, then End(n) is local
    (Fitting's lemma), so if some phi: m -> n is invertible the maps that are
    not form the proper subspace rad End(n) . phi, which holds no basis.
    Compare two decomposable modules through their summands (Krull-Schmidt).
    Library callers meet the contract: ``identify`` compares cores of
    endotrivial modules, which are indecomposable; ``stable_iso``, from
    ``is_endotrivial`` and ``verify_generator``, compares with k or Omega^n k;
    ``_distinct_summands`` compares indecomposable summands.
    """
    _same_base(m, n)
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return GMap(m, n, FqMatrix.zeros(m.field, 0, 0))
    for h in hom_space(m, n):
        if is_invertible(h.matrix):
            return h
    return None


def stable_iso(m: GModule, n: GModule) -> bool:
    """Stable isomorphism: the projective-free cores are isomorphic."""
    _same_base(m, n)
    core_m, _ = strip_projectives(m)
    core_n, _ = strip_projectives(n)
    return module_iso(core_m, core_n) is not None


def is_endotrivial(m: GModule) -> bool:
    """Whether m tensor m* is stably the trivial module."""
    if m.dim == 0:
        raise ValueError("the zero module is not a candidate")
    return stable_iso(tensor(m, dual(m)), trivial_module(m.group, m.field))


def ev_map(m: GModule) -> GMap:
    """Evaluation m tensor m* -> k."""
    t = tensor(m, dual(m))
    row = np.zeros((1, m.dim * m.dim), dtype=np.int64)
    for i in range(m.dim):
        row[0, i * m.dim + i] = 1
    return GMap(t, trivial_module(m.group, m.field), FqMatrix(m.field, row)).check()


# ---------------------------------------------------------------------------
# Tate cohomology in degree zero


@dataclass(frozen=True)
class TateH0:
    """H-hat^0(G; k) = fixed points of k modulo the image of the norm."""

    group: FiniteGroup
    field: Fq
    dim: int

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def ring_name(self) -> str:
        return f"F{self.field.q}" if self.dim else "0"

    @property
    def unit_group_order(self) -> int:
        return self.field.q - 1 if self.dim else 1

    def __str__(self) -> str:
        return self.ring_name


def tate_h0(group: FiniteGroup, field: Fq) -> TateH0:
    """For the trivial module: k^G = k and the norm acts by |G|, so k / |G|k."""
    norm_value = group.order % field.p
    return TateH0(group, field, 0 if norm_value else 1)
