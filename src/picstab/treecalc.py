"""T of a fundamental group of a finite graph of groups, by exact-sequence arithmetic.

The invertible-module group of the fundamental group sits in a short exact
sequence: the cokernel of the difference of restriction maps on stable
scalar automorphisms injects, and the kernel of the difference of
restriction maps on the vertex T-groups is the quotient.  Both maps are
assembled coordinate by coordinate (restrictions of actual generator
modules, identified in the edge registries) and evaluated with Smith normal
form; the two ends are then combined by the splitting rules, or reported
honestly as ambiguous when no rule applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .abgrp import (
    AbHom,
    Ambiguous,
    FgAbelian,
    ab_cokernel,
    ab_direct_sum,
    ab_kernel,
    hom_from_exponents,
)
from .exactlin import Fq, ZMatrix
from .groups import FiniteGroup, GroupMono, cyclic, identity_mono, mono_from_generator_images, quaternion8
from . import picard
from .modrep import restrict, syzygy, trivial_module
from .picard import TGroupData, t_group


class UnsupportedVertex(ValueError):
    pass


class UnionFind:
    """Disjoint sets of hashable, ordered items; each set's root is its least member."""

    def __init__(self, items=()):
        self.parent: dict = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def groups(self) -> list[list]:
        """The sets, each sorted, in the order of their least members."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return [sorted(v) for _, v in sorted(out.items())]


@dataclass(frozen=True)
class FiniteVertex:
    group: FiniteGroup

    @property
    def name(self) -> str:
        return self.group.name


@dataclass(frozen=True)
class ProfileVertex:
    """A free product of finite groups, used as an opaque vertex.

    Its T-group is the direct sum of the parts' T-groups and its stable
    automorphisms decompose one factor per part; only identity self-edges
    are supported (the Z x (A * B) pattern).
    """

    parts: tuple[FiniteGroup, ...]

    @property
    def name(self) -> str:
        return " * ".join(p.name for p in self.parts)


@dataclass(frozen=True)
class Edge:
    """An edge with its group and the two monomorphisms into the endpoint groups.

    ``group is None`` marks an identity self-edge over a profile vertex.
    """

    group: FiniteGroup | None
    initial: int
    terminal: int
    mono_initial: GroupMono | None
    mono_terminal: GroupMono | None


@dataclass(frozen=True)
class GraphOfGroups:
    vertices: tuple
    edges: tuple[Edge, ...]
    tree_edges: tuple[int, ...]

    def __post_init__(self):
        nv = len(self.vertices)
        if nv == 0:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            if not (0 <= e.initial < nv and 0 <= e.terminal < nv):
                raise ValueError("edge endpoint out of range")
            for vidx, mono in ((e.initial, e.mono_initial), (e.terminal, e.mono_terminal)):
                v = self.vertices[vidx]
                if e.group is None:
                    if not isinstance(v, ProfileVertex) or e.initial != e.terminal:
                        raise UnsupportedVertex(
                            "identity edges are only supported as self-edges on a profile vertex"
                        )
                else:
                    if not isinstance(v, FiniteVertex):
                        raise UnsupportedVertex(
                            "edges into a profile vertex must be identity self-edges"
                        )
                    if mono is None or mono.source != e.group or mono.target != v.group:
                        raise ValueError("edge monomorphism endpoints do not match")
        reach = UnionFind(range(nv))
        for e in self.edges:
            reach.union(e.initial, e.terminal)
        if len(reach.groups()) != 1:
            raise ValueError("underlying graph is not connected")
        # the marked edges must form a spanning tree
        if len(self.tree_edges) != nv - 1:
            raise ValueError("tree_edges must contain exactly |V| - 1 edges")
        tree = UnionFind(range(nv))
        for i in self.tree_edges:
            if not 0 <= i < len(self.edges):
                raise ValueError(f"tree edge index {i} is not in 0..{len(self.edges) - 1}")
            e = self.edges[i]
            if not tree.union(e.initial, e.terminal):
                raise ValueError("tree_edges contain a cycle")

    def is_identity_hnn(self) -> bool:
        """One vertex, one self-edge whose both monos are the identity: Z x G_v."""
        if len(self.vertices) != 1 or len(self.edges) != 1:
            return False
        e = self.edges[0]
        if e.group is None:
            return True
        return (
            isinstance(self.vertices[0], FiniteVertex)
            and e.mono_initial.is_identity()
            and e.mono_terminal.is_identity()
        )

    def is_amalgam(self) -> bool:
        return (
            len(self.vertices) == 2
            and len(self.edges) == 1
            and self.edges[0].group is not None
        )


def amalgam(left: FiniteGroup, right: FiniteGroup, edge: FiniteGroup,
            embed_left, embed_right) -> GraphOfGroups:
    ml = embed_left if isinstance(embed_left, GroupMono) else mono_from_generator_images(edge, left, embed_left)
    mr = embed_right if isinstance(embed_right, GroupMono) else mono_from_generator_images(edge, right, embed_right)
    e = Edge(edge, 0, 1, ml, mr)
    return GraphOfGroups((FiniteVertex(left), FiniteVertex(right)), (e,), (0,))


def hnn(vertex: FiniteGroup, edge: FiniteGroup, embed_initial, embed_terminal) -> GraphOfGroups:
    mi = embed_initial if isinstance(embed_initial, GroupMono) else mono_from_generator_images(edge, vertex, embed_initial)
    mt = embed_terminal if isinstance(embed_terminal, GroupMono) else mono_from_generator_images(edge, vertex, embed_terminal)
    e = Edge(edge, 0, 0, mi, mt)
    return GraphOfGroups((FiniteVertex(vertex),), (e,), ())


def z_times(vertex) -> GraphOfGroups:
    """Z x G as the HNN extension with the identity gluing."""
    if isinstance(vertex, ProfileVertex):
        return GraphOfGroups((vertex,), (Edge(None, 0, 0, None, None),), ())
    g = vertex.group if isinstance(vertex, FiniteVertex) else vertex
    iden = identity_mono(g)
    return GraphOfGroups((FiniteVertex(g),), (Edge(g, 0, 0, iden, iden),), ())


def free_product(groups) -> GraphOfGroups:
    """A1 * A2 * ... as a graph with trivial edge groups along a path."""
    groups = list(groups)
    one = cyclic(1)
    vertices = tuple(FiniteVertex(g) for g in groups)
    edges = []
    for i in range(len(groups) - 1):
        edges.append(
            Edge(one, i, i + 1, GroupMono(one, groups[i], (0,)), GroupMono(one, groups[i + 1], (0,)))
        )
    return GraphOfGroups(vertices, tuple(edges), tuple(range(len(edges))))


# ---------------------------------------------------------------------------
# assembling the two maps


def _vertex_tgds(v, k: Fq) -> list[TGroupData]:
    if isinstance(v, FiniteVertex):
        return [t_group(v.group, k)]
    if isinstance(v, ProfileVertex):
        return [t_group(part, k) for part in v.parts]
    raise UnsupportedVertex(f"unknown vertex kind {v!r}")


def _difference_hom(gog: GraphOfGroups, vertex_orders: list[list[int]], edge_maps) -> AbHom:
    """Res - Res_f : product of the vertex groups -> product of the edge groups.

    ``vertex_orders[v]`` lists the orders of vertex v's raw generators, and
    ``edge_maps(e)`` returns (edge generator orders, rows of the restriction
    from the initial vertex, rows of the restriction from the terminal vertex)
    in raw coordinates.  An identity self-edge restricts both ways by the
    identity, so its rows, one per coordinate of its vertex, are zero.
    """
    v_off = [0]
    for orders in vertex_orders:
        v_off.append(v_off[-1] + len(orders))
    rows: list[list[int]] = []
    row_orders: list[int] = []
    for e in gog.edges:
        if e.group is None:
            orders, ends = vertex_orders[e.initial], ()
        else:
            orders, r_init, r_term = edge_maps(e)
            ends = ((e.initial, r_init, 1), (e.terminal, r_term, -1))
        for j, order in enumerate(orders):
            row = [0] * v_off[-1]
            for v, res, sign in ends:
                for i, x in enumerate(res[j]):
                    row[v_off[v] + i] += sign * x
            rows.append(row)
            row_orders.append(order)
    return hom_from_exponents(
        sum(vertex_orders, []), row_orders, ZMatrix(rows, cols=v_off[-1])
    )


def t_level_maps(gog: GraphOfGroups, k: Fq) -> AbHom:
    """Res - Res_f : product of vertex T-groups -> product of edge T-groups."""
    vertex_tgds = [_vertex_tgds(v, k) for v in gog.vertices]

    def edge_maps(e):
        etgd = t_group(e.group, k)
        (src_i,) = vertex_tgds[e.initial]
        (src_t,) = vertex_tgds[e.terminal]
        r_init = picard.restriction_raw(src_i, e.mono_initial, etgd)
        r_term = picard.restriction_raw(src_t, e.mono_terminal, etgd)
        return etgd.raw_orders, r_init.entries, r_term.entries

    vertex_orders = [sum((list(t.raw_orders) for t in ts), []) for ts in vertex_tgds]
    return _difference_hom(gog, vertex_orders, edge_maps)


def aut_level_maps(gog: GraphOfGroups, k: Fq) -> AbHom:
    """Res - Res_f on stable scalar automorphisms.

    Over a finite field the restriction of a scalar stable automorphism is
    the identity on k^x whenever char k divides both group orders, and the
    map to a trivial unit group otherwise; each edge row is the difference
    of its two endpoint coordinates.
    """

    def units(g: FiniteGroup) -> int:
        return k.q - 1 if g.order % k.p == 0 else 1

    def edge_maps(e):
        return [units(e.group)], [[1]], [[1]]

    vertex_orders = [
        [units(v.group)] if isinstance(v, FiniteVertex) else [units(g) for g in v.parts]
        for v in gog.vertices
    ]
    return _difference_hom(gog, vertex_orders, edge_maps)


# ---------------------------------------------------------------------------
# the main computation


@dataclass(frozen=True)
class TResult:
    answer: FgAbelian | Ambiguous
    sub: FgAbelian
    quot: FgAbelian
    rule: str
    provenance: dict = dc_field(default_factory=dict)

    @property
    def is_ambiguous(self) -> bool:
        return isinstance(self.answer, Ambiguous)


def compute_t(gog: GraphOfGroups, k: Fq) -> TResult:
    """Evaluate the exact sequence: T sits between the two computed ends.

    sub = cokernel of Res - Res_f on stable scalar automorphisms (it injects
    into T); quot = kernel of Res - Res_f on the vertex T-groups (the image
    of restriction).  The two are combined by a splitting rule, or returned
    as Ambiguous when no rule applies.
    """
    aut_hom = aut_level_maps(gog, k)
    sub, _ = ab_cokernel(aut_hom)
    t_hom = t_level_maps(gog, k)
    quot, _ = ab_kernel(t_hom)
    if gog.is_amalgam() and not sub.is_trivial():
        raise AssertionError(
            "an amalgam over a field must have onto scalar restriction; "
            "the computed cokernel disagrees with the rule"
        )
    if sub.is_trivial():
        rule = "sub_trivial"
    elif quot.is_trivial():
        rule = "quot_trivial"
    elif gog.is_identity_hnn():
        rule = "split_by_inflation"
    elif (
        sub.order() is not None
        and quot.order() is not None
        and math.gcd(sub.order(), quot.order()) == 1
    ):
        rule = "coprime_orders"
    else:
        rule = "none"
    answer = Ambiguous(sub, quot) if rule == "none" else ab_direct_sum([sub, quot])
    provenance = {
        "field": {"p": k.p, "deg": k.e},
        "vertices": [
            {
                "name": v.name,
                "t": [t.structure.to_json() for t in _vertex_tgds(v, k)],
            }
            for v in gog.vertices
        ],
        "edges": [
            {
                "from": e.initial,
                "to": e.terminal,
                "group": e.group.name if e.group else "identity",
                "t": t_group(e.group, k).structure.to_json() if e.group else None,
            }
            for e in gog.edges
        ],
        "aut_map": aut_hom.matrix.to_lists(),
        "aut_domain": str(aut_hom.source),
        "aut_codomain": str(aut_hom.target),
        "t_map": t_hom.matrix.to_lists(),
        "t_domain": str(t_hom.source),
        "t_codomain": str(t_hom.target),
        "rule": rule,
    }
    return TResult(answer, sub, quot, rule, provenance)


def diagonal_check_q8(k: Fq) -> dict:
    """Restrict the first syzygy of k over Q8 to both cyclic subgroups of order 4.

    Both restrictions land in the same class of T(C4) (the nonzero one), so
    the verifiable part of the image of inflation from Q8 to C4 *_(C2) C4 is
    the diagonal.  The cited order-2 generator of T(Q8) over fields with a
    cube root of unity is excluded from this check.
    """
    if k.p != 2:
        raise ValueError("the quaternion diagonal check lives in characteristic 2")
    q8 = quaternion8()
    c4 = cyclic(4)
    tgd_c4 = t_group(c4, k)
    omega = syzygy(trivial_module(q8, k))
    mono_x = mono_from_generator_images(c4, q8, ["x"])
    mono_y = mono_from_generator_images(c4, q8, ["y"])
    class_x = tgd_c4.identify(restrict(omega, mono_x))
    class_y = tgd_c4.identify(restrict(omega, mono_y))
    triv = trivial_module(q8, k)
    triv_x = tgd_c4.identify(restrict(triv, mono_x))
    triv_y = tgd_c4.identify(restrict(triv, mono_y))
    agree = class_x == class_y
    nonzero = any(class_x)
    excluded = (k.q - 1) % 3 == 0
    return {
        "field": {"p": k.p, "deg": k.e},
        "module": omega.label,
        "class_under_x_restriction": list(class_x),
        "class_under_y_restriction": list(class_y),
        "restrictions_agree": bool(agree),
        "class_is_nonzero": bool(nonzero),
        "trivial_module_classes": [list(triv_x), list(triv_y)],
        "diagonal_confirmed": bool(agree),
        "note": (
            "the order-2 generator of T(Q8) cited from the classification "
            "literature is excluded from this check"
            if excluded
            else "T(Q8) is generated by the first syzygy over this field"
        ),
    }
