"""Components of non-trivial p-subgroups under inclusion and conjugation.

These components index the primitive idempotents of the stable endomorphism
ring of the trivial module: one factor isomorphic to k for each component at
p = char k.  For a graph of finite groups the components of the vertex
groups are glued along the images of the edge groups' p-subgroups, since a
finite subgroup of the fundamental group is conjugate into a vertex group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import Fq
from .groups import FiniteGroup, Subgroup, p_subgroup_classes
from .treecalc import FiniteVertex, UnionFind, UnsupportedVertex


@dataclass(frozen=True)
class PComponents:
    """Equivalence classes of non-trivial p-subgroups, merged along inclusion."""

    group: FiniteGroup
    p: int
    components: tuple[tuple[int, ...], ...]  # indices into `classes`
    classes: tuple[tuple[Subgroup, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)

    def component_of_class(self, class_index: int) -> int:
        for ci, comp in enumerate(self.components):
            if class_index in comp:
                return ci
        raise ValueError("class index out of range")

    def class_of_subgroup(self, s: Subgroup) -> int:
        for i, cls in enumerate(self.classes):
            if any(member.elements == s.elements for member in cls):
                return i
        raise ValueError(f"subgroup of order {s.order} is in no p-subgroup class")


def p_components_finite(g: FiniteGroup, p: int) -> PComponents:
    """Merge conjugacy classes of non-trivial p-subgroups along inclusion."""
    classes = p_subgroup_classes(g, p)
    uf = UnionFind(range(len(classes)))
    for i, cls_i in enumerate(classes):
        for j, cls_j in enumerate(classes):
            if i >= j:
                continue
            small, big = (i, j) if cls_i[0].order <= cls_j[0].order else (j, i)
            if any(
                member.elements <= other.elements
                for member in classes[small]
                for other in classes[big]
            ):
                uf.union(i, j)
    comps = tuple(tuple(c) for c in uf.groups())
    return PComponents(g, p, comps, tuple(tuple(c) for c in classes))


def p_components_graph(gog, p: int) -> int:
    """Component count for the fundamental group of a graph of finite groups.

    Components of the vertex groups are glued whenever an edge group carries a
    non-trivial p-subgroup: its two monomorphism images land in components of
    the endpoint groups, and those get identified.  This extends the
    free-product case (where nothing glues) by the same conjugacy control of
    finite subgroups coming from the action on the tree.
    """
    for v in gog.vertices:
        if not isinstance(v, FiniteVertex):
            raise UnsupportedVertex(
                "component counting needs every vertex group to be finite"
            )
    per_vertex = [p_components_finite(v.group, p) for v in gog.vertices]
    uf = UnionFind((vi, ci) for vi, pc in enumerate(per_vertex) for ci in range(pc.count))
    for edge in gog.edges:
        edge_classes = p_subgroup_classes(edge.group, p)
        for cls in edge_classes:
            rep = cls[0]
            ends = []
            for vertex_index, mono in (
                (edge.initial, edge.mono_initial),
                (edge.terminal, edge.mono_terminal),
            ):
                image = Subgroup(
                    gog.vertices[vertex_index].group,
                    frozenset(mono(x) for x in rep.elements),
                )
                pc = per_vertex[vertex_index]
                ends.append((vertex_index, pc.component_of_class(pc.class_of_subgroup(image))))
            uf.union(ends[0], ends[1])
    return len(uf.groups())


def stable_end_decomposition(target, k: Fq) -> list[Fq]:
    """Factor rings of the stable endomorphisms of the trivial module.

    One factor k for every component of non-trivial p-subgroups at
    p = char(k); each factor is k/|P|k = k because p divides the relevant
    subgroup orders.
    """
    if isinstance(target, FiniteGroup):
        count = p_components_finite(target, k.p).count
    else:
        count = p_components_graph(target, k.p)
    return [k] * count
