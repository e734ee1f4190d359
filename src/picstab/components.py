"""Components of non-trivial p-subgroups under inclusion and conjugation.

These components index the primitive idempotents of the stable endomorphism
ring of the trivial module: one factor isomorphic to k for each component at
p = char k.  By Sylow's theorem every p-subgroup of a finite group lies in a
Sylow p-subgroup, and the Sylow p-subgroups are conjugate, so all non-trivial
p-subgroups form one component when p divides the group's order and there
are none otherwise.  For a graph of finite groups a finite subgroup of the
fundamental group is conjugate into a vertex group, so the vertex groups of
order divisible by p are glued along each edge whose group has order
divisible by p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import Fq, is_prime
from .groups import FiniteGroup, Subgroup, p_subgroup_classes
from .modrep import tate_h0
from .treecalc import FiniteVertex, UnionFind, UnsupportedVertex


@dataclass(frozen=True)
class PComponents:
    """The conjugacy classes of non-trivial p-subgroups and their components."""

    components: tuple[tuple[int, ...], ...]  # indices into `classes`
    classes: tuple[tuple[Subgroup, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)


def p_components_finite(g: FiniteGroup, p: int) -> PComponents:
    """The p-subgroup classes, all in one component when there are any (Sylow)."""
    classes = tuple(tuple(c) for c in p_subgroup_classes(g, p))
    return PComponents((tuple(range(len(classes))),) if classes else (), classes)


def p_components_graph(gog, p: int) -> int:
    """Component count for the fundamental group of a graph of finite groups.

    Each vertex group of order divisible by p carries one component; an edge
    group of order divisible by p embeds its Sylow p-subgroup into both
    endpoint groups and so identifies their components.  This extends the
    free-product case (where nothing glues) by the same conjugacy control of
    finite subgroups coming from the action on the tree.
    """
    for v in gog.vertices:
        if not isinstance(v, FiniteVertex):
            raise UnsupportedVertex("component counting needs every vertex group to be finite")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    uf = UnionFind(i for i, v in enumerate(gog.vertices) if v.group.order % p == 0)
    for edge in gog.edges:
        if edge.group.order % p == 0:
            uf.union(edge.initial, edge.terminal)
    return len(uf.groups())


def stable_end_decomposition(target, k: Fq) -> list[Fq]:
    """Factor rings of the stable endomorphisms of the trivial module.

    One factor k/|P|k = k for every component of non-trivial p-subgroups P at
    p = char(k); for a finite group G their number is dim k/|G|k (Tate H^0).
    """
    if isinstance(target, FiniteGroup):
        count = tate_h0(target, k).dim
    else:
        count = p_components_graph(target, k.p)
    return [k] * count
