from itertools import combinations

import pytest

from picstab.components import (
    UnsupportedVertex,
    p_components_finite,
    p_components_graph,
    stable_end_decomposition,
)
from picstab.groups import cyclic, klein4, quaternion8
from picstab.treecalc import (
    FiniteVertex,
    ProfileVertex,
    UnionFind,
    amalgam,
    free_product,
    z_times,
)


def test_components_q8():
    pc = p_components_finite(quaternion8(), 2)
    assert pc.count == 1  # every 2-subgroup contains the center


def test_components_c6():
    assert p_components_finite(cyclic(6), 3).count == 1
    assert p_components_finite(cyclic(6), 2).count == 1


def test_components_no_torsion():
    assert p_components_finite(cyclic(3), 2).count == 0


def test_components_klein4():
    # the three C2's all sit inside V4 itself, so one component
    assert p_components_finite(klein4(), 2).count == 1


def test_components_bounded_by_minimal_classes(s3, groups):
    from picstab.groups import p_subgroup_classes

    for g in list(groups.values()) + [s3]:
        for p in (2, 3):
            pc = p_components_finite(g, p)
            minimal = [
                cls
                for cls in p_subgroup_classes(g, p)
                if cls[0].order == p  # classes of subgroups of order p
            ]
            assert 0 <= pc.count <= max(len(minimal), 0) + (0 if minimal else pc.count)
            if pc.count:
                assert pc.count <= len(minimal)


def test_normal_p_subgroup_forces_one_component(groups):
    # all built-in families have a normal Sylow subgroup, so one component
    # whenever there is p-torsion at all
    for g in groups.values():
        for p in (2, 3):
            if g.order % p == 0:
                assert p_components_finite(g, p).count == 1


def _glued_by_inclusion(classes):
    """Reference: merge classes whenever a member of one contains a member of the other."""
    uf = UnionFind(range(len(classes)))
    for i, j in combinations(range(len(classes)), 2):
        if any(
            a.elements <= b.elements or b.elements <= a.elements
            for a in classes[i]
            for b in classes[j]
        ):
            uf.union(i, j)
    return tuple(tuple(c) for c in uf.groups())


def test_sylow_components_agree_with_inclusion_gluing(s3, s4, a4, groups):
    for g in [s3, s4, a4, *groups.values()]:
        for p in (2, 3, 5):
            pc = p_components_finite(g, p)
            assert pc.components == _glued_by_inclusion(pc.classes), (g.name, p)


def test_graph_free_product_c2_c2():
    gog = free_product([cyclic(2), cyclic(2)])
    assert p_components_graph(gog, 2) == 2


def test_graph_free_product_c2_c3():
    gog = free_product([cyclic(2), cyclic(3)])
    assert p_components_graph(gog, 2) == 1
    assert p_components_graph(gog, 3) == 1
    assert p_components_graph(gog, 5) == 0


def test_graph_amalgam_glues():
    gog = amalgam(cyclic(6), cyclic(4), cyclic(2), ["g^3"], ["g^2"])
    assert p_components_graph(gog, 2) == 1


def test_graph_edge_prime_to_p_does_not_glue():
    gog = amalgam(cyclic(6), cyclic(6), cyclic(3), ["g^2"], ["g^4"])
    assert p_components_graph(gog, 2) == 2
    assert p_components_graph(gog, 3) == 1


def test_graph_single_vertex_matches_finite():
    from picstab.treecalc import GraphOfGroups

    for g in (quaternion8(), cyclic(6)):
        gog = GraphOfGroups((FiniteVertex(g),), (), ())
        for p in (2, 3):
            assert p_components_graph(gog, p) == p_components_finite(g, p).count


def test_graph_self_edge_hnn():
    from picstab.treecalc import hnn

    gog = hnn(cyclic(4), cyclic(2), ["g^2"], ["g^2"])
    assert p_components_graph(gog, 2) == 1


def test_graph_rejects_profile_vertices():
    gog = z_times(ProfileVertex((cyclic(2), cyclic(2))))
    with pytest.raises(UnsupportedVertex):
        p_components_graph(gog, 2)


def test_stable_end_decomposition(F2, F4):
    factors = stable_end_decomposition(free_product([cyclic(2), cyclic(2)]), F2)
    assert [f.q for f in factors] == [2, 2]
    assert [f.q for f in stable_end_decomposition(quaternion8(), F4)] == [4]
    assert stable_end_decomposition(cyclic(3), F2) == []
    sl2z = amalgam(cyclic(6), cyclic(4), cyclic(2), ["g^3"], ["g^2"])
    assert [f.q for f in stable_end_decomposition(sl2z, F2)] == [2]
