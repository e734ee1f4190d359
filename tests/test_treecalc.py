import random

import pytest

from picstab.abgrp import Ambiguous, FgAbelian, ab_cokernel, ab_kernel
from picstab.groups import GroupMono, cyclic, klein4, mono_from_generator_images, quaternion8
from picstab.treecalc import (
    Edge,
    FiniteVertex,
    GraphOfGroups,
    ProfileVertex,
    amalgam,
    aut_level_maps,
    compute_t,
    diagonal_check_q8,
    free_product,
    hnn,
    t_level_maps,
    z_times,
)


def sl2z():
    return amalgam(cyclic(6), cyclic(4), cyclic(2), ["g^3"], ["g^2"])


# ---------------------------------------------------------------------------
# graph validation


def _trivial_edge(initial: int, terminal: int, target) -> Edge:
    one = cyclic(1)
    mono = GroupMono(one, target, (0,))
    return Edge(one, initial, terminal, mono, mono)


def test_graph_requires_connectivity():
    with pytest.raises(ValueError, match="not connected"):
        GraphOfGroups((FiniteVertex(cyclic(2)), FiniteVertex(cyclic(3))), (), (0,))


def test_graph_requires_spanning_tree():
    e = _trivial_edge(0, 1, cyclic(2))
    with pytest.raises(ValueError, match=r"exactly \|V\| - 1 edges"):
        GraphOfGroups((FiniteVertex(cyclic(2)), FiniteVertex(cyclic(2))), (e,), ())


def test_graph_tree_edges_reject_a_cycle():
    # edges 0 and 1 both join vertices 0 and 1; marking both as the tree has
    # the right edge count but closes a cycle and leaves vertex 2 unreached
    c2 = cyclic(2)
    edges = (_trivial_edge(0, 1, c2), _trivial_edge(1, 0, c2), _trivial_edge(1, 2, c2))
    with pytest.raises(ValueError, match="tree_edges contain a cycle"):
        GraphOfGroups(tuple(FiniteVertex(c2) for _ in range(3)), edges, (0, 1))


@pytest.mark.parametrize("tree, bad", [((-1, 0), -1), ((0, 5), 5)])
def test_graph_tree_edges_reject_an_index_out_of_range(tree, bad):
    # a negative index used to wrap to the last edge; one past the end gave IndexError
    g = free_product([cyclic(2), cyclic(2), cyclic(3)])
    with pytest.raises(ValueError, match=rf"tree edge index {bad} is not in 0\.\.1"):
        GraphOfGroups(g.vertices, g.edges, tree)


def test_graph_checks_mono_endpoints():
    c2, c4 = cyclic(2), cyclic(4)
    wrong = mono_from_generator_images(c2, c4, ["g^2"])
    with pytest.raises(ValueError, match="monomorphism endpoints do not match"):
        # the edge claims group C4 but the mono starts at C2
        GraphOfGroups(
            (FiniteVertex(c4), FiniteVertex(c4)),
            (Edge(c4, 0, 1, wrong, wrong),),
            (0,),
        )


def test_amalgam_constructor_shape():
    gog = sl2z()
    assert gog.is_amalgam() and not gog.is_identity_hnn()
    assert len(gog.tree_edges) == 1


def test_identity_hnn_detection():
    gog = z_times(FiniteVertex(cyclic(2)))
    assert gog.is_identity_hnn()
    twisted = hnn(cyclic(3), cyclic(3), ["g"], ["g^2"])
    assert not twisted.is_identity_hnn()


# ---------------------------------------------------------------------------
# the two maps


def test_aut_level_amalgam_f4(F4):
    h = aut_level_maps(sl2z(), F4)
    assert h.source == FgAbelian((3, 3))
    assert h.target == FgAbelian((3,))
    # (a, b) -> a - b up to the normal-form change of basis: surjective
    coker, _ = ab_cokernel(h)
    assert coker.is_trivial()


def test_aut_level_amalgam_f2(F2):
    h = aut_level_maps(sl2z(), F2)
    assert h.source.is_trivial() and h.target.is_trivial()


def test_aut_level_identity_hnn(F4):
    h = aut_level_maps(z_times(FiniteVertex(cyclic(2))), F4)
    assert h.source == FgAbelian((3,)) and h.target == FgAbelian((3,))
    coker, _ = ab_cokernel(h)
    assert coker == FgAbelian((3,))  # Res - Res_f = 0


def test_t_level_sl2z(F2, F4, F3):
    h = t_level_maps(sl2z(), F2)
    assert h.source == FgAbelian((2,))  # T(C6) = 0, T(C4) = Z/2
    assert ab_kernel(h)[0] == FgAbelian((2,))
    h = t_level_maps(sl2z(), F4)
    assert h.source == FgAbelian((6,))
    assert ab_kernel(h)[0] == FgAbelian((6,))
    h = t_level_maps(sl2z(), F3)
    assert ab_kernel(h)[0] == FgAbelian((2, 2))


def test_t_level_nontrivial_matrix(F2):
    # Q8 *_C4 Q8: both restrictions hit the generator of T(C4)
    q8, c4 = quaternion8(), cyclic(4)
    gog = amalgam(q8, q8, c4, ["x"], ["x"])
    h = t_level_maps(gog, F2)
    assert h.source == FgAbelian((4, 4))
    assert h.target == FgAbelian((2,))
    assert h.matrix.to_lists() == [[1, -1]] or h.matrix.to_lists() == [[1, 1]]


# ---------------------------------------------------------------------------
# compute_t on the worked examples


def test_sl2z_values(F2, F3, F4):
    assert compute_t(sl2z(), F4).answer == FgAbelian((6,))
    assert compute_t(sl2z(), F2).answer == FgAbelian((2,))
    assert compute_t(sl2z(), F3).answer == FgAbelian((2, 2))


def test_c4_amalgam_c4(F2):
    gog = amalgam(cyclic(4), cyclic(4), cyclic(2), ["g^2"], ["g^2"])
    assert compute_t(gog, F2).answer == FgAbelian((2, 2))


def test_identity_hnn_values(F2, F4):
    assert compute_t(z_times(FiniteVertex(cyclic(2))), F4).answer == FgAbelian((3,))
    assert compute_t(z_times(FiniteVertex(cyclic(2))), F2).answer.is_trivial()
    r = compute_t(z_times(FiniteVertex(cyclic(4))), F2)
    assert r.answer == FgAbelian((2,))


def test_profile_vertex_chain(F4):
    gog = z_times(ProfileVertex((cyclic(2), cyclic(2))))
    r = compute_t(gog, F4)
    assert r.answer == FgAbelian((3, 3))


def test_free_product_is_direct_sum(F2, F4):
    gog = free_product([cyclic(4), cyclic(4)])
    r = compute_t(gog, F2)
    assert r.answer == FgAbelian((2, 2))
    gog = free_product([cyclic(2), cyclic(2)])
    assert compute_t(gog, F4).answer.is_trivial()
    gog = free_product([cyclic(6), cyclic(4)])
    assert compute_t(gog, F4).answer == FgAbelian.from_factors([3, 2])


def test_q8_amalgam(F2):
    gog = amalgam(quaternion8(), quaternion8(), cyclic(4), ["x"], ["x"])
    r = compute_t(gog, F2)
    assert r.answer == FgAbelian((2, 4))


def test_klein_vertex(F2):
    gog = amalgam(klein4(), cyclic(4), cyclic(2), ["a"], ["g^2"])
    r = compute_t(gog, F2)
    assert r.answer == FgAbelian((2, 0))


def test_ambiguous_extension(F3):
    gog = hnn(cyclic(3), cyclic(3), ["g"], ["g^2"])
    r = compute_t(gog, F3)
    assert r.is_ambiguous and r.rule == "none"
    assert r.answer == Ambiguous(FgAbelian((2,)), FgAbelian((2,)))


def test_coprime_rule(F4):
    # HNN of C4 twisted by inversion, over F4: the scalar cokernel is Z/3
    # (units of F4), the T-kernel is Z/2 (the twist fixes the syzygy class),
    # no inflation splitting applies, and the coprime rule assembles Z/6
    gog = hnn(cyclic(4), cyclic(4), ["g"], ["g^3"])
    r = compute_t(gog, F4)
    assert not gog.is_identity_hnn()
    assert r.rule == "coprime_orders"
    assert r.sub == FgAbelian((3,)) and r.quot == FgAbelian((2,))
    assert r.answer == FgAbelian((6,))


@pytest.mark.parametrize(
    "rule, build, field, answer",
    [
        ("sub_trivial", sl2z, "F4", FgAbelian((6,))),
        ("quot_trivial", lambda: z_times(FiniteVertex(cyclic(2))), "F4", FgAbelian((3,))),
        # Z x C6 over F4: Z/3 by Z/3 splits by inflation, and is not Z/9
        ("split_by_inflation", lambda: z_times(FiniteVertex(cyclic(6))), "F4",
         FgAbelian((3, 3))),
        ("coprime_orders", lambda: hnn(cyclic(4), cyclic(4), ["g"], ["g^3"]), "F4",
         FgAbelian((6,))),
        ("none", lambda: hnn(cyclic(3), cyclic(3), ["g"], ["g^2"]), "F3",
         Ambiguous(FgAbelian((2,)), FgAbelian((2,)))),
    ],
)
def test_compute_t_reaches_each_rule(rule, build, field, answer, request):
    r = compute_t(build(), request.getfixturevalue(field))
    assert r.rule == rule
    assert r.answer == answer


def test_hnn_with_proper_edge_subgroup(F4):
    # HNN of C4 over the C2 inside it (both ends g -> g^2): the scalar
    # cokernel is the full unit group Z/3, the T-kernel is Z/2, coprime
    gog = hnn(cyclic(4), cyclic(2), ["g^2"], ["g^2"])
    r = compute_t(gog, F4)
    assert r.sub == FgAbelian((3,)) and r.quot == FgAbelian((2,))
    assert r.rule == "coprime_orders" and r.answer == FgAbelian((6,))


def test_twisted_hnn_vanishes_without_torsion(F4):
    gog = hnn(cyclic(3), cyclic(3), ["g"], ["g^2"])
    r = compute_t(gog, F4)
    # char 2 does not divide |C3|: everything vanishes
    assert r.answer.is_trivial()


def test_order_bookkeeping(F2, F3, F4):
    for gog, f in [
        (sl2z(), F4),
        (sl2z(), F3),
        (amalgam(cyclic(4), cyclic(4), cyclic(2), ["g^2"], ["g^2"]), F2),
        (z_times(FiniteVertex(cyclic(4))), F2),
    ]:
        r = compute_t(gog, f)
        if not r.is_ambiguous and r.answer.order() is not None:
            assert r.answer.order() == (r.sub.order() or 1) * (r.quot.order() or 1)


def test_amalgam_rule_agrees_with_computation_random(F2, F3, F4):
    # seeded random amalgams of built-in groups: the scalar-automorphism
    # cokernel must vanish, by rule and by computation
    rng = random.Random(20240809)
    pool = [cyclic(2), cyclic(3), cyclic(4), cyclic(6), quaternion8(), klein4()]
    fields = [F2, F3, F4]
    made = 0
    while made < 5:
        edge = rng.choice([cyclic(1), cyclic(2), cyclic(3)])
        left, right = rng.choice(pool), rng.choice(pool)
        embeds = []
        ok = True
        for tgt in (left, right):
            candidates = [
                x
                for x in range(tgt.order)
                if (tgt.element_order(x) == edge.order if edge.order > 1 else x == 0)
            ]
            if not candidates:
                ok = False
                break
            embeds.append([tgt.element_names[rng.choice(candidates)]])
        if not ok:
            continue
        try:
            gog = amalgam(left, right, edge, embeds[0], embeds[1])
        except Exception:
            continue
        field = rng.choice(fields)
        try:
            r = compute_t(gog, field)
        except Exception:
            continue  # e.g. T(Q8, F4) needs the cited generator
        assert r.sub.is_trivial(), (left.name, right.name, edge.name, field.q)
        made += 1


def test_three_vertex_chain(F2):
    # C4 --C2-- C4 --C2-- C4: all edge T-groups vanish, so T is the product
    c4, c2 = cyclic(4), cyclic(2)
    mono = mono_from_generator_images(c2, c4, ["g^2"])
    edges = (Edge(c2, 0, 1, mono, mono), Edge(c2, 1, 2, mono, mono))
    gog = GraphOfGroups(tuple(FiniteVertex(c4) for _ in range(3)), edges, (0, 1))
    r = compute_t(gog, F2)
    assert r.answer == FgAbelian((2, 2, 2))


def test_product_family_vertex(F2):
    # C12 = C4 x C3 glued to Q8 over C4: T(C12) = Z/2, T(Q8) = Z/4, and the
    # kernel of (a, b) -> a - b into T(C4) = Z/2 is cyclic of order 4
    from picstab.groups import direct_product

    c12 = direct_product(cyclic(4), cyclic(3))
    gog = amalgam(c12, quaternion8(), cyclic(4), ["g0"], ["x"])
    r = compute_t(gog, F2)
    assert r.answer == FgAbelian((4,))


def test_unverifiable_generator_fails_loudly(F4):
    # T(Q8, F4) includes a generator cited from the classification
    # literature; using it as an amalgam vertex must raise, not guess
    from picstab.picard import UnsupportedGroup

    q8, c4 = quaternion8(), cyclic(4)
    gog = amalgam(q8, q8, c4, ["x"], ["x"])
    with pytest.raises(UnsupportedGroup):
        compute_t(gog, F4)


def test_consistency_with_components(F2, F4):
    # for free products the number of stable-End factors equals the number of
    # nontrivial scalar coordinates in the aut-level domain
    from picstab.components import stable_end_decomposition

    for parts, f in [([cyclic(2), cyclic(2)], F4), ([cyclic(2), cyclic(3)], F2)]:
        gog = free_product(parts)
        n_factors = len(stable_end_decomposition(gog, f))
        n_slots = sum(1 for g in parts if g.order % f.p == 0)
        assert n_factors == n_slots


def test_provenance_records_everything(F4):
    r = compute_t(sl2z(), F4)
    prov = r.provenance
    assert prov["rule"] == r.rule
    assert [v["name"] for v in prov["vertices"]] == ["C6", "C4"]
    assert prov["aut_map"] == [[1, 2]] or prov["aut_map"] == [[1, -1]] or prov["aut_map"] == [[2, 1]]
    assert prov["t_domain"] == "Z/6"


# ---------------------------------------------------------------------------
# the quaternion diagonal check


def test_diagonal_check_q8(F2, F4):
    for f in (F2, F4):
        report = diagonal_check_q8(f)
        assert report["diagonal_confirmed"]
        assert report["class_is_nonzero"]
        assert report["class_under_x_restriction"] == report["class_under_y_restriction"] == [1]
        assert report["trivial_module_classes"] == [[0], [0]]


def test_diagonal_check_needs_char_2(F3):
    with pytest.raises(ValueError):
        diagonal_check_q8(F3)
