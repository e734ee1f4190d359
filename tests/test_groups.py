import time

import pytest

from picstab.exactlin import factorize
from picstab.groups import (
    InvalidTable,
    NotHomomorphism,
    NotInjective,
    all_subgroups,
    build_group,
    conjugacy_classes_of_subgroups,
    cyclic,
    direct_product,
    from_table,
    identity_mono,
    klein4,
    mono_from_generator_images,
    p_subgroup_classes,
    parse_word,
    quaternion8,
    sylow_complement,
    sylow_subgroup,
)


def order_census(g):
    return sorted(g.element_order(x) for x in range(g.order))


def test_build_cyclic6():
    g = build_group({"cyclic": 6})
    assert g.order == 6
    assert g.element_order(1) == 6


def test_build_quaternion8_order_census():
    g = build_group({"quaternion8": True})
    # exactly one element of order 2 (the central involution)
    assert order_census(g) == [1, 2, 4, 4, 4, 4, 4, 4]
    x, y = g.generators
    # y x y^-1 = x^-1
    assert g.conjugate(y, x) == g.inv(x)
    assert g.power(y, 2) == g.power(x, 2)


def test_build_product_c2_c3_is_c6():
    g = build_group({"product": [{"cyclic": 2}, {"cyclic": 3}]})
    assert order_census(g) == order_census(cyclic(6))


def test_build_klein4():
    g = build_group({"klein4": True})
    assert order_census(g) == [1, 2, 2, 2]


def test_explicit_table_roundtrip():
    g = build_group({"table": [list(r) for r in cyclic(3).mult]})
    assert order_census(g) == [1, 3, 3]


def test_group_order_cap():
    with pytest.raises(InvalidTable):
        cyclic(201)
    assert cyclic(200).order == 200


def test_invalid_tables_rejected():
    with pytest.raises(InvalidTable):
        from_table([[0, 1], [1, 1]])  # not a latin square / no inverse for 1
    with pytest.raises(InvalidTable):
        from_table([[1, 0], [0, 1]])  # 0 is not an identity
    # associativity failure: a 3x3 latin square with identity that is not a group
    with pytest.raises(InvalidTable):
        from_table([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


def test_tables_are_checked_before_generators_are_chosen():
    # refused before the greedy generating-set search, which would take seconds
    # over the cap and index out of range on a bad entry
    start = time.perf_counter()
    with pytest.raises(InvalidTable, match="exceeds cap"):
        from_table([[(i + j) % 201 for j in range(201)] for i in range(201)])
    assert time.perf_counter() - start < 0.5
    with pytest.raises(InvalidTable, match="out of range"):
        from_table([[0, 1], [1, 5]])


def test_subgroups_c6():
    subs = all_subgroups(cyclic(6))
    assert [s.order for s in subs] == [1, 2, 3, 6]


def test_subgroups_q8():
    subs = all_subgroups(quaternion8())
    assert [s.order for s in subs] == [1, 2, 4, 4, 4, 8]
    assert all(s.is_normal() for s in subs)


def test_subgroups_trivial():
    assert len(all_subgroups(cyclic(1))) == 1


def test_subgroups_closed_under_conjugation(s3):
    subs = all_subgroups(s3)
    assert len(subs) == 6  # 1, three C2, C3, S3
    members = {s.elements for s in subs}
    for s in subs:
        for x in range(s3.order):
            assert s.conjugate_by(x).elements in members


def test_p_subgroup_classes_c6():
    classes = p_subgroup_classes(cyclic(6), 2)
    assert len(classes) == 1 and classes[0][0].order == 2


def test_p_subgroup_classes_q8():
    classes = p_subgroup_classes(quaternion8(), 2)
    assert len(classes) == 5
    assert sorted(cls[0].order for cls in classes) == [2, 4, 4, 4, 8]
    assert all(len(cls) == 1 for cls in classes)  # everything normal


def test_p_subgroup_classes_empty():
    assert p_subgroup_classes(cyclic(3), 2) == []


def test_p_classes_partition_and_prime_power(s3, s4, a4):
    c2, c4 = cyclic(2), cyclic(4)
    c2_5 = direct_product(direct_product(direct_product(c2, c2), direct_product(c2, c2)), c2)
    groups = [
        s3,
        quaternion8(),
        s4,
        direct_product(a4, c2),
        direct_product(s3, s3),
        c2_5,
        direct_product(direct_product(c4, c4), cyclic(3)),
        direct_product(quaternion8(), cyclic(3)),
    ]
    for g in groups:
        lattice = all_subgroups(g)
        for p in (2, 3):
            classes = p_subgroup_classes(g, p)
            seen = [m.elements for cls in classes for m in cls]
            assert len(seen) == len(set(seen))
            expected = [
                s
                for s in lattice
                if s.order > 1 and all(q == p for q in _prime_divisors(s.order))
            ]
            # the same classes, members and order as when taken from the lattice
            assert classes == conjugacy_classes_of_subgroups(expected), (g.name, p)


def _prime_divisors(n):
    from picstab.exactlin import factorize

    return list(factorize(n))


def test_sylow():
    assert sylow_subgroup(cyclic(6), 2).order == 2
    assert sylow_subgroup(cyclic(6), 3).order == 3
    assert sylow_subgroup(cyclic(6), 5).order == 1
    assert sylow_subgroup(quaternion8(), 2).order == 8


def _lattice_sylow(g, p):
    """Reference: the largest p-subgroup in the subgroup lattice."""
    ps = [s for s in all_subgroups(g) if set(factorize(s.order)) <= {p}]
    return max(ps, key=lambda s: s.order)


def test_sylow_agrees_with_lattice(s3, s4, a4):
    c2 = cyclic(2)
    c2_4 = direct_product(direct_product(c2, c2), direct_product(c2, c2))
    groups = [cyclic(n) for n in range(1, 13)] + [
        quaternion8(), klein4(), c2_4, s3, s4, a4, direct_product(s3, s3)
    ]
    for g in groups:
        for p in (2, 3):
            assert sylow_subgroup(g, p) == _lattice_sylow(g, p), (g.name, p)


def test_sylow_complement(s3, a4):
    cases = [
        (cyclic(12), 2, 3),
        (cyclic(12), 3, 4),
        (s3, 3, 2),
        (cyclic(5), 5, 1),
        (a4, 2, 3),
        (direct_product(a4, cyclic(2)), 2, 3),
        (direct_product(s3, s3), 3, 4),
    ]
    for g, p, order in cases:
        h = sylow_complement(g, p)
        assert h.order == order and h.elements & sylow_subgroup(g, p).elements == {0}
        # the first subgroup of that order in the lattice, as before cyclic extension
        assert h == next(s for s in all_subgroups(g) if s.order == order), (g.name, p)
    with pytest.raises(ValueError):
        sylow_complement(s3, 2)


def test_mono_c2_into_c4():
    m = mono_from_generator_images(cyclic(2), cyclic(4), ["g^2"])
    assert m.map == (0, 2)


def test_mono_rejects_wrong_order():
    with pytest.raises(NotHomomorphism):
        mono_from_generator_images(cyclic(2), cyclic(3), ["g"])


def test_mono_rejects_a_failed_mixed_relation(s3):
    # V4 into S3 by two transpositions: each image has order 2, but they do not commute
    t1, t2 = [x for x in range(s3.order) if s3.element_order(x) == 2][:2]
    assert s3.mult[t1][t2] != s3.mult[t2][t1]
    with pytest.raises(NotHomomorphism):
        mono_from_generator_images(klein4(), s3, [t1, t2])


def test_mono_rejects_non_injective():
    with pytest.raises(NotInjective):
        mono_from_generator_images(cyclic(4), cyclic(2), ["g"])


def test_identity_mono():
    m = identity_mono(cyclic(6))
    assert m.is_identity()


def test_mono_composition():
    inner = mono_from_generator_images(cyclic(2), cyclic(4), ["g^2"])
    outer = mono_from_generator_images(cyclic(4), quaternion8(), ["x"])
    comp = inner.compose(outer)
    assert comp.source == cyclic(2) and comp.target == quaternion8()
    # image of the involution is x^2, the central involution
    assert comp.map == (0, 2)
    assert comp.image().order == 2


def test_parse_word():
    q8 = quaternion8()
    assert parse_word(q8, "x*y") == q8.mult[1][4]
    assert parse_word(q8, "x^-1") == q8.inv(1)
    assert parse_word(q8, "1") == 0
    assert parse_word(cyclic(6), "g^3") == 3
    with pytest.raises(NotHomomorphism):
        parse_word(cyclic(6), "z")


def test_subgroup_helper_structures(s3):
    from picstab.groups import conjugacy_classes_of_subgroups, subgroup_inclusion_group

    subs = [s for s in all_subgroups(s3) if s.order == 2]
    classes = conjugacy_classes_of_subgroups(subs)
    assert len(classes) == 1 and len(classes[0]) == 3
    sub, incl = subgroup_inclusion_group(subs[0])
    assert sub.order == 2
    assert incl.image().elements == subs[0].elements
