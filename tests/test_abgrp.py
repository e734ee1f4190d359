import math

import pytest
from hypothesis import given, settings, strategies as st

from picstab.abgrp import (
    AbHom,
    FgAbelian,
    IllDefinedHom,
    ab_cokernel,
    ab_direct_sum,
    ab_image,
    ab_kernel,
    presentation_normalize,
)
from picstab.exactlin import ZMatrix

SETTINGS = dict(max_examples=80, derandomize=True, deadline=None)


def test_normal_form_invariants():
    assert FgAbelian.from_factors([2, 3]).factors == (6,)
    assert FgAbelian.from_factors([4, 2, 3, 0]).factors == (2, 12, 0)
    assert FgAbelian.from_factors([1, 1]).factors == ()
    with pytest.raises(ValueError):
        FgAbelian((4, 2))  # chain violated
    with pytest.raises(ValueError):
        FgAbelian((0, 2))  # infinite factor must come last
    with pytest.raises(ValueError):
        FgAbelian((1,))


def test_str_and_order():
    assert str(FgAbelian(())) == "0"
    assert str(FgAbelian((2, 6))) == "Z/2 x Z/6"
    assert str(FgAbelian((0,))) == "Z"
    assert FgAbelian((2, 6)).order() == 12
    assert FgAbelian((0,)).order() is None


def brute_kernel_order(h: AbHom) -> int:
    """Oracle: count elements of the (finite) source that map to zero."""
    count = 0
    for x in h.source.elements():
        if not any(h(x)):
            count += 1
    return count


def test_kernel_of_times_3_on_z6():
    h = AbHom(FgAbelian((6,)), FgAbelian((6,)), ZMatrix([[3]]))
    k, incl = ab_kernel(h)
    # oracle: exhaustive over the 6 elements
    assert brute_kernel_order(h) == 3
    assert k.factors == (3,)
    # the inclusion really lands in the kernel
    for x in k.elements():
        image_in_source = incl(x)
        assert not any(h(image_in_source))


def test_cokernel_of_zero_map():
    h = AbHom.zero(FgAbelian((2,)), FgAbelian((4,)))
    c, proj = ab_cokernel(h)
    assert c.factors == (4,)
    assert proj(h.target.factors and (1,))  # projection is defined


def test_kernel_of_identity():
    h = AbHom.identity(FgAbelian((4,)))
    k, _ = ab_kernel(h)
    assert k.is_trivial()


def test_image():
    h = AbHom(FgAbelian((6,)), FgAbelian((6,)), ZMatrix([[3]]))
    assert ab_image(h).factors == (2,)


def test_direct_sum_crt():
    assert ab_direct_sum([FgAbelian((2,)), FgAbelian((3,))]).factors == (6,)
    assert ab_direct_sum([FgAbelian((2,)), FgAbelian((2,))]).factors == (2, 2)
    assert ab_direct_sum([FgAbelian((0,)), FgAbelian((5,))]).factors == (5, 0)


def _prime_divisors(d: int) -> set[int]:
    out, p = set(), 2
    while p * p <= d:
        while d % p == 0:
            out.add(p)
            d //= p
        p += 1
    return out | {d} if d > 1 else out


def _p_part(d: int, p: int) -> int:
    part = 1
    while d % p == 0:
        d //= p
        part *= p
    return part


def _elementary_divisors(factors) -> tuple[list, int]:
    """For each prime, the sorted p-parts > 1 of the nonzero factors; and the count of zeros."""
    nonzero = [abs(d) for d in factors if d != 0]
    primes = sorted(set().union(*map(_prime_divisors, nonzero)))
    parts = [(p, sorted(_p_part(d, p) for d in nonzero if d % p == 0)) for p in primes]
    return parts, sum(1 for d in factors if d == 0)


@given(st.lists(st.integers(-36, 72), max_size=5))
@settings(**SETTINGS)
def test_from_factors_keeps_the_elementary_divisors(factors):
    g = FgAbelian.from_factors(factors)
    FgAbelian(g.factors)  # re-validates the chain
    assert _elementary_divisors(g.factors) == _elementary_divisors(factors)


def test_ill_defined_hom_rejected():
    # Z/2 -> Z/4 must send the generator to an element killed by 2
    with pytest.raises(IllDefinedHom):
        AbHom(FgAbelian((2,)), FgAbelian((4,)), ZMatrix([[1]]))
    AbHom(FgAbelian((2,)), FgAbelian((4,)), ZMatrix([[2]]))  # fine


def test_presentation_normalize_roundtrip():
    group, to_n, from_n = presentation_normalize([3, 2])
    assert group.factors == (6,)
    assert (to_n @ from_n).to_lists() == [[1]]
    group, to_n, from_n = presentation_normalize([1, 4, 1])
    assert group.factors == (4,)
    assert (to_n @ from_n).to_lists() == [[1]]
    group, _, _ = presentation_normalize([0, 2, 0])
    assert group.factors == (2, 0, 0)


@st.composite
def random_homs(draw):
    src = draw(st.lists(st.sampled_from([2, 3, 4, 6, 9]), min_size=1, max_size=3))
    tgt = draw(st.lists(st.sampled_from([2, 3, 4, 6, 9]), min_size=1, max_size=3))
    source = FgAbelian.from_factors(src)
    target = FgAbelian.from_factors(tgt)
    rows = []
    for j in range(target.rank):
        row = []
        f = target.factors[j]
        for i in range(source.rank):
            d = source.factors[i]
            step = f // math.gcd(d, f)  # smallest valid multiplier
            k = draw(st.integers(0, 5))
            row.append(k * step)
        rows.append(row)
    return AbHom(source, target, ZMatrix(rows, cols=source.rank))


@given(random_homs())
@settings(**SETTINGS)
def test_order_bookkeeping(h):
    k, _ = ab_kernel(h)
    im = ab_image(h)
    assert k.order() * im.order() == h.source.order()
    # oracle on small groups: exhaustive kernel count
    if h.source.order() <= 200:
        assert k.order() == brute_kernel_order(h)


@given(random_homs())
@settings(**SETTINGS)
def test_cokernel_order(h):
    c, proj = ab_cokernel(h)
    assert c.order() == h.target.order() // ab_image(h).order()
    # the projection kills the image
    for i in range(h.source.rank):
        col = tuple(h.matrix.entries[j][i] for j in range(h.target.rank))
        assert not any(proj(col))


@given(random_homs())
@settings(**SETTINGS)
def test_kernel_and_cokernel_normal_form(h):
    for g in (ab_kernel(h)[0], ab_cokernel(h)[0], ab_image(h)):
        FgAbelian(g.factors)  # re-validates the chain
