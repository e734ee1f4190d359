from itertools import permutations

import pytest

from picstab.exactlin import fq_make
from picstab.groups import (
    all_subgroups,
    cyclic,
    from_table,
    klein4,
    quaternion8,
    subgroup_inclusion_group,
)


@pytest.fixture(scope="session")
def F2():
    return fq_make(2, 1)


@pytest.fixture(scope="session")
def F3():
    return fq_make(3, 1)


@pytest.fixture(scope="session")
def F4():
    return fq_make(2, 2)


@pytest.fixture(scope="session")
def F9():
    return fq_make(3, 2)


def perm_group(n: int, name: str):
    """The symmetric group S_n as an explicit multiplication table."""
    perms = sorted(permutations(range(n)), key=lambda p: (p != tuple(range(n)), p))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
    ]
    return from_table(table, name)


@pytest.fixture(scope="session")
def s3():
    return perm_group(3, "S3")


@pytest.fixture(scope="session")
def s4():
    """S4: neither its Sylow 2-subgroup nor its Sylow 3-subgroup is normal."""
    return perm_group(4, "S4")


@pytest.fixture(scope="session")
def a4(s4):
    """The alternating group A4, the order-12 subgroup of S4: its Sylow
    2-subgroup is normal but its 2'-elements (1 and the 3-cycles) are not closed."""
    (even,) = [s for s in all_subgroups(s4) if s.order == 12]
    return subgroup_inclusion_group(even, "A4")[0]


@pytest.fixture(scope="session")
def groups():
    return {
        "C2": cyclic(2),
        "C3": cyclic(3),
        "C4": cyclic(4),
        "C6": cyclic(6),
        "V4": klein4(),
        "Q8": quaternion8(),
    }
