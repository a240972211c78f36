import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from amalgams import amalgam as am
from amalgams import fingroup


def make_amalg1():
    """C4 *_{C2} C4 with phi = identity on {0, 2}; central."""
    c4 = fingroup.cyclic(4)
    return am.make_amalgam(c4, c4, [0, 2], [0, 2], {0: 0, 2: 2})


def make_c2c2():
    """Free product C2 * C2 (trivial amalgamation)."""
    c2 = fingroup.cyclic(2)
    return am.make_amalgam(c2, c2, [0], [0], {0: 0})


def make_c2c3():
    """Free product C2 * C3; not residually a finite 2-group."""
    return am.make_amalgam(fingroup.cyclic(2), fingroup.cyclic(3),
                           [0], [0], {0: 0})


def make_s3_amalgam():
    """H = S3 amalgamated with K = C6 over A = A3 and the order-3 subgroup
    of C6; non-central."""
    s3 = fingroup.symmetric3()
    c6 = fingroup.cyclic(6)
    a3 = next(S for S in fingroup.enumerate_subgroups(s3) if len(S) == 3)
    g = a3.elements[1]
    g2 = s3.mul(g, g)
    return am.make_amalgam(s3, c6, a3.elements, [0, 2, 4], {0: 0, g: 2, g2: 4})


def make_c9_amalgam():
    """C9 amalgamated with C3 x C3 over their order-3 subgroups {0, 3, 6};
    central, for p = 3."""
    c9 = fingroup.cyclic(9)
    c3xc3 = fingroup.direct_product(fingroup.cyclic(3), fingroup.cyclic(3))
    return am.make_amalgam(c9, c3xc3, [0, 3, 6], [0, 3, 6],
                           {0: 0, 3: 3, 6: 6})


def make_d8_q8():
    """D8 * Q8 amalgamated over their centres (both of order 2); central."""
    d8, q8 = fingroup.dihedral(4), fingroup.quaternion(8)
    zd, zq = fingroup.center(d8).elements, fingroup.center(q8).elements
    return am.make_amalgam(d8, q8, zd, zq, dict(zip(zd, zq)))


@pytest.fixture(scope="session")
def amalg1():
    return make_amalg1()


@pytest.fixture(scope="session")
def c2c2():
    return make_c2c2()


@pytest.fixture(scope="session")
def c2c3():
    return make_c2c3()


@pytest.fixture(scope="session")
def s3_amalgam():
    return make_s3_amalgam()
