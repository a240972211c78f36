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


def _over_centres(H, K):
    zh, zk = fingroup.center(H).elements, fingroup.center(K).elements
    return am.make_amalgam(H, K, zh, zk, dict(zip(zh, zk)))


def make_d8_q8():
    """D8 * Q8 amalgamated over their centres (both of order 2); central."""
    return _over_centres(fingroup.dihedral(4), fingroup.quaternion(8))


def make_d16_q16():
    """D16 * Q16 amalgamated over their centres (both of order 2); central."""
    return _over_centres(fingroup.dihedral(8), fingroup.quaternion(16))


def random_conjugate(spec, w, rng):
    """The unreduced word z^-1 w z for a random z of one to three
    alternating non-identity syllables."""
    tag, syl = rng.choice((am.TAG_H, am.TAG_K)), []
    for _ in range(rng.randint(1, 3)):
        syl.append((tag, rng.randrange(1, spec.factor(tag).order)))
        tag = am.TAG_K if tag == am.TAG_H else am.TAG_H
    z = am.Word(tuple(syl))
    return am.inverse(spec, z).concat(w).concat(z)


def make_s3_s3():
    """S3 *_{C2} S3 over the subgroups of two transpositions (indices 1
    and 2); A and B are not normal, so A*e*A is not a right coset A*e."""
    s3 = fingroup.symmetric3()
    return am.make_amalgam(s3, s3, [0, 1], [0, 2], {0: 0, 1: 2})


def make_d8_d8():
    """D8 *_{C2} D8 over subgroups generated by non-central reflections
    (s and rs); A and B are not normal."""
    d8 = fingroup.dihedral(4)
    return am.make_amalgam(d8, d8, [0, 4], [0, 5], {0: 0, 4: 5})


def make_d8_v_d8_twisted():
    """D8 *_V D8 over the Klein four-group V = {1, r^2, s, r^2 s} (indices
    0, 2, 4, 6) in both factors, with phi swapping the centre r^2 and the
    reflection s.  Both factors are 2-groups, yet every homomorphism into
    a finite 2-group kills V: G is not residually 2."""
    d8 = fingroup.dihedral(4)
    return am.make_amalgam(d8, d8, [0, 2, 4, 6], [0, 2, 4, 6],
                           {0: 0, 2: 4, 4: 2, 6: 6})


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
