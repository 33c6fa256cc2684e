"""The constructed wall contexts of :mod:`contexts` and the wall search on them.

The construction puts the signature (1, rho - 1) in; the characteristic
polynomial confirms it once here, on a fixed seed range, so the tests that draw
from the helpers need not.  The rank-2 census is pinned by its counts, and the
wall search is checked against the dot-product oracle on all of it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from contexts import census_rho2, constructed_context
from k3walls import walls as wl


def test_constructed_lattices_have_signature_one_rho_minus_one():
    for rho in (1, 2, 3, 4):
        for seed in range(200):
            p, h, v = constructed_context(random.Random(seed), rho)
            assert oracles.signature_by_charpoly([list(row) for row in p.gram]) == (1, rho - 1, 0)
            assert h == (1,) + (0,) * (rho - 1) and p.gram[0][0] in (2, 4, 6)
            x = (v.r, v.c1, v.s)
            assert 2 <= v.r <= 6 and oracles.mukai_pairing(p.gram, x, x) == 0


def test_rank_two_census_walls_match_the_oracle():
    forms, contexts = census_rho2()
    assert (len(forms), len(contexts)) == (65, 5902)
    assert len({p.gram for p, _, _ in contexts}) == 65
    found = [wl.enumerate_walls(p, h, v) for p, h, v in contexts]
    assert found == [oracles.dot_product_walls(p, h, v) for p, h, v in contexts]
    assert sum(1 for walls in found if walls) == 1398
    assert sum(map(len, found)) == 2238


@settings(max_examples=100, deadline=None)
@given(hst.integers(0, 10 ** 6), hst.integers(1, 4))
def test_walls_match_the_oracle_on_constructed_contexts(seed, rho):
    p, h, v = constructed_context(random.Random(seed), rho)
    assert wl.enumerate_walls(p, h, v) == oracles.dot_product_walls(p, h, v)
