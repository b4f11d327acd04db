"""The isomorphism enumerator ``nilgroup.isomorphisms`` against the slow
references in ``oracles.py``: the same maps in the same order."""

import random

import pytest

from oracles import box_automorphisms, out_finite, table_isomorphisms
from nilcert.nilgroup import (
    GroupHom,
    PcPresentation,
    Subgroup,
    isomorphisms,
    quotient_table,
)
from nilcert.whitehead import _box_elements, whitehead_nilpotent

GROUPS = {
    "H3": PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, 1)}),
    "H3inv": PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, -1)}),
    "Q": PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)}),
    "M": PcPresentation(["a", "b"], [None, 4], conj={(0, 1): (0, 3)}),
    "Z2": PcPresentation(["a", "b"], [None, None]),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_box_one_matches_the_product_sweep(name):
    p = GROUPS[name]
    fast = list(isomorphisms(p, p, [_box_elements(p, 1)] * p.n))
    slow = [h.images for h in box_automorphisms(p, 1)]
    assert fast == slow
    assert len(fast) >= 2  # the identity and at least one other map
    if name == "H3":
        assert len(fast) == 360


def _random_quotient(rng):
    """A quotient of one of GROUPS by the normal closure of the k-th
    powers of the generators and, three times in ten, a random element; of
    order 2 to 16."""
    while True:
        p = GROUPS[rng.choice(sorted(GROUPS))]
        k = rng.choice([2, 3, 4])
        gens = [p.power(p.gen(i), k) for i in range(p.n)]
        if rng.random() < 0.3:
            gens.append(p.random_element(rng, 1))
        kernel = Subgroup(p, gens, normal_closure=True)
        if 2 <= kernel.index_in_parent() <= 16:
            return quotient_table(p, kernel)


def test_tables_match_brute_force_over_all_image_tuples():
    rng = random.Random(2005)
    tables = [_random_quotient(rng) for _ in range(24)]
    pairs = 0
    for t1 in tables:
        gens = t1.generators()
        automorphisms = table_isomorphisms(t1, t1)
        assert list(isomorphisms(t1, t1, [range(t1.order)] * len(gens))) == automorphisms
        assert out_finite(t1).automorphisms == [
            tuple(phi[g] for g in gens) for phi in automorphisms
        ]
        for t2 in tables:
            if t2 is not t1 and t2.order == t1.order:
                pairs += 1
                fast = list(isomorphisms(t1, t2, [range(t2.order)] * len(gens)))
                assert fast == table_isomorphisms(t1, t2)
    assert pairs > 0


def test_witness_search_tests_few_whole_maps(monkeypatch):
    """On H3, (x) vs (x z) at budget 2, whole image tuples are tested (built
    as a GroupHom, or checked for being onto) at most 1,000 times; a sweep
    that builds a GroupHom for every tuple in the box builds 15,322."""
    tested = []
    for cls, name in ((GroupHom, "__init__"), (Subgroup, "is_whole_group")):
        original = getattr(cls, name)

        def counting(*args, _original=original, **kwargs):
            tested.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    verdict = whitehead_nilpotent(GROUPS["H3"], [((1, 0, 0),)], [((1, 0, 1),)])
    assert verdict.is_equivalent()
    assert len(tested) <= 1000
