"""Finite quotients computed in their own pc presentation, against the
references in ``oracles.py`` that collect in the source group."""

import random

import pytest

from oracles import source_quotient_table, verbal_power_subgroup_by_closure
from nilcert.nilgroup import (
    FiniteGroupTable,
    PcPresentation,
    QuotientMap,
    Subgroup,
    verbal_power_subgroup,
)
from nilcert.zmod import CapExceeded, IndexInfinite

GROUPS = {
    "H3": PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, 1)}),
    "H3sq": PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, -2)}),
    "Q": PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)}),
    "M": PcPresentation(["a", "b"], [None, 4], conj={(0, 1): (0, 3)}),
    "M9": PcPresentation(["a", "b"], [None, 9], conj={(0, 1): (0, 4)}),
    "Z2xH3xC2": PcPresentation(
        ["x", "y", "z", "u", "v", "t"], [None] * 5 + [2], conj={(0, 1): (0, 1, 1, 0, 0, 0)}
    ),
}
M8 = PcPresentation(["a", "b"], [None, 8], conj={(0, 1): (0, 3)})

# Cases whose reference takes more than about a second are left out: the
# table of Z2xH3xC2 modulo G^6 (7776 elements; about 6 s), and power
# subgroups over a quotient G/H of more than 250 elements (that reference
# also takes a k-th power in the source for every element of G/H).
TABLE_CASES = [
    (name, k) for name in sorted(GROUPS) for k in (2, 3, 4, 6) if (name, k) != ("Z2xH3xC2", 6)
]
POWER_LIMIT = 250


@pytest.mark.parametrize("name, k", TABLE_CASES)
def test_table_matches_source_collection(name, k):
    p = GROUPS[name]
    qmap = QuotientMap(p, verbal_power_subgroup(p, k))
    fast = FiniteGroupTable(qmap)
    slow, slow_project = source_quotient_table(qmap)
    assert [qmap.lift(e) for e in fast.elements] == list(slow.elements)
    assert fast.identity() == slow.identity()
    rng = random.Random(1000 * k + len(name))
    n = fast.order
    for _ in range(200):
        a, b = rng.randrange(n), rng.randrange(n)
        assert fast.multiply(a, b) == slow.multiply(a, b)
        assert fast.invert(a) == slow.invert(a)
        x = p.random_element(rng, 6)
        assert fast.project(x) == slow_project(x)


@pytest.mark.parametrize("name", sorted(GROUPS) + ["M8"])
def test_power_subgroup_matches_the_closure_over_every_power(name):
    p = GROUPS.get(name, M8)
    for k in range(2, 13):
        h = Subgroup(p, [p.power(p.gen(i), k) for i in range(p.n)], normal_closure=True)
        if h.index_in_parent() > POWER_LIMIT:
            continue
        assert verbal_power_subgroup(p, k).gens == verbal_power_subgroup_by_closure(p, k).gens


def test_elements_are_lexicographic_and_capped():
    p = GROUPS["H3sq"]
    qmap = QuotientMap(p, verbal_power_subgroup(p, 2))
    elems = qmap.elements()
    assert elems == sorted(elems) and len(elems) == 8
    assert all(qmap.project(qmap.lift(e)) == e for e in elems)
    with pytest.raises(CapExceeded, match="quotient order 8 exceeds cap 7"):
        qmap.elements(cap=7)
    with pytest.raises(IndexInfinite):
        QuotientMap(p, Subgroup(p, [(0, 0, 1)])).elements()
