"""The isomorphism enumerator ``nilgroup.isomorphisms`` against the slow
references in ``oracles.py``: the same maps in the same order."""

import math
import random

import pytest

from oracles import (
    box_automorphisms,
    closure_table_isomorphisms,
    collector_inverses,
    collector_product,
    extend_table_map,
    greedy_generators,
    out_finite,
    table_closure,
    table_element_order,
    table_isomorphisms,
    unfiltered_table_isomorphisms,
)
from nilcert import nilgroup
from nilcert.formats import group_from_spec
from nilcert.nilgroup import (
    GroupHom,
    PcPresentation,
    Subgroup,
    isomorphisms,
    quotient_table,
    table_map,
    upper_central_series,
    verbal_power_subgroup,
)
from nilcert.whitehead import (
    _box_elements,
    verify_finite_witness,
    whitehead_finite,
    whitehead_nilpotent,
)

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


def _h3(k=1, m=None):
    """x, y, z with y^x = y z^k, z of order m (None: infinite)."""
    return PcPresentation(["x", "y", "z"], [None, None, m], conj={(0, 1): (0, 1, k)})


def _cyclic_ext(m, u):
    """a, b with b of order m and b^a = b^u."""
    return PcPresentation(["a", "b"], [None, m], conj={(0, 1): (0, u)})


POWER_QUOTIENT_GROUPS = {
    "H3": _h3(), "H3inv": _h3(-1), "H3sq": _h3(-2), "Q": _h3(m=2), "Q3": _h3(m=3),
    "M": _cyclic_ext(4, 3), "M9": _cyclic_ext(9, 4),
}


def _power_quotients():
    """G/G^k at k = 2, 3, 4 for every group of POWER_QUOTIENT_GROUPS."""
    return {
        (name, k): quotient_table(p, verbal_power_subgroup(p, k))
        for name, p in sorted(POWER_QUOTIENT_GROUPS.items())
        for k in (2, 3, 4)
    }


def _shuffled_candidates(rng, table, order):
    """One candidate list per generator of table: every element of a group
    of the given order, or, half the time, a random shuffled subset."""
    out = []
    for _ in table.generators():
        cs = list(range(order))
        if rng.random() < 0.5:
            cs = rng.sample(cs, rng.randint(1, order))
        out.append(cs)
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_table_enumerator_matches_the_closure_enumerator(k):
    """The relation-checked block enumerator against the Cayley-closure
    one and against itself without the filter on element order and
    central height: the same maps in the same order, with every element
    as candidate and with random shuffled candidate lists."""
    rng = random.Random(1500 + k)
    tables = {name: t for (name, e), t in _power_quotients().items() if e == k}
    for t1 in tables.values():
        for t2 in tables.values():
            if t2.order != t1.order or (t2 is not t1 and rng.random() < 0.5):
                continue
            full = [range(t2.order)] * len(t1.generators())
            for candidates in (full, _shuffled_candidates(rng, t1, t2.order)):
                fast = list(isomorphisms(t1, t2, candidates))
                assert fast == list(closure_table_isomorphisms(t1, t2, candidates))
                assert fast == list(unfiltered_table_isomorphisms(t1, t2, candidates))
    assert len(tables) == 7


def test_table_enumerator_between_two_different_tables():
    """Isomorphisms between two different tables of one order: H3 and H3inv
    modulo cubes (order 27), H3 and Q modulo fourth powers (order 32), M
    and Q3 modulo fourth powers (order 16)."""
    q = _power_quotients()
    counts = []
    for a, b in ((("H3", 3), ("H3inv", 3)), (("H3", 4), ("Q", 4)), (("M", 4), ("Q3", 4))):
        t1, t2 = q[a], q[b]
        full = [range(t2.order)] * len(t1.generators())
        fast = list(isomorphisms(t1, t2, full))
        assert fast == list(closure_table_isomorphisms(t1, t2, full))
        assert fast == list(unfiltered_table_isomorphisms(t1, t2, full))
        counts.append(len(fast))
    assert counts == [432, 384, 0]


def test_table_generators_are_the_greedy_generators():
    """The pc generators tail first equal the greedy generating set on the
    tables these tests build: the power quotients, the random quotients
    and cyclic groups."""
    rng = random.Random(2005)
    tables = list(_power_quotients().values()) + [_random_quotient(rng) for _ in range(24)]
    for n in (1, 2, 5, 9):
        p = PcPresentation(["a"], [n]) if n > 1 else PcPresentation([], [])
        tables.append(quotient_table(p, Subgroup(p, [])))
    for table in tables:
        assert table.generators() == greedy_generators(table)
        q = table.qmap.target
        for k, g in enumerate(table.generators()):
            block = math.prod(q.orders[q.n - 1 - k:])
            # the first k + 1 generators generate exactly the first elements
            assert table_closure(table, table.generators()[: k + 1]) == frozenset(range(block))
            assert table.elements[g] == q.gen(q.n - 1 - k)


def test_table_map_matches_the_cayley_closure():
    """``table_map`` against the Cayley-closure reference on random
    generator images into tables and into a pc group: the same map, or
    None from both."""
    rng = random.Random(1428)
    q = _power_quotients()
    h3 = POWER_QUOTIENT_GROUPS["H3"]
    homs = 0
    for t1 in q.values():
        gens = t1.generators()
        for t2 in list(q.values()) + [h3]:
            for _ in range(6):
                if t2 is h3:
                    images = [h3.random_element(rng, 1) for _ in gens]
                else:
                    images = [rng.randrange(t2.order) for _ in gens]
                fast = table_map(t1, t2, images)
                slow = extend_table_map(t1, t2, gens, images)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    homs += 1
                    assert fast == [slow[x] for x in range(t1.order)]
    assert homs > 100


D8 = "group D\ngen a order 2\ngen b order 2\ngen c order 2\nconj b ^ a = b c\n"
C4 = "group C4\ngen a order 4\npow a = 1\n"


def _lookup_tables():
    """The power quotients, the 24 random quotients and the D8 and C4
    finite specs."""
    rng = random.Random(2005)
    return (
        list(_power_quotients().values())
        + [_random_quotient(rng) for _ in range(24)]
        + [group_from_spec({"kind": "finite", "text": text}) for text in (D8, C4)]
    )


def test_table_products_match_the_collector():
    """Every product and every inverse of a table, read off the right
    actions of the pc generators, against the collector of the
    presentation the table numbers."""
    for table in _lookup_tables():
        n = table.order
        assert [table.invert(a) for a in range(n)] == collector_inverses(table)
        for a in range(n):
            for b in range(n):
                assert table.multiply(a, b) == collector_product(table, a, b)


def test_signatures_are_element_orders_and_central_heights():
    """Each element's signature is its order, by repeated multiplication,
    and the least k with the element in Z_k, from the upper central series
    of the presentation the table numbers; found on first use and kept."""
    for table in _lookup_tables():
        assert table._signatures is None
        series = upper_central_series(table.qmap.target)
        expected = tuple(
            (
                table_element_order(table, x),
                next(k for k, z in enumerate(series) if z.contains(table.elements[x])),
            )
            for x in range(table.order)
        )
        assert table.signatures() == expected
        assert table.signatures() is table.signatures()


def _refuse(*args, **kwargs):
    raise AssertionError("a table operation reached the collector")


def test_finite_answers_reach_no_collector(monkeypatch):
    """Once a table is built, its automorphisms, a finite Whitehead verdict
    and its verification, and table_map take no product, inverse or
    collection from the presentation the table numbers."""
    t = _power_quotients()[("H3", 3)]
    q = t.qmap.target
    for name in ("multiply", "invert", "_push"):
        monkeypatch.setattr(q, name, _refuse)
    gens = t.generators()
    assert len(list(isomorphisms(t, t, [range(t.order)] * len(gens)))) == 432
    x, y = gens[2], gens[1]
    verdict = whitehead_finite(t, [[x]], [[t.multiply(x, y)]])
    assert verdict.is_equivalent()
    assert verify_finite_witness(t, [[x]], [[t.multiply(x, y)]], verdict.witness)
    refuted = whitehead_finite(t, [[x]], [[t.identity()]])
    assert refuted.certificate["aut_order"] == 432
    assert table_map(t, t, gens) == list(range(t.order))


@pytest.mark.parametrize(
    "group, k, maps, bound",
    [("H3", 3, 432, 1202), ("H3sq", 4, 12288, 18824)],
)
def test_signature_filter_prunes_the_block_builds(group, k, maps, bound, monkeypatch):
    """All of Aut(G/G^k) builds at most `bound` blocks; over every candidate,
    not only those of the generator's order and central height, H3/H3^3
    builds 5,913 and H3sq/H3sq^4 77,376."""
    p = POWER_QUOTIENT_GROUPS[group]
    t = quotient_table(p, verbal_power_subgroup(p, k))
    builds = []
    block = nilgroup._table_block

    def counting(*args):
        builds.append(1)
        return block(*args)

    monkeypatch.setattr(nilgroup, "_table_block", counting)
    assert len(list(isomorphisms(t, t, [range(t.order)] * len(t.generators())))) == maps
    assert len(builds) <= bound
