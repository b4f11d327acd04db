"""The collector's binary conjugation powers, the Sylow-split power
subgroups, the table-free survival check, the enumerator's onto test and
the torsion subgroup read off the finite tail, each against the code it
replaced (``oracles.py``)."""

import gc
import math
import random
import weakref

import pytest

from oracles import (
    IterativeCollector,
    eager_torsion_data,
    survives_by_table_scan,
    verbal_power_subgroup_over_all_elements,
)
from nilcert import nilgroup, outsep
from nilcert.gogiso import GroupMap
from nilcert.nilgroup import (
    GroupHom,
    PcPresentation,
    QuotientMap,
    Subgroup,
    generates_abelianization,
    inner_automorphism,
    intersect_finite_index,
    torsion_data,
    verbal_power_subgroup,
)
from nilcert.outsep import (
    OuterAutoClass,
    elusive_elements,
    hom_star_space,
    separate_torsion,
    survives,
)
from nilcert.zmod import CapExceeded, IndexInfinite


def h3(k=1, m=None):
    """x, y, z with y^x = y z^k, z of order m (None: infinite)."""
    return PcPresentation(["x", "y", "z"], [None, None, m], conj={(0, 1): (0, 1, k)})


def cyclic_ext(m, u):
    """a, b with b of order m and b^a = b^u."""
    return PcPresentation(["a", "b"], [None, m], conj={(0, 1): (0, u)})


GROUPS = {
    "H3": h3(),
    "H3sq": h3(-2),
    "Q": h3(m=2),
    "Q3": h3(m=3),
    "M": cyclic_ext(4, 3),
    "M8": cyclic_ext(8, 3),
    "M9": cyclic_ext(9, 4),
    "H5": PcPresentation(
        ["a", "b", "c", "d", "z"], [None] * 5,
        conj={(0, 1): (0, 1, 0, 0, 1), (2, 3): (0, 0, 0, 1, 1)},
    ),
    "F4": PcPresentation(
        ["a", "b", "c", "d"], [None] * 4,
        conj={(0, 1): (0, 1, 1, 0), (0, 2): (0, 0, 1, 1)},
    ),
    "H3xC2": PcPresentation(
        ["x", "y", "z", "t"], [None, None, None, 2], conj={(0, 1): (0, 1, 1, 0)}
    ),
    "Z2xH3xC2": PcPresentation(
        ["x", "y", "z", "u", "v", "t"], [None] * 5 + [2], conj={(0, 1): (0, 1, 1, 0, 0, 0)}
    ),
    # a of relative order 2 acts on b, and a^2 = c does not commute with b,
    # so conjugating by a^e for e >= 2 needs the power tail
    "Tail": PcPresentation(
        ["a", "b", "c", "d"], [2, None, None, 3],
        conj={(0, 1): (0, 1, 0, 1), (1, 2): (0, 0, 1, 1)}, powers={0: (0, 0, 1, 0)},
    ),
}


def _agree(p, rng, box, count):
    """Products, inverses and powers of random elements in the box, in p
    and in the iterative collector on the same presentation."""
    slow = IterativeCollector.of(p)
    checked = 0
    for _ in range(count):
        a, b = p.random_element(rng, box), p.random_element(rng, box)
        k = rng.randint(-box, box)
        assert p.multiply(a, b) == slow.multiply(a, b)
        assert p.invert(a) == slow.invert(a)
        assert p.power(a, k) == slow.power(a, k)
        checked += 3
    return checked


@pytest.mark.parametrize(
    "name", ["H3", "H5", "F4", "Q", "M", "M8", "M9", "Z2xH3xC2", "Tail"]
)
def test_collector_matches_the_iterative_collector(name):
    p = GROUPS[name]
    rng = random.Random(name)
    assert sum(_agree(p, rng, box, 20) for box in (3, 8)) == 120


def test_collector_matches_at_exponents_up_to_2520():
    m8 = GROUPS["M8"]
    q = QuotientMap(m8, verbal_power_subgroup(m8, 2520)).target
    assert q.orders == (2520, 8)
    slow = IterativeCollector.of(q)
    rng = random.Random(2520)
    for _ in range(25):
        a, b = q.random_element(rng), q.random_element(rng)
        k = rng.randrange(2520)
        assert q.multiply(a, b) == slow.multiply(a, b)
        assert q.invert(a) == slow.invert(a)
        assert q.power(a, k) == slow.power(a, k)
    # the finite generator's conjugation power taken whole, as e = q m + r
    x = (0, 1)
    for e in (1, 7, 2519, 2520, 2521, 5043):
        assert q._conj_by_genpower(x, 0, e) == slow._conj_by_genpower(x, 0, e)


# Left out as taking the reference more than a few seconds: Q at k = 180
# (|G/H| = 64,800; 45 s) and H3 at k = 30 and 60 (|G/H| = 27,000 and
# 216,000).  H3 at k = 180 exceeds the default cap in both.  M8 at k = 2520
# is the largest exponent of its separate-torsion chain.  The prime powers
# make G/H a p-group, whose one Sylow factor is all of G/H.
POWER_CASES = [
    (name, k)
    for name in ("M8", "M9", "Q", "H3")
    for k in (6, 12, 30, 60, 180)
    if (name, k) not in {("Q", 180), ("H3", 30), ("H3", 60)}
] + [("M8", 2520), ("H3", 2), ("H3", 4), ("H3sq", 9), ("Q", 4), ("M8", 8)]


@pytest.mark.parametrize("name, k", POWER_CASES)
def test_power_subgroup_matches_powers_over_every_element(name, k):
    p = GROUPS[name]
    try:
        slow = verbal_power_subgroup_over_all_elements(p, k).gens
    except CapExceeded as ex:
        with pytest.raises(CapExceeded, match=str(ex)):
            verbal_power_subgroup(p, k)
        return
    assert verbal_power_subgroup(p, k).gens == slow


@pytest.mark.parametrize("name, k", POWER_CASES)
def test_power_subgroup_walks_no_whole_quotient(name, k, monkeypatch):
    p = GROUPS[name]
    try:
        expected = verbal_power_subgroup(p, k).gens
    except CapExceeded as ex:
        expected = str(ex)

    def refuse(self, cap=10**6):
        raise AssertionError("the whole quotient was enumerated")

    monkeypatch.setattr(QuotientMap, "elements", refuse)
    try:
        got = verbal_power_subgroup(p, k).gens
    except CapExceeded as ex:
        got = str(ex)
    assert got == expected


ROUND_TRIP_LIMIT = 4096


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_lift_then_project_is_the_identity_on_power_quotients(name):
    # on every element of G/G^k up to the limit, on the generators beyond
    p = GROUPS[name]
    for k in (2, 3, 4, 6, 12):
        qmap = QuotientMap(p, verbal_power_subgroup(p, k))
        if qmap.order() <= ROUND_TRIP_LIMIT:
            elems = qmap.elements()
        else:
            elems = list(qmap.target.generators())
        assert all(qmap.project(qmap.lift(e)) == e for e in elems)


def _chain_levels(p, levels=4):
    """The good enough subgroup and the chain below it, as separate_torsion
    walks it, up to the first level whose quotient exceeds the cap."""
    p0 = Subgroup(p, separate_torsion(p).chain[0]["generators"])
    out = [p0]
    for level in range(1, levels):
        expo = 3 * math.lcm(*range(1, level + 1))
        try:
            out.append(intersect_finite_index(p0, verbal_power_subgroup(p, expo)))
        except CapExceeded:
            break
    return out


def _more_classes(p, rng):
    """An inner class, and the automorphisms g_0 -> g_0 g_j (j > 0) that
    fix every other generator, where that map is one."""
    classes = [OuterAutoClass(inner_automorphism(p, p.random_element(rng, 2)))]
    for j in range(1, p.n):
        images = list(p.generators())
        images[0] = p.multiply(p.gen(0), p.gen(j))
        try:
            hom = GroupHom(p, p, images)
        except ValueError:
            continue
        if hom.is_automorphism():
            classes.append(OuterAutoClass(hom))
    return classes


@pytest.mark.parametrize("name", ["H3sq", "Q3", "H5", "M9", "H3xC2"])
def test_survives_matches_the_table_scan(name):
    # every elusive class at chain levels 0-3; a few more classes where
    # the reference's scan is short (quotients of at most 1000 elements)
    p = GROUPS[name]
    elusive = elusive_elements(p)
    more = _more_classes(p, random.Random(name))
    outcomes = set()
    for cand in _chain_levels(p):
        small = cand.index_in_parent() <= 1000
        for cls in elusive + (more if small else []):
            fast = survives(cls, QuotientMap(p, cand)).as_dict()
            assert fast == survives_by_table_scan(cls, cand).as_dict()
            outcomes.add(fast["survived"])
    assert False in outcomes
    if elusive:
        assert True in outcomes


def test_survives_keeps_the_cap_and_infinite_index_errors():
    p = GROUPS["H3sq"]
    cls = elusive_elements(p)[0]
    cand = _chain_levels(p)[2]
    with pytest.raises(CapExceeded, match="quotient order 216 exceeds cap 100"):
        survives(cls, QuotientMap(p, cand), cap=100)
    with pytest.raises(CapExceeded, match="quotient order 216 exceeds cap 100"):
        survives_by_table_scan(cls, cand, cap=100)
    centre = Subgroup(p, [p.gen(2)])
    with pytest.raises(IndexInfinite):
        survives(cls, QuotientMap(p, centre))
    with pytest.raises(IndexInfinite):
        survives_by_table_scan(cls, centre)


def test_separate_torsion_builds_one_quotient_per_chain_level(monkeypatch):
    # H3xC2 has 3 elusive classes and levels 0-2; besides the central
    # quotient, every quotient outsep builds is one survival level's
    p = PcPresentation(["x", "y", "z", "t"], [None, None, None, 2], conj={(0, 1): (0, 1, 1, 0)})
    kernels = []

    def counting(source, kernel, *args, **kwargs):
        kernels.append(kernel)
        return QuotientMap(source, kernel, *args, **kwargs)

    monkeypatch.setattr(outsep, "QuotientMap", counting)
    cert = separate_torsion(p)
    assert len(cert.elusive_data) == 3 and len(cert.survival_log) == 3
    levels = [Subgroup(p, [tuple(g) for g in entry["generators"]]) for entry in cert.chain]
    assert kernels == [hom_star_space(p).nu1] + levels


@pytest.mark.parametrize("name", ["H3", "H3sq", "Q", "M", "M9", "H5", "Z2xH3xC2", "H3/4"])
def test_onto_in_the_abelianization_matches_the_closure(name):
    if name == "H3/4":
        c = QuotientMap(GROUPS["H3"], verbal_power_subgroup(GROUPS["H3"], 4)).target
    else:
        c = GROUPS[name]
    rng = random.Random(name)
    seen = set()
    for _ in range(150):
        size = rng.randint(1, c.n + 1)
        images = [c.random_element(rng, 1) for _ in range(size)]
        got = generates_abelianization(c, images)
        assert got == Subgroup(c, images).is_whole_group()
        seen.add(got)
    assert seen == {True, False}


def test_hom_star_space_is_cached_on_its_group_and_freed_with_it():
    p = h3(-2)
    assert hom_star_space(p) is hom_star_space(p)
    ref = weakref.ref(p)
    separate_torsion(p)
    del p
    gc.collect()
    assert ref() is None


def fresh(p):
    """A new presentation equal to p, so that nothing p has computed and
    kept is read."""
    return PcPresentation(p.names, p.orders, conj=p.conj, conj_inv=p.conj_inv, powers=p.powers)


def _assert_same_torsion(p):
    slow = eager_torsion_data(p)
    fast = torsion_data(fresh(p))
    assert fast.tau.gens == slow.tau.gens
    assert sorted(fast.tau_elements) == sorted(slow.tau_elements)
    assert fast.m == slow.m
    assert fast.power_subgroup.gens == slow.power_subgroup.gens
    return fast


# a finite generator before an infinite one: the centre path
NON_TAIL = {
    "C2xZ": PcPresentation(["c", "a"], [2, None]),
    "C2xH3": PcPresentation(["c", "x", "y", "z"], [2, None, None, None], conj={(1, 2): (0, 0, 1, 1)}),
    "xtyz": PcPresentation(["x", "t", "y", "z"], [None, 4, None, None], conj={(0, 2): (0, 0, 1, 1)}),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_torsion_data_matches_the_centre_recursion(name):
    _assert_same_torsion(GROUPS[name])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_torsion_data_matches_the_centre_recursion_on_power_quotients(name):
    p = GROUPS[name]
    for k in (2, 3, 4):
        qmap = QuotientMap(p, verbal_power_subgroup(p, k))
        assert len(_assert_same_torsion(qmap.target).tau_elements) == qmap.order()


@pytest.mark.parametrize("name, gen", [("C2xZ", 0), ("C2xH3", 0), ("xtyz", 1)])
def test_torsion_data_keeps_the_centre_path_for_a_finite_generator_first(name, gen):
    p = NON_TAIL[name]
    td = _assert_same_torsion(p)
    assert td.tau.gens == (p.gen(gen),)


def _random_presentation(rng):
    """H3 with y^x = y z^k and z of order m, a cyclic extension b^a = b^u
    with b of order m, or H3 beside a central generator of order m, placed
    first or last."""
    kind = rng.randrange(3)
    m = rng.choice([2, 3, 4, 6, 8, 9])
    if kind == 0:
        return h3(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([None, m]))
    if kind == 1:
        rad = math.prod(q for q in (2, 3) if m % q == 0)
        return cyclic_ext(m, rng.randrange(1, m, rad))  # u = 1 mod every prime of m
    k = rng.choice([-2, -1, 1, 2])
    if rng.random() < 0.5:
        return PcPresentation(["c", "x", "y", "z"], [m, None, None, None], conj={(1, 2): (0, 0, 1, k)})
    return PcPresentation(["x", "y", "z", "c"], [None, None, None, m], conj={(0, 1): (0, 1, k, 0)})


def test_torsion_data_matches_the_centre_recursion_on_random_presentations():
    rng = random.Random(1556)
    shapes = set()
    for _ in range(24):
        p = _random_presentation(rng)
        td = _assert_same_torsion(p)
        shapes.add((p.orders[0] is None, td.tau.is_trivial()))
    assert shapes == {(True, True), (True, False), (False, False)}


TAIL_SHAPED = sorted(set(GROUPS) - {"Tail"})


def _refuse(*args, **kwargs):
    raise AssertionError("the centre path or the exponent search ran")


def _forbid_the_centre_path(monkeypatch):
    for name in ("center", "QuotientMap", "verbal_power_subgroup"):
        monkeypatch.setattr(nilgroup, name, _refuse)


@pytest.mark.parametrize("name", TAIL_SHAPED)
def test_tail_torsion_builds_no_centre_quotient_or_power_subgroup(name, monkeypatch):
    p = fresh(GROUPS[name])
    expected = sorted(eager_torsion_data(GROUPS[name]).tau_elements)
    _forbid_the_centre_path(monkeypatch)
    assert sorted(torsion_data(p).tau_elements) == expected


def test_vertex_group_injectivity_builds_no_centre_quotient_or_power_subgroup(monkeypatch):
    q, m = fresh(GROUPS["Q"]), fresh(GROUPS["M"])
    zz_c2 = PcPresentation(["a", "b", "t"], [None, None, 2])
    maps = [
        (GroupMap(q, q, q.generators()), True),
        (GroupMap(q, q, [q.gen(1), q.gen(0), q.gen(2)]), True),
        (GroupMap(q, zz_c2, [zz_c2.gen(0), zz_c2.gen(1), zz_c2.identity()]), False),
        (GroupMap(m, m, m.generators()), True),
        (GroupMap(m, m, [m.gen(0), m.power(m.gen(1), 2)]), False),
    ]
    _forbid_the_centre_path(monkeypatch)
    assert [f.is_injective() for f, _ in maps] == [want for _, want in maps]
