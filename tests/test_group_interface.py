"""The seven-method group interface shared by AbelianModule,
FiniteGroupTable and PcPresentation."""

import random

import pytest

from oracles import random_element, table_closure
from nilcert.nilgroup import (
    FiniteGroupTable,
    PcPresentation,
    Subgroup,
    quotient_table,
    verbal_power_subgroup,
)
from nilcert.zmod import AbelianModule


def heisenberg():
    return PcPresentation(["x", "y", "z"], [None, None, None], conj={(0, 1): (0, 1, 1)})


def z_semidirect_z4():
    """M = Z acting on Z/4 by inversion: b^a = b^3."""
    return PcPresentation(["a", "b"], [None, 4], conj={(0, 1): (0, 3)})


def d8_table():
    """The dihedral group of order 8: b^a = b c with c central."""
    p = PcPresentation(["a", "b", "c"], [2, 2, 2], conj={(0, 1): (0, 1, 1)})
    return quotient_table(p, Subgroup(p, []))


def h3_mod_cubes():
    p = heisenberg()
    return quotient_table(p, verbal_power_subgroup(p, 3))


def sampler(group):
    if isinstance(group, FiniteGroupTable):
        return lambda rng: rng.randrange(group.order)
    if isinstance(group, AbelianModule):
        return lambda rng: group.normal_form(rng.randint(-6, 6) for _ in range(group.rank))
    return lambda rng: random_element(group, rng)


GROUPS = {
    "abelian Z+Z/2+Z/4": lambda: AbelianModule(1, [2, 4]),
    "table H3/H3^3": h3_mod_cubes,
    "table D8": d8_table,
    "pc H3": heisenberg,
    "pc Z x| Z/4": z_semidirect_z4,
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_interface_laws(name):
    g = GROUPS[name]()
    draw = sampler(g)
    rng = random.Random(f"interface:{name}")
    e = g.identity()
    for _ in range(25):
        a, b, c = draw(rng), draw(rng), draw(rng)
        assert g.normal_form(a) == a
        assert g.normal_form(g.normal_form(a)) == g.normal_form(a)
        assert g.multiply(e, a) == a == g.multiply(a, e)
        assert g.multiply(a, g.invert(a)) == e == g.multiply(g.invert(a), a)
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
        assert g.conjugate(a, c) == g.multiply(g.invert(c), g.multiply(a, c))
        for k in range(-3, 4):
            base = a if k >= 0 else g.invert(a)
            expected = e
            for _ in range(abs(k)):
                expected = g.multiply(expected, base)
            assert g.power(a, k) == expected


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generators_generate(name):
    g = GROUPS[name]()
    gens = g.generators()
    if isinstance(g, FiniteGroupTable):
        assert len(table_closure(g, gens)) == g.order
        return
    # a module or pc element is the ordered product of powers of the
    # generators, with its coordinates as exponents
    draw = sampler(g)
    rng = random.Random(f"generators:{name}")
    for _ in range(25):
        x = draw(rng)
        word = g.identity()
        for gen, k in zip(gens, x):
            word = g.multiply(word, g.power(gen, k))
        assert word == x


def test_table_normal_form_checks_the_index():
    t = d8_table()
    assert t.normal_form(5) == 5
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            t.normal_form(bad)
