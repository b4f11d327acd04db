"""Tests for polycyclic presentations, collection, subgroups and quotients."""

import itertools
import random

import pytest

from oracles import inner_automorphism, random_element, table_closure, table_element_order
from nilcert import nilgroup
from nilcert.nilgroup import (
    GroupMap,
    Inconsistent,
    NotNilpotent,
    PcPresentation,
    Subgroup,
    center,
    centralizer,
    identity_map,
    intersect_finite_index,
    is_inner,
    lower_central_series,
    quotient_table,
    QuotientMap,
    simultaneous_conjugator,
    torsion_data,
    upper_central_series,
    verbal_power_subgroup,
)
from nilcert.zmod import CapExceeded


def heisenberg():
    """x, y, z with z = [x, y] central: y^x = y z^-1."""
    return PcPresentation(
        ["x", "y", "z"], [None, None, None], conj={(0, 1): (0, 1, -1)}
    )


def heisenberg_k(k):
    """Variant with [x, y] = z^k."""
    return PcPresentation(
        ["x", "y", "z"], [None, None, None], conj={(0, 1): (0, 1, -k)}
    )


def free_class3():
    """Free nilpotent of class 3 on two generators, standard weighted basis."""
    return PcPresentation(
        ["a1", "a2", "a3", "a4", "a5"],
        [None] * 5,
        conj={(0, 1): (0, 1, 1, 0, 0), (0, 2): (0, 0, 1, 1, 0), (1, 2): (0, 0, 1, 0, 1)},
    )


# ---------------------------------------------------------------------------
# collection


def test_collect_heisenberg_basic():
    p = heisenberg()
    assert p.weights == (1, 1, 2)
    assert p.nilpotency_class == 2
    # moving x past y picks up one commutator
    assert p.collect([(1, 1), (0, 1)]) == (1, 1, -1)
    x, y = p.gen(0), p.gen(1)
    assert p.commutator(x, y) == (0, 0, 1)
    assert p.multiply(x, y) == (1, 1, 0)
    assert p.multiply(y, x) == (1, 1, -1)
    assert p.power(p.multiply(x, y), 2) == (2, 2, -1)


def test_conjugation_images():
    p = heisenberg()
    x, y = p.gen(0), p.gen(1)
    assert p.conjugate(y, x) == (0, 1, -1)
    assert p.conjugate(y, p.invert(x)) == (0, 1, 1)
    # z is central
    z = p.gen(2)
    for g in (x, y, (2, -1, 3)):
        assert p.conjugate(z, g) == z


def test_group_axioms_random_against_matrices():
    # integer unitriangular 3x3 matrices are a faithful model of heisenberg:
    # (a, b, c) <-> [[1, a, c+ab], [0, 1, b], [0, 0, 1]] composed so that
    # normal forms x^a y^b z^c multiply like the matrices
    p = heisenberg()

    def to_mat(v):
        a, b, c = v
        return ((1, a, c + a * b), (0, 1, b), (0, 0, 1))

    def mat_mul(m1, m2):
        return tuple(
            tuple(sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    rng = random.Random(17)
    for _ in range(200):
        u = tuple(rng.randrange(-6, 7) for _ in range(3))
        v = tuple(rng.randrange(-6, 7) for _ in range(3))
        assert to_mat(p.multiply(u, v)) == mat_mul(to_mat(u), to_mat(v))
        assert p.multiply(u, p.invert(u)) == (0, 0, 0)
        assert p.multiply(p.invert(u), u) == (0, 0, 0)
        e = rng.randrange(-5, 6)
        pw = p.power(u, e)
        m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        step = to_mat(u) if e >= 0 else to_mat(p.invert(u))
        for _k in range(abs(e)):
            m = mat_mul(m, step)
        assert to_mat(pw) == m


def test_associativity_random_class3():
    p = free_class3()
    rng = random.Random(23)
    for _ in range(60):
        a = random_element(p, rng, 3)
        b = random_element(p, rng, 3)
        c = random_element(p, rng, 3)
        assert p.multiply(p.multiply(a, b), c) == p.multiply(a, p.multiply(b, c))
        assert p.multiply(a, p.invert(a)) == p.identity()
        assert p.invert(p.invert(a)) == a


def test_torsion_power_tail_carry():
    # Z/4 presented on two generators: a^2 = b, b^2 = 1
    p = PcPresentation(["a", "b"], [2, 2], powers={0: (0, 1)})
    p.check_consistency()
    a = p.gen(0)
    assert p.power(a, 2) == (0, 1)
    assert p.power(a, 3) == (1, 1)
    assert p.power(a, 4) == (0, 0)
    # out-of-range vectors renormalise through collection, not plain mod:
    # a^5 b = a (a^4) b = a b^2 b = a b
    assert p.normal_form((5, 1)) == (1, 1)
    assert p.normal_form((2, 0)) == (0, 1)
    assert p.normal_form((-1, 0)) == (1, 1)


def test_normal_form_identity_fast_path():
    p = heisenberg()
    assert p.normal_form((3, -2, 5)) == (3, -2, 5)


def test_consistency_rejects_bad_presentation():
    # x of order 2 acting on infinite y with tail of order 3 cannot close up
    with pytest.raises(Inconsistent):
        p = PcPresentation(
            ["x", "y", "z"], [2, None, 3], conj={(0, 1): (0, 1, 1)}, check=False
        )
        p.check_consistency()


def test_consistency_accepts_standard_examples():
    heisenberg().check_consistency()
    heisenberg_k(2).check_consistency()
    free_class3().check_consistency()


def z_acting_on_cyclic(m, u):
    """Z = <a> acting on Z/m = <b> by b^a = b^u."""
    return PcPresentation(["a", "b"], [None, m], conj={(0, 1): (0, u)})


def test_non_unit_diagonal_class_from_lower_central_series():
    # Z acting on Z/4 by inversion: [b, a] = b^2 and [b^2, a] = 1
    p = z_acting_on_cyclic(4, 3)
    assert p.nilpotency_class == 2
    assert p.weights == (1, 1)
    assert [s.gens for s in lower_central_series(p)] == [
        ((1, 0), (0, 1)),
        ((0, 2),),
        (),
    ]
    # b^a = b^3 on Z/16: gamma_k = <b^(2^(k-1))>, so the class is 4
    p = z_acting_on_cyclic(16, 3)
    assert p.nilpotency_class == 4
    assert [s.gens for s in lower_central_series(p)][1:] == [
        ((0, 2),),
        ((0, 4),),
        ((0, 8),),
        (),
    ]
    assert [s.gens for s in upper_central_series(p)][1] == ((4, 0), (0, 8))
    assert p.conjugate(p.gen(1), p.invert(p.gen(0))) == (0, 11)


def test_non_unit_diagonal_collection_is_a_group():
    # the semidihedral group of order 16: b^a = b^3 with a^2 = 1, b^8 = 1
    p = PcPresentation(["a", "b"], [2, 8], conj={(0, 1): (0, 3)})
    assert p.nilpotency_class == 3
    rng = random.Random(5)
    for _ in range(60):
        x, y, z = (random_element(p, rng) for _ in range(3))
        assert p.multiply(p.multiply(x, y), z) == p.multiply(x, p.multiply(y, z))
        assert p.multiply(x, p.invert(x)) == p.identity()
    q = z_acting_on_cyclic(16, 3)
    for _ in range(60):
        x, y, z = (random_element(q, rng, 5) for _ in range(3))
        assert q.multiply(q.multiply(x, y), z) == q.multiply(x, q.multiply(y, z))


def test_non_nilpotent_and_non_unit_diagonals_rejected():
    # Z acting on Z/5 by b -> b^3 is consistent but not nilpotent
    with pytest.raises(NotNilpotent):
        z_acting_on_cyclic(5, 3)
    # inverting an infinite cyclic section is never nilpotent
    with pytest.raises(NotNilpotent):
        PcPresentation(["a", "b"], [None, None], conj={(0, 1): (0, -1)})
    # b -> b^2 is not an automorphism of Z/4
    with pytest.raises(Inconsistent):
        z_acting_on_cyclic(4, 2)
    # a^3 would have to act on Z/4 as 3^3 = 3, not as the identity
    with pytest.raises(Inconsistent):
        PcPresentation(["a", "b"], [3, 4], conj={(0, 1): (0, 3)})


def test_unit_diagonal_presentations_keep_weight_class():
    p = free_class3()
    assert p.weights == (1, 1, 2, 3, 3)
    assert p.nilpotency_class == 3
    assert p._gamma_cache is None  # nothing extra is computed at construction


def test_abelianization_invariants():
    ab = heisenberg().abelianization()
    assert ab.module.free_rank == 2
    assert ab.module.invariant_factors == ()
    ab2 = heisenberg_k(2).abelianization()
    assert ab2.module.free_rank == 2
    assert ab2.module.invariant_factors == (2,)


# ---------------------------------------------------------------------------
# subgroups


def test_igs_cube_subgroup():
    p = heisenberg()
    k = Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], normal_closure=True)
    assert k.gens == ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    assert k.index_in_parent() == 27
    assert k.is_normal()
    assert k.contains((3, 3, 3))
    assert not k.contains((1, 0, 0))
    assert k.express((3, 3, 0)) is not None
    assert k.express((1, 1, 1)) is None


def test_subgroup_reduce_is_canonical():
    p = heisenberg()
    k = Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], normal_closure=True)
    reps = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            for c in range(-4, 5):
                reps.add(k.reduce((a, b, c)))
    assert len(reps) == 27
    rng = random.Random(31)
    for _ in range(50):
        g = random_element(p, rng, 5)
        h = k.gens[rng.randrange(3)]
        assert k.reduce(p.multiply(h, g)) == k.reduce(g)


def test_subgroup_join_and_normality():
    p = heisenberg()
    a = Subgroup(p, [(2, 0, 0)])
    b = Subgroup(p, [(0, 2, 0)])
    j = a.join(b)
    assert j.contains((2, 0, 0)) and j.contains((0, 2, 0))
    # <x> is not normal in heisenberg
    assert not Subgroup(p, [(1, 0, 0)]).is_normal()
    assert Subgroup(p, [(0, 0, 1)]).is_normal()


def test_intersect_finite_index():
    p = heisenberg()
    a = Subgroup(p, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    b = Subgroup(p, [(1, 0, 0), (0, 3, 0), (0, 0, 1)])
    i = intersect_finite_index(a, b)
    assert i.gens == ((2, 0, 0), (0, 3, 0), (0, 0, 1))
    assert i.index_in_parent() == 6


def test_subgroup_presentation_roundtrip():
    p = heisenberg()
    k = Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], normal_closure=True)
    kp, to_sub, from_sub = k.presentation()
    kp.check_consistency()
    assert kp.orders == (None, None, None)
    rng = random.Random(3)
    for _ in range(30):
        c = tuple(rng.randrange(-3, 4) for _ in range(3))
        e = from_sub(c)
        assert k.contains(e)
        assert from_sub(to_sub(e)) == e
    # the commutator of the generators shrinks by 9: [x^3, y^3] = z^9 = (z^3)^3
    img = to_sub(p.commutator((3, 0, 0), (0, 3, 0)))
    assert from_sub(img) == (0, 0, 9)


def test_finite_subgroup_elements():
    p = PcPresentation(["a", "t"], [None, 2])
    t = Subgroup(p, [(0, 1)])
    assert sorted(t.elements()) == [(0, 0), (0, 1)]
    assert t.order() == 2


# ---------------------------------------------------------------------------
# quotients and finite tables


def test_quotient_map_to_free_abelian():
    p = heisenberg()
    zc = Subgroup(p, [(0, 0, 1)])
    q = QuotientMap(p, zc)
    assert q.target.orders == (None, None)
    q.target.check_consistency()
    assert q.project((2, 3, 7)) == (2, 3)
    lifted = q.lift((2, 3))
    assert q.project(lifted) == (2, 3)
    pre = q.preimage(Subgroup(q.target, [(2, 0), (0, 1)]))
    assert pre.gens == ((2, 0, 0), (0, 1, 0), (0, 0, 1))


def test_quotient_table_order_27():
    p = heisenberg()
    k = Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], normal_closure=True)
    t = quotient_table(p, k)
    assert t.order == 27
    # exponent 3 group: all non-identity elements have order 3
    assert {table_element_order(t, i) for i in range(t.order)} == {1, 3}
    gx = t.index_of(t.qmap.project((1, 0, 0)))
    gy = t.index_of(t.qmap.project((0, 1, 0)))
    assert len(table_closure(t, [gx, gy])) == 27
    # spot-check multiplication against the parent group
    rng = random.Random(9)
    for _ in range(40):
        u = random_element(p, rng, 4)
        v = random_element(p, rng, 4)
        iu = t.index_of(t.qmap.project(u))
        iv = t.index_of(t.qmap.project(v))
        assert t.multiply(iu, iv) == t.index_of(t.qmap.project(p.multiply(u, v)))


def test_quotient_table_abelian():
    p = PcPresentation(["a", "b"], [None, None])
    k = Subgroup(p, [(3, 0), (0, 3)])
    t = quotient_table(p, k)
    assert t.order == 9
    assert {table_element_order(t, i) for i in range(t.order)} == {1, 3}


# ---------------------------------------------------------------------------
# central series and conjugacy


def test_center_and_series_heisenberg():
    p = heisenberg()
    assert center(p).gens == ((0, 0, 1),)
    gamma = lower_central_series(p)
    assert [s.gens for s in gamma] == [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, 1),),
        (),
    ]
    ucs = upper_central_series(p)
    assert [s.gens for s in ucs][1] == ((0, 0, 1),)
    assert ucs[-1].is_whole_group()


def test_center_and_series_class3():
    p = free_class3()
    assert center(p).gens == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    gamma = lower_central_series(p)
    assert len(gamma) == 4
    assert gamma[1].gens == ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    assert gamma[2].gens == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    ucs = upper_central_series(p)
    assert [len(s.gens) for s in ucs] == [0, 2, 3, 5]


def test_centralizer_of_generator():
    p = heisenberg()
    c = centralizer(p, [p.gen(0)])
    assert c.gens == ((1, 0, 0), (0, 0, 1))


def test_conjugator_roundtrip_class2():
    p = heisenberg()
    rng = random.Random(11)
    for _ in range(30):
        g0 = random_element(p, rng, 4)
        ts = [random_element(p, rng, 4) for _ in range(2)]
        vs = [p.conjugate(t, g0) for t in ts]
        g = simultaneous_conjugator(p, ts, vs)
        assert g is not None
        assert all(p.conjugate(t, g) == v for t, v in zip(ts, vs))


def test_conjugator_roundtrip_class3():
    p = free_class3()
    rng = random.Random(5)
    for _ in range(15):
        g0 = random_element(p, rng, 3)
        ts = [random_element(p, rng, 3) for _ in range(2)]
        vs = [p.conjugate(t, g0) for t in ts]
        g = simultaneous_conjugator(p, ts, vs)
        assert g is not None
        assert all(p.conjugate(t, g) == v for t, v in zip(ts, vs))


def test_conjugator_negative_cases():
    # in the variant [x, y] = z^2 the conjugates of x are x z^(2k), so x z
    # is out of reach despite matching in the abelianization
    p2 = heisenberg_k(2)
    assert simultaneous_conjugator(p2, [(1, 0, 0)], [(1, 0, 1)]) is None
    # in class 3 the element x a5 agrees with x on every layer quotient
    # except the last, where the reachable set is spanned by a4 alone
    f = free_class3()
    x = f.gen(0)
    assert simultaneous_conjugator(f, [x], [f.multiply(x, f.gen(4))]) is None
    g = simultaneous_conjugator(f, [x], [f.multiply(x, f.gen(3))])
    assert g is not None
    assert f.conjugate(x, g) == f.multiply(x, f.gen(3))


# ---------------------------------------------------------------------------
# homomorphisms


def test_hom_rejects_relation_violation():
    p = heisenberg()
    with pytest.raises(ValueError):
        GroupMap(p, p, [(0, 1, 0), (1, 0, 0), (0, 0, 1)])


def test_hom_apply_and_compose():
    p = heisenberg()
    h = GroupMap(p, p, [(1, 0, 1), (0, 1, 0), (0, 0, 1)])
    assert h.apply((1, 0, 0)) == (1, 0, 1)
    assert h.apply((2, 0, 0)) == (2, 0, 2)
    rng = random.Random(41)
    for _ in range(40):
        u = random_element(p, rng, 4)
        v = random_element(p, rng, 4)
        assert h.apply(p.multiply(u, v)) == p.multiply(h.apply(u), h.apply(v))
    assert identity_map(p).compose(h) == h
    assert h.compose(identity_map(p)) == h


def test_hom_inverse_roundtrip():
    p = heisenberg()
    h = GroupMap(p, p, [(1, 0, 1), (0, 1, 0), (0, 0, 1)])
    assert h.is_automorphism()
    hi = h.inverse()
    assert hi.images == ((1, 0, -1), (0, 1, 0), (0, 0, 1))
    assert h.compose(hi).is_identity()
    assert hi.compose(h).is_identity()


def test_inner_automorphism_matches_conjugation():
    p = free_class3()
    rng = random.Random(7)
    for _ in range(10):
        g = random_element(p, rng, 3)
        h = inner_automorphism(p, g)
        u = random_element(p, rng, 3)
        assert h.apply(u) == p.conjugate(u, g)


def test_is_inner_fixtures():
    p = heisenberg()
    # x -> x z^2 is conjugation by y^2
    h = GroupMap(p, p, [(1, 0, 2), (0, 1, 0), (0, 0, 1)])
    g = is_inner(h)
    assert g is not None
    assert all(p.conjugate(p.gen(i), g) == h.images[i] for i in range(3))
    # x -> x z is conjugation by y
    h1 = GroupMap(p, p, [(1, 0, 1), (0, 1, 0), (0, 0, 1)])
    assert is_inner(h1) is not None
    # but not in the variant [x, y] = z^2, where only even powers of z appear
    p2 = heisenberg_k(2)
    b = GroupMap(p2, p2, [(1, 0, 1), (0, 1, 0), (0, 0, 1)])
    assert is_inner(b) is None
    # its square is conjugation by y
    bb = b.compose(b)
    g2 = is_inner(bb)
    assert g2 is not None
    assert all(p2.conjugate(p2.gen(i), g2) == bb.images[i] for i in range(3))


def test_hom_from_images_between_groups():
    p = heisenberg()
    z2 = PcPresentation(["u", "v"], [None, None])
    q = GroupMap(p, z2, [(1, 0), (0, 1), (0, 0)])
    assert q.apply((2, 3, 7)) == (2, 3)
    assert q.is_surjective()
    assert not q.is_automorphism()


HOPFIAN_GROUPS = {
    "H3xC2": lambda: PcPresentation(
        ["x", "y", "z", "w"], [None, None, None, 2], conj={(0, 1): (0, 1, -1, 0)}
    ),
    "M": lambda: PcPresentation(["a", "b"], [None, 4], conj={(0, 1): (0, 3)}),
    "Q": lambda: PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)}),
}


def _random_endomorphisms(p, rng, count):
    """Endomorphisms with generator images in the exponent box 1, each
    image drawn at random among those that keep every relation on the
    generators assigned so far."""
    box = [tuple(v) for v in itertools.product(*[
        range(-1, 2) if m is None else range(min(m, 2)) for m in p.orders])]
    # the relations by their highest letter
    rels = [[] for _ in range(p.n)]
    for i, j, v in p.relations():
        top = max([i] + ([] if j is None else [j]) + [k for k, e in enumerate(v) if e])
        rels[top].append((i, j, v))
    out = []
    while len(out) < count:
        images = []
        for k in range(p.n):
            for x in rng.sample(box, len(box)):
                if all(nilgroup._relation_holds(p, p, images + [x], r) for r in rels[k]):
                    images.append(x)
                    break
            else:
                break
        if len(images) == p.n:
            out.append(images)
    return out


@pytest.mark.parametrize("name", sorted(HOPFIAN_GROUPS))
def test_endomorphisms_are_isomorphisms_when_onto(name, monkeypatch):
    """Finitely generated nilpotent groups are Hopfian, so an endomorphism
    is an isomorphism exactly when it is onto: ``is_isomorphism`` never
    reads the torsion subgroup, and agrees with injective and surjective
    asked apart."""
    p = HOPFIAN_GROUPS[name]()
    endos = _random_endomorphisms(p, random.Random(f"hopfian-{name}"), 60)

    def refuse(*args, **kwargs):
        raise AssertionError("torsion_data was read")

    with monkeypatch.context() as patched:
        patched.setattr(nilgroup, "torsion_data", refuse)
        shortcut = [GroupMap(p, p, images).is_isomorphism() for images in endos]
    both = [GroupMap(p, p, images) for images in endos]
    assert shortcut == [m.is_injective() and m.is_surjective() for m in both]
    assert any(shortcut) and not all(shortcut)


# ---------------------------------------------------------------------------
# torsion


def test_torsion_data_abelian():
    p = PcPresentation(["a", "t"], [None, 2])
    td = torsion_data(p)
    assert td.tau.gens == ((0, 1),)
    assert sorted(td.tau_elements) == [(0, 0), (0, 1)]
    assert td.m == 2
    assert td.verify_embedding()


def test_torsion_data_cyclic():
    p = PcPresentation(["t"], [6])
    td = torsion_data(p)
    assert td.tau.is_whole_group()
    assert td.m == 6


def test_torsion_data_torsion_free():
    p = heisenberg()
    td = torsion_data(p)
    assert td.tau.is_trivial()
    assert td.m == 1
    assert td.verify_embedding()


def test_torsion_data_nonabelian_with_torsion():
    # heisenberg with central z of order 2: G^2 still contains z via the
    # commutator, so the separating exponent climbs to 4
    p = PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)})
    p.check_consistency()
    td = torsion_data(p)
    assert td.tau.gens == ((0, 0, 1),)
    assert td.m == 4
    assert td.verify_embedding()


def test_torsion_data_is_computed_once_per_presentation_and_cap():
    p = PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)})
    td = torsion_data(p)
    assert torsion_data(p) is td
    assert torsion_data(p, cap=1000) is not td
    assert torsion_data(p, cap=1000).m == td.m == 4
    # a new presentation computes its own
    q = PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)})
    assert torsion_data(q) is not td
    with pytest.raises(CapExceeded):
        torsion_data(p, cap=1)


def test_separating_exponent_is_searched_once_on_first_read(monkeypatch):
    p = PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)})
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return verbal_power_subgroup(*args, **kwargs)

    monkeypatch.setattr(nilgroup, "verbal_power_subgroup", counting)
    td = torsion_data(p)
    assert td.tau.gens == ((0, 0, 1),) and calls == []
    assert td.m == 4 and calls == [2, 4]
    g4 = td.power_subgroup
    assert td.m == 4 and td.power_subgroup is g4 and calls == [2, 4]


# ---------------------------------------------------------------------------
# verbal subgroups of powers


def test_verbal_power_subgroups_heisenberg():
    p = heisenberg()
    v2 = verbal_power_subgroup(p, 2)
    assert v2.gens == ((2, 0, 0), (0, 2, 0), (0, 0, 1))
    assert v2.index_in_parent() == 4
    v3 = verbal_power_subgroup(p, 3)
    assert v3.index_in_parent() == 27
    v4 = verbal_power_subgroup(p, 4)
    assert v4.gens == ((4, 0, 0), (0, 4, 0), (0, 0, 2))
    assert v4.index_in_parent() == 32


def test_verbal_subgroup_contains_all_powers():
    p = heisenberg()
    rng = random.Random(13)
    for k in (2, 3, 4):
        v = verbal_power_subgroup(p, k)
        for _ in range(30):
            g = random_element(p, rng, 5)
            assert v.contains(p.power(g, k))


def test_verbal_closure_cross_check():
    # brute force: the image of {g^4} inside the order-32 quotient generates
    # the trivial subgroup, confirming that G^4 is exactly the kernel
    p = heisenberg()
    v4 = verbal_power_subgroup(p, 4)
    t = quotient_table(p, v4)
    assert t.order == 32
    idxs = [t.power(i, 4) for i in range(t.order)]
    assert len(table_closure(t, idxs)) == 1


# ---------------------------------------------------------------------------
# finite tables


def cyclic_table(m):
    """Z/m, element i being a^i."""
    p = PcPresentation(["a"], [m])
    return quotient_table(p, Subgroup(p, []))


def test_finite_table_from_rows():
    t = cyclic_table(3)
    assert t.order == 3
    assert table_element_order(t, 1) == 3
    assert t.invert(1) == 2
    assert t.multiply(1, 2) == 0


def test_finite_table_power_of_a_large_exponent():
    t = cyclic_table(7)
    assert t.power(1, 7 * 10**12 + 3) == t.power(1, 3) == 3
    assert t.power(1, 10**12 + 3) == t.power(1, (10**12 + 3) % 7)
    assert t.power(2, -(10**12)) == t.invert(t.power(2, 10**12 % 7))


def test_reduce_is_canonical_under_a_non_unit_diagonal():
    # M = Z x| Z/4 with b^a = b^3; G^3 = <a^3, b>, so a*b and a share a coset
    m = PcPresentation(["a", "b"], [None, 4], conj={(0, 1): (0, 3)})
    k = verbal_power_subgroup(m, 3)
    assert k.gens == ((3, 0), (0, 1))
    assert k.reduce((1, 1)) == k.reduce((1, 0)) == (1, 0)
    table = quotient_table(m, k)
    assert table.project((1, 1)) == table.project((1, 0))
    for x in [(e, f) for e in range(-4, 5) for f in range(4)]:
        assert k.reduce(x) == ((x[0] % 3), 0)
