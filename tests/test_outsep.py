import json
import random

import pytest

from oracles import (
    from_center_images,
    hom_star_is_zero,
    index_in_ambient,
    inner_automorphism,
    out_finite,
    phi,
    random_element,
)
from nilcert.nilgroup import (
    GroupMap,
    PcPresentation,
    QuotientMap,
    Subgroup,
    center,
    is_inner,
    quotient_table,
)
from nilcert.outsep import (
    BudgetExhausted,
    CongruenceCertificate,
    HomStar,
    OuterAutoClass,
    _elusive_with_audit,
    elusive_elements,
    good_enough_subgroup,
    hom_star_space,
    projection_p,
    psi,
    restriction_r,
    separate_torsion,
    survives,
)
from nilcert.zmod import CapExceeded, IntMatrix, Submodule, coset_representatives, isolator


def heisenberg(k=1):
    return PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, -k)})


def free_class3():
    return PcPresentation(
        ["a1", "a2", "a3", "a4", "a5"],
        [None] * 5,
        conj={(0, 1): (0, 1, 1, 0, 0), (0, 2): (0, 0, 1, 1, 0), (1, 2): (0, 0, 1, 0, 1)},
    )


def free_class2_rank3():
    # generators a1,a2,a3 with pairwise commutators a4,a5,a6, class 2
    return PcPresentation(
        ["a1", "a2", "a3", "a4", "a5", "a6"],
        [None] * 6,
        conj={
            (0, 1): (0, 1, 0, -1, 0, 0),
            (0, 2): (0, 0, 1, 0, -1, 0),
            (1, 2): (0, 0, 1, 0, 0, -1),
        },
    )


# ---------------------------------------------------------------------------
# the Hom* space and phi


def test_hom_star_space_heisenberg_shape():
    p = heisenberg()
    sp = hom_star_space(p)
    assert sp.cover.module.free_rank == 2 and not sp.cover.module.invariant_factors
    assert sp.center_module.free_rank == 1
    assert sp.hom.module.rank == 2
    assert hom_star_space(p) is sp


def test_phi_heisenberg_values():
    p = heisenberg()
    f = phi(p, (0, 1, 0))
    assert f.evaluate((1, 0, 0)) == (0, 0, 1)
    assert f.evaluate((0, 1, 0)) == (0, 0, 0)
    # f is linear in the x exponent only
    assert f.evaluate((2, 3, 5)) == (0, 0, 2)
    assert hom_star_is_zero(phi(p, (0, 0, 1)))
    g = phi(p, (1, 0, 0))
    assert g.evaluate((0, 1, 0)) == (0, 0, -1)


def test_phi_h2_uses_defining_relation():
    h2 = heisenberg(2)
    f = phi(h2, (0, 1, 0))
    assert f.evaluate((1, 0, 0)) == (0, 0, 2)


def test_phi_outside_second_centre_term_raises():
    f23 = free_class3()
    with pytest.raises(ValueError):
        phi(f23, (1, 0, 0, 0, 0))
    # a3 lies in the second term even though it is not central
    assert not hom_star_is_zero(phi(f23, (0, 0, 1, 0, 0)))


def test_phi_additive_on_random_pairs():
    for p in (heisenberg(), heisenberg(2)):
        rng = random.Random(11)
        for _ in range(200):
            xi = random_element(p, rng, 4)
            zeta = random_element(p, rng, 4)
            both = phi(p, p.multiply(xi, zeta))
            assert both == phi(p, xi).multiply(phi(p, zeta))


def test_phi_vanishes_exactly_on_centre():
    p = heisenberg()
    rng = random.Random(5)
    for _ in range(60):
        xi = random_element(p, rng, 4)
        central = all(p.commutator(p.gen(k), xi) == p.identity() for k in range(3))
        assert hom_star_is_zero(phi(p, xi)) == central


# ---------------------------------------------------------------------------
# psi


def test_psi_zero_is_identity():
    p = heisenberg()
    assert psi(hom_star_space(p).zero()).is_identity()


def test_psi_from_center_images():
    p = heisenberg()
    sp = hom_star_space(p)
    f = from_center_images(sp, [(0, 0, 1), (0, 0, 0), (0, 0, 0)])
    g = psi(f)
    assert g.images == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert g.compose(psi(f.invert())).is_identity()


def test_psi_homomorphy_on_random_pairs():
    p = heisenberg()
    rng = random.Random(23)
    for _ in range(200):
        f = phi(p, random_element(p, rng, 4))
        g = phi(p, random_element(p, rng, 4))
        assert psi(f).compose(psi(g)) == psi(g.multiply(f))


def test_psi_phi_is_conjugation():
    p = heisenberg()
    rng = random.Random(31)
    for _ in range(100):
        xi = random_element(p, rng, 4)
        assert psi(phi(p, xi)) == inner_automorphism(p, xi)


# ---------------------------------------------------------------------------
# restriction and projection of outer classes


def test_restriction_and_projection_heisenberg_swap():
    p = heisenberg()
    swap = OuterAutoClass(GroupMap(p, p, [(0, 1, 0), (1, 0, 0), (0, 0, -1)]))
    assert restriction_r(swap) == IntMatrix([(-1,)])
    proj = projection_p(swap)
    assert proj.representative.images == ((0, 1), (1, 0))
    assert not proj.is_trivial()


def test_restriction_and_projection_inner_class():
    p = heisenberg()
    cls = OuterAutoClass(inner_automorphism(p, (1, 2, 0)), check=True)
    assert cls.is_trivial()
    assert restriction_r(cls) == IntMatrix.identity(1)
    assert projection_p(cls).is_trivial()


def test_abelian_negation_class():
    z2 = PcPresentation(["a", "b"], [None, None])
    neg = OuterAutoClass(GroupMap(z2, z2, [(-1, 0), (0, -1)]))
    assert restriction_r(neg) == IntMatrix([(-1, 0), (0, -1)])
    assert neg.outer_order() == 2
    # the central quotient is trivial, so p carries no information
    assert projection_p(neg).group.n == 0
    assert projection_p(neg).is_trivial()


# ---------------------------------------------------------------------------
# elusive classes


def test_elusive_empty_for_abelian_and_heisenberg():
    assert elusive_elements(PcPresentation(["a", "b"], [None, None])) == []
    assert elusive_elements(PcPresentation(["a", "b"], [None, 2])) == []
    classes, audit = _elusive_with_audit(heisenberg())
    assert classes == [] and audit["cosets"] == 1


def test_elusive_empty_for_free_nilpotent_groups():
    assert elusive_elements(free_class3()) == []
    assert elusive_elements(free_class2_rank3()) == []


def test_elusive_h2_three_classes_of_order_two():
    h2 = heisenberg(2)
    classes, audit = _elusive_with_audit(h2)
    assert len(classes) == 3
    assert audit == {"cosets": 4, "collapsed_to_inner": 0, "collapsed_pairwise": 0}
    assert sorted(c.coset for c in classes) == [(0, 1), (1, 0), (1, 1)]
    for c in classes:
        assert c.outer_order() == 2
        assert is_inner(c.representative) is None
        assert restriction_r(c) == IntMatrix.identity(1)
        assert projection_p(c).representative.is_identity()
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            assert not a.same_class(b)


def test_elusive_h2_contains_xz_class_with_square_ad_y():
    h2 = heisenberg(2)
    wanted = OuterAutoClass(GroupMap(h2, h2, [(1, 0, 1), (0, 1, 0), (0, 0, 1)]))
    matches = [c for c in elusive_elements(h2) if c.same_class(wanted)]
    assert len(matches) == 1
    cls = matches[0]
    assert cls.representative.images == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert cls.power_conjugator == (0, 1, 0)
    square = cls.representative.compose(cls.representative)
    assert square == inner_automorphism(h2, (0, 1, 0))


def test_elusive_h2_coset_surjectivity_audit():
    # every coset of S in its isolator lands on a listed class or on the
    # trivial class
    h2 = heisenberg(2)
    sp = hom_star_space(h2)
    classes = elusive_elements(h2)
    s_sub = Submodule(sp.hom.module, [sp.phi(g).coords for g in sp.nu2.gens])
    s_hat = isolator(s_sub)
    assert index_in_ambient(s_sub) == 4 and index_in_ambient(s_hat) == 1
    for rep in coset_representatives(s_sub, s_hat):
        beta = psi(HomStar(sp, rep))
        if is_inner(beta) is not None:
            assert not any(rep)
            continue
        hits = [c for c in classes if c.same_class(OuterAutoClass(beta, check=False))]
        assert len(hits) == 1


# ---------------------------------------------------------------------------
# good enough subgroups


def test_good_enough_heisenberg():
    p = heisenberg()
    h = center(p)
    h0 = Subgroup(p, [(0, 0, 3)])
    qm = QuotientMap(p, h)
    k0 = Subgroup(qm.target, [(3, 0), (0, 3)])
    p0 = good_enough_subgroup(qm, h0, k0)
    assert p0.gens == ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    assert p0.index_in_parent() == 27
    # independent membership re-verification of both conditions
    for g in p0.gens:
        assert k0.contains(qm.project(g))
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        w = p.normal_form((0, 0, rng.randint(-9, 9)))
        if p0.contains(w):
            hits += 1
            assert h0.contains(w)
    assert hits > 3


def test_good_enough_degenerate_whole_group():
    z2 = PcPresentation(["a", "b"], [None, None])
    whole = Subgroup(z2, [(1, 0), (0, 1)])
    h0 = Subgroup(z2, [(3, 0), (0, 3)])
    qm = QuotientMap(z2, whole)
    p0 = good_enough_subgroup(qm, h0, Subgroup(qm.target, []))
    assert p0.gens == ((3, 0), (0, 3))


def test_good_enough_full_slack_returns_whole_group():
    p = heisenberg()
    h = center(p)
    qm = QuotientMap(p, h)
    k0 = Subgroup(qm.target, [(1, 0), (0, 1)])
    p0 = good_enough_subgroup(qm, Subgroup(p, [(0, 0, 1)]), k0)
    assert p0.is_whole_group()


def test_good_enough_rejects_foreign_quotient_subgroup():
    p = heisenberg()
    h = center(p)
    other = PcPresentation(["u", "v"], [None, None])
    with pytest.raises(ValueError):
        good_enough_subgroup(QuotientMap(p, h), Subgroup(p, [(0, 0, 3)]), Subgroup(other, [(3, 0)]))


# ---------------------------------------------------------------------------
# automorphisms of finite groups


def whole_table(names, orders):
    """The abelian group with these relative orders, as a table."""
    p = PcPresentation(names, orders)
    return quotient_table(p, Subgroup(p, []))


def test_out_finite_trivial_group():
    res = out_finite(whole_table([], []))
    assert (res.aut_order, res.inn_order, res.out_order) == (1, 1, 1)


def test_out_finite_cyclic_five():
    res = out_finite(whole_table(["a"], [5]))
    assert (res.aut_order, res.inn_order, res.out_order) == (4, 1, 4)


def test_out_finite_elementary_nine():
    res = out_finite(whole_table(["a", "b"], [3, 3]))
    assert res.aut_order == 48 and res.out_order == 48


def test_out_finite_extraspecial_27():
    p = heisenberg()
    table = quotient_table(
        p, Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], normal_closure=True)
    )
    res = out_finite(table)
    assert (res.aut_order, res.inn_order, res.out_order) == (432, 9, 48)
    assert len(res.automorphisms) == len(res.inner_flags) == 432


def test_out_finite_cap():
    p = heisenberg()
    table = quotient_table(
        p, Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], normal_closure=True)
    )
    with pytest.raises(CapExceeded):
        out_finite(table, cap=26)


# ---------------------------------------------------------------------------
# survival in finite quotients


def test_survives_negation_of_z():
    zp = PcPresentation(["t"], [None])
    neg = OuterAutoClass(GroupMap(zp, zp, [(-1,)]))
    assert bool(survives(neg, QuotientMap(zp, Subgroup(zp, [(3,)]))))
    # mod 2 the negation becomes the identity, hence inner
    assert not survives(neg, QuotientMap(zp, Subgroup(zp, [(2,)])))


def test_survives_inner_class_never():
    p = heisenberg()
    cls = OuterAutoClass(inner_automorphism(p, (1, 0, 0)), check=True)
    assert not survives(cls, QuotientMap(p, Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])))


def test_survives_h2_class_depends_on_depth():
    h2 = heisenberg(2)
    beta = OuterAutoClass(GroupMap(h2, h2, [(1, 0, 1), (0, 1, 0), (0, 0, 1)]))
    shallow = survives(beta, QuotientMap(h2, Subgroup(h2, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])))
    assert not shallow and shallow.quotient_order == 27
    # mod the cube subgroup, conjugation by y^2 sends x to x z^4 = x z
    assert shallow.conjugator == (0, 2, 0)
    deep = survives(beta, QuotientMap(h2, Subgroup(h2, [(6, 0, 0), (0, 6, 0), (0, 0, 6)])))
    assert deep and deep.quotient_order == 216 and deep.conjugator is None


def test_survives_requires_preserved_subgroup():
    p = heisenberg()
    swap = OuterAutoClass(GroupMap(p, p, [(0, 1, 0), (1, 0, 0), (0, 0, -1)]))
    lopsided = Subgroup(p, [(3, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        survives(swap, QuotientMap(p, lopsided))


# ---------------------------------------------------------------------------
# separate_torsion


def test_separate_torsion_abelian_base():
    zp = PcPresentation(["t"], [None])
    cert = separate_torsion(zp)
    assert cert.base_case and cert.subgroup.gens == ((3,),)
    z2 = PcPresentation(["a", "b"], [None, None])
    cert2 = separate_torsion(z2)
    assert cert2.subgroup.gens == ((3, 0), (0, 3))
    assert cert2.verify()


def test_separate_torsion_abelian_with_torsion():
    p = PcPresentation(["a", "b"], [None, 2])
    cert = separate_torsion(p)
    assert cert.base_case
    assert cert.subgroup.index_in_parent() == 3


def test_separate_torsion_heisenberg_good_enough_suffices():
    p = heisenberg()
    cert = separate_torsion(p)
    assert not cert.base_case and cert.complete
    assert cert.elusive_data == [] and cert.survival_log == []
    assert cert.subgroup == Subgroup(p, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert [e["name"] for e in cert.chain] == ["good enough"]
    assert cert.verify()


def test_separate_torsion_h2_end_to_end():
    h2 = heisenberg(2)
    cert = separate_torsion(h2)
    assert cert.complete and not cert.base_case
    assert cert.subgroup == Subgroup(h2, [(6, 0, 0), (0, 6, 0), (0, 0, 6)])
    assert cert.subgroup.index_in_parent() == 216
    assert len(cert.elusive_data) == 3
    assert all(e["outer_order"] == 2 for e in cert.elusive_data)
    shape = [
        (lv["level"], lv["exponent"], lv["quotient_order"],
         all(c["survived"] for c in lv["classes"]),
         any(c["survived"] for c in lv["classes"]))
        for lv in cert.survival_log
    ]
    assert shape == [(0, 1, 27, False, False), (1, 3, 27, False, False),
                     (2, 6, 216, True, True)]
    assert cert.verify()


def test_separate_torsion_certificate_json():
    cert = separate_torsion(heisenberg(2))
    doc = json.loads(cert.to_json())
    assert doc["complete"] and not doc["base_case"]
    assert doc["subgroup_index"] == 216
    assert len(doc["elusive_classes"]) == 3
    last = doc["survival_log"][-1]
    assert last["quotient_order"] == 216
    for entry in last["classes"]:
        assert entry["survived"] and entry["inner_conjugator"] is None
        assert entry["conjugators_checked"] == 216


def test_separate_torsion_budget_exhaustion():
    with pytest.raises(BudgetExhausted) as info:
        separate_torsion(heisenberg(2), max_levels=1)
    partial = info.value.certificate
    assert partial is not None and not partial.complete
    assert partial.subgroup.index_in_parent() == 27
    assert len(partial.survival_log) == 2


def test_certificate_verify_rejects_a_subgroup_off_its_chain():
    p = heisenberg()
    cert = separate_torsion(p)
    whole = Subgroup(p, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    tampered = CongruenceCertificate(p, whole, False, cert.chain, [], [])
    with pytest.raises(RuntimeError, match="last subgroup of its chain"):
        tampered.verify()
    incomplete = CongruenceCertificate(p, cert.subgroup, False, cert.chain, [], [],
                                       complete=False)
    with pytest.raises(RuntimeError, match="marked incomplete"):
        incomplete.verify()


def test_certificate_verify_rejects_shallow_subgroup():
    h2 = heisenberg(2)
    cert = separate_torsion(h2)
    tampered = CongruenceCertificate(
        h2,
        Subgroup(h2, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
        False,
        cert.chain,
        cert.elusive_data,
        cert.survival_log,
    )
    with pytest.raises(RuntimeError):
        tampered.verify()
