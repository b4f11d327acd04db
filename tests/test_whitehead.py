import itertools
import json
import random

import pytest

from nilcert.nilgroup import GroupHom, PcPresentation, Subgroup, isomorphisms, quotient_table
from nilcert.whitehead import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNKNOWN,
    TupleSystem,
    Verdict,
    _box_elements,
    _witness_search,
    least_conjugators,
    refutation_exponents,
    tuple_system,
    verify_abelian_witness,
    verify_finite_witness,
    verify_nilpotent_witness,
    verify_quotient_refutation,
    whitehead_abelian,
    whitehead_finite,
    whitehead_nilpotent,
)
from nilcert.zmod import AbelianModule, CapExceeded

from oracles import (
    conjugator_by_scan,
    orbit_matches_finite,
    regular_representation,
    unpruned_witness_search,
)


def heisenberg():
    return PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, -1)})


def finite_cyclic_table(n):
    p = PcPresentation(["a"], [n])
    return quotient_table(p, Subgroup(p, []), cap=1000)


# ---------------------------------------------------------------------------
# verdicts and tuple systems


def test_verdict_payload_validation():
    v = Verdict(EQUIVALENT, witness={"matrix": [[1]]})
    assert v.is_equivalent() and not v.is_not_equivalent() and not v.is_unknown()
    assert Verdict(UNKNOWN).is_unknown()
    with pytest.raises(ValueError):
        Verdict("maybe")
    with pytest.raises(ValueError):
        Verdict(EQUIVALENT)
    with pytest.raises(ValueError):
        Verdict(NOT_EQUIVALENT)


def test_verdict_json_round_trip():
    g = AbelianModule(2)
    v = whitehead_abelian(g, [((0, 1), (1, 0))], [((1, 0), (0, 1))])
    data = json.loads(v.to_json())
    assert data["kind"] == EQUIVALENT
    assert data["witness"]["matrix"] == [[0, 1], [1, 0]]


def test_tuple_system_normalizes_entries():
    g = AbelianModule(1, (3,))
    s = TupleSystem(g, [((2, 5),)])
    assert s.tuples == (((2, 2),),)

    p = heisenberg()
    t = TupleSystem(p, [((1, 0, 0), (0, 1, 0))])
    assert t.lengths == (2,)

    table = finite_cyclic_table(3)
    with pytest.raises(ValueError):
        TupleSystem(table, [(7,)])


def test_mismatched_shapes_rejected():
    g = AbelianModule(2)
    with pytest.raises(ValueError):
        whitehead_abelian(g, [((1, 0),)], [((1, 0), (0, 1))])
    with pytest.raises(ValueError):
        whitehead_abelian(g, [((1, 0),)], [((1, 0),), ((0, 1),)])


def test_tuple_system_parent_mismatch():
    g = AbelianModule(2)
    other = AbelianModule(2)
    s = tuple_system(g, [((1, 0),)])
    assert tuple_system(g, s) is s
    with pytest.raises(ValueError):
        tuple_system(other, s)


# ---------------------------------------------------------------------------
# abelian solver


def test_abelian_swap_is_equivalent():
    g = AbelianModule(2)
    v = whitehead_abelian(g, [((0, 1), (1, 0))], [((1, 0), (0, 1))])
    assert v.is_equivalent()
    assert v.witness["matrix"] == [[0, 1], [1, 0]]
    assert verify_abelian_witness(g, [((0, 1), (1, 0))], [((1, 0), (0, 1))], v.witness)


def test_abelian_two_vs_one_not_equivalent():
    g = AbelianModule(1)
    v = whitehead_abelian(g, [((2,),)], [((1,),)])
    assert v.is_not_equivalent()
    assert v.certificate["part"] == "free"
    assert "not integral" in v.certificate["reason"]
    assert v.certificate["coords_a"] == [[2]]
    assert v.certificate["coords_b"] == [[1]]


def test_abelian_index_two_sublattice_not_equivalent():
    g = AbelianModule(2)
    v = whitehead_abelian(g, [((2, 0), (0, 1))], [((1, 0), (0, 2))])
    assert v.is_not_equivalent()
    assert v.certificate["part"] == "free"


def test_abelian_scaled_line_not_equivalent():
    g = AbelianModule(2)
    v = whitehead_abelian(g, [((1, 2),)], [((2, 4),)])
    assert v.is_not_equivalent()
    assert "not invertible over Z" in v.certificate["reason"]


def test_abelian_primitive_lines_equivalent():
    g = AbelianModule(2)
    v = whitehead_abelian(g, [((2, 0),)], [((0, 2),)])
    assert v.is_equivalent()
    assert v.witness["matrix"] == [[0, 1], [1, 0]]


def test_abelian_kernel_lattice_mismatch():
    g = AbelianModule(2)
    v = whitehead_abelian(g, [((1, 0), (2, 0))], [((1, 0), (0, 1))])
    assert v.is_not_equivalent()
    assert "relation lattices" in v.certificate["reason"]


def test_abelian_empty_instance():
    g = AbelianModule(3)
    v = whitehead_abelian(g, [], [])
    assert v.is_equivalent()
    assert v.witness["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_abelian_pure_torsion_swap():
    g = AbelianModule(0, (3, 3))
    v = whitehead_abelian(g, [((1, 0),)], [((0, 1),)])
    assert v.is_equivalent()
    assert v.witness["matrix"] == [[0, 1], [1, 0]]
    assert verify_abelian_witness(g, [((1, 0),)], [((0, 1),)], v.witness)


def test_abelian_z4_generator_vs_square():
    g = AbelianModule(0, (4,))
    v = whitehead_abelian(g, [((1,),)], [((2,),)])
    assert v.is_not_equivalent()
    assert v.certificate["part"] == "torsion"
    assert v.certificate["torsion_automorphisms_tried"] == 2


def test_abelian_shear_witness():
    g = AbelianModule(2, (2,))
    s = [((1, 0, 1),)]
    t = [((1, 0, 0),)]
    v = whitehead_abelian(g, s, t)
    assert v.is_equivalent()
    assert v.witness["matrix"] == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    assert verify_abelian_witness(g, s, t, v.witness)


def test_abelian_torsion_vs_free_entry():
    g = AbelianModule(1, (2,))
    v = whitehead_abelian(g, [((0, 1),)], [((1, 0),)])
    assert v.is_not_equivalent()
    assert v.certificate["part"] == "free"


def test_abelian_torsion_cap():
    g = AbelianModule(0, (5000,))
    with pytest.raises(CapExceeded):
        whitehead_abelian(g, [((1,),)], [((1,),)], torsion_cap=4096)


def test_abelian_witness_verifier_rejects_tampering():
    g = AbelianModule(2)
    s = [((0, 1), (1, 0))]
    t = [((1, 0), (0, 1))]
    v = whitehead_abelian(g, s, t)
    bad = {"matrix": [[2, 0], [0, 1]], "conjugators": v.witness["conjugators"]}
    assert not verify_abelian_witness(g, s, t, bad)
    wrong = {"matrix": [[1, 0], [0, 1]], "conjugators": v.witness["conjugators"]}
    assert not verify_abelian_witness(g, s, t, wrong)


def unimodular_box(bound):
    mats = []
    span = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(span, repeat=4):
        if abs(a * d - b * c) == 1:
            mats.append(((a, b), (c, d)))
    return mats


def brute_force_abelian(g, s, t, mats):
    fr = g.free_rank
    factors = g.invariant_factors
    tor = len(factors)
    shears = list(itertools.product(*[range(factors[j]) for j in range(tor)] * fr))
    torsion_maps = [()]
    if tor == 1 and factors[0] == 2:
        torsion_maps = [((1,),)]
    for u in mats:
        for shear in shears:
            for d in torsion_maps:
                ok = True
                for stup, ttup in zip(s, t):
                    for a, b in zip(stup, ttup):
                        free = tuple(
                            sum(a[i] * u[i][j] for i in range(fr)) for j in range(fr)
                        )
                        torsion = []
                        for j in range(tor):
                            val = sum(a[i] * shear[i * tor + j] for i in range(fr))
                            val += sum(a[fr + l] * d[l][j] for l in range(tor))
                            torsion.append(val)
                        if g.normal_form(free + tuple(torsion)) != g.normal_form(b):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    return True
    return False


def random_abelian_instance(rng, g, mats):
    fr = g.free_rank
    factors = g.invariant_factors
    tor = len(factors)
    width = g.rank
    k = rng.randint(1, 2)
    lengths = [rng.randint(1, 2) for _ in range(k)]
    s = []
    for n in lengths:
        s.append(tuple(tuple(rng.randint(-2, 2) for _ in range(width)) for _ in range(n)))
    if rng.random() < 0.5:
        t = []
        for n in lengths:
            t.append(
                tuple(tuple(rng.randint(-2, 2) for _ in range(width)) for _ in range(n))
            )
        return s, t
    u = rng.choice(mats)
    shear = [tuple(rng.randrange(factors[j]) for j in range(tor)) for _ in range(fr)]
    t = []
    for stup in s:
        out = []
        for a in stup:
            free = tuple(sum(a[i] * u[i][j] for i in range(fr)) for j in range(fr))
            torsion = tuple(
                (sum(a[i] * shear[i][j] for i in range(fr)) + a[fr + j])
                for j in range(tor)
            )
            out.append(g.normal_form(free + torsion))
        t.append(tuple(out))
    return s, t


def test_abelian_agrees_with_brute_force():
    rng = random.Random(23)
    oracle_mats = unimodular_box(3)
    small_mats = unimodular_box(1)
    free = AbelianModule(2)
    mixed = AbelianModule(2, (2,))
    for trial in range(200):
        g = free if trial % 2 == 0 else mixed
        s, t = random_abelian_instance(rng, g, small_mats)
        v = whitehead_abelian(g, s, t)
        expected = brute_force_abelian(g, s, t, oracle_mats)
        assert v.is_equivalent() == expected, (trial, s, t)
        if v.is_equivalent():
            assert verify_abelian_witness(g, s, t, v.witness)


# ---------------------------------------------------------------------------
# finite solver


def test_finite_identity_instance():
    table = finite_cyclic_table(3)
    one = table.project((1,))
    v = whitehead_finite(table, [(one,)], [(one,)])
    assert v.is_equivalent()
    assert v.witness["map"] == [0, 1, 2]
    assert v.witness["conjugators"] == [0]
    assert verify_finite_witness(table, [(one,)], [(one,)], v.witness)


def test_finite_cyclic_inversion():
    table = finite_cyclic_table(3)
    v = whitehead_finite(table, [(table.project((1,)),)], [(table.project((2,)),)])
    assert v.is_equivalent()
    assert verify_finite_witness(
        table, [(table.project((1,)),)], [(table.project((2,)),)], v.witness
    )


def test_finite_z3_squared_transitive():
    p = PcPresentation(["a", "b"], [3, 3])
    table = quotient_table(p, Subgroup(p, []), cap=100)
    s = [(table.project((1, 0)),)]
    t = [(table.project((0, 1)),)]
    v = whitehead_finite(table, s, t)
    assert v.is_equivalent()
    assert verify_finite_witness(table, s, t, v.witness)


def test_finite_z4_order_obstruction():
    table = finite_cyclic_table(4)
    v = whitehead_finite(table, [(table.project((1,)),)], [(table.project((2,)),)])
    assert v.is_not_equivalent()
    assert v.certificate["aut_order"] == 2
    assert v.certificate["order"] == 4


def test_finite_nonabelian_conjugacy():
    p = heisenberg()
    table = quotient_table(p, Subgroup(p, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), cap=100)
    assert table.order == 8
    ix = table.project((1, 0, 0))
    ixz = table.project((1, 0, 1))
    iz = table.project((0, 0, 1))
    v = whitehead_finite(table, [(ix,)], [(ixz,)])
    assert v.is_equivalent()
    assert verify_finite_witness(table, [(ix,)], [(ixz,)], v.witness)
    w = whitehead_finite(table, [(iz,)], [(ix,)])
    assert w.is_not_equivalent()


def test_finite_cap_guard():
    table = finite_cyclic_table(12)
    with pytest.raises(CapExceeded):
        whitehead_finite(table, [(0,)], [(0,)], cap=10)


def test_finite_witness_verifier_rejects_tampering():
    table = finite_cyclic_table(3)
    s = [(table.project((1,)),)]
    t = [(table.project((2,)),)]
    v = whitehead_finite(table, s, t)
    bad = dict(v.witness)
    bad["map"] = [0, 1, 1]
    assert not verify_finite_witness(table, s, t, bad)
    swapped = dict(v.witness)
    swapped["map"] = [0, 1, 2]
    assert not verify_finite_witness(table, s, t, swapped)


@pytest.mark.parametrize("generators", [[], [0]])
def test_finite_witness_verifier_checks_the_groups_own_generators(generators):
    # (1) vs (2) in Z/4 is not equivalent, 1 has order 4 and 2 order 2; the
    # transposition of 1 and 2 is no homomorphism, yet it respects right
    # multiplication by the empty or non-generating list the witness carries
    table = finite_cyclic_table(4)
    s, t = [(table.project((1,)),)], [(table.project((2,)),)]
    assert whitehead_finite(table, s, t).is_not_equivalent()
    forged = {"map": [0, 2, 1, 3], "generators": generators, "generator_images": [],
              "conjugators": [0]}
    assert not verify_finite_witness(table, s, t, forged)


def test_witness_verifiers_need_one_valid_conjugator_per_tuple():
    # an automorphism with no conjugators would pass the tuple check unread
    table = finite_cyclic_table(4)
    s, t = [(table.project((1,)),)], [(table.project((2,)),)]
    inversion = [table.invert(x) for x in range(table.order)]
    assert not verify_finite_witness(table, s, t, {"map": inversion, "conjugators": []})
    for c in (4, -1, "0"):
        assert not verify_finite_witness(table, s, s, {"map": [0, 1, 2, 3], "conjugators": [c]})
    p = heisenberg()
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    witness = {"generator_images": identity, "conjugators": []}
    assert not verify_nilpotent_witness(p, [((1, 0, 0),)], [((0, 1, 0),)], witness)


# ---------------------------------------------------------------------------
# nilpotent solver


def test_refutation_exponent_family():
    assert refutation_exponents(10) == [2, 3, 4, 6, 8, 9, 12, 16, 18, 24]


def test_nilpotent_identity_fast_path():
    p = heisenberg()
    s = [((1, 0, 0), (0, 1, 0))]
    v = whitehead_nilpotent(p, s, s)
    assert v.is_equivalent()
    assert v.witness["generator_images"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert v.witness["conjugators"] == [[0, 0, 0]]


def test_nilpotent_conjugate_generators_witness():
    p = heisenberg()
    s = [((1, 0, 0),)]
    t = [((1, 0, 1),)]
    v = whitehead_nilpotent(p, s, t)
    assert v.is_equivalent()
    assert v.witness == {
        "generator_images": [[1, 0, -1], [-1, -1, -1], [0, 0, -1]],
        "conjugators": [[0, -2, 0]],
    }
    assert verify_nilpotent_witness(p, s, t, v.witness)


def test_nilpotent_multi_tuple_witness():
    p = heisenberg()
    s = [((1, 0, 0),), ((0, 1, 0),)]
    t = [((1, 0, 1),), ((0, 1, 0),)]
    v = whitehead_nilpotent(p, s, t)
    assert v.is_equivalent()
    assert v.witness == {
        "generator_images": [[1, 0, -1], [0, 1, -1], [0, 0, 1]],
        "conjugators": [[0, -2, 0], [1, 0, 0]],
    }
    assert verify_nilpotent_witness(p, s, t, v.witness)


def test_nilpotent_central_power_refuted():
    p = heisenberg()
    s = [((0, 0, 1),)]
    t = [((0, 0, 2),)]
    v = whitehead_nilpotent(p, s, t)
    assert v.is_not_equivalent()
    cert = v.certificate
    assert cert["kind"] == "quotient_refutation"
    assert cert["exponent"] == 4
    assert cert["quotient_order"] == 32
    assert cert["kernel_generators"] == [[4, 0, 0], [0, 4, 0], [0, 0, 2]]
    assert cert["aut_order"] == 384
    assert verify_quotient_refutation(p, s, t, cert)


def test_nilpotent_unknown_with_report():
    p = heisenberg()
    s = [((0, 0, 5),)]
    t = [((0, 0, 1),)]
    v = whitehead_nilpotent(p, s, t, budget=1)
    assert v.is_unknown()
    report = v.report
    assert report["budget"] == 1
    assert report["witness_boxes_swept"] == [1]
    outcomes = [(q["exponent"], q["outcome"]) for q in report["quotients"]]
    assert outcomes == [
        (2, "images equivalent in the quotient"),
        (3, "images equivalent in the quotient"),
    ]


def test_nilpotent_determinism():
    p = heisenberg()
    s = [((1, 0, 0),)]
    t = [((1, 0, 1),)]
    first = whitehead_nilpotent(p, s, t)
    second = whitehead_nilpotent(p, s, t)
    assert first.witness == second.witness


def test_nilpotent_witness_verifier_rejects_tampering():
    p = heisenberg()
    s = [((1, 0, 0),)]
    t = [((1, 0, 1),)]
    v = whitehead_nilpotent(p, s, t)
    bad = dict(v.witness)
    bad["conjugators"] = [[0, 0, 0]]
    assert not verify_nilpotent_witness(p, s, t, bad)
    broken = dict(v.witness)
    broken["generator_images"] = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert not verify_nilpotent_witness(p, s, t, broken)


def test_quotient_refutation_verifier_rejects_tampering():
    p = heisenberg()
    s = [((0, 0, 1),)]
    t = [((0, 0, 2),)]
    v = whitehead_nilpotent(p, s, t)
    cert = dict(v.certificate)
    cert["exponent"] = 3
    assert not verify_quotient_refutation(p, s, t, cert)


# ---------------------------------------------------------------------------
# the finite solver against brute-force orbit membership


def test_regular_representation_is_homomorphism():
    p = heisenberg()
    table = quotient_table(p, Subgroup(p, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), cap=100)
    rho = regular_representation(table)
    rng = random.Random(7)
    for _ in range(10):
        a = rng.randrange(table.order)
        b = rng.randrange(table.order)
        assert rho[a] * rho[b] == rho[table.multiply(a, b)]


def test_orbit_and_abstract_solvers_agree():
    p = heisenberg()
    table = quotient_table(p, Subgroup(p, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), cap=100)
    rng = random.Random(19)
    equivalent_count = 0
    for _ in range(50):
        k = rng.randint(1, 2)
        lengths = [rng.randint(1, 2) for _ in range(k)]
        s = [tuple(rng.randrange(table.order) for _ in range(n)) for n in lengths]
        t = [tuple(rng.randrange(table.order) for _ in range(n)) for n in lengths]
        verdict = whitehead_finite(table, s, t)
        matched, element = orbit_matches_finite(table, s, t)
        assert verdict.is_equivalent() == matched
        if matched:
            equivalent_count += 1
            assert element is not None
    assert equivalent_count == 4


def test_nilpotent_witness_verifier_checks_commuting_pairs():
    # H3 x Z: w -> x w, fixing x, y, z, respects y^x = y z, the only listed
    # conjugation relation, and is onto, but breaks w^y = w
    from nilcert.nilgroup import GroupHom
    from nilcert.outsep import OuterAutoClass

    p = PcPresentation(["x", "y", "z", "w"], [None] * 4, conj={(0, 1): (0, 1, 1, 0)})
    images = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
    witness = {"generator_images": images, "conjugators": [[0, 0, 0, 0]]}
    assert not verify_nilpotent_witness(p, [((0, 0, 0, 1),)], [((1, 0, 0, 1),)], witness)
    with pytest.raises(ValueError, match="relation violated: w\\^y = w"):
        GroupHom(p, p, images)
    with pytest.raises(ValueError, match="not an automorphism"):
        OuterAutoClass(GroupHom(p, p, images, check=False), check=True)


def test_nilpotent_non_unit_diagonal_witness():
    # M = Z x| Z/4 with b^a = b^3: a -> a b, b -> b maps (a) to (a b)
    p = PcPresentation(["a", "b"], [None, 4], conj={(0, 1): (0, 3)})
    s, t = [((1, 0),)], [((1, 1),)]
    v = whitehead_nilpotent(p, s, t, budget=1)
    assert v.is_equivalent()
    assert v.witness == {"generator_images": [[1, 1], [0, 1]], "conjugators": [[0, 0]]}
    assert verify_nilpotent_witness(p, s, t, v.witness)


# ---------------------------------------------------------------------------
# the conjugator lookup and the sweep pruned in the abelianization


def test_least_conjugators_match_the_conjugator_scan():
    """One lookup in the conjugates of a T tuple gives the least conjugator
    that a scan over the whole group finds, or None with it."""
    rng = random.Random(15)
    p = heisenberg()
    for kernel in ([(3, 0, 0), (0, 3, 0), (0, 0, 3)], [(2, 0, 0), (0, 4, 0), (0, 0, 2)]):
        table = quotient_table(p, Subgroup(p, kernel, normal_closure=True))
        automorphisms = list(isomorphisms(table, table, [range(table.order)] * 3))
        for _ in range(40):
            n = rng.randint(1, 3)
            ttup = tuple(rng.randrange(table.order) for _ in range(n))
            orbit = least_conjugators(table, ttup)
            for phi in rng.sample(automorphisms, 5):
                stup = tuple(rng.randrange(table.order) for _ in range(n))
                into_orbit = rng.random() < 0.5
                if into_orbit:
                    inv = {y: x for x, y in enumerate(phi)}
                    c = rng.randrange(table.order)
                    stup = tuple(inv[table.conjugate(b, c)] for b in ttup)
                got = orbit.get(tuple(phi[a] for a in stup))
                assert got == conjugator_by_scan(table, stup, ttup, phi)
                assert got is not None or not into_orbit


def _random_instance(rng, p):
    """S of one or two tuples of random elements and T = sigma(S)
    conjugated tuple by tuple, sigma a random automorphism from box 1;
    a third of the time one entry of T is replaced by a random element."""
    sigma = rng.choice(list(isomorphisms(p, p, [_box_elements(p, 1)] * p.n)))
    h = GroupHom(p, p, sigma, check=False)
    s, t = [], []
    for _ in range(rng.randint(1, 2)):
        tup = [p.random_element(rng, 2) for _ in range(rng.randint(1, 2))]
        g = p.random_element(rng, 2)
        s.append(tuple(tup))
        t.append(tuple(p.conjugate(h.apply(x), p.invert(g)) for x in tup))
    if rng.random() < 0.33:
        t[0] = (p.random_element(rng, 2),) + t[0][1:]
    return tuple_system(p, s), tuple_system(p, t)


@pytest.mark.parametrize("budget", [1, 2])
def test_pruned_sweep_finds_the_unpruned_first_witness(budget):
    """The box sweep pruned by sigma(s) = t modulo [G, G] returns the same
    first witness (or none) as the sweep without it."""
    rng = random.Random(1311 + budget)
    groups = [
        heisenberg(),
        PcPresentation(["x", "y", "z"], [None, None, 2], conj={(0, 1): (0, 1, 1)}),
        PcPresentation(["a", "b"], [None, 4], conj={(0, 1): (0, 3)}),
        PcPresentation(["a", "b"], [None, None]),
    ]
    # the unpruned sweep over H3's box 2 takes seconds, so once only there
    counts = [6, 6, 6, 6] if budget == 1 else [1, 3, 3, 3]
    outcomes = []
    for p, count in zip(groups, counts):
        for _ in range(count):
            s, t = _random_instance(rng, p)
            pruned = _witness_search(p, s, t, budget)
            assert pruned == unpruned_witness_search(p, s.tuples, t.tuples, budget)
            outcomes.append(pruned is not None)
    assert any(outcomes) and not all(outcomes)


def test_nilpotent_h5_a_vs_az_witness():
    """H5 (a) vs (a z) at budget 1: the sweep pruned in H5^ab answers with
    the first witness of the box-1 sweep instead of running for minutes."""
    p = PcPresentation(
        ["a", "b", "c", "d", "z"], [None] * 5,
        conj={(0, 1): (0, 1, 0, 0, 1), (2, 3): (0, 0, 0, 1, 1)},
    )
    s, t = [((1, 0, 0, 0, 0),)], [((1, 0, 0, 0, 1),)]
    v = whitehead_nilpotent(p, s, t, budget=1)
    assert v.is_equivalent()
    assert v.witness == {
        "generator_images": [
            [1, 0, 0, 0, -1], [-1, -1, -1, -1, -1], [-1, 0, 0, -1, -1],
            [0, 0, -1, -1, -1], [0, 0, 0, 0, -1],
        ],
        "conjugators": [[0, 2, 0, 0, 0]],
    }
    assert verify_nilpotent_witness(p, s, t, v.witness)
