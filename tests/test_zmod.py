import random

import pytest

from nilcert.zmod import (
    AbelianModule,
    AdaptedQuotient,
    IndexInfinite,
    IntMatrix,
    Submodule,
    coset_representatives,
    hnf,
    hom_module,
    inverse_unimodular,
    isolator,
    saturation_basis,
    snf,
    solve_integer,
    xgcd,
)

from oracles import brute_force_hom_count


def random_matrix(rng, m, n, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def random_unimodular(rng, n, steps=12):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return IntMatrix(u)


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_worked_example():
    a = IntMatrix([[2, 4], [6, 8]])
    h, u = hnf(a)
    assert h == IntMatrix([[2, 0], [0, 4]])
    assert u * a == h
    assert abs(u.det()) == 1


def test_hnf_random_properties():
    rng = random.Random(41)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        h, u = hnf(a)
        assert u * a == h
        assert abs(u.det()) == 1
        # echelon shape with positive pivots and reduced columns
        leads = []
        for row in h.entries:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            leads.append(nz[0])
            assert row[nz[0]] > 0
        assert leads == sorted(leads) and len(set(leads)) == len(leads)
        for r, row in enumerate(h.entries):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            piv = row[nz[0]]
            for r2 in range(r):
                assert 0 <= h[r2, nz[0]] < piv
        # idempotence: HNF of h is h
        h2, _ = hnf(h)
        assert h2 == h


def test_snf_worked_example():
    a = IntMatrix([[2, 4], [6, 8]])
    d, u, v = snf(a)
    assert d == IntMatrix([[2, 0], [0, 4]])
    assert u * a * v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_snf_random_properties():
    rng = random.Random(42)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        d, u, v = snf(a)
        assert u * a * v == d
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d[i, i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i, j] == 0
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_snf_diagonal_invariant_under_unimodular():
    # the diagonal is an invariant of the lattice, not of the presentation
    rng = random.Random(43)
    for a in [IntMatrix([[2, 4], [6, 8]]), IntMatrix([[1, 2, 3], [4, 5, 6]])]:
        d0, _, _ = snf(a)
        base = [d0[i, i] for i in range(min(a.rows, a.cols))]
        for _ in range(100):
            p = random_unimodular(rng, a.rows)
            q = random_unimodular(rng, a.cols)
            d1, _, _ = snf(p * a * q)
            assert [d1[i, i] for i in range(min(a.rows, a.cols))] == base


def test_solve_integer_worked_example():
    a = IntMatrix([[2, 4], [6, 8]])
    x, kernel = solve_integer(a, (2, 10))
    assert x is not None
    assert a.apply_row(x) != (2, 10)  # row convention check: apply_row is x*a
    assert tuple(sum(a[i, j] * x[j] for j in range(2)) for i in range(2)) == (2, 10)
    assert kernel == []
    x2, _ = solve_integer(a, (1, 0))
    assert x2 is None


def test_solve_integer_kernel():
    a = IntMatrix([[1, 1]])
    x, kernel = solve_integer(a, (0,))
    assert x == (0, 0)
    assert len(kernel) == 1
    k = kernel[0]
    assert k[0] + k[1] == 0 and abs(k[0]) == 1


def test_solve_integer_random():
    rng = random.Random(44)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n, 6)
        xtrue = tuple(rng.randint(-5, 5) for _ in range(n))
        b = tuple(sum(a[i, j] * xtrue[j] for j in range(n)) for i in range(m))
        x, kernel = solve_integer(a, b)
        assert x is not None
        assert tuple(sum(a[i, j] * x[j] for j in range(n)) for i in range(m)) == b
        for k in kernel:
            assert all(sum(a[i, j] * k[j] for j in range(n)) == 0 for i in range(m))


def test_inverse_unimodular():
    rng = random.Random(45)
    for _ in range(30):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        ui = inverse_unimodular(u)
        assert u * ui == IntMatrix.identity(n)
        assert ui * u == IntMatrix.identity(n)


def test_saturation_basis():
    sat = saturation_basis([(2, 0), (0, 2)], 2)
    assert Submodule(AbelianModule(2), sat) == Submodule(AbelianModule(2), [(1, 0), (0, 1)])
    sat2 = saturation_basis([(2, 4)], 2)
    assert Submodule(AbelianModule(2), sat2) == Submodule(AbelianModule(2), [(1, 2)])


def test_module_arithmetic():
    m = AbelianModule(1, (2, 6))
    assert m.rank == 3
    assert m.normal_form((3, 5, -1)) == (3, 1, 5)
    assert m.multiply((1, 1, 5), (1, 1, 1)) == (2, 0, 0)
    assert m.element_order((0, 1, 3)) == 2
    assert m.element_order((0, 1, 1)) == 6
    assert m.element_order((1, 0, 0)) == 0
    with pytest.raises(ValueError):
        AbelianModule(0, (4, 6))  # not a chain


def test_submodule_membership_and_index():
    z2 = AbelianModule(2)
    s = Submodule(z2, [(2, 0), (0, 2)])
    assert s.contains((4, 2))
    assert not s.contains((1, 0))
    assert s.index_in_ambient() == 4
    free = Submodule(z2, [(1, 0)])
    with pytest.raises(IndexInfinite):
        free.index_in_ambient()


def test_isolator_examples():
    z2 = AbelianModule(2)
    # saturation: index-4 sublattice 2Z^2 has isolator Z^2
    assert isolator(Submodule(z2, [(2, 0), (0, 2)])) == Submodule(z2, [(1, 0), (0, 1)])
    # rank-deficient: span{(2,4)} isolates to span{(1,2)}
    assert isolator(Submodule(z2, [(2, 4)])) == Submodule(z2, [(1, 2)])
    # with ambient torsion the whole torsion subgroup joins the isolator
    m = AbelianModule(1, (4,))
    s = Submodule(m, [(3, 0)])
    iso = isolator(s)
    assert iso.contains((1, 0)) and iso.contains((0, 1))


def test_coset_representatives_examples():
    z2 = AbelianModule(2)
    reps = coset_representatives(Submodule(z2, [(2, 0), (0, 2)]), Submodule(z2, [(1, 0), (0, 1)]))
    assert reps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    reps2 = coset_representatives(Submodule(z2, [(2, 0), (0, 4)]), Submodule(z2, [(1, 0), (0, 1)]))
    assert len(reps2) == 8
    assert len(set(reps2)) == 8
    # pairwise incongruent
    sub = Submodule(z2, [(2, 0), (0, 4)])
    for i, a in enumerate(reps2):
        for b in reps2[i + 1 :]:
            assert not sub.contains((a[0] - b[0], a[1] - b[1]))


def test_coset_representatives_with_torsion_ambient():
    m = AbelianModule(1, (2,))
    sub = Submodule(m, [(2, 0)])  # contains torsion relation row automatically
    sup = Submodule(m, [(1, 0), (0, 1)])
    reps = coset_representatives(sub, sup)
    assert len(reps) == 4


def test_adapted_quotient_roundtrip():
    q = AdaptedQuotient(2, [(2, 0), (0, 3)])
    assert q.module == AbelianModule(0, (6,)) or q.module.invariant_factors in ((2, 3), (6,))
    # coords are well defined on coset representatives
    for x in [(0, 0), (1, 1), (5, 4), (-3, 2)]:
        c = q.coords(x)
        y = q.lift(c)
        assert q.coords(y) == c
    # relation rows map to zero
    assert q.coords((2, 0)) == q.module.identity()
    assert q.coords((0, 3)) == q.module.identity()


def test_hom_module_cyclic_example():
    # Hom(Z/4, Z/2) = Z/2
    hm = hom_module(AbelianModule(0, (4,)), AbelianModule(0, (2,)))
    assert hm.module == AbelianModule(0, (2,))
    assert len(hm.basis) == 1
    m = hm.basis[0]
    assert m == ((1,),)
    # coordinates round-trip
    assert hm.coords(hm.matrix((1,))) == (1,)
    assert hm.coords(hm.matrix((0,))) == (0,)


def test_hom_module_mixed():
    # Hom(Z + Z/2, Z/4): free part contributes Z/4, torsion Z/2 -> gcd 2
    hm = hom_module(AbelianModule(1, (2,)), AbelianModule(0, (4,)))
    assert hm.module.free_rank == 0
    assert hm.module.order() == 8
    # invalid matrix rejected: torsion generator cannot map to an order-4 element
    with pytest.raises(ValueError):
        hm.coords(((0,), (1,)))


def test_hom_module_counts_match_brute_force():
    rng = random.Random(46)
    cases = [
        (AbelianModule(0, (4,)), AbelianModule(0, (2,))),
        (AbelianModule(0, (2, 4)), AbelianModule(0, (8,))),
        (AbelianModule(0, (2, 2)), AbelianModule(0, (2, 4))),
        (AbelianModule(0, (3,)), AbelianModule(0, (9,))),
        (AbelianModule(0, (6,)), AbelianModule(0, (4,))),
        (AbelianModule(0, (2, 6)), AbelianModule(0, (2,))),
    ]
    for a, c in cases:
        if a.order() > 64 or c.order() > 64:
            continue
        hm = hom_module(a, c)
        assert hm.module.order() == brute_force_hom_count(a, c)
        # every coordinate gives a valid matrix and round-trips uniquely
        seen = set()
        for coords in hm.module.elements():
            m = hm.matrix(coords)
            assert hm.coords(m) == coords
            seen.add(m)
        assert len(seen) == hm.module.order()


def test_hom_module_free_part():
    hm = hom_module(AbelianModule(2), AbelianModule(1))
    assert hm.module == AbelianModule(2)
    # application is matrix action
    f = hm.matrix((3, -1))
    assert hm.apply((3, -1), (1, 1)) == (2,)
    assert f == ((3,), (-1,))


def test_hom_apply_is_additive():
    rng = random.Random(47)
    a = AbelianModule(1, (4,))
    c = AbelianModule(1, (2,))
    hm = hom_module(a, c)
    for _ in range(50):
        coords = tuple(rng.randint(-5, 5) for _ in range(hm.module.rank))
        coords = hm.module.normal_form(coords)
        x = a.normal_form((rng.randint(-4, 4), rng.randint(0, 3)))
        y = a.normal_form((rng.randint(-4, 4), rng.randint(0, 3)))
        assert hm.apply(coords, a.multiply(x, y)) == c.multiply(hm.apply(coords, x), hm.apply(coords, y))
