"""Mixed Whitehead problem solvers.

An instance is a pair of tuple systems (S_1, ..., S_k), (T_1, ..., T_k)
over one parent group; it is equivalent when some automorphism sigma and
conjugators g_1, ..., g_k satisfy sigma(S_i) = T_i^{g_i} for every i.

Three solvers are provided.  The abelian one is complete: conjugation
is trivial there, and existence of a witness reduces to exact integer
lattice conditions on the free part plus an exhaustive automorphism
search on the (capped) torsion part.  The finite one is complete by
brute force over all automorphisms and conjugators.  The general
finitely generated nilpotent one is an honest budgeted semi-decision
that interleaves a lexicographic witness sweep with refutation in a
family of verbal-power quotients; it can return Unknown.
``solve_whitehead`` and ``verify_whitehead_witness`` pick the solver and
the witness verifier for the kind of the parent group.
"""

import itertools
import json

from .zmod import (
    AbelianModule,
    CapExceeded,
    IntMatrix,
    hnf,
    inverse_unimodular,
    saturation_basis,
    snf,
    solve_integer,
)
from .nilgroup import (
    FiniteGroupTable,
    GroupHom,
    PcPresentation,
    isomorphisms,
    quotient_table,
    serialize_element,
    simultaneous_conjugator,
    verbal_power_subgroup,
)

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNKNOWN = "unknown"


class Verdict:
    """Outcome of a mixed Whitehead instance.

    kind is "equivalent" (with a witness: automorphism data plus one
    conjugator per tuple), "not_equivalent" (with an independently
    re-verifiable certificate) or "unknown" (with a budget report).
    """

    def __init__(self, kind, witness=None, certificate=None, report=None):
        if kind not in (EQUIVALENT, NOT_EQUIVALENT, UNKNOWN):
            raise ValueError(f"unknown verdict kind {kind!r}")
        if kind == EQUIVALENT and witness is None:
            raise ValueError("equivalent verdict needs a witness")
        if kind == NOT_EQUIVALENT and certificate is None:
            raise ValueError("not_equivalent verdict needs a certificate")
        self.kind = kind
        self.witness = witness
        self.certificate = certificate
        self.report = report

    def is_equivalent(self):
        return self.kind == EQUIVALENT

    def is_not_equivalent(self):
        return self.kind == NOT_EQUIVALENT

    def is_unknown(self):
        return self.kind == UNKNOWN

    def as_dict(self):
        out = {"kind": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.report is not None:
            out["report"] = self.report
        return out

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def __repr__(self):
        return f"Verdict({self.kind})"


class TupleSystem:
    """Tuples of tuples of elements of one parent group.

    The parent is any group with the interface described in the
    ``nilgroup`` module docstring: an AbelianModule (elements are
    coordinate rows), a PcPresentation (exponent vectors) or a
    FiniteGroupTable (element indices).  Entries are normalized on
    construction by the parent's ``normal_form``.
    """

    def __init__(self, parent, tuples):
        self.parent = parent
        self.tuples = tuple(
            tuple(parent.normal_form(x) for x in tup) for tup in tuples
        )

    @property
    def lengths(self):
        return tuple(len(t) for t in self.tuples)

    def __eq__(self, other):
        return (
            isinstance(other, TupleSystem)
            and self.parent is other.parent
            and self.tuples == other.tuples
        )

    def __repr__(self):
        return f"TupleSystem(k={len(self.tuples)}, lengths={self.lengths})"

    def as_dict(self):
        return {"tuples": [[serialize_element(x) for x in t] for t in self.tuples]}


def tuple_system(parent, data) -> TupleSystem:
    """Coerce raw tuple-of-tuples data (or pass through a TupleSystem)."""
    if isinstance(data, TupleSystem):
        if data.parent is not parent:
            raise ValueError("tuple system belongs to a different parent")
        return data
    return TupleSystem(parent, data)


def _check_shapes(s: TupleSystem, t: TupleSystem):
    if s.lengths != t.lengths:
        raise ValueError(
            f"tuple system shapes differ: {s.lengths} vs {t.lengths}"
        )


# ---------------------------------------------------------------------------
# abelian case: complete decision


def _row_lattice_hnf(rows, width):
    if not rows:
        return ()
    h, _u = hnf(IntMatrix(rows, cols=width))
    return tuple(r for r in h.entries if any(r))


def _block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = []
    for r in a.entries:
        rows.append(tuple(r) + (0,) * b.cols)
    for r in b.entries:
        rows.append((0,) * a.cols + tuple(r))
    return IntMatrix(rows, cols=a.cols + b.cols)


def _free_transport(xs, ys, n):
    """Unimodular U with row_i * U = y_i for all i, or a refutation.

    Returns (U, None) or (None, certificate).  U exists iff the integer
    left kernels of the two row stacks agree as lattices and the unique
    rational map between the row spans carries the saturation of the
    first span onto that of the second integrally in both directions;
    the witness extends that map by a complementary basis.
    """
    if n == 0:
        return IntMatrix.zeros(0, 0), None
    m = len(xs)
    a = IntMatrix(xs, cols=n)
    b = IntMatrix(ys, cols=n)
    _x, ker_a = solve_integer(a.transpose(), (0,) * n)
    _x, ker_b = solve_integer(b.transpose(), (0,) * n)
    lat_a = _row_lattice_hnf(ker_a, m)
    lat_b = _row_lattice_hnf(ker_b, m)
    if lat_a != lat_b:
        return None, {
            "reason": "integer relation lattices of the two sides differ",
            "relations_a": [list(r) for r in lat_a],
            "relations_b": [list(r) for r in lat_b],
        }
    sat_a = saturation_basis(list(xs), n)
    sat_b = saturation_basis(list(ys), n)
    if len(sat_a) != len(sat_b):
        raise RuntimeError("equal relation lattices but unequal ranks")
    r = len(sat_a)
    if r == 0:
        return IntMatrix.identity(n), None
    d_a, _u, v_a = snf(IntMatrix(sat_a, cols=n))
    d_b, _u, v_b = snf(IntMatrix(sat_b, cols=n))
    for i in range(r):
        if d_a[i, i] != 1 or d_b[i, i] != 1:
            raise RuntimeError("saturation basis is not primitive")
    # adapted basis: the first r rows of inverse(v) span the saturation,
    # and right-multiplying by v reads off coordinates in that basis
    coords_a = a * v_a
    coords_b = b * v_b
    for mat in (coords_a, coords_b):
        for row in mat.entries:
            if any(row[r:]):
                raise RuntimeError("row escapes its own saturation")
    m_alpha = IntMatrix([row[:r] for row in coords_a.entries], cols=r)
    m_beta = IntMatrix([row[:r] for row in coords_b.entries], cols=r)
    cols = []
    for j in range(r):
        sol, _k = solve_integer(m_alpha, m_beta.col(j))
        if sol is None:
            return None, {
                "reason": "forced transport between the saturations is not integral",
                "coords_a": [list(x) for x in m_alpha.entries],
                "coords_b": [list(x) for x in m_beta.entries],
            }
        cols.append(sol)
    f = IntMatrix([[cols[j][i] for j in range(r)] for i in range(r)])
    if abs(f.det()) != 1:
        return None, {
            "reason": "forced transport between the saturations is not invertible over Z",
            "transport": [list(x) for x in f.entries],
        }
    e_b = inverse_unimodular(v_b)
    u = v_a * _block_diag(f, IntMatrix.identity(n - r)) * e_b
    if a * u != b or abs(u.det()) != 1:
        raise RuntimeError("free witness assembly failed")
    return u, None


def _torsion_automorphisms(factors, cap):
    """All automorphisms of Z/n_1 + ... + Z/n_t, as integer matrices with
    row j the image of the j-th generator, in lexicographic order."""
    tm = AbelianModule(0, factors)
    order = tm.order()
    if order > cap:
        raise CapExceeded(f"torsion component order {order} exceeds cap {cap}")
    t = len(factors)
    elems = list(itertools.product(*[range(f) for f in factors]))
    cands = [
        [e for e in elems if tm.normal_form(tuple(f * c for c in e)) == (0,) * t]
        for f in factors
    ]
    pc = PcPresentation([f"t{j}" for j in range(t)], factors)
    for rows in isomorphisms(pc, pc, cands):
        yield IntMatrix(rows, cols=t)


def _solve_shear(xs_free, targets, factors):
    """Integer matrix C (free rank x torsion rank) with
    x_i * C = targets_i modulo the slot factors, or None."""
    fr = len(xs_free[0]) if xs_free else 0
    m = len(xs_free)
    t = len(factors)
    cols = []
    for l in range(t):
        rows = []
        for i in range(m):
            rows.append(
                tuple(xs_free[i])
                + tuple(factors[l] if j == i else 0 for j in range(m))
            )
        sys_mat = IntMatrix(rows, cols=fr + m)
        rhs = tuple(targets[i][l] for i in range(m))
        sol, _k = solve_integer(sys_mat, rhs)
        if sol is None:
            return None
        cols.append(sol[:fr])
    return IntMatrix(
        [[cols[l][i] for l in range(t)] for i in range(fr)], cols=t
    )


def _module_matrix_apply(g: AbelianModule, w: IntMatrix, x):
    return g.normal_form(w.apply_row(tuple(x)))


def _is_module_automorphism(g: AbelianModule, w: IntMatrix) -> bool:
    fr = g.free_rank
    t = len(g.invariant_factors)
    if w.rows != g.rank or w.cols != g.rank:
        return False
    free_block = IntMatrix([row[:fr] for row in w.entries[:fr]], cols=fr)
    if fr and abs(free_block.det()) != 1:
        return False
    # torsion generators must land in the torsion part with compatible order
    for j, f in enumerate(g.invariant_factors):
        row = w.entries[fr + j]
        if any(row[:fr]):
            return False
        if g.normal_form(tuple(f * c for c in row)) != (0,) * g.rank:
            return False
    if t:
        tm = AbelianModule(0, g.invariant_factors)
        d_rows = [row[fr:] for row in w.entries[fr:]]
        seen = set()
        for y in itertools.product(*[range(f) for f in g.invariant_factors]):
            acc = [0] * t
            for yj, row in zip(y, d_rows):
                for i in range(t):
                    acc[i] += yj * row[i]
            seen.add(tm.normal_form(acc))
        if len(seen) != tm.order():
            return False
    return True


def whitehead_abelian(g: AbelianModule, s, t, torsion_cap=4096) -> Verdict:
    """Complete decision over a finitely generated abelian group.

    Conjugation is trivial, so the instance concatenates to a single
    requirement sigma(a_i) = b_i.  The free part is decided by exact
    lattice conditions; the torsion part by exhaustive automorphism
    search (torsion order capped), with the mixed block solved as a
    system of linear congruences.  Never returns Unknown.
    """
    s = tuple_system(g, s)
    t = tuple_system(g, t)
    _check_shapes(s, t)
    a_rows = [x for tup in s.tuples for x in tup]
    b_rows = [x for tup in t.tuples for x in tup]
    k = len(s.tuples)
    fr = g.free_rank
    factors = g.invariant_factors
    tn = len(factors)
    zero_conj = [[0] * g.rank for _ in range(k)]
    if not a_rows:
        ident = IntMatrix.identity(g.rank)
        return Verdict(
            EQUIVALENT,
            witness={
                "matrix": [list(r) for r in ident.entries],
                "conjugators": zero_conj,
            },
        )
    xs = [row[:fr] for row in a_rows]
    ys = [row[fr:] for row in a_rows]
    us = [row[:fr] for row in b_rows]
    vs = [row[fr:] for row in b_rows]
    u_mat, cert = _free_transport(xs, us, fr)
    if u_mat is None:
        cert["part"] = "free"
        return Verdict(NOT_EQUIVALENT, certificate=cert)
    if tn:
        tm = AbelianModule(0, factors)
        found = None
        tried = 0
        for d_mat in _torsion_automorphisms(factors, torsion_cap):
            tried += 1
            targets = [
                tm.normal_form(
                    tuple(
                        vs[i][l] - sum(ys[i][j] * d_mat[j, l] for j in range(tn))
                        for l in range(tn)
                    )
                )
                for i in range(len(a_rows))
            ]
            c_mat = _solve_shear(xs, targets, factors)
            if c_mat is not None:
                found = (d_mat, c_mat)
                break
        if found is None:
            return Verdict(
                NOT_EQUIVALENT,
                certificate={
                    "part": "torsion",
                    "reason": "no torsion automorphism is compatible with the instance",
                    "torsion_automorphisms_tried": tried,
                },
            )
        d_mat, c_mat = found
        rows = []
        for i in range(fr):
            rows.append(tuple(u_mat.entries[i]) + tuple(c_mat.entries[i]))
        for j in range(tn):
            rows.append((0,) * fr + tuple(d_mat.entries[j]))
        w = IntMatrix(rows, cols=g.rank)
    else:
        w = u_mat
    for a, b in zip(a_rows, b_rows):
        if _module_matrix_apply(g, w, a) != g.normal_form(b):
            raise RuntimeError("abelian witness fails its own re-verification")
    return Verdict(
        EQUIVALENT,
        witness={
            "matrix": [list(r) for r in w.entries],
            "conjugators": zero_conj,
        },
    )


def verify_abelian_witness(g: AbelianModule, s, t, witness) -> bool:
    """Independent re-check: witness matrix is an automorphism and maps
    every entry of S onto the matching entry of T."""
    s = tuple_system(g, s)
    t = tuple_system(g, t)
    _check_shapes(s, t)
    w = IntMatrix(witness["matrix"])
    if not _is_module_automorphism(g, w):
        return False
    for stup, ttup in zip(s.tuples, t.tuples):
        for a, b in zip(stup, ttup):
            if _module_matrix_apply(g, w, a) != g.normal_form(b):
                return False
    return True


# ---------------------------------------------------------------------------
# finite case: complete brute force


def whitehead_finite(f: FiniteGroupTable, s, t, cap=4096) -> Verdict:
    """Complete decision over a finite group by brute force over all
    automorphisms; the conjugators come from one lookup per tuple in the
    conjugates of T_i, built before the sweep.  Never returns Unknown."""
    s = tuple_system(f, s)
    t = tuple_system(f, t)
    _check_shapes(s, t)
    if f.order > cap:
        raise CapExceeded(f"group order {f.order} exceeds cap {cap}")
    gens = f.generators()
    orbits = [least_conjugators(f, ttup) for ttup in t.tuples]
    aut_order = 0
    for phi in isomorphisms(f, f, [range(f.order)] * len(gens)):
        aut_order += 1
        conj = [orbit.get(tuple(phi[a] for a in stup)) for stup, orbit in zip(s.tuples, orbits)]
        if None not in conj:
            return Verdict(
                EQUIVALENT,
                witness={
                    "map": list(phi),
                    "generators": list(gens),
                    "generator_images": [phi[g] for g in gens],
                    "conjugators": conj,
                },
            )
    return Verdict(
        NOT_EQUIVALENT,
        certificate={
            "reason": "every automorphism fails on some tuple for every conjugator",
            "aut_order": aut_order,
            "order": f.order,
        },
    )


def least_conjugators(f: FiniteGroupTable, tup):
    """Every conjugate tup^c of the tuple, as a tuple, mapped to its
    least conjugator c."""
    orbit = {}
    for c in range(f.order):
        orbit.setdefault(tuple(f.conjugate(b, c) for b in tup), c)
    return orbit


def verify_finite_witness(f: FiniteGroupTable, s, t, witness) -> bool:
    """Independent re-check of a finite witness: the stored map is a
    bijection that respects right multiplication by the group's own
    generators, hence an automorphism, and carries each S_i onto T_i
    conjugated by the i-th logged element.  The witness's "generators"
    and "generator_images" are not read."""
    s = tuple_system(f, s)
    t = tuple_system(f, t)
    _check_shapes(s, t)
    phi = list(witness["map"])
    conj = list(witness["conjugators"])
    # an index is an int: true and false are not read as 1 and 0
    if any(type(x) is not int for x in phi + conj):
        return False
    if sorted(phi) != list(range(f.order)) or len(conj) != len(s.tuples):
        return False
    if any(c not in range(f.order) for c in conj):
        return False
    gens = f.generators()
    for x in range(f.order):
        for g in gens:
            if phi[f.multiply(x, g)] != f.multiply(phi[x], phi[g]):
                return False
    for stup, ttup, c in zip(s.tuples, t.tuples, conj):
        for a, b in zip(stup, ttup):
            if phi[a] != f.conjugate(b, c):
                return False
    return True


# ---------------------------------------------------------------------------
# general finitely generated nilpotent case: budgeted semi-decision


def refutation_exponents(count):
    """The first `count` members of the refutation family: exponents of
    the verbal power subgroups used for quotient refutations, ascending
    and 3-smooth (2, 3, 4, 6, 8, 9, 12, ...)."""
    vals = set()
    a = 1
    while a <= 1 << 40:
        b = a
        while b <= 1 << 40:
            if b >= 2:
                vals.add(b)
            if len(vals) > 4 * count + 64:
                break
            b *= 3
        a *= 2
    return sorted(vals)[:count]


def _box_elements(p: PcPresentation, box):
    """Normal forms with exponents in [-box, box], or in
    [0, min(m, box + 1)) at a generator of relative order m, in
    lexicographic order."""
    return list(itertools.product(*[
        range(-box, box + 1) if o is None else range(min(o, box + 1))
        for o in p.orders
    ]))


def _witness_search(p, s, t, box):
    # sigma(x) = y^g forces sigma(x) = y modulo [G, G], entry by entry
    pairs = [(x, y) for stup, ttup in zip(s.tuples, t.tuples) for x, y in zip(stup, ttup)]
    candidates = [_box_elements(p, box)] * p.n
    for images in isomorphisms(p, p, candidates, congruences=pairs):
        h = GroupHom(p, p, images, check=False)
        conj = []
        for stup, ttup in zip(s.tuples, t.tuples):
            mapped = [h.apply(x) for x in stup]
            g = simultaneous_conjugator(p, list(ttup), mapped)
            if g is None:
                break
            conj.append(g)
        else:
            return {
                "generator_images": [list(v) for v in h.images],
                "conjugators": [list(g) for g in conj],
            }
    return None


def _try_refutation(p, s, t, exponent, finite_cap, quotient_cap):
    """Project the instance into the quotient by the verbal power
    subgroup and run the complete finite solver there.  Returns a
    (record, certificate-or-None) pair; a certificate refutes soundly
    because quotient images of equivalent systems stay equivalent."""
    record = {"exponent": exponent}
    try:
        sub = verbal_power_subgroup(p, exponent, cap=quotient_cap)
    except CapExceeded:
        record["outcome"] = "skipped: power subgroup cap"
        return record, None
    if sub.is_whole_group():
        record["outcome"] = "skipped: quotient is trivial"
        return record, None
    try:
        table = quotient_table(p, sub, cap=finite_cap)
    except CapExceeded:
        record["outcome"] = "skipped: quotient order cap"
        return record, None
    record["quotient_order"] = table.order
    cert = _quotient_refutation(s, t, exponent, table, finite_cap)
    record["outcome"] = "refuted" if cert is not None else "images equivalent in the quotient"
    return record, cert


def _quotient_refutation(s, t, exponent, table, finite_cap):
    """The refutation certificate when the complete finite solver finds
    the images of s and t in the quotient table inequivalent, else None.
    Quotient elements are written as source vectors."""
    s_img = [[table.project(x) for x in tup] for tup in s.tuples]
    t_img = [[table.project(x) for x in tup] for tup in t.tuples]
    verdict = whitehead_finite(table, s_img, t_img, cap=finite_cap)
    if not verdict.is_not_equivalent():
        return None
    lift = table.qmap.lift
    return {
        "kind": "quotient_refutation",
        "exponent": exponent,
        "quotient_order": table.order,
        "kernel_generators": [list(v) for v in table.qmap.kernel.gens],
        "projected_s": [[list(lift(table.elements[i])) for i in tup] for tup in s_img],
        "projected_t": [[list(lift(table.elements[i])) for i in tup] for tup in t_img],
        "aut_order": verdict.certificate["aut_order"],
    }


def whitehead_nilpotent(p: PcPresentation, s, t, budget=2,
                        finite_cap=512, quotient_cap=10**6) -> Verdict:
    """Budgeted semi-decision over a finitely generated nilpotent group.

    Round b first attempts refutation in the quotients by the next two
    verbal power subgroups of the 3-smooth exponent family, then sweeps
    every automorphism with generator-image exponents in [-b, b] and
    solves for per-tuple conjugators by exact layered lifting.  Any
    Equivalent or NotEquivalent answer carries a re-verifiable
    certificate; Unknown reports the exhausted budget.  The sweep is
    ``nilgroup.isomorphisms`` over the box: it assigns images one
    generator at a time in lexicographic order, drops a prefix as soon
    as a relation among the assigned generators fails, and takes the
    image a relation forces (z = [y, x] in H3, say) instead of trying
    the box.  So results are deterministic, and the witness returned at
    a given budget is the least one in that order.  The sweep cost
    still grows exponentially with the budget.
    """
    s = tuple_system(p, s)
    t = tuple_system(p, t)
    _check_shapes(s, t)
    if s.tuples == t.tuples:
        identity_images = [list(p.gen(i)) for i in range(p.n)]
        return Verdict(
            EQUIVALENT,
            witness={
                "generator_images": identity_images,
                "conjugators": [[0] * p.n for _ in s.tuples],
            },
        )
    exponents = refutation_exponents(2 * budget)
    records = []
    boxes = []
    for b in range(1, budget + 1):
        for exponent in exponents[2 * (b - 1):2 * b]:
            record, cert = _try_refutation(
                p, s, t, exponent, finite_cap, quotient_cap
            )
            records.append(record)
            if cert is not None:
                return Verdict(NOT_EQUIVALENT, certificate=cert)
        boxes.append(b)
        witness = _witness_search(p, s, t, b)
        if witness is not None:
            return Verdict(EQUIVALENT, witness=witness)
    return Verdict(
        UNKNOWN,
        report={
            "budget": budget,
            "witness_boxes_swept": boxes,
            "quotients": records,
        },
    )


def verify_nilpotent_witness(p: PcPresentation, s, t, witness) -> bool:
    """Independent re-check by collection: the stored images define an
    automorphism and sigma(S_i) = T_i^{g_i} holds exactly."""
    s = tuple_system(p, s)
    t = tuple_system(p, t)
    _check_shapes(s, t)
    try:
        h = GroupHom(p, p, [tuple(v) for v in witness["generator_images"]],
                     check=True)
    except ValueError:
        return False
    if not h.is_automorphism() or len(witness["conjugators"]) != len(s.tuples):
        return False
    for stup, ttup, g in zip(s.tuples, t.tuples, witness["conjugators"]):
        g = tuple(g)
        for a, b in zip(stup, ttup):
            if h.apply(a) != p.conjugate(b, g):
                return False
    return True


def verify_quotient_refutation(p: PcPresentation, s, t, certificate,
                               finite_cap=512, quotient_cap=10**6) -> bool:
    """Independent re-check of a quotient refutation: rebuild the verbal
    power subgroup, re-project, re-run the complete finite solver, and
    compare every field of the certificate with the recomputed one."""
    s = tuple_system(p, s)
    t = tuple_system(p, t)
    _check_shapes(s, t)
    exponent = certificate["exponent"]
    sub = verbal_power_subgroup(p, exponent, cap=quotient_cap)
    table = quotient_table(p, sub, cap=finite_cap)
    return _quotient_refutation(s, t, exponent, table, finite_cap) == certificate


# ---------------------------------------------------------------------------
# one entry point for every kind of group


def solve_whitehead(group, s, t, budget=2, quotient_cap=10**6) -> Verdict:
    """Run the solver for the kind of the group: the complete abelian
    or finite one, or the budgeted nilpotent semi-decision (the only one
    that reads `budget` and `quotient_cap`)."""
    if isinstance(group, AbelianModule):
        return whitehead_abelian(group, s, t)
    if isinstance(group, FiniteGroupTable):
        return whitehead_finite(group, s, t)
    return whitehead_nilpotent(group, s, t, budget=budget, quotient_cap=quotient_cap)


def verify_whitehead_witness(group, s, t, witness) -> bool:
    """Re-check an Equivalent witness with the verifier for the kind of
    the group."""
    if isinstance(group, AbelianModule):
        return verify_abelian_witness(group, s, t, witness)
    if isinstance(group, FiniteGroupTable):
        return verify_finite_witness(group, s, t, witness)
    return verify_nilpotent_witness(group, s, t, witness)
