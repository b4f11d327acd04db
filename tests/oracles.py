"""Reference oracles that only the tests use.

Each one answers a question that the package answers by a faster or
subtler route, by brute force and independently of that route, so the
tests can compare the two.
"""

import itertools
from itertools import product as iproduct

from nilcert import whitehead
from nilcert.gogiso import Presentation
from nilcert.malcev import QMatrix, UniTriangular
from nilcert.nilgroup import (
    GroupHom,
    PcPresentation,
    QuotientMap,
    Subgroup,
    _abelian_torsion_gens,
    _element_order,
    _table_block,
    center,
    isomorphisms,
    quotient_table,
    simultaneous_conjugator,
    verbal_power_subgroup,
)
from nilcert.outsep import SurvivalCheck
from nilcert.zmod import (
    AdaptedQuotient,
    CapExceeded,
    IndexInfinite,
    IntMatrix,
    solve_integer,
    xgcd,
)


def brute_force_hom_count(a, c):
    """Count homomorphisms a -> c by enumerating all generator images
    (finite codomain; each domain generator of order o needs o*img = 0)."""
    if not c.is_finite():
        raise IndexInfinite("codomain must be finite")
    count = 1
    for i in range(a.rank):
        oi = a.slot_order(i)
        good = 0
        for img in c.elements():
            if oi == 0 or c.power(img, oi) == c.identity():
                good += 1
        count *= good
    return count


class CosetTable:
    """source / kernel on the given coset representatives, numbered in
    their order, with products and inverses collected in the source and
    reduced modulo the kernel."""

    def __init__(self, qmap, elements):
        self.source = qmap.source
        self.kernel = qmap.kernel
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self._index = {e: i for i, e in enumerate(self.elements)}

    def index_of(self, element):
        return self._index[self.kernel.reduce(element)]

    def identity(self):
        return self.index_of(self.source.identity())

    def multiply(self, i, j):
        return self.index_of(self.source.multiply(self.elements[i], self.elements[j]))

    def invert(self, i):
        return self.index_of(self.source.invert(self.elements[i]))


def source_quotient_table(qmap, cap=10**6):
    """The table of source / kernel built by collecting in the source:
    elements are the sorted canonical coset representatives, a product is
    the source product reduced modulo the kernel.  Returns the table and
    its projection from the source."""
    src = qmap.source
    ker = qmap.kernel
    piv = ker.pivots
    ranges = []
    for d in range(src.n):
        m = src.orders[d]
        h = piv.get(d)
        if h is None:
            if m is None:
                raise IndexInfinite("quotient is infinite")
            ranges.append(m)
        else:
            ranges.append(h[d])
    total = 1
    for rr in ranges:
        total *= rr
    if total > cap:
        raise CapExceeded(f"quotient order {total} exceeds cap {cap}")
    elems = [()]
    for rr in ranges:
        elems = [e + (v,) for e in elems for v in range(rr)]
    elems = sorted(set(ker.reduce(e) for e in elems))
    if len(elems) != total:
        raise RuntimeError("transversal enumeration mismatch")
    table = CosetTable(qmap, elems)
    return table, table.index_of


def verbal_power_subgroup_by_closure(p, k, cap=10**6):
    """G^k as the normal closure of the generators' k-th powers and the
    k-th power of every coset representative of that closure."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return Subgroup(p, [p.gen(i) for i in range(p.n)])
    h = Subgroup(p, [p.power(p.gen(i), k) for i in range(p.n)], normal_closure=True)
    table, _ = source_quotient_table(QuotientMap(p, h, check_normal=False), cap=cap)
    gens = list(h.gens)
    for elem in table.elements:
        gens.append(p.power(elem, k))
    return Subgroup(p, gens, normal_closure=True)


def regular_representation(table):
    """Right regular permutation matrices: row i of the g-th matrix has
    its 1 in column mult(i, g)."""
    out = []
    for g in range(table.order):
        rows = [[0] * table.order for _ in range(table.order)]
        for i in range(table.order):
            rows[i][table.multiply(i, g)] = 1
        out.append(QMatrix(rows))
    return out


def block_act(point, k, hs):
    """Right action of the block element (k; h_1..h_r) on a tuple of
    matrix tuples: every entry of the i-th tuple is conjugated by k and
    then by h_i."""
    n = k.rows
    if k.cols != n or any((h.rows, h.cols) != (n, n) for h in hs):
        raise ValueError("block dimension mismatch")
    if len(point) != len(hs):
        raise ValueError("point has wrong number of blocks")
    kinv = k.inverse()
    out = []
    for tup, h in zip(point, hs):
        hinv = h.inverse()
        moved = tuple(hinv * kinv * x * k * h for x in tup)
        if any(x.rows != n for x in moved):
            raise ValueError("point entry dimension mismatch")
        out.append(moved)
    return out


def orbit_matches_finite(table, s, t, cap=512):
    """Brute-force orbit membership for a finite instance under the
    block action, with k over automorphism permutation matrices and the
    h blocks over the regular representation.  Returns (found, element),
    the element as the pair (k, [h_1..h_r]).

    Dual to `whitehead_finite`: the two must agree on every instance.
    The action is componentwise per tuple, so the conjugator blocks are
    searched one tuple at a time; a found element is re-verified through
    the block action law before it is returned.
    """
    s = whitehead.tuple_system(table, s)
    t = whitehead.tuple_system(table, t)
    whitehead._check_shapes(s, t)
    n = table.order
    rho = regular_representation(table)
    rho_inv = [rho[table.invert(g)] for g in range(n)]
    r = len(s.tuples)
    s_point = [tuple(rho[i] for i in tup) for tup in s.tuples]
    t_point = [tuple(rho[i] for i in tup) for tup in t.tuples]
    aut = out_finite(table, cap=cap)
    for images in aut.automorphisms:
        phi = full_automorphism_map(table, aut.generators, images)
        perm = QMatrix(
            [[1 if j == phi[i] else 0 for j in range(n)] for i in range(n)]
        )
        perm_inv = perm.inverse()
        conj = []
        for i in range(r):
            turned = [perm_inv * m * perm for m in s_point[i]]
            c = None
            for cand in range(n):
                if all(
                    rho_inv[cand] * m * rho[cand] == tgt
                    for m, tgt in zip(turned, t_point[i])
                ):
                    c = cand
                    break
            if c is None:
                break
            conj.append(c)
        else:
            hs = [rho[c] for c in conj]
            if block_act(s_point, perm, hs) != list(t_point):
                raise RuntimeError("orbit element fails the block action law")
            return True, (perm, hs)
    return False, None


class OutFiniteResult:
    """Complete automorphism data of a finite group: generator indices,
    every automorphism as a tuple of generator images, inner flags, and
    the orders of Aut, Inn and Out."""

    def __init__(self, table, generators, automorphisms, inner_flags):
        self.table = table
        self.generators = generators
        self.automorphisms = automorphisms
        self.inner_flags = inner_flags
        self.aut_order = len(automorphisms)
        self.inn_order = sum(1 for f in inner_flags if f)
        self.out_order = self.aut_order // self.inn_order

    def __repr__(self):
        return (
            f"OutFiniteResult(aut={self.aut_order}, inn={self.inn_order}, "
            f"out={self.out_order})"
        )


def out_finite(table, cap=512):
    """All automorphisms of a finite group, as images of its greedy
    generators in the order ``nilgroup.isomorphisms`` yields them, with
    each automorphism flagged inner or outer."""
    n = table.order
    if n > cap:
        raise CapExceeded(f"group order {n} exceeds the cap {cap}")
    gens = table.generators()
    found = [
        tuple(phi[g] for g in gens)
        for phi in isomorphisms(table, table, [range(n)] * len(gens))
    ]
    inner_tuples = {tuple(table.conjugate(g, c) for g in gens) for c in range(n)}
    flags = [tup in inner_tuples for tup in found]
    return OutFiniteResult(table, gens, found, flags)


def table_relator_abelianization(table):
    """The abelianization of a finite group presented on its non-identity
    elements by every relator x y (xy)^-1, the whole multiplication table:
    a route to the invariants that does not use the pc presentation
    ``fundamental_presentation`` gives a table vertex."""
    index = {x: k for k, x in enumerate(x for x in range(table.order) if x != table.identity())}

    def word(x):
        return () if x == table.identity() else ((index[x], 1),)

    relators = [
        word(x) + word(y) + tuple((i, -e) for i, e in word(table.multiply(x, y)))
        for x in index
        for y in index
    ]
    return Presentation([f"e{k}" for k in index.values()], relators).abelianization()


def full_automorphism_map(table, gens, images):
    """Extend generator images to the whole group by breadth-first
    factorization; returns the image list indexed by element."""
    e = table.identity()
    phi = {e: e}
    frontier = [e]
    while frontier:
        x = frontier.pop(0)
        for gi, gidx in enumerate(gens):
            y = table.multiply(x, gidx)
            if y not in phi:
                phi[y] = table.multiply(phi[x], images[gi])
                frontier.append(y)
    if len(phi) != table.order:
        raise RuntimeError("generator set does not generate the table")
    return [phi[i] for i in range(table.order)]


def _slot_ranges(p: PcPresentation, box):
    ranges = []
    for o in p.orders:
        if o is None:
            ranges.append(range(-box, box + 1))
        else:
            ranges.append(range(0, min(o, box + 1)))
    return ranges


def box_automorphisms(p: PcPresentation, box):
    """All automorphisms whose generator images have normal-form
    exponents within the box, in lexicographic order of the
    concatenated image vectors."""
    ranges = _slot_ranges(p, box)
    image_choices = itertools.product(
        *[itertools.product(*ranges) for _ in range(p.n)]
    )
    for images in image_choices:
        try:
            h = GroupHom(p, p, list(images), check=True)
        except ValueError:
            continue
        if h.is_automorphism():
            yield h


def table_isomorphisms(t1, t2):
    """Every isomorphism between two tables as the image of every element
    of t1, by trying all images of t1's generators, in lexicographic
    order, and checking each whole map on every pair of elements."""
    gens = t1.generators()
    out = []
    for images in iproduct(range(t2.order), repeat=len(gens)):
        phi = {t1.identity(): t2.identity()}
        frontier = [t1.identity()]
        for x in frontier:
            for g, img in zip(gens, images):
                y = t1.multiply(x, g)
                if y not in phi:
                    phi[y] = t2.multiply(phi[x], img)
                    frontier.append(y)
        if len(set(phi.values())) != t2.order or len(phi) != t1.order:
            continue
        if all(
            phi[t1.multiply(a, b)] == t2.multiply(phi[a], phi[b])
            for a in range(t1.order)
            for b in range(t1.order)
        ):
            out.append(tuple(phi[x] for x in range(t1.order)))
    return out


def verify_relations_in_fractions(p, images):
    """The Mal'cev relation check in exact rational `UniTriangular`
    products and inverses: every conjugation and power relation of `p`
    must hold among the images, else RuntimeError."""
    inverses = [m.inverse() for m in images]

    def image_of(vec):
        acc = UniTriangular.identity(images[0].n)
        for idx, e in enumerate(vec):
            if e > 0:
                acc = acc * (images[idx] ** e)
            elif e < 0:
                acc = acc * (inverses[idx] ** (-e))
        return acc

    for i in range(p.n):
        for j in range(i + 1, p.n):
            lhs = inverses[i] * images[j] * images[i]
            rhs = image_of(p._conj_image(i, j))
            if lhs != rhs:
                raise RuntimeError(f"matrix images violate the conjugation relation ({i},{j})")
    for i in range(p.n):
        if p.orders[i] is not None:
            lhs = images[i] ** p.orders[i]
            rhs = image_of(p._power_tail(i))
            if lhs != rhs:
                raise RuntimeError(f"matrix images violate the power relation at {i}")


class IterativeCollector(PcPresentation):
    """The collector that conjugates by g_i^e by applying (.)^{g_i^{+-1}}
    |e| times, one generator image at a time."""

    @classmethod
    def of(cls, p):
        return cls(p.names, p.orders, p.conj, p.conj_inv, p.powers)

    def _apply_conj_map(self, i, sign, x):
        """Apply the generator-wise conjugation map (.)^{g_i^sign} to x in T_{>i}."""
        res = self.identity()
        for j in range(i + 1, self.n):
            if x[j]:
                img = self._conj_image(i, j) if sign > 0 else self._conj_inv_image(i, j)
                res = self.multiply(res, self.power(img, x[j]))
        return res

    def _conj_by_genpower(self, x, i, e):
        """x^{g_i^e} for x supported strictly beyond i."""
        if e == 0 or not any(x):
            return x
        if all((i, j) not in self.conj for j in range(i + 1, self.n)):
            return x  # g_i commutes with all later generators
        m = self.orders[i]
        if m is None:
            sign = 1 if e > 0 else -1
            for _ in range(abs(e)):
                x = self._apply_conj_map(i, sign, x)
            return x
        q, r = divmod(e, m)
        for _ in range(r):
            x = self._apply_conj_map(i, +1, x)
        if q:
            t = self.power(self._power_tail(i), q)
            x = self.conjugate(x, t)
        return x


def survives_by_table_scan(a, p0, cap=10**6):
    """Whether the class stays non-inner in the quotient by p0.

    p0 must be normal, of finite index, and preserved by the
    representative (re-checked on generators).  Innerness in the finite
    quotient is decided by a complete scan over all candidate
    conjugators, the same inner classification out_finite uses."""
    p = a.group
    if p0.parent is not p:
        raise ValueError("subgroup parent mismatch")
    rep = a.representative
    for g in p0.gens:
        if not p0.contains(rep.apply(g)):
            raise ValueError("subgroup is not preserved by the representative")
    table = quotient_table(p, p0, cap=cap)
    gen_imgs = [table.project(p.gen(k)) for k in range(p.n)]
    induced = [table.project(rep.apply(p.gen(k))) for k in range(p.n)]
    conj = None
    for c in range(table.order):
        if all(table.conjugate(g, c) == im for g, im in zip(gen_imgs, induced)):
            conj = c
            break
    lift = table.qmap.lift
    return SurvivalCheck(
        conj is None,
        table.order,
        [lift(table.elements[i]) for i in induced],
        None if conj is None else lift(table.elements[conj]),
    )


def verbal_power_subgroup_over_all_elements(p, k, cap=10**6):
    """G^k = <x^k : x in G>: the preimage of the subgroup that the k-th powers
    generate in the finite quotient G/H, H the normal closure of the
    generators' k-th powers, with the powers taken in G/H's own pc
    presentation (CapExceeded when |G/H| > cap)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return Subgroup(p, [p.gen(i) for i in range(p.n)])
    h = Subgroup(p, [p.power(p.gen(i), k) for i in range(p.n)], normal_closure=True)
    qmap = QuotientMap(p, h, check_normal=False)
    q = qmap.target
    # the k-th powers are a conjugation-invariant set, so they generate a
    # normal subgroup of G/H, and its preimage is G^k
    return qmap.preimage(Subgroup(q, [q.power(e, k) for e in qmap.elements(cap)]))


def table_closure(table, gens):
    """The elements of the subgroup of a table that gens generate, as a
    frozenset of indices: the Cayley graph walked from the identity."""
    seen = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (table.multiply(x, g), table.multiply(x, table.invert(g))):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return frozenset(seen)


def _module_map_rows(m):
    """The generator images of a map into a module, then the module's
    torsion relations."""
    return [list(im) for im in m.images] + [list(r) for r in m.codomain.relation_rows()]


def module_map_preimage(m, y):
    """A preimage of y under a GroupMap m into a module, by one integer
    solve of the image rows against y, or None."""
    mat = IntMatrix(_module_map_rows(m), cols=m.codomain.rank)
    sol, _ = solve_integer(mat.transpose(), tuple(y))
    if sol is None:
        return None
    x = m.domain.normal_form(tuple(sol[: len(m.images)]))
    return x if m.apply(x) == tuple(y) else None


def module_map_injective(m):
    """Whether a GroupMap m from an infinite abelian group (a module or an
    abelian pc group) into a module is injective: no integer relation
    among the image rows and the torsion relations gives a nontrivial
    domain element."""
    mat = IntMatrix(_module_map_rows(m), cols=m.codomain.rank)
    _, kernel = solve_integer(mat.transpose(), (0,) * m.codomain.rank)
    return not any(any(m.domain.normal_form(tuple(v[: len(m.images)]))) for v in kernel)


def module_map_surjective(m):
    """Whether a GroupMap m into a module is onto: the quotient by the
    image rows and the torsion relations is trivial."""
    q = AdaptedQuotient(m.codomain.rank, _module_map_rows(m))
    return q.module.free_rank == 0 and not q.module.invariant_factors


def table_map_preimage(m, y):
    """A preimage of y under a GroupMap m into a table, or None: the table
    walked from the identity along the generator images and their
    inverses, one domain word kept per element reached."""
    d, c = m.domain, m.codomain
    steps = []
    for g, img in zip(d.generators(), m.images):
        steps.append((img, g))
        steps.append((c.invert(img), d.invert(g)))
    seen = {c.identity(): d.identity()}
    frontier = [c.identity()]
    while frontier:
        x = frontier.pop(0)
        for ic, idm in steps:
            nc = c.multiply(x, ic)
            if nc not in seen:
                seen[nc] = d.multiply(seen[x], idm)
                frontier.append(nc)
    return seen.get(y)


def table_element_order(table, i):
    """The order of element i of a table, by repeated multiplication."""
    k = 1
    x = i
    while x:
        x = table.multiply(x, i)
        k += 1
        if k > table.order:
            raise ValueError("order computation overran the group")
    return k


def greedy_generators(table):
    """Greedy generating set of a table: repeatedly the least element
    outside the subgroup generated so far."""
    gens = []
    reach = table_closure(table, gens)
    for i in range(table.order):
        if len(reach) == table.order:
            break
        if i not in reach:
            gens.append(i)
            reach = table_closure(table, gens)
    return tuple(gens)


def extend_table_map(d, c, gens, images):
    """The homomorphism on the subgroup of the table d generated by gens
    that sends gens to images, as a dict, or None when there is none: the
    Cayley graph closed from the identity, every edge checked."""
    phi = {d.identity(): c.identity()}
    frontier = [d.identity()]
    for x in frontier:
        for g, img in zip(gens, images):
            y, v = d.multiply(x, g), c.multiply(phi[x], img)
            if y not in phi:
                phi[y] = v
                frontier.append(y)
            elif phi[y] != v:
                return None
    return phi


def closure_table_isomorphisms(d, c, candidates):
    """Every isomorphism between two tables, as the image of every element
    of d, that sends the k-th of d.generators() into candidates[k], in
    lexicographic order: candidates of the generator's element order only,
    and the map closed over the subgroup generated so far after each one."""
    gens = d.generators()
    if d.order != c.order:
        return
    wants = [table_element_order(d, g) for g in gens]
    images = []

    def extend(k, phi):
        if k == len(gens):
            yield tuple(phi[x] for x in range(d.order))
            return
        for img in candidates[k]:
            if table_element_order(c, img) != wants[k]:
                continue
            images.append(img)
            ext = extend_table_map(d, c, gens[: k + 1], images)
            if ext is not None and len(set(ext.values())) == len(ext):
                yield from extend(k + 1, ext)
            images.pop()

    yield from extend(0, {d.identity(): c.identity()})


def collector_product(table, i, j):
    """The product of elements i and j of a FiniteGroupTable, collected in
    the pc presentation the table numbers, ``qmap.target``."""
    q = table.qmap.target
    return table.index_of(q.multiply(table.elements[i], table.elements[j]))


def collector_inverses(table):
    """The inverse of every element of a FiniteGroupTable, as a list
    indexed by element, collected in ``qmap.target``."""
    q = table.qmap.target
    return [table.index_of(q.invert(e)) for e in table.elements]


def unfiltered_table_isomorphisms(d, c, candidates):
    """The block enumerator over every candidate of each generator, with no
    filter on element order or central height."""
    if d.order != c.order:
        return
    p = d.qmap.target
    rels = [[r for r in p.relations() if r[0] == i] for i in range(p.n)]
    images = [None] * p.n

    def extend(i, phi):
        if i < 0:
            yield tuple(phi)
            return
        for img in candidates[p.n - 1 - i]:
            images[i] = img
            block = _table_block(d, c, images, i, rels[i], phi)
            if block is not None and len(set(block)) == len(block):
                yield from extend(i - 1, block)

    yield from extend(p.n - 1, [c.identity()])


def conjugator_by_scan(f, stup, ttup, phi):
    """The least c with phi(S) = T^c entry by entry in the table f, or
    None."""
    for c in range(f.order):
        if all(phi[a] == f.conjugate(b, c) for a, b in zip(stup, ttup)):
            return c
    return None


def unpruned_witness_search(p, s, t, box):
    """The first automorphism in the box sweep, with its conjugators, that
    carries each tuple of s onto a conjugate of the matching tuple of t,
    with no pruning in the abelianization."""
    for images in isomorphisms(p, p, [whitehead._box_elements(p, box)] * p.n):
        h = GroupHom(p, p, images, check=False)
        conj = []
        for stup, ttup in zip(s, t):
            g = simultaneous_conjugator(p, list(ttup), [h.apply(x) for x in stup])
            if g is None:
                break
            conj.append(g)
        else:
            return {
                "generator_images": [list(v) for v in h.images],
                "conjugators": [list(g) for g in conj],
            }
    return None


class TorsionData:
    """tau, its elements, the separating exponent m and G^m, all computed
    up front."""

    def __init__(self, p, tau, tau_elements, m, power_subgroup):
        self.p = p
        self.tau = tau
        self.tau_elements = tuple(tau_elements)
        self.m = m
        self.power_subgroup = power_subgroup


def eager_torsion_data(p, cap=10**6):
    """The torsion subgroup of any presentation by the centre recursion:
    tau read off an abelian presentation, else built from the torsion of
    the centre Z and of G/Z; then m, the least exp * k (exp the exponent
    of tau, k in 1, 2, 3, 4, 6, 8, 12, 24) with G^m meeting tau trivially,
    found by building each G^m in turn."""
    if p.is_abelian():
        tau = Subgroup(p, _abelian_torsion_gens(p))
        tau_elements = tau.elements(cap=cap)
    else:
        zq = center(p)
        qmap = QuotientMap(p, zq, check_normal=False)
        sub_td = eager_torsion_data(qmap.target, cap=cap)
        zpres, to_z, from_z = zq.presentation()
        zmodule = zpres.abelianization()
        ztau = Subgroup(zpres, _abelian_torsion_gens(zpres))
        ztau_elements = [from_z(t) for t in ztau.elements(cap=cap)]
        elements = []
        for tbar in sub_td.tau_elements:
            r = qmap.lift(tbar)
            e = _element_order(qmap.target, tbar, cap)
            czc = zmodule.coords(to_z(p.power(r, e)))
            fr = zmodule.module.free_rank
            if any(c % e for c in czc[:fr]):
                continue  # no torsion element above this coset
            z0 = [0] * zmodule.module.rank
            for t in range(fr):
                z0[t] = -(czc[t] // e)
            zcorr = from_z(zmodule.lift(tuple(z0)))
            base = p.multiply(r, zcorr)
            for zt in ztau_elements:
                elements.append(p.multiply(base, zt))
        tau = Subgroup(p, elements)
        tau_elements = tau.elements(cap=cap)
    exp = 1
    for t in tau_elements:
        o = _element_order(p, t, cap)
        exp = exp * o // xgcd(exp, o)[0]
    for k in (1, 2, 3, 4, 6, 8, 12, 24):
        m = exp * k
        v = verbal_power_subgroup(p, m, cap=cap)
        if all(not v.contains(t) for t in tau_elements if any(t)):
            return TorsionData(p, tau, tau_elements, m, v)
    raise CapExceeded("no separating power exponent found within the search range")
