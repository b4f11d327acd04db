"""Reference oracles that only the tests use.

Each one answers a question that the package answers by a faster or
subtler route, by brute force and independently of that route, so the
tests can compare the two.
"""

import itertools
from itertools import permutations, product as iproduct
from math import factorial

from nilcert import whitehead
from nilcert.malcev import QMatrix, SemidirectElement, semidirect_act
from nilcert.nilgroup import GroupHom, PcPresentation, Subgroup
from nilcert.outsep import out_finite
from nilcert.zmod import CapExceeded, IndexInfinite


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


def low_index_subgroups_coset_oracle(p, d, cap=10**6):
    """Independent enumeration of index <= d subgroups as point stabilisers
    of transitive permutation actions."""
    if factorial(d) ** p.n > cap:
        raise CapExceeded("coset-action oracle is too large")
    found = {}
    for k in range(1, d + 1):
        perms = list(permutations(range(k)))

        def pmul(a, b):  # composition: apply b, then a
            return tuple(a[b[i]] for i in range(k))

        def pinv(a):
            out = [0] * k
            for i, v in enumerate(a):
                out[v] = i
            return tuple(out)

        def pword(images, vec):
            out = tuple(range(k))
            for i, e in enumerate(vec):
                if e:
                    base = images[i] if e > 0 else pinv(images[i])
                    for _ in range(abs(e)):
                        out = pmul(out, base)
            return out

        for images in iproduct(perms, repeat=p.n):
            ok = True
            for (i, j), v in p.conj.items():
                if pmul(pinv(images[i]), pmul(images[j], images[i])) != pword(images, v):
                    ok = False
                    break
            if ok:
                for i, m in enumerate(p.orders):
                    if m is not None:
                        acc = tuple(range(k))
                        for _ in range(m):
                            acc = pmul(acc, images[i])
                        if acc != pword(images, p._power_tail(i)):
                            ok = False
                            break
            if not ok:
                continue
            seen = {0}
            frontier = [0]
            while frontier:
                pt = frontier.pop()
                for gperm in images:
                    for im in (gperm[pt], pinv(gperm)[pt]):
                        if im not in seen:
                            seen.add(im)
                            frontier.append(im)
            if len(seen) != k:
                continue
            transversal = {0: p.identity()}
            frontier = [0]
            while frontier:
                pt = frontier.pop()
                for gi in range(p.n):
                    for e in (1, -1):
                        perm = images[gi] if e == 1 else pinv(images[gi])
                        im = perm[pt]
                        if im not in transversal:
                            transversal[im] = p.multiply(
                                p.power(p.gen(gi), e), transversal[pt]
                            )
                            frontier.append(im)
            gens = []
            for pt, t in transversal.items():
                for gi in range(p.n):
                    im = images[gi][pt]
                    gens.append(
                        p.multiply(
                            p.invert(transversal[im]),
                            p.multiply(p.gen(gi), t),
                        )
                    )
            s = Subgroup(p, gens)
            found.setdefault(s.gens, s)
    return [found[key] for key in sorted(found)]


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


def orbit_matches_finite(table, s, t, cap=512):
    """Brute-force orbit membership for a finite instance under the
    block action, with k over automorphism permutation matrices and the
    h blocks over the regular representation.  Returns (found, element).

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
            g = SemidirectElement(perm, [rho[c] for c in conj])
            if [tuple(x) for x in semidirect_act(s_point, g)] != list(t_point):
                raise RuntimeError("orbit element fails the block action law")
            return True, g
    return False, None


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
