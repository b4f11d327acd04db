"""Finitely generated nilpotent groups via weighted polycyclic presentations.

Elements are normal-form exponent vectors g_1^{e_1} ... g_n^{e_n} (tuples of
ints, torsion exponents reduced into [0, m_i)).  Commutator convention:
[x, y] = x^-1 y^-1 x y;  Ad_g(x) = g^-1 x g = x [x, g].

Collection is from the left.  A conjugation relation g_j^{g_i} (or
g_j^{g_i^-1}) has the shape g_j^u * (tail supported strictly beyond j).  For an
infinite-order g_j the diagonal exponent u must be 1; for g_j of relative order
m_j it must be a unit mod m_j acting unipotently, i.e. every prime dividing m_j
divides u - 1 (so g_j^a = g_j^3 with m_j = 4 is accepted, m_j = 5 is not).

When every diagonal exponent is 1, the weight function computed from the tails
certifies nilpotency and bounds every layered computation, as in a weighted
presentation.  Otherwise the layered loops are bounded by h + sum Omega(m_i)
(h infinite relative orders, Omega counting prime factors with multiplicity),
which bounds the class of any nilpotent group with this pc sequence, and the
nilpotency class is read off the lower central series.

Group interface.  The three kinds of group the package computes in --
``PcPresentation`` (exponent vectors), ``FiniteGroupTable`` (element indices,
numbering the normal forms of a finite quotient's own pc presentation) and
``zmod.AbelianModule`` (coordinate rows) -- share seven methods, so code that
only multiplies, conjugates or walks generators never asks which kind it
holds:

    identity()        the neutral element
    normal_form(x)    the canonical form of x; raises ValueError on a
                      malformed element (wrong length, index out of range)
    multiply(a, b)    a b
    invert(a)         a^-1
    power(a, k)       a^k for any integer k
    conjugate(a, c)   a^c = c^-1 a c (a itself, normalized, when abelian)
    generators()      canonical generators: the pc generators, the unit
                      vectors of a module, or for a table the pc generators
                      of the presentation it numbers, tail first

Maps between groups of any kinds (``gogiso.GroupMap``) decide injectivity,
surjectivity and preimages in the pc presentation behind each group: a
module's abelian twin, with the same coordinates, a table's ``qmap.target``,
a pc group itself.  What still tests the kind with ``isinstance``, and why:

  - a map from a module checks its commuting and torsion relations, each
    failure with its own message;
  - a map from a table expands to the image of every element and answers
    preimages and injectivity by lookup;
  - the search for a reference isomorphism between two vertex groups and
    for a conjugator into an attaching image is complete for modules (by
    invariants) and tables (over every element), box-limited for pc groups;
  - ``whitehead.solve_whitehead`` sends each kind to its own solver: an
    integer-matrix decision for modules, a sweep over every automorphism
    for tables, a budgeted semi-decision for pc groups.
"""

from __future__ import annotations

import functools
import itertools
import math

from .zmod import (
    AdaptedQuotient,
    CapExceeded,
    IndexInfinite,
    IntMatrix,
    hnf,
    saturation_basis,
    solve_integer,
    xgcd,
)


class Inconsistent(Exception):
    """The polycyclic presentation fails an overlap (consistency) check."""


class NotNilpotent(Exception):
    """The presentation does not define a nilpotent group in pc form."""


def _big_omega(m):
    """Number of prime factors of m, counted with multiplicity."""
    count, d = 0, 2
    while d * d <= m:
        while m % d == 0:
            m //= d
            count += 1
        d += 1
    return count + (m > 1)


def _lead(nf):
    for i, e in enumerate(nf):
        if e:
            return i
    return None


class PcPresentation:
    """Polycyclic presentation of a f.g. nilpotent group.

    ``weights`` are the tail weights: w_k = max(w_i + w_j) over the
    conjugation relations g_j^{g_i^{+-1}} whose tail involves g_k, and 1 for
    generators in no tail.  When every diagonal exponent is 1 they certify
    nilpotency and ``nilpotency_class = max(weights)``.  When some finite-order
    generator is conjugated to a power other than 1 they describe the tails
    only; nilpotency and ``nilpotency_class`` are then certified by computing
    the lower central series at construction, and a series that has not
    reached the trivial group within the class bound raises NotNilpotent.
    ``check=False`` skips only the overlap (consistency) checks.
    """

    def __init__(self, names, orders, conj=None, conj_inv=None, powers=None, check=True):
        self.names = tuple(str(s) for s in names)
        self.n = len(self.names)
        if len(set(self.names)) != self.n:
            raise ValueError("duplicate generator names")
        self.orders = tuple(None if m is None else int(m) for m in orders)
        if len(self.orders) != self.n:
            raise ValueError("orders length mismatch")
        for m in self.orders:
            if m is not None and m < 2:
                raise ValueError("relative orders must be >= 2 (or None for infinite)")
        self.conj = {}
        for (i, j), v in (conj or {}).items():
            v = self._check_conj_shape(i, j, v)
            self.conj[(i, j)] = v
        self.conj_inv = {}
        for (i, j), v in (conj_inv or {}).items():
            v = self._check_conj_shape(i, j, v)
            self.conj_inv[(i, j)] = v
        unit_diagonal = all(
            v[j] == 1
            for rels in (self.conj, self.conj_inv)
            for (_i, j), v in rels.items()
        )
        self.powers = {}
        for i, v in (powers or {}).items():
            if self.orders[i] is None:
                raise ValueError(f"power relation for infinite-order generator {self.names[i]}")
            v = tuple(int(x) for x in v)
            if len(v) != self.n or any(v[: i + 1]):
                raise NotNilpotent(
                    f"power tail of {self.names[i]} must be supported beyond index {i}"
                )
            if any(v):
                self.powers[i] = v
        self.weights = self._compute_weights()
        self._cinv_cache = {}
        self._conj_powers = {}
        self._acting = frozenset(i for i, _j in self.conj)
        self._gamma_cache = None
        self._relations = None
        self._hom_star_space = None
        self._torsion_data = {}
        if unit_diagonal:
            self.nilpotency_class = max(self.weights) if self.n else 1
            self._class_bound = self.nilpotency_class
        else:
            self._class_bound = sum(m is None for m in self.orders) + sum(
                _big_omega(m) for m in self.orders if m is not None
            )
        if check:
            self.check_consistency()
        if not unit_diagonal:
            self.nilpotency_class = len(lower_central_series(self)) - 1

    # -- construction helpers ------------------------------------------------

    def _check_conj_shape(self, i, j, v):
        v = tuple(int(x) for x in v)
        if not (0 <= i < j < self.n):
            raise ValueError("conjugation relation indices must satisfy i < j")
        if len(v) != self.n:
            raise ValueError("relation length mismatch")
        m = self.orders[j]
        u = v[j]
        if any(v[:j]) or (m is None and u != 1):
            raise NotNilpotent(
                f"conjugate of {self.names[j]} by {self.names[i]} must be "
                f"{self.names[j]} times a tail beyond index {j}"
            )
        if m is not None and u != 1:
            if math.gcd(u, m) != 1:
                raise Inconsistent(
                    f"conjugation by {self.names[i]} sends {self.names[j]} to "
                    f"{self.names[j]}^{u}, which is not a unit mod {m}"
                )
            # unipotent on Z/m iff (u - 1)^k = 0 mod m for k >= log2(m)
            if pow(u - 1, m.bit_length(), m):
                raise NotNilpotent(
                    f"conjugation by {self.names[i]} acts on {self.names[j]} "
                    f"as multiplication by {u}, which is not unipotent mod {m}"
                )
        return v

    def _compute_weights(self):
        w = [1] * self.n
        by_member = {}
        for src in (self.conj, self.conj_inv):
            for (i, j), v in src.items():
                for k in range(j + 1, self.n):
                    if v[k]:
                        by_member.setdefault(k, []).append((i, j))
        for k in range(self.n):
            for (i, j) in by_member.get(k, ()):
                w[k] = max(w[k], w[i] + w[j])
        return tuple(w)

    def relations(self):
        """Every defining relation, commuting pairs included: (i, j, v)
        says g_j^{g_i} = v for i < j, and (i, None, v) says g_i^{m_i} = v."""
        # cached in an attribute set by __init__: writing to __dict__, as
        # functools.cached_property does, slows every later attribute
        # lookup on the instance, the collector's included
        if self._relations is None:
            pairs = [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]
            finite = [i for i, m in enumerate(self.orders) if m is not None]
            self._relations = tuple((i, j, self._conj_image(i, j)) for i, j in pairs) + tuple(
                (i, None, self._power_tail(i)) for i in finite
            )
        return self._relations

    # -- basic element arithmetic -------------------------------------------

    def identity(self):
        return (0,) * self.n

    def gen(self, i):
        return tuple(1 if k == i else 0 for k in range(self.n))

    def generators(self):
        return tuple(self.gen(i) for i in range(self.n))

    def normal_form(self, vec):
        """Normal form of prod_i g_i^{v_i} for an arbitrary integer vector."""
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.n:
            raise ValueError("element length mismatch")
        if all(m is None or 0 <= e < m for e, m in zip(vec, self.orders)):
            return vec
        return self.collect([(i, e) for i, e in enumerate(vec) if e])

    def _power_tail(self, i):
        return self.powers.get(i, self.identity())

    def _conj_image(self, i, j):
        return self.conj.get((i, j), self.gen(j))

    def _conj_inv_image(self, i, j):
        if (i, j) in self.conj_inv:
            return self.conj_inv[(i, j)]
        if (i, j) not in self.conj:
            return self.gen(j)  # commuting pair
        if (i, j) not in self._cinv_cache:
            self._cinv_cache[(i, j)] = self._derive_conj_inv(i, j)
        return self._cinv_cache[(i, j)]

    def _derive_conj_inv(self, i, j):
        """Solve c_i(w) = g_j for the unipotent automorphism c_i = (.)^{g_i}."""
        m = self.orders[i]
        if m is not None:
            gi_inv = self._push(self.identity(), i, -1)
            return self.conjugate(self.gen(j), gi_inv)
        w = self.gen(j)
        for _ in range(self._class_bound + 2):
            v = self._apply_conj_map(i, +1, w)
            defect = self.multiply(self.invert(v), self.gen(j))
            if defect == self.identity():
                return w
            w = self.multiply(w, defect)
        raise Inconsistent(
            f"conjugation by {self.names[i]} does not invert on {self.names[j]}"
        )

    def _conj_images(self, i, sign, level):
        """Images of g_{i+1}, ..., g_n under (.)^{g_i^{sign 2^level}}, built
        on first use from the level below and cached."""
        key = (i, sign, level)
        imgs = self._conj_powers.get(key)
        if imgs is None:
            if level == 0:
                image = self._conj_image if sign > 0 else self._conj_inv_image
                imgs = tuple(image(i, j) for j in range(i + 1, self.n))
            else:
                imgs = tuple(
                    self._apply_conj_map(i, sign, y, level - 1)
                    for y in self._conj_images(i, sign, level - 1)
                )
            self._conj_powers[key] = imgs
        return imgs

    def _apply_conj_map(self, i, sign, x, level=0):
        """Apply the automorphism (.)^{g_i^{sign 2^level}} of T_{>i} to x in
        T_{>i}, through its images of the generators g_j, j > i."""
        res = self.identity()
        for img, e in zip(self._conj_images(i, sign, level), x[i + 1 :]):
            if e:
                res = self.multiply(res, self.power(img, e))
        return res

    def _conj_by_genpower(self, x, i, e):
        """x^{g_i^e} for x supported strictly beyond i.

        The map (.)^{g_i^{+-2^k}} is applied once for each binary digit k
        of |e|, so the cost grows with log |e|.  For g_i of finite order
        m_i, e is first written q m_i + r with 0 <= r < m_i: the digits of
        r are applied, then conjugation by g_i^{q m_i}, the q-th power of
        the power tail."""
        if e == 0 or i not in self._acting or not any(x):
            return x  # or g_i commutes with every later generator
        m = self.orders[i]
        q = 0
        if m is None:
            sign, e = (1, e) if e > 0 else (-1, -e)
        else:
            sign = 1
            q, e = divmod(e, m)
        level = 0
        while e:
            if e & 1:
                x = self._apply_conj_map(i, sign, x, level)
            e >>= 1
            level += 1
        if q:
            x = self.conjugate(x, self.power(self._power_tail(i), q))
        return x

    def _push(self, nf, i, e):
        """Normal form of nf * g_i^e."""
        if e == 0:
            return nf
        tail = nf[i + 1 :]
        if any(tail):
            tail_elt = (0,) * (i + 1) + tail
            tail_elt = self._conj_by_genpower(tail_elt, i, e)
        else:
            tail_elt = self.identity()
        s = nf[i] + e
        m = self.orders[i]
        if m is None:
            r, extra = s, self.identity()
        else:
            q, r = divmod(s, m)
            extra = self.power(self._power_tail(i), q) if q else self.identity()
        tpart = self.multiply(extra, tail_elt)
        return nf[:i] + (r,) + tpart[i + 1 :]

    def collect(self, word):
        """Collect a word, given as (generator index, exponent) pairs, to
        its normal form."""
        x = self.identity()
        for i, e in word:
            if not (0 <= i < self.n):
                raise ValueError(f"generator index {i} out of range")
            x = self._push(x, i, int(e))
        return x

    def multiply(self, a, b):
        if len(a) != self.n or len(b) != self.n:
            raise ValueError("element length mismatch (parent mismatch?)")
        x = a
        for i in range(self.n):
            if b[i]:
                x = self._push(x, i, b[i])
        return x

    def invert(self, a):
        x = self.identity()
        for i in range(self.n - 1, -1, -1):
            if a[i]:
                x = self._push(x, i, -a[i])
        return x

    def power(self, a, k):
        k = int(k)
        if k < 0:
            a, k = self.invert(a), -k
        res = self.identity()
        base = a
        while k:
            if k & 1:
                res = self.multiply(res, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return res

    def conjugate(self, x, y):
        """x^y = y^-1 x y."""
        return self.multiply(self.invert(y), self.multiply(x, y))

    def commutator(self, x, y):
        """[x, y] = x^-1 y^-1 x y."""
        return self.multiply(
            self.invert(self.multiply(y, x)), self.multiply(x, y)
        )

    # -- consistency ---------------------------------------------------------

    def check_consistency(self):
        """Evaluate the standard overlap conditions by collection; raises
        Inconsistent naming the violated overlap."""
        g = self.gen
        mult = self.multiply
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    lhs = mult(mult(g(k), g(j)), g(i))
                    rhs = mult(g(k), mult(g(j), g(i)))
                    if lhs != rhs:
                        raise Inconsistent(
                            f"overlap ({self.names[k]} {self.names[j]}) {self.names[i]}"
                        )
        for j in range(self.n):
            mj = self.orders[j]
            if mj is None:
                continue
            for i in range(j):
                lhs = mult(self._power_tail(j), g(i))
                rhs = mult(self.power(g(j), mj - 1), mult(g(j), g(i)))
                if lhs != rhs:
                    raise Inconsistent(f"overlap {self.names[j]}^{mj} {self.names[i]}")
            lhs = mult(self._power_tail(j), g(j))
            rhs = mult(g(j), self._power_tail(j))
            if lhs != rhs:
                raise Inconsistent(f"overlap {self.names[j]}^{mj} {self.names[j]}")
        for i in range(self.n):
            mi = self.orders[i]
            for j in range(i + 1, self.n):
                if mi is not None:
                    lhs = mult(g(j), self._power_tail(i))
                    rhs = mult(mult(g(j), g(i)), self.power(g(i), mi - 1))
                    if lhs != rhs:
                        raise Inconsistent(
                            f"overlap {self.names[j]} {self.names[i]}^{mi}"
                        )
                if (i, j) in self.conj or (i, j) in self.conj_inv:
                    w = self._conj_inv_image(i, j)
                    if self._conj_by_genpower(w, i, 1) != g(j):
                        raise Inconsistent(
                            f"inverse conjugation of {self.names[j]} by {self.names[i]}"
                        )

    def is_abelian(self):
        return all(v == self.gen(j) for (i, j), v in self.conj.items())

    # -- misc ----------------------------------------------------------------

    def random_element(self, rng, box=3):
        out = []
        for m in self.orders:
            if m is None:
                out.append(rng.randint(-box, box))
            else:
                out.append(rng.randint(0, m - 1))
        return tuple(out)

    def abelian_relation_rows(self):
        """The relations of G^ab = Z^n / rows, one per conjugation and power
        relation, in normal-form exponent coordinates."""
        rows = []
        for (i, j), v in self.conj.items():
            rows.append(tuple(a - (1 if k == j else 0) for k, a in enumerate(v)))
        for i, m in enumerate(self.orders):
            if m is not None:
                tail = self._power_tail(i)
                rows.append(tuple((m if k == i else 0) - tail[k] for k in range(self.n)))
        return rows

    def abelianization(self) -> AdaptedQuotient:
        return AdaptedQuotient(self.n, self.abelian_relation_rows())

    def describe(self):
        lines = [
            f"gen {s} order {'inf' if m is None else m}"
            for s, m in zip(self.names, self.orders)
        ]
        return "\n".join(lines)


def _word_str(p, v):
    parts = []
    for name, e in zip(p.names, v):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# induced generating sequences (subgroups)


class _Igs:
    """Echelonised induced generating sequence builder.

    Items are (element, payload) pairs; payloads (optional) live in a second
    presentation and follow every group operation, which makes homomorphism
    inversion a by-product of reduction.
    """

    MAX_ROUNDS = 200

    def __init__(self, parent: PcPresentation, payload_parent: PcPresentation | None = None):
        self.p = parent
        self.pp = payload_parent
        self.piv = {}

    def _pm(self, a, b):
        pay = self.pp.multiply(a[1], b[1]) if self.pp is not None else None
        return (self.p.multiply(a[0], b[0]), pay)

    def _ppow(self, a, k):
        pay = self.pp.power(a[1], k) if self.pp is not None else None
        return (self.p.power(a[0], k), pay)

    def _pinv(self, a):
        pay = self.pp.invert(a[1]) if self.pp is not None else None
        return (self.p.invert(a[0]), pay)

    def _pconj(self, x, y):
        return self._pm(self._pinv(y), self._pm(x, y))

    def _is_id(self, a):
        return not any(a[0])

    def build(self, items, normal_closure=False):
        queue = [x for x in items if not self._is_id(x)]
        for _ in range(self.MAX_ROUNDS):
            while queue:
                self._insert(queue.pop(), queue)
            queue = self._closure_defects(normal_closure)
            if not queue:
                break
        else:
            raise CapExceeded("induced sequence closure did not stabilise")
        self._canonicalise()
        return self

    def _insert(self, x, queue):
        while not self._is_id(x):
            d = _lead(x[0])
            m = self.p.orders[d]
            b = x[0][d]
            if m is None and b < 0:
                x = self._pinv(x)
                continue
            if d in self.piv:
                h = self.piv[d]
                a = h[0][d]
                if b % a == 0:
                    x = self._pm(self._ppow(h, -(b // a)), x)
                    continue
                g, s, t = xgcd(a, b)
                y = self._pm(self._ppow(h, s), self._ppow(x, t))
                rest_h = self._pm(self._ppow(y, -(a // g)), h)
                rest_x = self._pm(self._ppow(y, -(b // g)), x)
                self.piv[d] = y
                queue.append(rest_h)
                x = rest_x
                continue
            if m is not None:
                g, s, _ = xgcd(b, m)
                if g != b:
                    self.piv[d] = self._ppow(x, s)
                    continue  # x now reduces against the new pivot
            self.piv[d] = x
            return

    def _closure_defects(self, normal_closure):
        out = []
        pivots = [self.piv[d] for d in sorted(self.piv)]
        cands = []
        for a in pivots:
            for b in pivots:
                if a is b:
                    continue
                cands.append(self._pconj(b, a))
                cands.append(self._pconj(b, self._pinv(a)))
            d = _lead(a[0])
            m = self.p.orders[d]
            if m is not None:
                cands.append(self._ppow(a, m // a[0][d]))
        if normal_closure:
            if self.pp is not None:
                raise ValueError("normal closure with payload tracking is unsupported")
            for a in pivots:
                for k in range(self.p.n):
                    gk = (self.p.gen(k), None)
                    cands.append(self._pconj(a, gk))
                    cands.append(self._pconj(a, self._pinv(gk)))
        for c in cands:
            r = self._residue(c)
            if not self._is_id(r):
                out.append(r)
        return out

    def _residue(self, x):
        while not self._is_id(x):
            d = _lead(x[0])
            if d not in self.piv:
                return x
            h = self.piv[d]
            a = h[0][d]
            b = x[0][d]
            if b % a:
                return x
            x = self._pm(self._ppow(h, -(b // a)), x)
        return x

    def sift(self, x):
        """A payload of x: the product of the payloads of the pivot powers
        that reduce x, an element of the parent, to the identity; None
        when x lies outside the subgroup the pivots generate."""
        pay = self.pp.identity()
        while any(x):
            d = _lead(x)
            h = self.piv.get(d)
            if h is None or x[d] % h[0][d]:
                return None
            q = x[d] // h[0][d]
            pay = self.pp.multiply(pay, self.pp.power(h[1], q))
            x = self.p.multiply(self.p.power(h[0], -q), x)
        return pay

    def _canonicalise(self):
        leads = sorted(self.piv)
        for pos in range(len(leads) - 1, -1, -1):
            d = leads[pos]
            h = self.piv[d]
            for d2 in leads[pos + 1 :]:
                q = self.piv[d2]
                a2 = q[0][d2]
                k = h[0][d2] // a2
                if k:
                    h = self._pm(h, self._ppow(q, -k))
            self.piv[d] = h


class Subgroup:
    """Subgroup of a PcPresentation group, held as a canonical induced
    generating sequence (echelon over the polycyclic sequence)."""

    def __init__(self, parent: PcPresentation, gens, normal_closure=False):
        self.parent = parent
        igs = _Igs(parent).build(
            [(parent.normal_form(g), None) for g in gens],
            normal_closure=normal_closure,
        )
        self._piv = {d: v[0] for d, v in igs.piv.items()}
        self.gens = tuple(self._piv[d] for d in sorted(self._piv))

    @property
    def pivots(self):
        return dict(self._piv)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"Subgroup(pivots={self.gens})"

    def reduce(self, x):
        """Canonical coset representative: x lies in S * reduce(x), with the
        coordinate at every pivot lead reduced into [0, lead exponent)."""
        p = self.parent
        x = p.normal_form(x)
        for d in range(p.n):
            b = x[d]
            if not b:
                continue
            h = self._piv.get(d)
            if h is None:
                continue
            # one step can leave the coordinate outside [0, h[d]) when an
            # earlier generator of x acts on g_d by a unit u != 1; each step
            # keeps it mod h[d] and raises the valuation of the excess at
            # every prime of the relative order, since u acts unipotently
            q = b // h[d]
            while q:
                x = p.multiply(p.power(h, -q), x)
                q = x[d] // h[d]
        return x

    def contains(self, x) -> bool:
        return not any(self.reduce(x))

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(self.contains(g) for g in other.gens)

    def express(self, x):
        """Coordinates of x over the pivot sequence (in lead order), or None."""
        p = self.parent
        x = p.normal_form(x)
        coords = {d: 0 for d in self._piv}
        while any(x):
            d = _lead(x)
            h = self._piv.get(d)
            if h is None:
                return None
            b = x[d]
            a = h[d]
            if b % a:
                return None
            q = b // a
            coords[d] += q
            x = p.multiply(p.power(h, -q), x)
        return tuple(coords[d] for d in sorted(coords))

    def relative_orders(self):
        """Relative order of each pivot modulo the later ones (None = infinite)."""
        out = []
        for d in sorted(self._piv):
            m = self.parent.orders[d]
            out.append(None if m is None else m // self._piv[d][d])
        return out

    def index_in_parent(self) -> int:
        idx = 1
        for d in range(self.parent.n):
            m = self.parent.orders[d]
            h = self._piv.get(d)
            if h is None:
                if m is None:
                    raise IndexInfinite("subgroup has infinite index")
                idx *= m
            else:
                idx *= h[d]
        return idx

    def is_whole_group(self) -> bool:
        try:
            return self.index_in_parent() == 1
        except IndexInfinite:
            return False

    def is_trivial(self) -> bool:
        return not self._piv

    def is_normal(self) -> bool:
        p = self.parent
        for h in self.gens:
            for k in range(p.n):
                if not self.contains(p.conjugate(h, p.gen(k))):
                    return False
                if not self.contains(p.conjugate(h, p.invert(p.gen(k)))):
                    return False
        return True

    def join(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, self.gens + other.gens)

    def order(self) -> int:
        """Cardinality (raises IndexInfinite when infinite)."""
        total = 1
        for ro in self.relative_orders():
            if ro is None:
                raise IndexInfinite("subgroup is infinite")
            total *= ro
        return total

    def elements(self, cap=100000):
        """All elements of a finite subgroup, in lexicographic order."""
        total = self.order()
        if total > cap:
            raise CapExceeded(f"subgroup order {total} exceeds cap {cap}")
        p = self.parent
        out = [p.identity()]
        # last pivot first: in each product h^e b, b in the subgroup of the
        # later pivots, h^e lies left of b's support, so collection moves
        # little
        for d, ro in reversed(list(zip(sorted(self._piv), self.relative_orders()))):
            h = self._piv[d]
            powers = [p.identity()]
            for _ in range(ro - 1):
                powers.append(p.multiply(powers[-1], h))
            out = [p.multiply(a, b) for a in powers for b in out]
        seen = sorted(set(out))
        if len(seen) != total:
            raise RuntimeError("subgroup enumeration mismatch")
        return seen

    def presentation(self):
        """Polycyclic presentation of the subgroup on its pivot sequence.

        Returns (pres, to_sub, from_sub): to_sub maps a parent element of the
        subgroup to subgroup coordinates, from_sub is the reverse direction.
        """
        p = self.parent
        leads = sorted(self._piv)
        r = len(leads)
        ros = self.relative_orders()
        names = [f"{p.names[d]}~" for d in leads]

        def to_sub(x):
            c = self.express(x)
            if c is None:
                raise ValueError("element is not in the subgroup")
            return tuple(c)

        def from_sub(c):
            return apply_images(p, [self._piv[d] for d in leads], c)

        conj = {}
        conj_inv = {}
        powers = {}
        for a in range(r):
            for b in range(a + 1, r):
                ha, hb = self._piv[leads[a]], self._piv[leads[b]]
                img = to_sub(p.conjugate(hb, ha))
                if img != tuple(1 if t == b else 0 for t in range(r)):
                    conj[(a, b)] = img
                    conj_inv[(a, b)] = to_sub(p.conjugate(hb, p.invert(ha)))
        for a in range(r):
            if ros[a] is not None:
                tail = to_sub(p.power(self._piv[leads[a]], ros[a]))
                if any(tail):
                    powers[a] = tail
        pres = PcPresentation(names, ros, conj, conj_inv, powers)
        return pres, to_sub, from_sub


def intersect_finite_index(a: Subgroup, b: Subgroup, cap=10**6) -> Subgroup:
    """Intersection of a and b for [parent : a] finite, via Schreier generators of the action
    of b on the right cosets of a."""
    p = a.parent
    if a.parent is not b.parent:
        raise ValueError("parent mismatch")
    idx = a.index_in_parent()
    if idx > cap:
        raise CapExceeded(f"coset space of size {idx} exceeds cap {cap}")
    start = a.reduce(p.identity())
    transversal = {start: p.identity()}
    frontier = [start]
    acting = list(b.gens) + [p.invert(g) for g in b.gens]
    while frontier:
        pt = frontier.pop()
        t = transversal[pt]
        for g in acting:
            img = a.reduce(p.multiply(pt, g))
            if img not in transversal:
                transversal[img] = p.multiply(t, g)
                frontier.append(img)
    gens = []
    for pt, t in transversal.items():
        for g in b.gens:
            img = a.reduce(p.multiply(pt, g))
            gens.append(p.multiply(p.multiply(t, g), p.invert(transversal[img])))
    return Subgroup(p, gens)


# ---------------------------------------------------------------------------
# quotients


class QuotientMap:
    """Projection of a PcPresentation group onto its quotient by a normal
    subgroup, with a polycyclic presentation of the target."""

    def __init__(self, source: PcPresentation, kernel: Subgroup, check_normal=True):
        if kernel.parent is not source:
            raise ValueError("kernel parent mismatch")
        if check_normal and not kernel.is_normal():
            raise ValueError("kernel must be normal")
        self.source = source
        self.kernel = kernel
        piv = kernel.pivots
        surviving = []
        orders = []
        for d in range(source.n):
            m = source.orders[d]
            h = piv.get(d)
            if h is None:
                surviving.append(d)
                orders.append(m)
            elif h[d] > 1:
                surviving.append(d)
                orders.append(h[d])
        self.surviving = tuple(surviving)
        r = len(surviving)

        def project_vec(x):
            rep = kernel.reduce(x)
            return tuple(rep[d] for d in surviving)

        conj = {}
        conj_inv = {}
        powers = {}
        for a_pos in range(r):
            i = surviving[a_pos]
            for b_pos in range(a_pos + 1, r):
                j = surviving[b_pos]
                v = project_vec(source.conjugate(source.gen(j), source.gen(i)))
                if v != tuple(1 if t == b_pos else 0 for t in range(r)):
                    conj[(a_pos, b_pos)] = v
                    conj_inv[(a_pos, b_pos)] = project_vec(
                        source.conjugate(source.gen(j), source.invert(source.gen(i)))
                    )
        for a_pos in range(r):
            o = orders[a_pos]
            if o is not None:
                tail = project_vec(source.power(source.gen(surviving[a_pos]), o))
                if any(tail):
                    powers[a_pos] = tail
        names = [source.names[d] for d in surviving]
        self.target = PcPresentation(names, orders, conj, conj_inv, powers)

    def project(self, x):
        rep = self.kernel.reduce(self.source.normal_form(x))
        return self.target.normal_form(tuple(rep[d] for d in self.surviving))

    def lift(self, y):
        x = [0] * self.source.n
        for k, d in enumerate(self.surviving):
            x[d] = y[k]
        return self.source.normal_form(tuple(x))

    def preimage(self, sub: Subgroup) -> Subgroup:
        if sub.parent is not self.target:
            raise ValueError("subgroup is not in the quotient group")
        gens = [self.lift(g) for g in sub.gens] + list(self.kernel.gens)
        return Subgroup(self.source, gens)

    def order(self, cap=10**6):
        """|target|, the product of its relative orders: IndexInfinite when
        one is infinite, CapExceeded when the product exceeds the cap."""
        orders = self.target.orders
        if None in orders:
            raise IndexInfinite("quotient is infinite")
        total = math.prod(orders)
        if total > cap:
            raise CapExceeded(f"quotient order {total} exceeds cap {cap}")
        return total

    def elements(self, cap=10**6):
        """Every element of a finite target, as its normal forms in
        lexicographic order.  The cap is checked against the product of
        the relative orders before anything is enumerated."""
        self.order(cap)
        return list(itertools.product(*(range(m) for m in self.target.orders)))


class FiniteGroupTable:
    """A finite quotient of a pc group, its elements numbered.  Element i
    is the i-th normal form of ``qmap.target``, the quotient's own pc
    presentation, in the order of ``qmap.elements(cap)``, so the identity
    is 0; ``project`` takes a source element to its index and
    ``qmap.lift`` takes an element back to a source vector.  The
    presentation passed its overlap checks when it was built, so the
    numbered group needs no checks of its own.

    Arithmetic is by lookup (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 8).  The constructor asks
    ``qmap.target``'s collector once per element and pc generator g_k for
    the right action a -> a g_k, a permutation of the indices, and
    composes it with itself into the actions of g_k^2, g_k^4, ...  below
    the relative order m_k.  The product a b walks the normal form
    g_0^{e_0} ... g_{n-1}^{e_{n-1}} of b, one lookup per nonzero binary
    digit of each e_k, and is memoized per pair; a^-1 walks a's normal form
    backwards through the inverse permutations.  After construction no
    product, inverse, conjugate or power reaches the collector."""

    def __init__(self, qmap: QuotientMap, cap=10**6):
        self.qmap = qmap
        q = qmap.target
        self.elements = tuple(qmap.elements(cap))
        self.order = len(self.elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._memo = {}
        self._signatures = None
        # _right[k][j][a] is the index of a g_k^(2^j), for 2^j < m_k
        self._right = []
        for k, m in enumerate(q.orders):
            g = q.gen(k)
            steps = [[self._index[q.multiply(e, g)] for e in self.elements]]
            while 2 ** len(steps) < m:
                s = steps[-1]
                steps.append([s[a] for a in s])
            self._right.append(steps)
        backwards = []
        for steps in reversed(self._right):
            inverses = []
            for s in steps:
                inv = [0] * self.order
                for a, b in enumerate(s):
                    inv[b] = a
                inverses.append(inv)
            backwards.append(inverses)
        self._inv = [self._walk(0, reversed(e), backwards) for e in self.elements]

    @staticmethod
    def _walk(a, exponents, actions):
        """a h_0^{e_0} h_1^{e_1} ..., where actions[k][j] is the right
        action of h_k^(2^j) and e_k the k-th exponent: one lookup per
        nonzero binary digit of each e_k."""
        for steps, e in zip(actions, exponents):
            j = 0
            while e:
                if e & 1:
                    a = steps[j][a]
                e >>= 1
                j += 1
        return a

    def index_of(self, element):
        return self._index[element]

    def identity(self):
        return 0

    def normal_form(self, x):
        """x itself, after checking that it indexes an element."""
        x = int(x)
        if not 0 <= x < self.order:
            raise ValueError(f"element index {x} is out of range")
        return x

    def multiply(self, i, j):
        key = (i, j)
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._walk(i, self.elements[j], self._right)
        return r

    def invert(self, i):
        return self._inv[i]

    def conjugate(self, i, g):
        return self.multiply(self.invert(g), self.multiply(i, g))

    def power(self, i, k):
        if k < 0:
            i, k = self.invert(i), -k
        x = 0
        while k:
            if k & 1:
                x = self.multiply(x, i)
            k >>= 1
            if k:
                i = self.multiply(i, i)
        return x

    def generators(self):
        """The pc generators of ``qmap.target``, tail first: g_{n-1}, ...,
        g_0, as indices.  Elements are numbered in lexicographic order of
        their normal forms, so g_i is element m_{i+1} ... m_{n-1}, and the
        subgroup <g_i, ..., g_{n-1}> that the last n - i of them generate
        is exactly the first m_i ... m_{n-1} elements."""
        q = self.qmap.target
        return tuple(self._index[q.gen(i)] for i in reversed(range(q.n)))

    def project(self, x):
        """Index of the image of a source element."""
        return self._index[self.qmap.project(x)]

    def signatures(self):
        """(order, central height) of every element, as a tuple indexed by
        element; the central height of x is the least k with x in Z_k, the
        k-th term of the upper central series (0 for the identity).  Found
        on first call, by lookups only, and kept.

        Orders: an element x of leading generator g_i and exponent e there
        has x^r in <g_{i+1}, ...> for r = m_i / gcd(e, m_i), the least such
        r, and that subgroup is a block of smaller indices, so
        |x| = r |x^r| is read off an earlier entry.  Heights: x lies in Z_k
        exactly when [x, g] lies in Z_{k-1} for every pc generator g, so
        the layers Z_1, Z_2, ... come out one sweep each."""
        if self._signatures is None:
            q = self.qmap.target

            # not memoized, so the memo keeps only products callers ask for
            def product(a, b):
                return self._walk(a, self.elements[b], self._right)

            orders = [1] * self.order
            for x in range(1, self.order):
                i = _lead(self.elements[x])
                r = q.orders[i] // math.gcd(self.elements[x][i], q.orders[i])
                y, z, t = 0, x, r
                while t:
                    if t & 1:
                        y = product(y, z)
                    t >>= 1
                    if t:
                        z = product(z, z)
                orders[x] = r * orders[y]
            commutators = []
            for k in range(q.n):
                g_inv = self._inv[self._index[q.gen(k)]]
                step = self._right[k][0]
                commutators.append([
                    product(product(self._inv[x], g_inv), step[x]) for x in range(self.order)
                ])
            heights = [0] + [None] * (self.order - 1)
            for k in itertools.count(1):
                layer = [
                    x for x, h in enumerate(heights)
                    if h is None and all(heights[c[x]] is not None for c in commutators)
                ]
                if not layer:
                    break
                for x in layer:
                    heights[x] = k
            self._signatures = tuple(zip(orders, heights))
        return self._signatures


def serialize_element(x):
    """JSON form of an element: the index of a table element, the list of
    coordinates or exponents otherwise."""
    return int(x) if isinstance(x, int) else [int(c) for c in x]


def quotient_table(p: PcPresentation, kernel: Subgroup, cap=10**6) -> FiniteGroupTable:
    return FiniteGroupTable(QuotientMap(p, kernel), cap)


# ---------------------------------------------------------------------------
# lower central series, centralisers, conjugacy, center


def lower_central_series(p: PcPresentation):
    """[N = gamma_1, gamma_2 = [N, N], ..., trivial]."""
    if p._gamma_cache is not None:
        return p._gamma_cache
    full = Subgroup(p, [p.gen(i) for i in range(p.n)])
    series = [full]
    cur = full
    for _ in range(p._class_bound + 2):
        gens = []
        for h in cur.gens:
            for k in range(p.n):
                gens.append(p.commutator(h, p.gen(k)))
        nxt = Subgroup(p, gens, normal_closure=True)
        series.append(nxt)
        if nxt.is_trivial():
            break
        if nxt == cur:
            raise NotNilpotent("lower central series does not terminate")
        cur = nxt
    if not series[-1].is_trivial():
        raise NotNilpotent("lower central series does not reach the trivial group")
    p._gamma_cache = series
    return series


class _GammaLayer:
    """The abelian layer gamma_w / gamma_{w+1} with exact integer coordinates."""

    def __init__(self, p, gw: Subgroup, gw1: Subgroup):
        self.p = p
        self.gw = gw
        self.leads = sorted(gw.pivots)
        r = len(self.leads)
        rows = []
        for pos, (d, ro) in enumerate(zip(self.leads, gw.relative_orders())):
            if ro is not None:
                c = gw.express(p.power(gw.pivots[d], ro))
                rows.append(tuple((ro if t == pos else 0) - c[t] for t in range(r)))
        for g in gw1.gens:
            c = gw.express(g)
            if c is None:
                raise RuntimeError("central series inclusion violated")
            rows.append(c)
        self.quotient = AdaptedQuotient(r, rows)
        self.module = self.quotient.module

    def coords(self, x):
        c = self.gw.express(x)
        if c is None:
            raise ValueError("element not in this term of the series")
        return self.quotient.coords(c)


def _layer_system(p, layer, chain_pivots, tuple_elems):
    """Integer system rows: one row per chain pivot (commutator coordinates
    against every tuple element) plus module relation rows."""
    qn = layer.module.rank
    width = qn * len(tuple_elems)
    rows = []
    for u in chain_pivots:
        row = []
        for v in tuple_elems:
            row.extend(layer.coords(p.commutator(v, u)))
        rows.append(tuple(row))
    rel = layer.module.relation_rows()
    for j in range(len(tuple_elems)):
        for rr in rel:
            row = [0] * width
            row[j * qn : (j + 1) * qn] = list(rr)
            rows.append(tuple(row))
    mat = IntMatrix(rows) if rows else IntMatrix.zeros(0, width)
    return mat, width


def simultaneous_conjugator(p: PcPresentation, ts, vs):
    """g with t_j^g = v_j for all j, or None.

    Layered lifting along the lower central series: the correction at each
    layer ranges over the centraliser chain of the target tuple, on which
    the commutator map into the layer is a homomorphism.
    """
    ts = [p.normal_form(t) for t in ts]
    vs = [p.normal_form(v) for v in vs]
    if len(ts) != len(vs):
        raise ValueError("tuple length mismatch")
    ab = p.abelianization()
    for t, v in zip(ts, vs):
        if ab.coords(t) != ab.coords(v):
            return None
    gamma = lower_central_series(p)
    g = p.identity()
    chain = Subgroup(p, [p.gen(i) for i in range(p.n)])
    for w in range(1, len(gamma) - 1):
        layer = _GammaLayer(p, gamma[w], gamma[w + 1])
        pivots = [chain.pivots[d] for d in sorted(chain.pivots)]
        mat, _width = _layer_system(p, layer, pivots, vs)
        rhs = []
        feasible = True
        for t, v in zip(ts, vs):
            resid = p.multiply(p.invert(p.conjugate(t, g)), v)
            if not gamma[w].contains(resid):
                feasible = False
                break
            rhs.extend(layer.coords(resid))
        if not feasible:
            return None
        sol, kernel = solve_integer(mat.transpose(), tuple(rhs))
        if sol is None:
            return None
        r = len(pivots)
        g = p.multiply(g, apply_images(p, pivots, sol[:r]))
        new_gens = [apply_images(p, pivots, k[:r]) for k in kernel]
        new_gens.extend(gamma[w].gens)
        chain = Subgroup(p, new_gens)
    for t, v in zip(ts, vs):
        if p.conjugate(t, g) != v:
            raise RuntimeError("conjugator lifting produced a non-solution")
    return g


def centralizer(p: PcPresentation, ts) -> Subgroup:
    """Centraliser of a tuple of elements."""
    ts = [p.normal_form(t) for t in ts]
    gamma = lower_central_series(p)
    chain = Subgroup(p, [p.gen(i) for i in range(p.n)])
    for w in range(1, len(gamma) - 1):
        layer = _GammaLayer(p, gamma[w], gamma[w + 1])
        pivots = [chain.pivots[d] for d in sorted(chain.pivots)]
        mat, width = _layer_system(p, layer, pivots, ts)
        _, kernel = solve_integer(mat.transpose(), (0,) * width)
        r = len(pivots)
        new_gens = [apply_images(p, pivots, k[:r]) for k in kernel]
        new_gens.extend(gamma[w].gens)
        chain = Subgroup(p, new_gens)
    for t in ts:
        for h in chain.gens:
            if p.commutator(t, h) != p.identity():
                raise RuntimeError("centraliser verification failed")
    return chain


def center(p: PcPresentation) -> Subgroup:
    z = centralizer(p, [p.gen(i) for i in range(p.n)])
    for h in z.gens:
        for k in range(p.n):
            if p.commutator(p.gen(k), h) != p.identity():
                raise RuntimeError("center verification failed")
    return z


def upper_central_series(p: PcPresentation):
    """[1 = nu_0, nu_1 = Z(N), ..., nu_m = N], as subgroups of p."""
    terms = [Subgroup(p, [])]
    cur = terms[0]
    for _ in range(max(p.n, p.nilpotency_class) + 1):
        if cur.is_whole_group():
            break
        qmap = QuotientMap(p, cur, check_normal=False)
        nxt = qmap.preimage(center(qmap.target))
        if nxt == cur:
            raise NotNilpotent("upper central series stalls below the whole group")
        terms.append(nxt)
        cur = nxt
    if not cur.is_whole_group():
        raise NotNilpotent("upper central series does not reach the group")
    return terms


# ---------------------------------------------------------------------------
# homomorphisms


class GroupHom:
    """Homomorphism between pc groups, given by generator images."""

    def __init__(self, source: PcPresentation, target: PcPresentation, images, check=True):
        self.source = source
        self.target = target
        self.images = tuple(target.normal_form(v) for v in images)
        if len(self.images) != source.n:
            raise ValueError("need one image per generator")
        if check:
            self.check_relations()

    def check_relations(self):
        check_relations(self.source, self.target, self.images)

    def apply(self, x):
        return apply_images(self.target, self.images, self.source.normal_form(x))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self o other (apply other first)."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        return GroupHom(
            other.source, self.target, [self.apply(v) for v in other.images], check=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.source is other.source
            and self.target is other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash(self.images)

    def is_identity(self):
        return self.source is self.target and all(
            self.images[i] == self.source.gen(i) for i in range(self.source.n)
        )

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.target, list(self.images))

    def is_surjective(self) -> bool:
        return self.image_subgroup().is_whole_group()

    def is_automorphism(self) -> bool:
        """For f.g. nilpotent endomorphisms surjectivity implies bijectivity."""
        if self.source is not self.target:
            return False
        try:
            self.check_relations()
        except ValueError:
            return False
        return self.is_surjective()

    def inverse(self) -> "GroupHom":
        """Inverse of an isomorphism, via a payload-tracked induced sequence."""
        items = [(self.images[k], self.source.gen(k)) for k in range(self.source.n)]
        igs = _Igs(self.target, payload_parent=self.source).build(items)
        pre_images = [igs.sift(g) for g in self.target.generators()]
        if None in pre_images:
            raise ValueError("homomorphism is not surjective")
        inv = GroupHom(self.target, self.source, pre_images, check=False)
        for k in range(self.source.n):
            if inv.apply(self.apply(self.source.gen(k))) != self.source.gen(k):
                raise ValueError("inverse computation failed (map is not bijective)")
        for k in range(self.target.n):
            if self.apply(inv.apply(self.target.gen(k))) != self.target.gen(k):
                raise ValueError("inverse computation failed (map is not bijective)")
        return inv


def identity_hom(p) -> GroupHom:
    return GroupHom(p, p, [p.gen(i) for i in range(p.n)], check=False)


def inner_automorphism(p, g) -> GroupHom:
    g = p.normal_form(g)
    return GroupHom(p, p, [p.conjugate(p.gen(i), g) for i in range(p.n)], check=False)


def is_inner(h: GroupHom):
    """Conjugator g with Ad_g = h, or None."""
    if h.source is not h.target:
        raise ValueError("is_inner needs an endomorphism")
    p = h.source
    return simultaneous_conjugator(p, [p.gen(i) for i in range(p.n)], list(h.images))


def apply_images(target, images, v):
    """Image of the normal form v under the map sending generator k to
    images[k]; the images may stop at the last letter v uses."""
    out = target.identity()
    for img, e in zip(images, v):
        if e:
            out = target.multiply(out, target.power(img, e))
    return out


def _relation_lhs(p, target, images, rel):
    i, j, _v = rel
    if j is None:
        return target.power(images[i], p.orders[i])
    return target.conjugate(images[j], images[i])


def _relation_holds(p, target, images, rel):
    return _relation_lhs(p, target, images, rel) == apply_images(target, images, rel[2])


def check_relations(p: PcPresentation, target, images):
    """Raise ValueError naming the first relation of ``p.relations()`` that
    the generator images in target break."""
    for rel in p.relations():
        if not _relation_holds(p, target, images, rel):
            i, j, v = rel
            lhs = f"{p.names[i]}^{p.orders[i]}" if j is None else f"{p.names[j]}^{p.names[i]}"
            raise ValueError(f"relation violated: {lhs} = {_word_str(p, v)}")


def isomorphisms(domain, codomain, candidates, congruences=()):
    """Every isomorphism domain -> codomain that sends the k-th of
    ``domain.generators()`` into ``candidates[k]``, lazily and in the
    lexicographic order of the candidate lists.  For a pc domain,
    ``congruences`` holds pairs (x, y): only maps sending x into
    y [codomain, codomain] are kept.

    A backtrack over generator images that tests relations on prefixes
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*,
    2005):

      * pc domain, yielding the tuple of generator images: each relation
        of ``domain.relations()`` is checked as soon as its highest letter
        has an image.  A relation whose highest letter g_k lies beyond its
        left side, with exponent +-1, forces the image of g_k, and only
        that image is tried (none, when it is not a candidate).  A
        complete map is kept when it is onto.  Onto suffices for an
        endomorphism of a finitely generated nilpotent group; callers
        mapping between two presentations still check injectivity
        (``gogiso.GroupMap.is_isomorphism()``).  A congruence is checked
        like a relation, as soon as every letter of x has an image, in the
        coordinates of ``codomain.abelianization()``: there the image of x
        is the sum of the images of its letters.
      * FiniteGroupTable domain, yielding the image of every element as a
        tuple indexed by element: the k-th generator is the pc generator
        g_i, i = n - 1 - k, of the presentation the table numbers, so its
        image is checked against the relations (i, .) of that
        presentation, whose right sides the map on the block before
        already sends somewhere, and the map then extends to the block
        <g_i, ..., g_{n-1}>, the first m_i ... m_{n-1} elements, by one
        product per element (``_table_block``).  A block with two
        elements of one image ends the branch.  Only the candidates whose
        ``FiniteGroupTable.signatures()`` entry, the pair (element order,
        least k with the element in Z_k), equals the generator's are
        tried.  This drops no map: an isomorphism keeps element orders and
        carries each term Z_k of the upper central series onto Z_k, so
        every map the enumerator yields sends each generator to an element
        of its own signature, and the maps come out as before, in the
        same order.  The tail generator g_{n-1} is assigned first; where
        it is central, as in every quotient of H3, only central candidates
        stay, so the search tree loses the most there.
    """
    candidates = [[codomain.normal_form(x) for x in cs] for cs in candidates]
    if isinstance(domain, FiniteGroupTable):
        return _table_isomorphisms(domain, codomain, candidates)
    return _pc_isomorphisms(domain, codomain, candidates, congruences)


def _pc_isomorphisms(p, c, candidates, congruences):
    ab = c.abelianization() if congruences else None
    ab_checks = [[] for _ in range(p.n)]
    for x, y in congruences:
        top = max([0] + [k for k, e in enumerate(x) if e])
        ab_checks[top].append((x, ab.coords(y)))
    checks = [[] for _ in range(p.n)]
    forcing = [None] * p.n
    for rel in p.relations():
        i, j, v = rel
        left = i if j is None else j
        top = max([left] + [k for k, e in enumerate(v) if e])
        if top > left and v[top] in (1, -1) and forcing[top] is None:
            forcing[top] = rel
        else:
            checks[top].append(rel)
    allowed = [set(cs) if forcing[k] else None for k, cs in enumerate(candidates)]
    images = []

    def extend(k):
        if k == p.n:
            if generates_abelianization(c, images):
                yield tuple(images)
            return
        options = candidates[k]
        rel = forcing[k]
        if rel is not None:
            # lhs = image of v = image of (v without g_k) * img_k^{+-1}
            v = rel[2]
            rest = v[:k] + (0,) * (p.n - k)
            y = c.multiply(
                c.invert(apply_images(c, images, rest)), _relation_lhs(p, c, images, rel)
            )
            forced = y if v[k] == 1 else c.invert(y)
            if forced not in allowed[k]:
                return
            options = [forced]
        for img in options:
            images.append(img)
            if all(
                ab.coords(_exponent_sum(images, x)) == y for x, y in ab_checks[k]
            ) and all(_relation_holds(p, c, images, r) for r in checks[k]):
                yield from extend(k + 1)
            images.pop()

    return extend(0)


def _exponent_sum(images, x):
    """The exponent vector sum of images[k] x[k] over the letters of x:
    the image of x modulo the derived subgroup."""
    return tuple(
        sum(e * img[t] for img, e in zip(images, x) if e) for t in range(len(images[0]))
    )


def generates_abelianization(c: PcPresentation, elements):
    """Whether the elements generate c.  For a nilpotent c, H [c, c] = c
    implies H = c, so they do exactly when their exponent vectors and the
    relation rows of c^ab span Z^n: when the Hermite normal form of the
    stacked rows is the identity on top."""
    rows = [tuple(x) for x in elements] + c.abelian_relation_rows()
    if len(rows) < c.n:
        return False
    h, _ = hnf(IntMatrix(rows, cols=c.n))
    return all(h[i, i] == 1 for i in range(c.n))


def _table_isomorphisms(d, c, candidates):
    if d.order != c.order:
        return
    p = d.qmap.target
    rels = [[r for r in p.relations() if r[0] == i] for i in range(p.n)]
    want, have = d.signatures(), c.signatures()
    candidates = [
        [x for x in cs if have[x] == want[g]] for g, cs in zip(d.generators(), candidates)
    ]
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


def _table_block(d, c, images, i, rels, phi):
    """The images of the block <g_i, ..., g_{n-1}> of the table d, given
    phi, the images of the block <g_{i+1}, ...> before it, and images[i:],
    the images of the pc generators from g_i on; None when one of rels,
    the relations (i, .) of the presentation d numbers, fails.  Their
    right sides lie in the block before, so phi gives their images.
    Element e m_{i+1} ... m_{n-1} + y of the block is g_i^e y, so its
    image is images[i]^e phi[y]."""
    p = d.qmap.target
    if any(_relation_lhs(p, c, images, r) != phi[d.index_of(r[2])] for r in rels):
        return None
    block = list(phi)
    x = img = images[i]
    for _ in range(1, p.orders[i]):
        block.extend(c.multiply(x, y) for y in phi)
        x = c.multiply(x, img)
    return block


def table_map(d, c, images):
    """The image of every element of the table d, as a list indexed by
    element, under the homomorphism into c that sends d.generators() to
    images; None when the images break a relation of the presentation d
    numbers."""
    p = d.qmap.target
    pc_images = list(reversed(images))
    phi = [c.identity()]
    for i in reversed(range(p.n)):
        rels = [r for r in p.relations() if r[0] == i]
        phi = _table_block(d, c, pc_images, i, rels, phi)
        if phi is None:
            return None
    return phi


# ---------------------------------------------------------------------------
# torsion


class TorsionData:
    """The torsion subgroup tau of G, all its elements, and the data of the
    embedding of G into (G/tau) x (G/G^m).

    When the generators of finite relative order are the tail g_j, ...,
    g_{n-1}, tau = <g_j, ..., g_{n-1}> (see ``_compute_torsion_data`` for
    the proof), and tau = 1 for a poly-Z presentation.  m is the least
    exp * k, exp the exponent of tau and k in 1, 2, 3, 4, 6, 8, 12, 24, for
    which G^m meets tau trivially, and ``power_subgroup`` is that G^m.
    Both are found on the first read of either and then kept, so a caller
    that reads only tau builds no power subgroup; that read raises
    CapExceeded when a power quotient exceeds the cap or no exponent in
    the range separates."""

    def __init__(self, p, tau: Subgroup, tau_elements, cap):
        self.p = p
        self.tau = tau
        self.tau_elements = tuple(tau_elements)
        self._cap = cap

    @functools.cached_property
    def _separation(self):
        p, cap = self.p, self._cap
        exp = 1
        for t in self.tau_elements:
            exp = math.lcm(exp, _element_order(p, t, cap))
        for k in (1, 2, 3, 4, 6, 8, 12, 24):
            m = exp * k
            v = verbal_power_subgroup(p, m, cap=cap)
            if all(not v.contains(t) for t in self.tau_elements if any(t)):
                return m, v
        raise CapExceeded("no separating power exponent found within the search range")

    @property
    def m(self) -> int:
        return self._separation[0]

    @property
    def power_subgroup(self) -> Subgroup:
        return self._separation[1]

    def verify_embedding(self, radius=2):
        """The pair of projections is injective on the ball of the given
        radius over the generators."""
        p = self.p
        ball = {p.identity()}
        frontier = [p.identity()]
        for _ in range(radius):
            new = []
            for x in frontier:
                for k in range(p.n):
                    for e in (1, -1):
                        y = p.multiply(x, p.power(p.gen(k), e))
                        if y not in ball:
                            ball.add(y)
                            new.append(y)
            frontier = new
        qt = QuotientMap(p, self.tau, check_normal=False)
        qm = QuotientMap(p, self.power_subgroup, check_normal=False)
        seen = {}
        for x in ball:
            key = (qt.project(x), qm.project(x))
            if key in seen and seen[key] != x:
                return False
            seen[key] = x
        return True


def _abelian_torsion_gens(p: PcPresentation):
    """Generators of the torsion subgroup of an abelian presentation."""
    rows = []
    for i, m in enumerate(p.orders):
        if m is not None:
            tail = p._power_tail(i)
            rows.append(tuple((m if k == i else 0) - tail[k] for k in range(p.n)))
    sat = saturation_basis(rows, p.n) if rows else []
    return [p.normal_form(r) for r in sat]


def _element_order(p, x, cap):
    k = 1
    y = x
    while any(y):
        y = p.multiply(y, x)
        k += 1
        if k > cap:
            raise CapExceeded("element order exceeds cap")
    return k


def torsion_data(p: PcPresentation, cap=10**6) -> TorsionData:
    """The (finite) torsion subgroup tau and all its elements, computed once
    per presentation and cap; m and G^m are found on their first read
    (``TorsionData``).  When the finite relative orders are those of the
    tail g_j, ..., g_{n-1}, tau is read off the pc sequence as <g_j, ...,
    g_{n-1}>, with no centre or quotient built.  CapExceeded when |tau| or
    a quotient on the way to it exceeds the cap."""
    td = p._torsion_data.get(cap)
    if td is None:
        td = p._torsion_data[cap] = _compute_torsion_data(p, cap)
    return td


def _finite_tail(p: PcPresentation):
    """The index j with g_j, ..., g_{n-1} exactly the generators of finite
    relative order, or None when a finite one precedes an infinite one."""
    j = p.n
    while j and p.orders[j - 1] is not None:
        j -= 1
    return None if any(m is not None for m in p.orders[:j]) else j


def _compute_torsion_data(p, cap):
    """tau and its elements; the separating exponent is left to its first
    read (``TorsionData``).

    When the generators of finite relative order are the tail g_j, ...,
    g_{n-1} (j = n for a poly-Z presentation), tau = G_j = <g_j, ...,
    g_{n-1}>, whose elements are the normal forms supported on the tail.
    G_i/G_{i+1} is cyclic of order m_i, so an element whose first nonzero
    exponent sits at an infinite-order g_i, i < j, has infinite order: every
    torsion element lies in G_j, and G_j is finite.  Otherwise tau is read
    off the abelian presentation, or built from the torsion of the centre Z
    and of G/Z by recursion."""
    j = _finite_tail(p)
    if j is not None:
        tau = Subgroup(p, [p.gen(i) for i in range(j, p.n)])
    elif p.is_abelian():
        tau = Subgroup(p, _abelian_torsion_gens(p))
    else:
        zq = center(p)
        qmap = QuotientMap(p, zq, check_normal=False)
        sub_td = torsion_data(qmap.target, cap=cap)
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
    return TorsionData(p, tau, tau.elements(cap=cap), cap)


# ---------------------------------------------------------------------------
# verbal power subgroups


def verbal_power_subgroup(p: PcPresentation, k: int, cap=10**6) -> Subgroup:
    """G^k = <x^k : x in G>, the preimage of the subgroup that the k-th
    powers generate in the finite quotient G/H, H the normal closure of
    the generators' k-th powers (CapExceeded when |G/H| > cap).

    G/H is finite nilpotent, so it is the direct product of its Sylow
    subgroups P, and its k-th powers generate the product of the P^{p^v},
    p^v the part of k at p.  P is generated by the e_p-th powers of the
    generators, where e_p is 1 mod the p-part of |G/H| and 0 mod the rest:
    x -> x^{e_p} is the projection onto P.  When p does not divide k, P
    is its own factor; otherwise the k-th powers are taken over the
    elements of P only, in G/H's own pc presentation."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return Subgroup(p, [p.gen(i) for i in range(p.n)])
    h = Subgroup(p, [p.power(p.gen(i), k) for i in range(p.n)], normal_closure=True)
    qmap = QuotientMap(p, h, check_normal=False)
    q = qmap.target
    order = qmap.order(cap)
    gens = []
    for prime, part in _prime_powers(order):
        rest = order // part
        e = rest * pow(rest, -1, part)  # 1 mod part, 0 mod rest
        sylow = [q.power(g, e) for g in q.generators()]
        if k % prime:
            gens.extend(sylow)
        else:
            gens.extend(q.power(x, k) for x in Subgroup(q, sylow).elements(cap))
    # each factor is characteristic in its Sylow subgroup, so they generate
    # a normal subgroup of G/H, and its preimage is G^k
    return qmap.preimage(Subgroup(q, gens))


def _prime_powers(m):
    """The pairs (p, p^v), p^v the largest power of the prime p dividing m,
    in increasing order of p."""
    out, d = [], 2
    while m > 1:
        if d * d > m:
            d = m
        if m % d == 0:
            part = 1
            while m % d == 0:
                m //= d
                part *= d
            out.append((d, part))
        d += 1
    return out
