"""Exact integer linear algebra: Hermite/Smith forms, f.g. abelian modules.

Everything here works over Z with arbitrary precision.  Matrices are
immutable tuples of tuples; all operations are pure functions returning
new values.  Row convention throughout: module elements are row vectors,
lattices are row spans, and transforms multiply from the left (u*a = h).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct


class CapExceeded(Exception):
    """An enumeration or index exceeded its configured cap."""


class IndexInfinite(Exception):
    """A finite index was required but the quotient is infinite."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a,b) >= 0 and g = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (cols or 0)
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls(tuple((0,) * n for _ in range(m)), cols=n)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix.zeros(self.cols, 0)
        return IntMatrix(tuple(zip(*self.entries)))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(tuple(tuple(other * x for x in r) for r in self.entries))
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = tuple(zip(*other.entries))
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in bt) for r in self.entries)
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        return self + (other * -1)

    def __neg__(self):
        return self * -1

    def apply_row(self, vec) -> tuple:
        """Row vector times matrix: vec (len rows) -> result (len cols)."""
        if len(vec) != self.rows:
            raise ValueError("shape mismatch")
        return tuple(sum(vec[i] * self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular, u*a = h, pivots positive, entries
    above each pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    m, n = a.rows, a.cols
    h = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        # gcd-eliminate everything below `row` in this column
        for i in range(row + 1, m):
            if h[i][col] == 0:
                continue
            aa, bb = h[row][col], h[i][col]
            g, s, t = xgcd(aa, bb)
            p, q = aa // g, bb // g
            h[row], h[i] = (
                [s * x + t * y for x, y in zip(h[row], h[i])],
                [-q * x + p * y for x, y in zip(h[row], h[i])],
            )
            u[row], u[i] = (
                [s * x + t * y for x, y in zip(u[row], u[i])],
                [-q * x + p * y for x, y in zip(u[row], u[i])],
            )
        if row < m and h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            piv = h[row][col]
            for r in range(row):
                q = h[r][col] // piv
                if q:
                    h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[row])]
            row += 1
            if row == m:
                break
    return IntMatrix(h, cols=n), IntMatrix(u, cols=m)


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (d, u, v) with u*a*v = d diagonal,
    d[i][i] >= 0 and d[i][i] | d[i+1][i+1]."""
    m, n = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, k, col):
        # clear d[k][col] against pivot d[i][col]; plain elimination when
        # divisible keeps the pivot row intact (prevents oscillation)
        if d[i][col] and d[k][col] % d[i][col] == 0:
            q = d[k][col] // d[i][col]
            d[k] = [y - q * x for x, y in zip(d[i], d[k])]
            u[k] = [y - q * x for x, y in zip(u[i], u[k])]
            return
        g, s, t = xgcd(d[i][col], d[k][col])
        p, q = d[i][col] // g, d[k][col] // g
        d[i], d[k] = (
            [s * x + t * y for x, y in zip(d[i], d[k])],
            [-q * x + p * y for x, y in zip(d[i], d[k])],
        )
        u[i], u[k] = (
            [s * x + t * y for x, y in zip(u[i], u[k])],
            [-q * x + p * y for x, y in zip(u[i], u[k])],
        )

    def col_op(j, k, rowi):
        if d[rowi][j] and d[rowi][k] % d[rowi][j] == 0:
            q = d[rowi][k] // d[rowi][j]
            for r in range(m):
                d[r][k] -= q * d[r][j]
            for r in range(n):
                v[r][k] -= q * v[r][j]
            return
        g, s, t = xgcd(d[rowi][j], d[rowi][k])
        p, q = d[rowi][j] // g, d[rowi][k] // g
        for r in range(m):
            d[r][j], d[r][k] = s * d[r][j] + t * d[r][k], -q * d[r][j] + p * d[r][k]
        for r in range(n):
            v[r][j], v[r][k] = s * v[r][j] + t * v[r][k], -q * v[r][j] + p * v[r][k]

    for t_ in range(min(m, n)):
        # move a nonzero entry into (t_, t_)
        pr = pc = None
        for i in range(t_, m):
            for j in range(t_, n):
                if d[i][j]:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        if pr != t_:
            d[t_], d[pr] = d[pr], d[t_]
            u[t_], u[pr] = u[pr], u[t_]
        if pc != t_:
            for r in range(m):
                d[r][t_], d[r][pc] = d[r][pc], d[r][t_]
            for r in range(n):
                v[r][t_], v[r][pc] = v[r][pc], v[r][t_]
        while True:
            for i in range(t_ + 1, m):
                if d[i][t_]:
                    row_op(t_, i, t_)
            for j in range(t_ + 1, n):
                if d[t_][j]:
                    col_op(t_, j, t_)
            if any(d[i][t_] for i in range(t_ + 1, m)) or any(
                d[t_][j] for j in range(t_ + 1, n)
            ):
                continue
            # force divisibility of the remaining block by the pivot
            piv = d[t_][t_]
            bad = None
            for i in range(t_ + 1, m):
                for j in range(t_ + 1, n):
                    if d[i][j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            d[t_] = [x + y for x, y in zip(d[t_], d[bad])]
            u[t_] = [x + y for x, y in zip(u[t_], u[bad])]
    for t_ in range(min(m, n)):
        if d[t_][t_] < 0:
            d[t_] = [-x for x in d[t_]]
            u[t_] = [-x for x in u[t_]]
    return IntMatrix(d, cols=n), IntMatrix(u, cols=m), IntMatrix(v, cols=n)


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix (exact, stays integral)."""
    n = a.rows
    if n != a.cols:
        raise ValueError("not square")
    h, u = hnf(a)
    if h != IntMatrix.identity(n):
        raise ValueError("matrix is not unimodular")
    return u


def solve_integer(a: IntMatrix, b) -> tuple[tuple | None, list[tuple]]:
    """Solve a*x = b over Z (b a column vector, len = a.rows).

    Returns (x or None, kernel_basis) with kernel_basis a Z-basis of
    {x : a*x = 0}.  x and basis vectors have length a.cols.
    """
    d, u, v = snf(a)
    m, n = a.rows, a.cols
    r = 0
    while r < min(m, n) and d[r, r] != 0:
        r += 1
    kernel = [v.col(j) for j in range(r, n)]
    c = [sum(u[i, k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        di = d[i, i] if i < min(m, n) else 0
        if di == 0:
            if c[i] != 0:
                return None, kernel
        else:
            if c[i] % di:
                return None, kernel
            y[i] = c[i] // di
    x = tuple(sum(v[i, j] * y[j] for j in range(n)) for i in range(n))
    return x, kernel


def saturation_basis(rows: list, n: int) -> list[tuple]:
    """Basis of the saturation {x in Z^n : d*x in L for some d>0} of the
    row lattice L spanned by `rows`."""
    if not rows:
        return []
    b = IntMatrix(rows)
    d, u, v = snf(b)
    r = 0
    while r < min(b.rows, n) and d[r, r] != 0:
        r += 1
    vinv = inverse_unimodular(v)
    return [vinv.row(i) for i in range(r)]


# ---------------------------------------------------------------------------
# finitely generated abelian modules


@dataclass(frozen=True)
class AbelianModule:
    """Z^free_rank  +  Z/n_1 + ... + Z/n_t with n_1 | n_2 | ... , n_i >= 2.

    Elements are integer coordinate tuples of length free_rank + t,
    free coordinates first.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative rank")
        fs = tuple(int(x) for x in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(x < 2 for x in fs):
            raise ValueError("invariant factors must be >= 2")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite():
            raise IndexInfinite("module is infinite")
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def slot_order(self, i: int) -> int:
        """0 for a free slot, n_i for a torsion slot."""
        return 0 if i < self.free_rank else self.invariant_factors[i - self.free_rank]

    def normal_form(self, vec) -> tuple:
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.rank:
            raise ValueError("coordinate length mismatch")
        s = self.free_rank
        return vec[:s] + tuple(
            v % f for v, f in zip(vec[s:], self.invariant_factors)
        )

    def identity(self) -> tuple:
        return (0,) * self.rank

    def multiply(self, x, y) -> tuple:
        return self.normal_form(tuple(a + b for a, b in zip(x, y)))

    def invert(self, x) -> tuple:
        return self.normal_form(tuple(-a for a in x))

    def power(self, x, k: int) -> tuple:
        return self.normal_form(tuple(k * a for a in x))

    def conjugate(self, x, c) -> tuple:
        """x^c = x: conjugation is trivial."""
        return self.normal_form(x)

    def generators(self) -> tuple:
        """The unit vectors, free slots first."""
        n = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def element_order(self, x) -> int:
        """Order of x (0 meaning infinite)."""
        x = self.normal_form(x)
        if any(x[: self.free_rank]):
            return 0
        n = 1
        s = self.free_rank
        for v, f in zip(x[s:], self.invariant_factors):
            if v:
                g, _, _ = xgcd(v, f)
                k = f // g
                n = n * k // xgcd(n, k)[0]
        return n

    def relation_rows(self) -> list[tuple]:
        s = self.free_rank
        n = self.rank
        return [
            tuple(f if j == s + i else 0 for j in range(n))
            for i, f in enumerate(self.invariant_factors)
        ]

    def elements(self):
        """All elements (finite modules only)."""
        if not self.is_finite():
            raise IndexInfinite("cannot enumerate an infinite module")
        for tup in _iproduct(*(range(f) for f in self.invariant_factors)):
            yield tup

    def exponent(self) -> int:
        if not self.is_finite():
            raise IndexInfinite("infinite module")
        return self.invariant_factors[-1] if self.invariant_factors else 1


class AdaptedQuotient:
    """Quotient Z^n / rowspace(relations) presented as an AbelianModule
    with explicit coordinate transforms both ways."""

    def __init__(self, n: int, relation_rows):
        rows = [tuple(int(x) for x in r) for r in relation_rows]
        if any(len(r) != n for r in rows):
            raise ValueError("relation length mismatch")
        self.n = n
        mat = IntMatrix(rows) if rows else IntMatrix.zeros(0, n)
        d, u, v = snf(mat)
        self._v = v
        self._vinv = inverse_unimodular(v)
        diag = []
        for j in range(n):
            dj = d[j, j] if j < min(mat.rows, n) else 0
            diag.append(dj)
        self._diag = diag
        self._free_slots = [j for j in range(n) if diag[j] == 0]
        self._tors_slots = [j for j in range(n) if diag[j] >= 2]
        self.module = AbelianModule(
            len(self._free_slots), tuple(diag[j] for j in self._tors_slots)
        )

    def coords(self, x) -> tuple:
        """Coordinates of x + L in the adapted module."""
        if len(x) != self.n:
            raise ValueError("length mismatch")
        y = self._v.apply_row(tuple(x))
        out = [y[j] for j in self._free_slots] + [y[j] for j in self._tors_slots]
        return self.module.normal_form(tuple(out))

    def lift(self, coords) -> tuple:
        """A preimage in Z^n of the given module coordinates."""
        coords = self.module.normal_form(coords)
        y = [0] * self.n
        s = self.module.free_rank
        for k, j in enumerate(self._free_slots):
            y[j] = coords[k]
        for k, j in enumerate(self._tors_slots):
            y[j] = coords[s + k]
        return self._vinv.apply_row(tuple(y))


# ---------------------------------------------------------------------------
# submodules via stacked-lattice representation


def _lattice_rows(ambient: AbelianModule, gens) -> tuple[tuple, ...]:
    rows = [ambient.normal_form(g) for g in gens] + ambient.relation_rows()
    h, _ = hnf(IntMatrix(rows)) if rows else (IntMatrix.zeros(0, ambient.rank), None)
    return tuple(r for r in h.entries if any(r))


class Submodule:
    """Submodule of an AbelianModule, canonicalised as the Hermite form of
    the preimage lattice in Z^rank (generators stacked over the ambient
    relation rows)."""

    def __init__(self, ambient: AbelianModule, gens):
        self.ambient = ambient
        self.gens = tuple(ambient.normal_form(g) for g in gens)
        self.lattice = _lattice_rows(ambient, self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ambient == other.ambient
            and self.lattice == other.lattice
        )

    def __hash__(self):
        return hash((self.ambient, self.lattice))

    def __repr__(self):
        return f"Submodule(ambient={self.ambient}, lattice={self.lattice})"

    def _reduce_vec(self, vec):
        """Reduce vec modulo the lattice; zero iff vec is in the lattice."""
        v = list(vec)
        n = self.ambient.rank
        for row in self.lattice:
            lead = next(j for j in range(n) if row[j])
            q = v[lead] // row[lead]
            if q:
                for j in range(n):
                    v[j] -= q * row[j]
        return tuple(v)

    def contains(self, vec) -> bool:
        v = self._reduce_vec(self.ambient.normal_form(vec))
        return not any(v)

    def contains_module(self, other: "Submodule") -> bool:
        return all(self.contains(r) for r in other.lattice)

    def join(self, other: "Submodule") -> "Submodule":
        return Submodule(self.ambient, self.gens + other.gens)

    def index_in_ambient(self) -> int:
        """[ambient : self], raises IndexInfinite when infinite."""
        n = self.ambient.rank
        if len(self.lattice) != n:
            raise IndexInfinite("submodule has infinite index")
        idx = 1
        for i, row in enumerate(self.lattice):
            idx *= row[i] if row[i] else 0
        return idx


def isolator(s: Submodule) -> Submodule:
    """Smallest direct summand of the ambient containing s and all
    ambient torsion: preimage of the saturation of s's image in the
    free part."""
    amb = s.ambient
    fr = amb.free_rank
    proj = [row[:fr] for row in s.lattice]
    proj = [r for r in proj if any(r)]
    sat = saturation_basis(proj, fr) if proj else []
    gens = [tuple(r) + (0,) * len(amb.invariant_factors) for r in sat]
    # all ambient torsion generators
    for i in range(len(amb.invariant_factors)):
        gens.append(tuple(1 if j == fr + i else 0 for j in range(amb.rank)))
    return Submodule(amb, gens)


def coset_representatives(sub: Submodule, sup: Submodule) -> list[tuple]:
    """Representatives of sup/sub (sub <= sup, finite index), reduced to
    canonical form and listed in lexicographic order."""
    if sub.ambient != sup.ambient:
        raise ValueError("ambient mismatch")
    if not sup.contains_module(sub):
        raise ValueError("sub is not contained in sup")
    bsup = IntMatrix(list(sup.lattice))
    k = bsup.rows
    # express sub basis rows in sup coordinates: y * bsup = row
    exprs = []
    for row in sub.lattice:
        y, _ = solve_integer(bsup.transpose(), row)
        if y is None:
            raise ValueError("containment violated")
        exprs.append(y)
    if len(exprs) < k:
        raise IndexInfinite("infinite index")
    mmat = IntMatrix(exprs)
    d, u, v = snf(mmat)
    diag = []
    for j in range(k):
        dj = d[j, j] if j < min(mmat.rows, k) else 0
        if dj == 0:
            raise IndexInfinite("infinite index")
        diag.append(dj)
    vinv = inverse_unimodular(v)
    reps = []
    for tup in _iproduct(*(range(dj) for dj in diag)):
        xprime = tuple(tup)
        x = vinv.apply_row(xprime)  # coordinates w.r.t. bsup rows
        vec = tuple(
            sum(x[i] * bsup[i, j] for i in range(k)) for j in range(bsup.cols)
        )
        reps.append(sub._reduce_vec(sup.ambient.normal_form(vec)))
    reps.sort()
    return reps


# ---------------------------------------------------------------------------
# Hom modules


class HomModule:
    """Hom(domain, codomain) for f.g. abelian modules, with an adapted
    basis of homomorphisms and exact coordinates both ways.

    A homomorphism is stored as its matrix: row i = image of domain
    generator i, written in codomain coordinates.
    """

    def __init__(self, domain: AbelianModule, codomain: AbelianModule):
        self.domain = domain
        self.codomain = codomain
        pairs = []  # (i, j, scale, order); order 0 = free cyclic factor
        for i in range(domain.rank):
            oi = domain.slot_order(i)
            for j in range(codomain.rank):
                mj = codomain.slot_order(j)
                if oi == 0:
                    pairs.append((i, j, 1, mj))
                else:
                    if mj == 0:
                        continue  # Hom(Z/n, Z) = 0
                    g, _, _ = xgcd(oi, mj)
                    if g == 1:
                        continue
                    pairs.append((i, j, mj // g, g))
        self._free_pairs = [p for p in pairs if p[3] == 0]
        self._tors_pairs = [p for p in pairs if p[3] != 0]
        tq = AdaptedQuotient(
            len(self._tors_pairs),
            [
                tuple(p[3] if k == l else 0 for k in range(len(self._tors_pairs)))
                for l, p in enumerate(self._tors_pairs)
            ],
        )
        self._tq = tq
        self.module = AbelianModule(
            len(self._free_pairs), tq.module.invariant_factors
        )
        self.basis = [self.matrix(self._unit(k)) for k in range(self.module.rank)]

    def _unit(self, k):
        return tuple(1 if i == k else 0 for i in range(self.module.rank))

    def _pair_coeffs_to_coords(self, coeffs) -> tuple:
        nf = len(self._free_pairs)
        free = tuple(coeffs[:nf])
        tors = self._tq.coords(tuple(coeffs[nf:]))
        # torsion module has no free part by construction
        return self.module.normal_form(free + tors)

    def _coords_to_pair_coeffs(self, coords) -> tuple:
        coords = self.module.normal_form(coords)
        nf = len(self._free_pairs)
        free = coords[:nf]
        tors = self._tq.lift(coords[nf:])
        return tuple(free) + tuple(tors)

    def matrix(self, coords) -> tuple[tuple, ...]:
        """Matrix of the homomorphism with the given module coordinates."""
        coeffs = self._coords_to_pair_coeffs(coords)
        m = [[0] * self.codomain.rank for _ in range(self.domain.rank)]
        for c, (i, j, scale, _o) in zip(coeffs, self._free_pairs + self._tors_pairs):
            m[i][j] += c * scale
        return tuple(self.codomain.normal_form(tuple(r)) for r in m)

    def coords(self, matrix) -> tuple:
        """Module coordinates of a homomorphism matrix; raises ValueError
        when the matrix is not a valid homomorphism."""
        m = [self.codomain.normal_form(r) for r in matrix]
        if len(m) != self.domain.rank:
            raise ValueError("matrix row count mismatch")
        coeffs = []
        seen = [[0] * self.codomain.rank for _ in range(self.domain.rank)]
        for (i, j, scale, order) in self._free_pairs + self._tors_pairs:
            mj = self.codomain.slot_order(j)
            entry = m[i][j]
            if mj == 0:
                c = entry
            else:
                if entry % scale:
                    raise ValueError(
                        f"entry ({i},{j})={entry} is not a multiple of {scale}: not a homomorphism"
                    )
                c = (entry // scale) % order
            coeffs.append(c)
            seen[i][j] = (c * scale) % mj if mj else c * scale
        for i in range(self.domain.rank):
            for j in range(self.codomain.rank):
                if seen[i][j] != m[i][j]:
                    raise ValueError(
                        f"entry ({i},{j}) violates the order constraints: not a homomorphism"
                    )
        return self._pair_coeffs_to_coords(tuple(coeffs))

    def apply(self, coords, x) -> tuple:
        """Evaluate the homomorphism with given coordinates at x."""
        m = self.matrix(coords)
        x = self.domain.normal_form(x)
        img = [0] * self.codomain.rank
        for i, xi in enumerate(x):
            for j in range(self.codomain.rank):
                img[j] += xi * m[i][j]
        return self.codomain.normal_form(tuple(img))


def hom_module(a: AbelianModule, c: AbelianModule) -> HomModule:
    """Hom(a, c) with an explicit basis of homomorphisms."""
    return HomModule(a, c)
