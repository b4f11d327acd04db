"""Exact rational calculus for unipotent matrix groups.

Upper unitriangular matrices over Q, the mutually inverse exp and log
series between them and the strictly upper triangular matrices, and
matrix embeddings of torsion-free polycyclic groups.

The embedding images are integral by construction, so once they are
interpolated, the relation check and the injectivity scan run on tuples
of int rows through a small integer unitriangular kernel (`_imul`,
`_iinv`, `_ipow`); `QMatrix` stays the exact rational type of the API.
"""

import math
from fractions import Fraction

from .nilgroup import lower_central_series, torsion_data


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class QMatrix:
    """Immutable matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        rows = tuple(tuple(_frac(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (cols or 0)
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMatrix":
        return cls(tuple((Fraction(0),) * n for _ in range(m)), cols=n)

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"QMatrix({[[str(x) for x in r] for r in self.entries]})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = _frac(other)
            return QMatrix(
                tuple(tuple(s * x for x in r) for r in self.entries), cols=self.cols
            )
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = tuple(zip(*other.entries)) if other.rows else ()
        return QMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(r, c) if a and b) for c in bt)
                for r in self.entries
            ),
            cols=other.cols,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            cols=self.cols,
        )

    def __sub__(self, other):
        return self + (other * -1)

    def __neg__(self):
        return self * -1

    def __pow__(self, e: int) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        result = QMatrix.identity(self.rows)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def inverse(self) -> "QMatrix":
        """Exact inverse by Gauss-Jordan elimination."""
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of non-square matrix")
        a = [list(r) for r in self.entries]
        inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = None
            for i in range(col, n):
                if a[i][col]:
                    piv = i
                    break
            if piv is None:
                raise ValueError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            s = a[col][col]
            a[col] = [x / s for x in a[col]]
            inv[col] = [x / s for x in inv[col]]
            for i in range(n):
                if i != col and a[i][col]:
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                    inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
        return QMatrix(inv)

    def is_identity(self) -> bool:
        return self == QMatrix.identity(self.rows) if self.rows == self.cols else False

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.entries for x in r)


def _as_qmatrix(x) -> QMatrix:
    if isinstance(x, QMatrix):
        return x
    if isinstance(x, (UniTriangular, StrictUpper)):
        return x.mat
    return QMatrix(x)


def matrix_to_json(m) -> list:
    """Nested lists with exact entries rendered as 'p/q' strings."""
    m = _as_qmatrix(m)
    return [[str(x) for x in r] for r in m.entries]


def matrix_from_json(data) -> QMatrix:
    return QMatrix(tuple(tuple(_frac(x) for x in row) for row in data))


class UniTriangular:
    """Upper triangular rational matrix with unit diagonal."""

    __slots__ = ("mat",)

    def __init__(self, entries):
        m = _as_qmatrix(entries)
        if m.rows != m.cols:
            raise ValueError("not square")
        for i in range(m.rows):
            if m[i, i] != 1:
                raise ValueError("diagonal entry is not 1")
            for j in range(i):
                if m[i, j] != 0:
                    raise ValueError("nonzero entry below the diagonal")
        self.mat = m

    @property
    def n(self):
        return self.mat.rows

    @classmethod
    def identity(cls, n: int) -> "UniTriangular":
        return cls(QMatrix.identity(n))

    def __mul__(self, other):
        return UniTriangular(self.mat * _as_qmatrix(other))

    def __pow__(self, e: int) -> "UniTriangular":
        return UniTriangular(self.mat ** e)

    def inverse(self) -> "UniTriangular":
        return UniTriangular(self.mat.inverse())

    def __eq__(self, other):
        return isinstance(other, UniTriangular) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"UniTriangular({[[str(x) for x in r] for r in self.mat.entries]})"

    def __getitem__(self, ij):
        return self.mat[ij]

    def is_identity(self) -> bool:
        return self.mat.is_identity()

    def is_integral(self) -> bool:
        return self.mat.is_integral()


class StrictUpper:
    """Strictly upper triangular rational matrix; nilpotent by shape."""

    __slots__ = ("mat",)

    def __init__(self, entries):
        m = _as_qmatrix(entries)
        if m.rows != m.cols:
            raise ValueError("not square")
        for i in range(m.rows):
            for j in range(i + 1):
                if m[i, j] != 0:
                    raise ValueError("nonzero entry on or below the diagonal")
        self.mat = m

    @property
    def n(self):
        return self.mat.rows

    def __eq__(self, other):
        return isinstance(other, StrictUpper) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"StrictUpper({[[str(x) for x in r] for r in self.mat.entries]})"

    def __getitem__(self, ij):
        return self.mat[ij]


# ---------------------------------------------------------------------------
# exp and log


def expm(m) -> UniTriangular:
    """exp of a strictly upper triangular matrix: the finite series
    sum of m^k / k! for k < n."""
    a = StrictUpper(m).mat
    n = a.rows
    total = QMatrix.identity(n)
    term = QMatrix.identity(n)
    for k in range(1, n):
        term = term * a * Fraction(1, k)
        total = total + term
    return UniTriangular(total)


def logm(u) -> StrictUpper:
    """log of a unitriangular matrix: the finite alternating series
    sum of (-1)^(k+1) (u - I)^k / k for k < n."""
    um = UniTriangular(u).mat
    n = um.rows
    x = um - QMatrix.identity(n)
    total = QMatrix.zeros(n, n)
    term = QMatrix.identity(n)
    for k in range(1, n):
        term = term * x
        total = total + term * Fraction((-1) ** (k + 1), k)
    return StrictUpper(total)


# ---------------------------------------------------------------------------
# matrix embeddings of torsion-free groups


def _elementary(n, i, j, value=1) -> QMatrix:
    rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    rows[i][j] = rows[i][j] + _frac(value)
    return QMatrix(rows)


class _RowDecoder:
    """Reads the group coordinates back out of the columns `cols` of
    the matrix rows `rows`; the readout is the injectivity certificate
    for the embedding."""

    def __init__(self, rows, cols, fn):
        self.rows = rows
        self.cols = cols
        self.fn = fn

    def __call__(self, rowvals):
        return self.fn(rowvals)


def _decoder_abelian(n):
    def fn(rowvals):
        r0 = rowvals[0]
        return tuple(r0[i + 1] for i in range(n))

    return _RowDecoder((0,), tuple(range(1, n + 1)), fn)


def _decoder_heisenberg(sign, k):
    def fn(rowvals):
        r0, r1 = rowvals[0], rowvals[1]
        a = sign * r0[1]
        kb = r1[2]
        if kb % k:
            raise RuntimeError("embedding readout failed")
        return (a, kb // k, r0[2] - r0[1] * kb)

    return _RowDecoder((0, 1), (1, 2), fn)


def _curated_images(p):
    """Exact integral embeddings for the stock families: free abelian
    groups and the central extensions with [x, y] = z^k."""
    if any(o is not None for o in p.orders):
        return None
    trivial_conj = all(v == p.gen(j) for (_i, j), v in p.conj.items())
    if trivial_conj:
        # Z^n inside (n+1) x (n+1): commuting first-row elementaries
        n = p.n
        images = [UniTriangular(_elementary(n + 1, 0, i + 1)) for i in range(n)]
        return images, _decoder_abelian(n)
    if p.n == 3:
        tails = {key: v for key, v in p.conj.items() if v != p.gen(key[1])}
        if set(tails) == {(0, 1)}:
            v = tails[(0, 1)]
            if v[:2] == (0, 1) and v[2] != 0:
                t = v[2]
                k = -t if t < 0 else t
                sign = 1 if t < 0 else -1
                x = _elementary(3, 0, 1, sign)
                y = _elementary(3, 1, 2, k)
                z = _elementary(3, 0, 2)
                images = [UniTriangular(x), UniTriangular(y), UniTriangular(z)]
                return images, _decoder_heisenberg(sign, k)
    return None


def _series_weights(p, gamma):
    """Weight of each generator: the deepest term of the lower central
    series containing it."""
    weights = []
    for i in range(p.n):
        g = p.gen(i)
        w = 1
        for idx in range(1, len(gamma) - 1):
            if gamma[idx].contains(g):
                w = idx + 1
        weights.append(w)
    return weights


def _monomial_basis(weights, c):
    """Exponent vectors with weighted degree <= c, ascending by degree."""
    n = len(weights)
    out = []

    def rec(pos, left, cur):
        if pos == n:
            out.append(tuple(cur))
            return
        e = 0
        while e * weights[pos] <= left:
            rec(pos + 1, left - e * weights[pos], cur + [e])
            e += 1

    rec(0, c, [])
    out.sort(key=lambda a: (sum(e * w for e, w in zip(a, weights)), a))
    return out


def _eval_monomial(alpha, point):
    v = Fraction(1)
    for e, x in zip(alpha, point):
        if e:
            v *= Fraction(x) ** e
    return v


def _regular_action_images(p, gamma, c):
    """Images of the generators acting on polynomial functions of the
    normal-form coordinates with bounded weighted degree.

    The matrix of right translation by g in the monomial basis is
    unitriangular for the degree-ascending order, and the first row
    reads off the coordinates of g, which pins down injectivity."""
    if any(o is not None for o in p.orders):
        raise ValueError(
            "matrix embedding needs infinite relative orders; "
            "re-present the group on a torsion-free polycyclic sequence"
        )
    weights = _series_weights(p, gamma)
    basis = _monomial_basis(weights, c)
    nb = len(basis)
    pts = basis  # integer interpolation nodes on the same staircase
    vand = QMatrix([[_eval_monomial(beta, pt) for beta in basis] for pt in pts])
    vinv = vand.inverse()
    # den * vinv is an integer matrix, so interpolation is one integer
    # matrix product per generator followed by a division by den
    den = math.lcm(*(x.denominator for r in vinv.entries for x in r))
    wint = [[int(x * den) for x in r] for r in vinv.entries]
    wdeg = [sum(e * w for e, w in zip(a, weights)) for a in basis]
    images = []
    for i in range(p.n):
        g = p.gen(i)
        moved = [p.multiply(pt, g) for pt in pts]
        vals = [[int(_eval_monomial(alpha, mv)) for alpha in basis] for mv in moved]
        mat = [[Fraction(x, den) for x in r] for r in _imul(wint, vals)]
        for a in range(nb):
            for b in range(nb):
                if a == b:
                    if mat[a][b] != 1:
                        raise ValueError("action matrix is not unitriangular")
                elif wdeg[a] >= wdeg[b] and mat[a][b] != 0:
                    raise ValueError("action matrix is not unitriangular")
        images.append(mat)
    # clear denominators by conjugating with diag(d^degree)
    d = math.lcm(*(x.denominator for mat in images for r in mat for x in r))
    images = [
        [[x * d ** (wdeg[b] - wdeg[a]) if x else x for b, x in enumerate(r)]
         for a, r in enumerate(mat)]
        for mat in images
    ]
    if any(x.denominator != 1 for mat in images for r in mat for x in r):
        raise ValueError("denominator clearing failed")
    out = [UniTriangular(m) for m in images]
    # the first row of the image of g carries g's coordinates in the
    # columns of the degree-one coordinate monomials, scaled by d^weight
    coord_cols = []
    for k in range(p.n):
        ek = tuple(1 if t == k else 0 for t in range(p.n))
        coord_cols.append((basis.index(ek), d ** weights[k]))

    def fn(rowvals):
        r0 = rowvals[0]
        coords = []
        for colidx, sc in coord_cols:
            v, rem = divmod(r0[colidx], sc)
            if rem:
                raise RuntimeError("embedding readout failed")
            coords.append(v)
        return tuple(coords)

    return out, _RowDecoder((0,), tuple(col for col, _sc in coord_cols), fn)


# integer unitriangular kernel: matrices are tuples of int row tuples


def _int_rows(m: QMatrix) -> tuple:
    """The rows of an integral matrix as int tuples; a non-integral
    entry raises ValueError instead of being truncated."""
    if any(x.denominator != 1 for r in m.entries for x in r):
        raise ValueError("matrix has a non-integral entry")
    return tuple(tuple(x.numerator for x in r) for r in m.entries)


def _ieye(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _imul(a, b) -> tuple:
    """Integer matrix product, skipping zero entries of both factors."""
    out = []
    for r in a:
        acc = [0] * len(b[0])
        for x, brow in zip(r, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _iinv(u) -> tuple:
    """Inverse of an integer unitriangular matrix by back substitution:
    row i of the inverse is e_i minus u[i][t] times its row t, t > i."""
    n = len(u)
    inv = [None] * n
    for i in range(n - 1, -1, -1):
        row = [int(j == i) for j in range(n)]
        for t in range(i + 1, n):
            x = u[i][t]
            if x:
                for j in range(t, n):
                    row[j] -= x * inv[t][j]
        inv[i] = tuple(row)
    return tuple(inv)


def _ipow(m, e: int) -> tuple:
    """m^e for an integer unitriangular m, by repeated squaring."""
    if e < 0:
        m, e = _iinv(m), -e
    res = _ieye(len(m))
    while e:
        if e & 1:
            res = _imul(res, m)
        e >>= 1
        if e:
            m = _imul(m, m)
    return res


def _verify_relations(p, images):
    mats = [_int_rows(u.mat) for u in images]
    inverses = [_iinv(m) for m in mats]

    def image_of(vec):
        acc = _ieye(len(mats[0]))
        for m, e in zip(mats, vec):
            if e:
                acc = _imul(acc, _ipow(m, e))
        return acc

    for i in range(p.n):
        for j in range(i + 1, p.n):
            lhs = _imul(_imul(inverses[i], mats[j]), mats[i])
            rhs = image_of(p._conj_image(i, j))
            if lhs != rhs:
                raise RuntimeError(f"matrix images violate the conjugation relation ({i},{j})")
    for i in range(p.n):
        if p.orders[i] is not None:
            lhs = _ipow(mats[i], p.orders[i])
            rhs = image_of(p._power_tail(i))
            if lhs != rhs:
                raise RuntimeError(f"matrix images violate the power relation at {i}")


def _verify_box_injectivity(p, images, decoder, radius=3, box_cap=20000):
    """Certify injectivity on normal forms with exponents in
    [-radius, radius]: every box element must decode back to its own
    exponent vector, which separates all of them at once.  The scan is
    exhaustive when the box is small and seeded-random otherwise.

    A box element's decoder rows are the unit rows pushed through the
    generator powers in turn, each power held as sparse columns; the
    last step of the exhaustive scan computes only the decoder's columns."""
    import random as _random

    exps = range(-radius, radius + 1)
    columns = []  # per generator: exponent -> [(row, entry) nonzero] per column
    for u in images:
        m = _int_rows(u.mat)
        columns.append({
            e: [[(i, x) for i, x in enumerate(col) if x] for col in zip(*_ipow(m, e))]
            for e in exps
        })
    every = range(images[0].n)

    def push(rowvecs, depth, e, cols):
        sparse = columns[depth][e]
        return {
            ri: {j: sum(v[i] * x for i, x in sparse[j]) for j in cols}
            for ri, v in rowvecs.items()
        }

    def decode_ok(rowvals, vec):
        if decoder(rowvals) != vec:
            raise RuntimeError(f"embedding readout disagrees at {vec}")

    start = {ri: {j: int(j == ri) for j in every} for ri in decoder.rows}
    if (2 * radius + 1) ** p.n <= box_cap:
        def rec(depth, rowvecs, prefix):
            if depth == p.n:
                decode_ok(rowvecs, prefix)
                return
            cols = decoder.cols if depth == p.n - 1 else every
            for e in exps:
                rec(depth + 1, push(rowvecs, depth, e, cols), prefix + (e,))

        rec(0, start, ())
        return
    rng = _random.Random(2)
    for _ in range(200):
        vec = tuple(rng.randint(-radius, radius) for _ in range(p.n))
        rowvecs = start
        for depth, e in enumerate(vec):
            rowvecs = push(rowvecs, depth, e, every)
        decode_ok(rowvecs, vec)


def embed_matrix_group(p, class_cap: int = 3):
    """Integral unitriangular images of the generators of a torsion-free
    polycyclic presentation; relations and test-box injectivity are
    verified, in integer arithmetic, before returning."""
    td = torsion_data(p)
    if not td.tau.is_trivial():
        raise ValueError("group has torsion; no unitriangular embedding exists")
    gamma = lower_central_series(p)
    # the series list holds gamma_1 .. gamma_(c+1) = 1, so c = length - 1
    c = max(1, len(gamma) - 1)
    if c > class_cap:
        raise ValueError(f"nilpotency class {c} exceeds the cap {class_cap}")
    built = _curated_images(p)
    if built is None:
        built = _regular_action_images(p, gamma, c)
    images, decoder = built
    _verify_relations(p, images)
    _verify_box_injectivity(p, images, decoder)
    return images
