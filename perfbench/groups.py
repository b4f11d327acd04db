"""The benchmark's groups: a `.pcp` text for each, and a model of each
group in which products are computed without `nilcert`.

A model evaluates words by its own arithmetic (integer unitriangular
matrices, or explicit semidirect and direct product formulas), so the
normal forms `nilcert` returns can be checked against it.  `selftest()`
shows that every model satisfies every relation of its `.pcp` text.
"""

import random


# ---------------------------------------------------------------------------
# models


class Model:
    """A group given by generators and its own multiplication."""

    def __init__(self, one, gens):
        self.one = one
        self.gens = list(gens)

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def power(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        res, base = self.one, a
        while e:
            if e & 1:
                res = self.mul(res, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return res

    def word(self, pairs):
        """Value of prod g_i^e over (i, e) pairs."""
        res = self.one
        for i, e in pairs:
            res = self.mul(res, self.power(self.gens[i], e))
        return res

    def vector(self, vec):
        """Value of the normal-form word prod_i g_i^{v_i}."""
        return self.word(list(enumerate(vec)))


class MatrixModel(Model):
    """Integer unitriangular matrices, as tuples of rows."""

    def __init__(self, dim, gens):
        self.dim = dim
        one = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        super().__init__(one, gens)

    def mul(self, a, b):
        n = self.dim
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(i, j + 1)) for j in range(n))
            for i in range(n)
        )

    def inv(self, a):
        # back substitution: a unitriangular matrix has a unitriangular integer inverse
        n = self.dim
        x = [[int(i == j) for j in range(n)] for i in range(n)]
        for j in range(n):
            for i in range(j - 1, -1, -1):
                x[i][j] = -sum(a[i][k] * x[k][j] for k in range(i + 1, j + 1))
        return tuple(tuple(r) for r in x)


def elementary(dim, i, j, value=1):
    """I + value * E_ij (indices from 1)."""
    return tuple(
        tuple(int(r == c) + (value if (r, c) == (i - 1, j - 1) else 0) for c in range(dim))
        for r in range(dim)
    )


class HeisenbergModModel(Model):
    """(a, b, c) = x^a y^b z^c in H3 with y^x = y z, c taken mod m:
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' - a b')."""

    def __init__(self, m):
        self.m = m
        super().__init__((0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def mul(self, p, q):
        return (p[0] + q[0], p[1] + q[1], (p[2] + q[2] - p[0] * q[1]) % self.m)

    def inv(self, p):
        return (-p[0], -p[1], (-p[2] - p[0] * p[1]) % self.m)


class SemidirectModel(Model):
    """(a, b) = a^a b^b in Z x| Z/m where b^a = b^u:
    (a, b)(a', b') = (a + a', b u^a' + b')."""

    def __init__(self, m, u):
        self.m, self.u = m, u
        super().__init__((0, 0), [(1, 0), (0, 1)])

    def mul(self, p, q):
        return (p[0] + q[0], (p[1] * pow(self.u, q[0], self.m) + q[1]) % self.m)

    def inv(self, p):
        return (-p[0], (-p[1] * pow(self.u, -p[0], self.m)) % self.m)


class FiliformModel(Model):
    """(a, (b, c, d)) in Z x| Z^3, where a acts by b -> bc, c -> cd; the
    action of a^n is b -> b c^n d^(n(n-1)/2), c -> c d^n, for every
    integer n."""

    def __init__(self):
        super().__init__(
            (0, 0, 0, 0), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        )

    @staticmethod
    def act(n, v):
        b, c, d = v
        return (b, c + n * b, d + n * c + n * (n - 1) // 2 * b)

    def mul(self, p, q):
        v = self.act(q[0], p[1:])
        return (p[0] + q[0], v[0] + q[1], v[1] + q[2], v[2] + q[3])

    def inv(self, p):
        v = self.act(-p[0], p[1:])
        return (-p[0], -v[0], -v[1], -v[2])


class ProductModel(Model):
    """Direct product; `slots[k]` lists the generator indices of factor k,
    so generators of different factors may interleave."""

    def __init__(self, factors, slots):
        self.factors = factors
        n = sum(len(s) for s in slots)
        gens = [None] * n
        for k, (f, s) in enumerate(zip(factors, slots)):
            for g, i in zip(f.gens, s):
                gens[i] = tuple(g if kk == k else ff.one for kk, ff in enumerate(factors))
        super().__init__(tuple(f.one for f in factors), gens)

    def mul(self, p, q):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, p, q))

    def inv(self, p):
        return tuple(f.inv(a) for f, a in zip(self.factors, p))


class CyclicModel(Model):
    """Z/m (m = None for Z) on one generator."""

    def __init__(self, m):
        self.m = m
        super().__init__(0, [1])

    def mul(self, a, b):
        return a + b if self.m is None else (a + b) % self.m

    def inv(self, a):
        return -a if self.m is None else (-a) % self.m


# ---------------------------------------------------------------------------
# presentations


def _ut_text(name, n):
    """UT_n(Z) on the elementary generators x_ij = I + E_ij, ordered by
    j - i and then by i.  Conjugating x_jk by x_ij gives x_jk x_ik^-1 and
    conjugating x_ij by x_jk gives x_ij x_ik; other pairs commute."""
    pairs = sorted(((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
                   key=lambda p: (p[1] - p[0], p[0]))
    nm = {p: f"x{p[0]}{p[1]}" for p in pairs}
    lines = [f"group {name}"] + [f"gen {nm[p]} order inf" for p in pairs]
    for ai, a in enumerate(pairs):
        for b in pairs[ai + 1:]:
            if a[1] == b[0]:
                lines.append(f"conj {nm[b]} ^ {nm[a]} = {nm[b]} {nm[(a[0], b[1])]}^-1")
            elif b[1] == a[0]:
                lines.append(f"conj {nm[b]} ^ {nm[a]} = {nm[b]} {nm[(b[0], a[1])]}")
    return "\n".join(lines) + "\n", pairs


def _ut_model(n, pairs):
    return MatrixModel(n, [elementary(n, i, j) for i, j in pairs])


def _h3_text(name, k=1, m=None):
    """H3 with y^x = y z^k, and z of order m (None: infinite)."""
    z = "z" if k == 1 else f"z^{k}"
    text = (f"group {name}\ngen x order inf\ngen y order inf\n"
            f"gen z order {'inf' if m is None else m}\nconj y ^ x = y {z}\n")
    return text + ("pow z = 1\n" if m is not None else "")


def _cyclic_ext_text(name, m, u):
    return f"group {name}\ngen a order inf\ngen b order {m}\nconj b ^ a = b^{u}\npow b = 1\n"


H5_TEXT = """group H5
gen a order inf
gen b order inf
gen c order inf
gen d order inf
gen z order inf
conj b ^ a = b z
conj d ^ c = d z
"""

F4_TEXT = """group F4
gen a order inf
gen b order inf
gen c order inf
gen d order inf
conj b ^ a = b c
conj c ^ a = c d
"""

Z2H3C2_TEXT = """group Z2xH3xC2
gen x order inf
gen y order inf
gen z order inf
gen u order inf
gen v order inf
gen t order 2
conj y ^ x = y z
pow t = 1
"""

H3C2_TEXT = """group H3xC2
gen x order inf
gen y order inf
gen z order inf
gen t order 2
conj y ^ x = y z
pow t = 1
"""


class Group:
    """A benchmark group: name, `.pcp` text, model, and the facts known by
    construction (order of the torsion subgroup, nilpotency class)."""

    def __init__(self, name, text, model, torsion, klass, nf_of=None):
        self.name = name
        self.text = text
        self.model = model
        self.torsion = torsion
        self.klass = klass
        # model value -> normal-form exponent vector (H3-type groups only)
        self.nf_of = nf_of

    @property
    def torsion_free(self):
        return self.torsion == 1


def _h3_matrix_model(k, sign):
    # x = I + k E12, y = I + E23, z = I - sign E13 give y^x = y z^(k*sign)
    return MatrixModel(3, [elementary(3, 1, 2, k), elementary(3, 2, 3),
                           elementary(3, 1, 3, -sign)])


def _h3_matrix_nf(k, sign):
    # x^a y^b z^c = [[1, k a, k a b - sign c], [0, 1, b], [0, 0, 1]]
    def nf(v):
        a, b = v[0][1] // k, v[1][2]
        return (a, b, sign * (k * a * b - v[0][2]))
    return nf


def _h3_mod_nf(m):
    # x^a y^b z^c = (a, b, c - a b) in HeisenbergModModel
    return lambda v: (v[0], v[1], (v[2] + v[0] * v[1]) % m)


def _build():
    ut4_text, ut4_pairs = _ut_text("UT4", 4)
    ut5_text, ut5_pairs = _ut_text("UT5", 5)
    h5 = MatrixModel(4, [elementary(4, 1, 2), elementary(4, 2, 4), elementary(4, 1, 3),
                         elementary(4, 3, 4), elementary(4, 1, 4, -1)])
    h3 = _h3_matrix_model(1, 1)
    groups = [
        # name, text, model, torsion order, nilpotency class
        Group("H3", _h3_text("H3"), h3, 1, 2, _h3_matrix_nf(1, 1)),
        Group("H3inv", _h3_text("H3inv", k=-1), _h3_matrix_model(1, -1), 1, 2,
              _h3_matrix_nf(1, -1)),
        # y^x = y z^-2, that is [x, y] = z^2
        Group("H3sq", _h3_text("H3sq", k=-2), _h3_matrix_model(2, -1), 1, 2,
              _h3_matrix_nf(2, -1)),
        Group("H5", H5_TEXT, h5, 1, 2),
        Group("F4", F4_TEXT, FiliformModel(), 1, 3),
        Group("UT4", ut4_text, _ut_model(4, ut4_pairs), 1, 3),
        Group("UT5", ut5_text, _ut_model(5, ut5_pairs), 1, 4),
        Group("Q", _h3_text("Q", m=2), HeisenbergModModel(2), 2, 2, _h3_mod_nf(2)),
        Group("Q3", _h3_text("Q3", m=3), HeisenbergModModel(3), 3, 2, _h3_mod_nf(3)),
        Group("Q4", _h3_text("Q4", m=4), HeisenbergModModel(4), 4, 2, _h3_mod_nf(4)),
        Group("M", _cyclic_ext_text("M", 4, 3), SemidirectModel(4, 3), 4, 2),
        Group("M8", _cyclic_ext_text("M8", 8, 3), SemidirectModel(8, 3), 8, 3),
        Group("M9", _cyclic_ext_text("M9", 9, 4), SemidirectModel(9, 4), 9, 2),
        Group("Z2xH3xC2", Z2H3C2_TEXT,
              ProductModel([h3, CyclicModel(None), CyclicModel(None), CyclicModel(2)],
                           [[0, 1, 2], [3], [4], [5]]), 2, 2),
        Group("H3xC2", H3C2_TEXT,
              ProductModel([h3, CyclicModel(2)], [[0, 1, 2], [3]]), 2, 2),
    ]
    return {g.name: g for g in groups}


GROUPS = _build()


# ---------------------------------------------------------------------------
# self-test


def relations(text):
    """(lhs pairs, rhs pairs) for every relation of a `.pcp` text, read
    with this module's own line parser: conj b ^ a = w means a^-1 b a = w,
    and pow a = w means a^m = w (an omitted pow line means a^m = 1)."""
    names, orders, rels, seen_pow = [], [], [], set()

    def word(toks):
        out = []
        for tok in toks:
            if tok == "1":
                continue
            base, _, e = tok.partition("^")
            out.append((names.index(base), int(e) if e else 1))
        return out

    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0] == "group":
            continue
        if toks[0] == "gen":
            names.append(toks[1])
            orders.append(None if toks[3] == "inf" else int(toks[3]))
        elif toks[0] == "conj":
            b, a = toks[1], toks[3]
            e = -1 if a.endswith("^-1") else 1
            ia = names.index(a[:-3] if e < 0 else a)
            rels.append(([(ia, -e), (names.index(b), 1), (ia, e)], word(toks[5:])))
        elif toks[0] == "pow":
            i = names.index(toks[1])
            seen_pow.add(i)
            rels.append(([(i, orders[i])], word(toks[3:])))
    for i, m in enumerate(orders):
        if m is not None and i not in seen_pow:
            rels.append(([(i, m)], []))
    return names, orders, rels


def check_relations(model, text):
    """The relations of `text` that `model` violates."""
    _names, _orders, rels = relations(text)
    return [f"{lhs} = {rhs}" for lhs, rhs in rels if model.word(lhs) != model.word(rhs)]


def check_faithful(model, orders, rng, samples=400, box=3):
    """Distinct normal forms drawn at random have distinct model values,
    so a wrong normal form cannot pass as a right one."""
    seen = {}
    for _ in range(samples):
        vec = tuple(rng.randint(-box, box) if m is None else rng.randrange(m)
                    for m in orders)
        value = model.vector(vec)
        if seen.setdefault(value, vec) != vec:
            return [f"{seen[value]} and {vec} have the same value"]
    return []


def check_nf_of(group, orders, rng, samples=200, box=5):
    """`nf_of` reads every sampled normal form back from its model value."""
    for _ in range(samples):
        vec = tuple(rng.randint(-box, box) if m is None else rng.randrange(m)
                    for m in orders)
        if group.nf_of(group.model.vector(vec)) != vec:
            return [f"nf_of reads {vec} back as {group.nf_of(group.model.vector(vec))}"]
    return []


def selftest():
    """Every model satisfies every relation of its `.pcp` text, tells
    apart the normal forms of a random sample, and (H3-type groups) gives
    them back through `nf_of`."""
    failures = {}
    rng = random.Random(0)
    for g in GROUPS.values():
        orders = relations(g.text)[1]
        bad = check_relations(g.model, g.text)
        bad += check_faithful(g.model, orders, rng)
        if g.nf_of is not None:
            bad += check_nf_of(g, orders, rng)
        if bad:
            failures[g.name] = bad
    return failures
