"""The four workloads: seeded inputs, the operations run on them, and the
checks of every output against answers known by construction.

A workload builds its operations one round at a time.  Every round holds
the same kinds of operations in the same numbers; the seed and the round
index choose the random parts (words, elements, conjugators, names).  An
operation parses its own groups, so no operation profits from caches that
an earlier one filled.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import groups as G

# The failing operations kept in the workloads; each fails on every run
# because of a fault named in the README.
FAULT_H5 = "whitehead H5 a vs a*z: no answer within the time limit"
FAULT_M = "whitehead M (a) vs (a*b): KeyError in FiniteGroupTable.project"
FAULT_M8 = "separate-torsion M8: no answer within the time limit"

# Time limit of the two operations that never end today, in seconds.
HANG_LIMIT_S = 3.0


class Op:
    """One operation.  `call()` is timed; `verify()` (CLI workloads) is
    timed apart; `check(result)` runs untimed and returns a list of
    problems.  `prepare()` runs untimed before the call."""

    def __init__(self, label, call, check, prepare=None, verify=None,
                 fault=None, limit=None):
        self.label = label
        self.call = call
        self.check = check
        self.prepare = prepare
        self.verify = verify
        self.fault = fault
        self.limit = limit


# ---------------------------------------------------------------------------
# normal-form


# Per group: the bound E of the large exponents (drawn from [E/2, E] with
# a random sign).  E is sized so that no word takes much more than a second.
NF_LARGE = {"H3": 400, "H5": 100, "F4": 300, "UT4": 24, "UT5": 16,
            "Q": 600, "M": 1000, "Z2xH3xC2": 300}
# 72 words a round, a dozen rounds and more a run, so that the median over
# rounds is not moved by the rare word that costs a second
NF_SMALL_PER_GROUP = 6
NF_LARGE_PER_GROUP = 3
NF_WORD_LENGTH = 8


def _check_normal_form(group, orders, word, nf):
    if len(nf) != len(orders) or any(
        m is not None and not 0 <= e < m for e, m in zip(nf, orders)
    ):
        return [f"{group.name}: {nf} is not a normal form"]
    if group.model.word(word) != group.model.vector(nf):
        return [f"{group.name}: word {word} collected to {nf}, model disagrees"]
    return []


class NormalForm:
    name = "normal-form"

    def __init__(self, api):
        self.api = api

    def setup(self, seed):
        for name in NF_LARGE:
            p = self.api.parse_pcp(G.GROUPS[name].text).presentation
            p.collect([(i, 2) for i in range(p.n)])

    def round(self, seed, index):
        rng = random.Random(f"normal-form:{seed}:{index}")
        ops = []
        for name, big in NF_LARGE.items():
            group = G.GROUPS[name]
            n = len(G.relations(group.text)[1])
            for k in range(NF_SMALL_PER_GROUP + NF_LARGE_PER_GROUP):
                if k < NF_SMALL_PER_GROUP:
                    word = [(rng.randrange(n), rng.randint(-3, 3))
                            for _ in range(NF_WORD_LENGTH)]
                else:
                    word = [(rng.randrange(n), rng.choice((-1, 1)) * rng.randint(big // 2, big))
                            for _ in range(NF_WORD_LENGTH)]
                ops.append(self._op(group, word, "small" if k < NF_SMALL_PER_GROUP else "large"))
        rng.shuffle(ops)
        return ops

    def _op(self, group, word, size):
        state = {}

        def prepare():
            state["p"] = self.api.parse_pcp(group.text).presentation

        def call():
            return state["p"].collect(word)

        def check(nf):
            return _check_normal_form(group, state["p"].orders, word, nf)

        return Op(f"collect {group.name} {size}", call, check, prepare=prepare)


# ---------------------------------------------------------------------------
# helpers shared by the CLI workloads


class Cli:
    """Runs `nilcert.cli.main` in-process, as a user would, and re-checks
    each report with `main(["verify", report])`."""

    def __init__(self, api, tmp):
        self.api = api
        self.tmp = tmp
        self.count = 0

    def path(self, stem):
        self.count += 1
        return os.path.join(self.tmp, f"{self.count}-{stem}")

    def write(self, stem, text):
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.api.main(argv)
        lines = out.getvalue().strip().splitlines()
        return code, (json.loads(lines[-1]) if lines else None)

    def op(self, label, argv, check, files=(), fault=None, limit=None):
        """An operation `nilcert <argv> --json --report R` followed by
        `nilcert verify R --json`; `files` are (stem, text) inputs written
        untimed, whose paths replace `{0}`, `{1}`, ... in argv."""
        state = {}

        def prepare():
            paths = [self.write(stem, text) for stem, text in files]
            state["report"] = self.path("report.json")
            state["argv"] = [a.format(*paths) for a in argv] + [
                "--json", "--report", state["report"]]

        def call():
            return self.run(state["argv"])

        def verify():
            return self.run(["verify", state["report"], "--json"])

        def full_check(result):
            code, out = result
            problems = check(code, out)
            if code in (0, 2):
                vcode, vout = state["verified"]
                if vcode != 0 or not (vout or {}).get("verified"):
                    problems.append(f"{label}: verify rejected the report: {vout}")
            for path in state["argv"] + [state["report"]]:
                if path.startswith(self.tmp) and os.path.exists(path):
                    os.remove(path)
            return problems

        def timed_verify():
            state["verified"] = verify()
            return state["verified"]

        return Op(label, call, full_check, prepare=prepare, verify=timed_verify,
                  fault=fault, limit=limit)

    def setup_inputs(self, texts, gogs):
        """Load every input through parse_pcp / parse_gog."""
        for text in texts:
            self.api.parse_pcp(text)
        for text in gogs:
            self.api.parse_gog(text)


# -- elements and automorphisms of the H3-type groups ------------------------
#
# H3, H3inv, H3sq, Q and Q3 are x, y, z with y^x = y z^k and z central.
# Any A = (p q; r s) in GL2(Z) lifts to the automorphism
# x -> x^p y^q z^c1, y -> x^r y^s z^c2, z -> z^det(A).


def _central_range(orders, box=1):
    m = orders[2]
    return list(range(-box, box + 1)) if m is None else list(range(0, min(m, box + 1)))


def _z_image(orders, det):
    return det if orders[2] is None else det % orders[2]


# GL2(Z) matrices with entries in {-1, 0, 1}.  An Equivalent instance on
# the i-th group uses the i-th matrix whose lift lies in the box, in every
# round, so the sweep covers the same share of the box whatever the seed.
SWEEP_MATRICES = [((-1, 0), (0, 1)), ((-1, 1), (0, 1)), ((-1, 0), (1, -1)),
                  ((0, 1), (1, 0)), ((0, -1), (1, 1)), ((0, 1), (-1, 1))]


def random_basis(rng, steps=3):
    """A random basis of Z^2 (rows of a matrix in GL2(Z))."""
    a, b = [1, 0], [0, 1]
    for _ in range(steps):
        k = rng.choice((-1, 1))
        if rng.random() < 0.5:
            a = [a[0] + k * b[0], a[1] + k * b[1]]
        else:
            b = [b[0] + k * a[0], b[1] + k * a[1]]
    if rng.random() < 0.5:
        a, b = b, a
    return a, b


def _rand_z(orders, rng, box=2):
    m = orders[2]
    return rng.randint(-box, box) if m is None else rng.randrange(m)


class H3Arith:
    """Products in an H3-type group, computed in the group's model and
    read back as normal-form exponent vectors."""

    def __init__(self, group):
        self.group = group
        self.orders = G.relations(group.text)[1]
        self.model = group.model

    def _nf(self, value):
        return self.group.nf_of(value)

    def _value(self, vec):
        return self.model.vector(vec)

    def mul(self, a, b):
        return self._nf(self.model.mul(self._value(a), self._value(b)))

    def inv(self, a):
        return self._nf(self.model.inv(self._value(a)))

    def conj(self, a, c):
        """a^c = c^-1 a c."""
        m, cv = self.model, self._value(c)
        return self._nf(m.mul(m.mul(m.inv(cv), self._value(a)), cv))

    def power(self, a, k):
        return self._nf(self.model.power(self._value(a), k))

    def apply(self, images, a):
        """Image of a under the endomorphism with these generator images."""
        m = self.model
        res = m.one
        for v, e in zip(images, a):
            res = m.mul(res, m.power(self._value(v), e))
        return self._nf(res)

    def random(self, rng, box=2):
        return tuple(rng.randint(-box, box) if m is None else rng.randrange(m)
                     for m in self.orders)

    def primitive(self, rng):
        """An element whose image in the abelianization Z^2 is primitive."""
        (a, b), _ = random_basis(rng)
        return (a, b, _rand_z(self.orders, rng))

    def automorphism(self, slot):
        """Generator images of a lift of the matrix at `slot` (cyclically)
        among the SWEEP_MATRICES whose lift lies in the budget-1 box.  The
        central parts are the least in the box, so this lift is the first
        automorphism of its coset of inner automorphisms that the sweep
        meets."""
        zs = _central_range(self.orders)
        usable = [m for m in SWEEP_MATRICES if _z_image(self.orders, _det(m)) in zs]
        (p, q), (r, s) = matrix = usable[slot % len(usable)]
        return [(p, q, zs[0]), (r, s, zs[0]), (0, 0, _z_image(self.orders, _det(matrix)))]


def _det(matrix):
    (p, q), (r, s) = matrix
    return p * s - q * r


# ---------------------------------------------------------------------------
# whitehead


WH_GROUPS = ["H3", "H3inv", "H3sq", "Q", "Q3"]
# (k, shape) of the seven NotEquivalent instances per group and round.
# A refutation in G/G^2 takes about 12 ms, except on H3sq, whose G/G^2 is
# larger; one in G/G^3 a quarter second.  With these numbers a round's
# median falls among the 25 cheap G/G^2 refutations and its p75 among the
# ten G/G^3 ones, not on an edge between two kinds of operation.
_K2 = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 1), (2, 2)]
WH_NOT_EQUIVALENT = {"H3": _K2 + [(3, 0)], "H3inv": _K2 + [(3, 3)], "Q3": _K2 + [(3, 0)],
                     "Q": _K2 + [(2, 0)], "H3sq": [(3, sh) for sh in (0, 1, 2, 3, 0, 1, 2)]}


def _instance_json(group_text, s, t):
    return json.dumps({"group": {"kind": "pc", "text": group_text},
                       "s": [[list(x) for x in tup] for tup in s],
                       "t": [[list(x) for x in tup] for tup in t]})


def _verdict_check(label, expected):
    def check(code, out):
        if code not in (0, 2) or not isinstance(out, dict) or "kind" not in out:
            return [f"{label}: exit {code}, output {out}"]
        if out["kind"] != expected:
            return [f"{label}: answered {out['kind']}, known answer {expected}"]
        return []
    return check


class Whitehead:
    name = "whitehead"

    def __init__(self, api, cli):
        self.api = api
        self.cli = cli
        self.first_inputs = None

    def setup(self, seed):
        texts = [_instance_group(text) for text in self.first_inputs]
        self.cli.setup_inputs(texts, [])

    def round(self, seed, index):
        rng = random.Random(f"whitehead:{seed}:{index}")
        ops, texts = [], []
        for gi, name in enumerate(WH_GROUPS):
            group = G.GROUPS[name]
            ar = H3Arith(group)
            images = ar.automorphism(gi)
            # Equivalent: T = sigma(S) conjugated, sigma inside the budget-1 box
            a, b = random_basis(rng)
            s = [[(a[0], a[1], _rand_z(ar.orders, rng)), (b[0], b[1], _rand_z(ar.orders, rng))],
                 [ar.random(rng)]]
            t = _moved(ar, images, s, rng)
            ops.append(self._op(f"whitehead {name} equivalent", group, s, t, "equivalent", texts))
            # NotEquivalent: one entry of T is a k-th power, so its image in
            # G/G^k is trivial while the matching entry of S is primitive
            for k, shape in WH_NOT_EQUIVALENT[name]:
                s, t = _not_equivalent(ar, images, k, shape, rng)
                ops.append(self._op(f"whitehead {name} not-equivalent k={k}",
                                    group, s, t, "not_equivalent", texts))
        ops.append(self._op("whitehead H5 a vs a*z", G.GROUPS["H5"],
                            [[(1, 0, 0, 0, 0)]], [[(1, 0, 0, 0, 1)]], "equivalent", texts,
                            fault=FAULT_H5, limit=HANG_LIMIT_S))
        ops.append(self._op("whitehead M (a) vs (a*b)", G.GROUPS["M"],
                            [[(1, 0)]], [[(1, 1)]], "equivalent", texts, fault=FAULT_M))
        if self.first_inputs is None:
            self.first_inputs = texts
        rng.shuffle(ops)
        return ops

    def _op(self, label, group, s, t, expected, texts, fault=None, limit=None):
        text = _instance_json(group.text, s, t)
        texts.append(text)
        return self.cli.op(label, ["whitehead", "{0}", "--budget", "1"],
                           _verdict_check(label, expected), files=[("instance.json", text)],
                           fault=fault, limit=limit)


def _instance_group(instance_text):
    return json.loads(instance_text)["group"]["text"]


def _moved(ar, images, s, rng):
    t = []
    for tup in s:
        c = ar.random(rng)
        t.append([ar.conj(ar.apply(images, x), ar.inv(c)) for x in tup])
    return t


def _not_equivalent(ar, images, k, shape, rng):
    """S, T where one pair of entries is a primitive element against a
    conjugate of u^k, so its image in G/G^k is trivial.  u is primitive,
    so for k = 3 the pair survives G/G^2 and the refutation always comes
    from G/G^3; the other entries are moved by an automorphism, or lie in
    G^6, so they never decide which quotient refutes."""
    prim = ar.primitive(rng)
    bad = ar.conj(ar.power(ar.primitive(rng), k), ar.random(rng))
    if shape == 0:
        return [[prim]], [[bad]]
    if shape == 1:
        other = ar.power(ar.random(rng), 6)
        return [[other], [prim]], _moved(ar, images, [[other]], rng) + [[bad]]
    if shape == 2:
        other = ar.power(ar.random(rng), 6)
        return [[prim, other]], [[bad, ar.conj(ar.apply(images, other), ar.random(rng))]]
    return [[bad]], [[prim]]


# ---------------------------------------------------------------------------
# certify


CERT_GROUPS = ["H3", "H3sq", "H5", "Q", "Q3", "Q4", "M", "M9", "H3xC2"]
CERT_SUBCOMMANDS = ["ucs", "torsion", "elusive", "separate-torsion"]


def rename_generators(text, rng):
    """The same presentation with fresh random generator names."""
    names = [line.split()[1] for line in text.splitlines() if line.startswith("gen ")]
    fresh = rng.sample(range(10, 100), len(names))
    new = {old: f"g{k}" for old, k in zip(names, fresh)}
    out = []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] != "group":
            toks = [_rename_token(tok, new) for tok in toks]
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def _rename_token(tok, new):
    base, sep, exp = tok.partition("^")
    return new.get(base, base) + sep + exp


def _certify_check(label, group, sub, text):
    def check(code, out):
        if code != 0 or not isinstance(out, dict) or "error" in out:
            return [f"{label}: exit {code}, output {out}"]
        if sub == "ucs" and len(out["series"]) - 1 != group.klass:
            return [f"{label}: class {len(out['series']) - 1}, known {group.klass}"]
        if sub == "torsion" and out["tau_order"] != group.torsion:
            return [f"{label}: torsion order {out['tau_order']}, known {group.torsion}"]
        if sub == "elusive" and not isinstance(out.get("elusive"), list):
            return [f"{label}: no elusive list"]
        if sub == "separate-torsion" and not out.get("complete"):
            return [f"{label}: certificate is not complete"]
        if sub == "embed":
            return _check_embedding(label, text, out)
        return []
    return check


def _check_embedding(label, text, out):
    """The images are unitriangular and satisfy every relation of the
    presentation, in exact rational arithmetic."""
    mats = [[[Fraction(x) for x in row] for row in m] for m in out["images"]]
    dim = out["dimension"]
    for m in mats:
        if any(m[i][j] != (1 if i == j else 0) for i in range(dim) for j in range(i + 1)):
            return [f"{label}: an image is not unitriangular"]
    model = G.MatrixModel(dim, [tuple(tuple(r) for r in m) for m in mats])
    bad = G.check_relations(model, text)
    return [f"{label}: images violate {bad[0]}"] if bad else []


class Certify:
    name = "certify"

    def __init__(self, api, cli):
        self.api = api
        self.cli = cli
        self.first_inputs = None

    def setup(self, seed):
        self.cli.setup_inputs(self.first_inputs, [])

    def round(self, seed, index):
        rng = random.Random(f"certify:{seed}:{index}")
        ops, texts = [], []
        plan = [(name, sub) for name in CERT_GROUPS for sub in CERT_SUBCOMMANDS]
        plan += [("F4", sub) for sub in CERT_SUBCOMMANDS if sub != "separate-torsion"]
        plan += [(name, "embed") for name in CERT_GROUPS + ["F4"]
                 if G.GROUPS[name].torsion_free]
        for name, sub in plan:
            group = G.GROUPS[name]
            text = rename_generators(group.text, rng)
            texts.append(text)
            label = f"{sub} {name}"
            ops.append(self.cli.op(label, [sub, "{0}"], _certify_check(label, group, sub, text),
                                   files=[("group.pcp", text)]))
        text = rename_generators(G.GROUPS["M8"].text, rng)
        texts.append(text)
        ops.append(self.cli.op("separate-torsion M8", ["separate-torsion", "{0}"],
                               _certify_check("separate-torsion M8", G.GROUPS["M8"],
                                              "separate-torsion", text),
                               files=[("group.pcp", text)], fault=FAULT_M8,
                               limit=HANG_LIMIT_S))
        if self.first_inputs is None:
            self.first_inputs = texts
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# gog-iso


Z = {"kind": "abelian", "free_rank": 1, "invariant_factors": []}
C2 = {"kind": "abelian", "free_rank": 0, "invariant_factors": [2]}
C4_TEXT = "group C4\ngen a order 4\npow a = 1\n"


def gog_text(black, white, edges, rng):
    """A bipartite graph of groups with one black and one white vertex
    and one geometric edge per entry of `edges`, each entry
    (edge group spec, image in the black group, image in the white group).
    Vertex, edge and group names, the order of the lists and the
    orientation of each edge are drawn from `rng`."""
    tag = rng.sample(range(100, 1000), 6)
    gb, gw = f"B{tag[0]}", f"W{tag[1]}"
    vb, vw = f"b{tag[2]}", f"w{tag[3]}"
    groups = {gb: {"kind": "pc", "text": black}, gw: white}
    verts = [{"name": vb, "group": gb, "color": "black"},
             {"name": vw, "group": gw, "color": "white"}]
    rng.shuffle(verts)
    entries = []
    for k, (spec, bimg, wimg) in enumerate(edges):
        ge = f"E{tag[4]}_{k}"
        groups[ge] = spec
        e, ebar = f"e{tag[5]}_{k}", f"f{tag[5]}_{k}"
        if rng.random() < 0.5:
            entries.append({"name": e, "reverse": ebar, "origin": vw, "terminal": vb,
                            "group": ge, "attaching": [bimg], "reverse_attaching": [wimg]})
        else:
            entries.append({"name": e, "reverse": ebar, "origin": vb, "terminal": vw,
                            "group": ge, "attaching": [wimg], "reverse_attaching": [bimg]})
    rng.shuffle(entries)
    return json.dumps({"name": "X", "groups": groups, "vertices": verts, "edges": entries})


GOG_BLACK = ["H3", "Q", "M"]


class GogIso:
    name = "gog-iso"

    def __init__(self, api, cli):
        self.api = api
        self.cli = cli
        self.first_inputs = None
        self._c4_a2 = None

    def setup(self, seed):
        self.cli.setup_inputs([], self.first_inputs)

    def c4_a2(self):
        if self._c4_a2 is None:
            table = self.api.group_from_spec({"kind": "finite", "text": C4_TEXT})
            self._c4_a2 = table.index_of((2,))
        return self._c4_a2

    def _primitive(self, name, rng):
        """An element of infinite order and content 1."""
        if name == "M":
            return (rng.choice((-1, 1)), rng.randrange(4))
        return H3Arith(G.GROUPS[name]).primitive(rng)

    def _segment(self, name, rng, image=None, wimg=None):
        image = image if image is not None else self._primitive(name, rng)
        return [(Z, list(image), [wimg if wimg is not None else rng.choice((1, 2, 3))])]

    def _loop(self, name, rng):
        a, b = random_basis(rng)
        if name == "M":
            images = [(1, rng.randrange(4)), (-1, rng.randrange(4))]
        else:
            orders = G.relations(G.GROUPS[name].text)[1]
            images = [(a[0], a[1], _rand_z(orders, rng)), (b[0], b[1], _rand_z(orders, rng))]
        # white images 2 and 3: neither divides the other, so a graph map
        # that swaps the two edges is refuted at the white vertex
        return [(Z, list(images[0]), [2]), (Z, list(images[1]), [3])]

    def round(self, seed, index):
        rng = random.Random(f"gog-iso:{seed}:{index}")
        pairs = []  # (label, x1 text, x2 text, expected)

        def pair(label, e1, e2, expected, b1, b2=None):
            b2 = b2 or b1
            t1 = gog_text(G.GROUPS[b1].text, e1[0], e1[1], rng)
            t2 = gog_text(G.GROUPS[b2].text, e2[0], e2[1], rng)
            pairs.append((label, t1, t2, expected))

        # 35 relabelled pairs and 6 refuted by a graph or vertex-group
        # invariant: of a round's 48 operations, the median falls among the
        # ten relabelled M pairs and the p79 among the fifteen relabelled Q
        # ones, not on an edge between two kinds of operation.
        for _ in range(5):
            for name in GOG_BLACK:
                seg = self._segment(name, rng)
                pair(f"gog {name} segment relabelled", (Z, seg), (Z, seg), "equivalent", name)
                loop = self._loop(name, rng)
                pair(f"gog {name} loop relabelled", (Z, loop), (Z, loop), "equivalent", name)
            # finite white vertex: Z/2 edge group on z in Q and a^2 in C4
            fin = ({"kind": "finite", "text": C4_TEXT}, [(C2, [0, 0, 1], self.c4_a2())])
            pair("gog Q finite white relabelled", fin, fin, "equivalent", "Q")
        for name in GOG_BLACK:
            pair(f"gog {name} segment vs loop", (Z, self._segment(name, rng)),
                 (Z, self._loop(name, rng)), "not_equivalent", name)
        for b1, b2 in (("H3", "Q"), ("Q", "M"), ("H3", "M")):
            seg = self._segment(b1, rng, wimg=1)
            seg2 = [(Z, list(self._primitive(b2, rng)), [1])]
            pair(f"gog {b1} vs {b2} vertex groups", (Z, seg), (Z, seg2),
                 "not_equivalent", b1, b2)
        for name in ("H3", "Q"):
            ar = H3Arith(G.GROUPS[name])
            images = ar.automorphism(GOG_BLACK.index(name))
            loop = self._loop(name, rng)
            moved = [(spec, list(ar.conj(ar.apply(images, tuple(b)), ar.random(rng))), w)
                     for spec, b, w in loop]
            pair(f"gog {name} loop moved", (Z, loop), (Z, moved), "equivalent", name)
            for k in (2, 3):
                prim = ar.primitive(rng)
                bad = ar.conj(ar.power(ar.primitive(rng), k), ar.random(rng))
                pair(f"gog {name} content k={k}", (Z, self._segment(name, rng, prim, 1)),
                     (Z, self._segment(name, rng, bad, 1)), "not_equivalent", name)
        # u^2 against sigma(u^2 z)^c: the parity of the z exponent is an
        # invariant that first shows in G/G^4, after the box-1 sweep
        ar = H3Arith(G.GROUPS["H3"])
        images = ar.automorphism(0)
        u2 = ar.power(ar.primitive(rng), 2)
        odd = ar.mul(u2, (0, 0, rng.choice((-3, -1, 1, 3))))
        moved = ar.conj(ar.apply(images, odd), ar.random(rng))
        pair("gog H3 parity", (Z, self._segment("H3", rng, u2, 1)),
             (Z, self._segment("H3", rng, moved, 1)), "not_equivalent", "H3")

        ops = []
        for label, t1, t2, expected in pairs:
            ops.append(self.cli.op(label, ["gog-iso", "{0}", "{1}"],
                                   _verdict_check(label, expected),
                                   files=[("x1.gog", t1), ("x2.gog", t2)]))
        if self.first_inputs is None:
            self.first_inputs = [t for _, t1, t2, _ in pairs for t in (t1, t2)]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (NormalForm, Whitehead, Certify, GogIso)}
