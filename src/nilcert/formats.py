"""File formats: line-oriented .pcp presentation files and JSON .gog
graph-of-groups files.

A .pcp file names one polycyclic presentation.  This one is the
Heisenberg group modulo z^2 followed by Z acting on Z/4 by inversion:

    group Q
    gen x order inf
    gen y order inf
    gen z order 2
    conj y ^ x = y z
    conj y ^ x^-1 = y z
    pow z = 1

    group M
    gen a order inf
    gen b order 4
    conj b ^ a = b^3
    pow b = 1

Each line is one directive: ``group <name>`` (optional, default G),
``gen <name> order (inf|m)``, ``conj <gj> ^ <gi>[^-1] = <word>`` with gi
declared before gj, and ``pow <gi> = <word>`` for g_i^m (optional; an
omitted power relation means g_i^m = 1).  Blank lines are skipped.  The
format has no comments: any other first token, ``#`` included, is an
unknown directive and a parse error.

Words are whitespace-separated generator tokens with integer exponents
(``x^2 z^-1``); the bare token ``1`` denotes the identity.  Relation
right-hand sides must be written in normal form (each generator at most
once, in declaration order), which makes parse -> serialize -> parse the
identity.  The serializer writes a ``pow`` line for every finite-order
generator, ``pow b = 1`` included.  Parse errors carry the line and column
of the offending token.

A group spec, in a .gog file or a Whitehead instance, is a JSON object
with a "kind": "abelian" with "free_rank" and "invariant_factors", or
"pc" or "finite" with the presentation as inline "text" or as a .pcp
"file" path.  A "finite" spec becomes the numbered table of its
presentation, which must have no infinite-order generator.  Loading a
spec parses its text once; its canonical form, which reports embed,
holds that parse re-serialized as inline text.

A .gog file is JSON: group specs under "groups", vertices with optional
black/white colors, and one entry per geometric edge with attaching maps
as generator-image vectors (element indices for finite vertex groups).
"""

import json
import os
import re

from .gogiso import Graph, GraphOfGroups
from .nilgroup import (
    GroupMap,
    Inconsistent,
    NotNilpotent,
    PcPresentation,
    Subgroup,
    quotient_table,
)
from .zmod import AbelianModule, CapExceeded

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class FormatError(ValueError):
    """Parse or validation error with optional line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)


class PcpFile:
    """A named polycyclic presentation."""

    def __init__(self, name, presentation):
        self.name = name
        self.presentation = presentation


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_exponent_token(tok, lineno, col):
    """Split a token like x, x^2 or x^-1 into (name, exponent)."""
    if "^" in tok:
        name, _, exp = tok.partition("^")
        try:
            e = int(exp)
        except ValueError:
            raise FormatError(f"bad exponent {exp!r}", lineno, col)
        if e == 0:
            raise FormatError("exponent 0 is not allowed in a word", lineno, col)
    else:
        name, e = tok, 1
    return name, e


def _parse_word(toks, index_of, n, lineno):
    """Normal-form word to an exponent vector; generators must appear at
    most once and in declaration order."""
    if not toks:
        raise FormatError("missing word", lineno)
    if len(toks) == 1 and toks[0][0] == "1":
        return (0,) * n
    vec = [0] * n
    last = -1
    for tok, col in toks:
        name, e = _parse_exponent_token(tok, lineno, col)
        if name not in index_of:
            raise FormatError(f"unknown generator {name!r}", lineno, col)
        i = index_of[name]
        if i <= last:
            raise FormatError(
                f"generator {name!r} out of normal-form order", lineno, col
            )
        last = i
        vec[i] = e
    return tuple(vec)


def parse_free_word(text, names):
    """A word over the named generators, in any order and with repeats,
    as (generator index, exponent) pairs; '1' alone is the empty word."""
    index_of = {nm: i for i, nm in enumerate(names)}
    toks = _tokens(text)
    if not toks:
        raise FormatError("missing word")
    if len(toks) == 1 and toks[0][0] == "1":
        return []
    pairs = []
    for tok, col in toks:
        name, e = _parse_exponent_token(tok, 1, col)
        if name not in index_of:
            raise FormatError(f"unknown generator {name!r}", 1, col)
        pairs.append((index_of[name], e))
    return pairs


def format_word(names, vec):
    parts = []
    for name, e in zip(names, vec):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def parse_pcp(text) -> PcpFile:
    name = None
    gen_names = []
    orders = []
    index_of = {}
    deferred = []  # (kind, payload, lineno) resolved once all gens are known
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = _tokens(line)
        if not toks:
            continue
        head, hcol = toks[0]
        if head == "group":
            if len(toks) != 2:
                raise FormatError("expected: group <name>", lineno, hcol)
            if name is not None:
                raise FormatError("duplicate group line", lineno, hcol)
            name = toks[1][0]
        elif head == "gen":
            if len(toks) != 4 or toks[2][0] != "order":
                raise FormatError("expected: gen <name> order (inf|m)", lineno, hcol)
            gname, gcol = toks[1]
            if not _NAME_RE.match(gname):
                raise FormatError(f"bad generator name {gname!r}", lineno, gcol)
            if gname in index_of:
                raise FormatError(f"duplicate generator {gname!r}", lineno, gcol)
            otok, ocol = toks[3]
            if otok == "inf":
                order = None
            else:
                try:
                    order = int(otok)
                except ValueError:
                    raise FormatError(f"bad order {otok!r}", lineno, ocol)
                if order < 2:
                    raise FormatError("orders must be at least 2", lineno, ocol)
            index_of[gname] = len(gen_names)
            gen_names.append(gname)
            orders.append(order)
        elif head == "conj":
            # conj <gj> ^ <gi> = <word>   or   conj <gj> ^ <gi>^-1 = <word>
            if len(toks) < 6 or toks[2][0] != "^" or toks[4][0] != "=":
                raise FormatError(
                    "expected: conj <gj> ^ <gi>[^-1] = <word>", lineno, hcol
                )
            deferred.append(("conj", (toks[1], toks[3], toks[5:]), lineno))
        elif head == "pow":
            if len(toks) < 4 or toks[2][0] != "=":
                raise FormatError("expected: pow <gi> = <word>", lineno, hcol)
            deferred.append(("pow", (toks[1], toks[3:]), lineno))
        else:
            raise FormatError(f"unknown directive {head!r}", lineno, hcol)
    if not gen_names:
        raise FormatError("presentation declares no generators")
    n = len(gen_names)
    conj = {}
    conj_inv = {}
    powers = {}
    for kind, payload, lineno in deferred:
        if kind == "conj":
            (jtok, jcol), (itok, icol), word_toks = payload
            inverse = itok.endswith("^-1")
            iname = itok[:-3] if inverse else itok
            if jtok not in index_of:
                raise FormatError(f"unknown generator {jtok!r}", lineno, jcol)
            if iname not in index_of:
                raise FormatError(f"unknown generator {iname!r}", lineno, icol)
            i, j = index_of[iname], index_of[jtok]
            if not i < j:
                raise FormatError(
                    "conjugation must act on a later generator by an earlier one",
                    lineno, jcol,
                )
            target = conj_inv if inverse else conj
            if (i, j) in target:
                raise FormatError("duplicate conjugation relation", lineno, jcol)
            target[(i, j)] = _parse_word(word_toks, index_of, n, lineno)
        else:
            (itok, icol), word_toks = payload
            if itok not in index_of:
                raise FormatError(f"unknown generator {itok!r}", lineno, icol)
            i = index_of[itok]
            if orders[i] is None:
                raise FormatError(
                    f"power relation for infinite-order generator {itok!r}",
                    lineno, icol,
                )
            if i in powers:
                raise FormatError("duplicate power relation", lineno, icol)
            powers[i] = _parse_word(word_toks, index_of, n, lineno)
    try:
        pres = PcPresentation(
            gen_names, orders, conj=conj, conj_inv=conj_inv, powers=powers, check=True
        )
    except (Inconsistent, NotNilpotent, ValueError) as ex:
        raise FormatError(f"presentation rejected: {ex}")
    return PcpFile(name if name is not None else "G", pres)


def serialize_pcp(pcp: PcpFile) -> str:
    p = pcp.presentation
    lines = [f"group {pcp.name}"]
    for nm, m in zip(p.names, p.orders):
        lines.append(f"gen {nm} order {'inf' if m is None else m}")
    for (i, j) in sorted(p.conj):
        lines.append(
            f"conj {p.names[j]} ^ {p.names[i]} = {format_word(p.names, p.conj[(i, j)])}"
        )
    for (i, j) in sorted(p.conj_inv):
        lines.append(
            f"conj {p.names[j]} ^ {p.names[i]}^-1 = "
            f"{format_word(p.names, p.conj_inv[(i, j)])}"
        )
    for i, m in enumerate(p.orders):
        if m is not None:
            lines.append(f"pow {p.names[i]} = {format_word(p.names, p._power_tail(i))}")
    return "\n".join(lines) + "\n"


def load_pcp(path) -> PcpFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pcp(fh.read())


# ---------------------------------------------------------------------------
# group specs shared by .gog files and instance files


def load_group_spec(spec, base_dir, cap):
    """(canonical spec, group handle) of a spec, from one parse.  The
    canonical spec of a pc or finite group holds its re-serialized text
    in place of any file reference, so payloads are self-contained."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FormatError("group spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "abelian":
        fr = spec.get("free_rank", 0)
        factors = spec.get("invariant_factors", [])
        if not _is_integer(fr) or fr < 0:
            raise FormatError("free_rank must be a nonnegative integer")
        if not isinstance(factors, (list, tuple)) or not all(
            _is_integer(m) and m >= 2 for m in factors
        ):
            raise FormatError("invariant factors must be integers >= 2")
        canonical = {"kind": "abelian", "free_rank": fr, "invariant_factors": list(factors)}
        return canonical, AbelianModule(fr, factors)
    if kind not in ("pc", "finite"):
        raise FormatError(f"unknown group kind {kind!r}")
    if "text" in spec:
        text = spec["text"]
    elif "file" in spec:
        path = os.path.join(base_dir, spec["file"])
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as ex:
            raise FormatError(f"cannot read {spec['file']!r}: {ex}")
    else:
        raise FormatError(f"{kind} group spec needs 'text' or 'file'")
    pcp = parse_pcp(text)
    canonical = {"kind": kind, "text": serialize_pcp(pcp)}
    pres = pcp.presentation
    if kind == "pc":
        return canonical, pres
    if any(m is None for m in pres.orders):
        raise FormatError("finite group spec has an infinite-order generator")
    try:
        return canonical, quotient_table(pres, Subgroup(pres, []), cap=cap)
    except CapExceeded as ex:
        raise FormatError(f"finite group too large: {ex}")


def group_from_spec(spec, base_dir=".", cap=10**6):
    """Build the group handle described by a spec."""
    return load_group_spec(spec, base_dir, cap)[1]


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


def parse_element(group, value):
    """Element of a handle from its JSON form (index or exponent list).
    Entries must be JSON integers: a float, string or boolean is refused,
    not rounded or read as 0 or 1."""
    if isinstance(group, (AbelianModule, PcPresentation)):
        if not isinstance(value, (list, tuple)):
            raise FormatError("element must be an exponent vector")
        if not all(_is_integer(x) for x in value):
            raise FormatError("exponents must be integers")
        return tuple(value)
    if not _is_integer(value):
        raise FormatError("element of a finite group must be an index")
    return value


# ---------------------------------------------------------------------------
# .gog files


class GogFile:
    """A named graph of groups plus its canonical JSON form."""

    def __init__(self, name, data, gog):
        self.name = name
        self.data = data
        self.gog = gog


def parse_gog(text, base_dir=".", cap=10**6) -> GogFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as ex:
        raise FormatError(f"bad JSON: {ex.msg}", ex.lineno, ex.colno)
    if not isinstance(raw, dict):
        raise FormatError("top level must be an object")
    return gog_from_data(raw, base_dir=base_dir, cap=cap)


def gog_from_data(raw, base_dir=".", cap=10**6) -> GogFile:
    name = raw.get("name", "X")
    groups_raw = raw.get("groups")
    vertices_raw = raw.get("vertices")
    edges_raw = raw.get("edges")
    if not isinstance(groups_raw, dict):
        raise FormatError("'groups' must be an object")
    if not isinstance(vertices_raw, list) or not vertices_raw:
        raise FormatError("'vertices' must be a nonempty list")
    if not isinstance(edges_raw, list):
        raise FormatError("'edges' must be a list")
    specs = {}
    handles = {}
    for gname, spec in groups_raw.items():
        specs[gname], handles[gname] = load_group_spec(spec, base_dir, cap)

    vnames = []
    vgroup_ref = {}
    colors = {}
    for entry in vertices_raw:
        if not isinstance(entry, dict) or "name" not in entry or "group" not in entry:
            raise FormatError("each vertex needs 'name' and 'group'")
        v = entry["name"]
        if v in vgroup_ref:
            raise FormatError(f"duplicate vertex {v!r}")
        if entry["group"] not in handles:
            raise FormatError(f"vertex {v!r} references unknown group {entry['group']!r}")
        vnames.append(v)
        vgroup_ref[v] = entry["group"]
        if "color" in entry:
            colors[v] = entry["color"]
    if colors and len(colors) != len(vnames):
        raise FormatError("either all vertices carry a color or none do")

    enames = []
    involution = {}
    terminal = {}
    egroup_ref = {}
    attach_vecs = {}
    edge_entries = []
    for entry in edges_raw:
        needed = ("name", "reverse", "origin", "terminal", "group",
                  "attaching", "reverse_attaching")
        if not isinstance(entry, dict) or any(k not in entry for k in needed):
            raise FormatError(
                "each edge needs name, reverse, origin, terminal, group, "
                "attaching and reverse_attaching"
            )
        e, eb = entry["name"], entry["reverse"]
        if e == eb:
            raise FormatError(f"edge {e!r} cannot be its own reverse")
        for nm in (e, eb):
            if nm in involution:
                raise FormatError(f"duplicate edge {nm!r}")
        for v in (entry["origin"], entry["terminal"]):
            if v not in vgroup_ref:
                raise FormatError(f"edge {e!r} touches unknown vertex {v!r}")
        if entry["group"] not in handles:
            raise FormatError(f"edge {e!r} references unknown group {entry['group']!r}")
        enames.extend([e, eb])
        involution[e] = eb
        involution[eb] = e
        terminal[e] = entry["terminal"]
        terminal[eb] = entry["origin"]
        egroup_ref[e] = egroup_ref[eb] = entry["group"]
        attach_vecs[e] = entry["attaching"]
        attach_vecs[eb] = entry["reverse_attaching"]
        edge_entries.append(entry)

    try:
        graph = Graph(vnames, enames, involution, terminal,
                      colors=colors if colors else None)
    except ValueError as ex:
        raise FormatError(str(ex))
    attaching = {}
    for e in enames:
        edge_handle = handles[egroup_ref[e]]
        vertex_handle = handles[vgroup_ref[terminal[e]]]
        images = [parse_element(vertex_handle, v) for v in attach_vecs[e]]
        try:
            attaching[e] = GroupMap(edge_handle, vertex_handle, images)
        except ValueError as ex:
            raise FormatError(f"attaching map on edge {e!r}: {ex}")
    try:
        gog = GraphOfGroups(
            graph,
            {v: handles[vgroup_ref[v]] for v in vnames},
            {e: handles[egroup_ref[e]] for e in enames},
            attaching,
        )
    except ValueError as ex:
        raise FormatError(str(ex))

    data = {
        "name": name,
        "groups": specs,
        "vertices": [
            (
                {"name": v, "group": vgroup_ref[v], "color": colors[v]}
                if colors
                else {"name": v, "group": vgroup_ref[v]}
            )
            for v in vnames
        ],
        "edges": [
            {
                "name": entry["name"],
                "reverse": entry["reverse"],
                "origin": entry["origin"],
                "terminal": entry["terminal"],
                "group": egroup_ref[entry["name"]],
                "attaching": attaching[entry["name"]].serialize(),
                "reverse_attaching": attaching[entry["reverse"]].serialize(),
            }
            for entry in edge_entries
        ],
    }
    return GogFile(name, data, gog)


def load_gog(path, cap=10**6) -> GogFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gog(fh.read(), base_dir=os.path.dirname(path) or ".", cap=cap)
