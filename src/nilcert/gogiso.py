"""Graph-of-groups data model and isomorphism machinery.

A graph of groups assigns a group to every vertex and every edge of a
finite graph, together with an injective attaching map from each edge
group into the group at the terminal vertex of the edge.  This module
provides:

  - the ``Graph`` and ``GraphOfGroups`` containers with validated
    invariants, and deterministic graph isomorphism enumeration,
  - ``GroupMap``: homomorphisms between vertex and edge groups, which
    are AbelianModule, FiniteGroupTable or PcPresentation instances and
    are used through the seven-method group interface described in the
    ``nilgroup`` module docstring; exact injectivity, surjectivity and
    preimages are decided in the pc presentation behind each group
    (``_pc_group``), where the kinds differ no more,
  - diagram verifiers: ``verify_gog_isomorphism`` for graph-of-groups
    isomorphisms (vertex maps, edge maps and attaching elements), and
    ``verify_extension_adjustment`` for the two extension-adjustment
    conditions, plus the assembly of an isomorphism from an adjustment,
  - ``decide_gog_iso``: the decision loop that reduces isomorphism of
    bipartite graphs of groups to mixed Whitehead instances in the
    black vertex groups; automorphisms of the white vertex groups are
    supplied by the caller as finite orbit lists,
  - ``fundamental_presentation``: a finite presentation of the
    fundamental group relative to a spanning tree, with its
    abelianization as a cross-check invariant; each vertex group
    contributes the generators and relations of the pc presentation
    behind it.

Code here branches on the kind of group only where the kinds need
different algorithms or messages: the relation check of a map from a
module (``GroupMap._check_relations``), the lookup of a map from a table,
and the complete module and table searches of ``_base_isomorphism`` and
``_conjugate_into_image``; ``solve_whitehead`` picks the solver per kind.

Conventions: conjugation is x^g = g^-1 x g throughout, matching the
rest of the package, and abelian homomorphisms act on row vectors.
"""

import functools
import itertools
import math

from .nilgroup import (
    FiniteGroupTable,
    PcPresentation,
    Subgroup,
    _Igs,
    apply_images,
    check_relations,
    isomorphisms,
    serialize_element,
    table_map,
    torsion_data,
)
from .whitehead import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNKNOWN,
    Verdict,
    _box_elements,
    solve_whitehead,
)
from .zmod import AbelianModule, AdaptedQuotient, CapExceeded


def _pc_group(h):
    """The pc presentation behind a group handle: for a table, the one
    whose normal forms it numbers; for a module, its abelian twin a0, a1,
    ... with the same coordinates (free slots first, torsion orders
    after), built afresh on each call; a pc group itself.  The twin has
    no conjugation or power relations, so it skips the overlap checks,
    which would all hold."""
    if isinstance(h, FiniteGroupTable):
        return h.qmap.target
    if isinstance(h, AbelianModule):
        orders = [None] * h.free_rank + list(h.invariant_factors)
        return PcPresentation([f"a{i}" for i in range(h.rank)], orders, check=False)
    return h


def _pc_element(h, x):
    """x as an element of ``_pc_group(h)``: a table index becomes the
    normal form it numbers, coordinates and exponent vectors stay."""
    return h.elements[x] if isinstance(h, FiniteGroupTable) else x


# ---------------------------------------------------------------------------
# homomorphisms between groups


class GroupMap:
    """Homomorphism between two groups with the shared interface (see the
    ``nilgroup`` module docstring), given by the images of the domain's
    ``generators()``.

    For a FiniteGroupTable domain the generator images are checked on the
    relations of the pc presentation the table numbers and expanded to a
    full element map (``nilgroup.table_map``), which answers preimages
    and injectivity by lookup.  For module and pc domains the defining
    relations are checked on construction, a module's as commuting and
    torsion relations, with their own messages.

    The rest is decided in the pc presentations behind the two groups
    (``_pc_group``), each built at most once per map.  The image is one
    ``Subgroup`` there, and the map is onto when it is the whole group.
    Preimages sift through an induced sequence of the images that carries
    the domain generators as payloads (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 8).  A finite domain maps
    injectively when the image has its order.  An infinite domain maps
    injectively when the image keeps its Hirsch length and no nontrivial
    element of its torsion subgroup maps to the identity: a nontrivial
    normal subgroup of a nilpotent group that meets the torsion trivially
    is infinite, and dividing it out lowers the Hirsch length.
    """

    def __init__(self, domain, codomain, images, check=True):
        self.domain = domain
        self.codomain = codomain
        n = len(domain.generators())
        images = tuple(codomain.normal_form(im) for im in images)
        if len(images) != n:
            raise ValueError(f"expected {n} generator images, got {len(images)}")
        self.images = images
        self._full = None
        if isinstance(domain, FiniteGroupTable):
            self._full = self._expand_full_map()
        elif check:
            self._check_relations()

    def __eq__(self, other):
        return (
            isinstance(other, GroupMap)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((id(self.domain), id(self.codomain), self.images))

    def __repr__(self):
        return f"GroupMap(images={self.images!r})"

    def _expand_full_map(self):
        full = table_map(self.domain, self.codomain, self.images)
        if full is None:
            raise ValueError("images do not respect the multiplication table")
        return tuple(full)

    def _check_relations(self):
        c = self.codomain
        if isinstance(self.domain, AbelianModule):
            for i in range(len(self.images)):
                for j in range(i + 1, len(self.images)):
                    a, b = self.images[i], self.images[j]
                    if c.multiply(a, b) != c.multiply(b, a):
                        raise ValueError("images of commuting generators do not commute")
            for k, m in enumerate(self.domain.invariant_factors):
                img = self.images[self.domain.free_rank + k]
                if c.power(img, m) != c.identity():
                    raise ValueError("a torsion relation is not respected")
            return
        check_relations(self.domain, c, self.images)

    @functools.cached_property
    def _pc_domain(self):
        return _pc_group(self.domain)

    @functools.cached_property
    def _pc_codomain(self):
        return _pc_group(self.codomain)

    def _pc_images(self):
        return [_pc_element(self.codomain, im) for im in self.images]

    @functools.cached_property
    def _image(self):
        """The image, a subgroup of the codomain's pc presentation."""
        return Subgroup(self._pc_codomain, self._pc_images())

    @functools.cached_property
    def _igs(self):
        """Induced sequence of the images, each carrying its domain
        generator in the domain's pc presentation as payload."""
        pd = self._pc_domain
        items = [(im, pd.gen(k)) for k, im in enumerate(self._pc_images())]
        return _Igs(self._pc_codomain, payload_parent=pd).build(items)

    def apply(self, x):
        x = self.domain.normal_form(x)
        if self._full is not None:
            return self._full[x]
        return apply_images(self.codomain, self.images, x)

    def preimage(self, y):
        """Some domain element mapping to y, or None."""
        y = self.codomain.normal_form(y)
        if self._full is not None:
            return self._full.index(y) if y in self._full else None
        pay = self._igs.sift(_pc_element(self.codomain, y))
        if pay is None:
            return None
        out = self.domain.normal_form(tuple(pay))
        return out if self.apply(out) == y else None

    def is_injective(self):
        return self._injective

    @functools.cached_property
    def _injective(self):
        if self._full is not None:
            return len(set(self._full)) == self.domain.order
        pd = self._pc_domain
        image_orders = self._image.relative_orders()
        if image_orders.count(None) != pd.orders.count(None):
            return False
        if None not in pd.orders:
            return math.prod(image_orders) == math.prod(pd.orders)
        if all(m is None for m in pd.orders):
            return True  # a poly-Z group is torsion-free
        ident = self.codomain.identity()
        return all(
            self.apply(t) != ident for t in torsion_data(pd).tau_elements if any(t)
        )

    def is_surjective(self):
        return self._image.is_whole_group()

    def is_isomorphism(self):
        return self.is_injective() and self.is_surjective()

    def serialize(self):
        return [serialize_element(im) for im in self.images]


def identity_map(g):
    return GroupMap(g, g, g.generators(), check=False)


def compose_maps(outer, inner):
    """outer after inner (checked homomorphisms compose to a homomorphism)."""
    if inner.codomain is not outer.domain:
        raise ValueError("maps do not compose")
    images = [outer.apply(im) for im in inner.images]
    return GroupMap(inner.domain, outer.codomain, images, check=False)


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Finite graph with oriented edges, a fix-point free involution and
    incidence maps t (terminal) and o (origin, derived via o(e) = t(e-bar));
    optional black/white bipartite coloring.

    The link of a vertex (edges terminating there) is ordered by edge
    declaration order; decision procedures iterate links in this order.
    """

    def __init__(self, vertices, edges, involution, terminal, colors=None):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge labels")
        self.involution = dict(involution)
        self.terminal = dict(terminal)
        eset = set(self.edges)
        vset = set(self.vertices)
        if set(self.involution) != eset:
            raise ValueError("involution must be defined on exactly the edge set")
        if set(self.terminal) != eset:
            raise ValueError("terminal map must be defined on exactly the edge set")
        for e in self.edges:
            eb = self.involution[e]
            if eb not in eset:
                raise ValueError(f"involution image {eb!r} is not an edge")
            if eb == e:
                raise ValueError(f"involution fixes edge {e!r}")
            if self.involution[eb] != e:
                raise ValueError("involution is not an involution")
            if self.terminal[e] not in vset:
                raise ValueError(f"terminal vertex of {e!r} is not a vertex")
        self.colors = None
        if colors is not None:
            colors = dict(colors)
            if set(colors) != vset:
                raise ValueError("coloring must cover exactly the vertices")
            if any(c not in ("black", "white") for c in colors.values()):
                raise ValueError("colors must be 'black' or 'white'")
            for e in self.edges:
                if colors[self.origin(e)] == colors[self.terminal[e]]:
                    raise ValueError("coloring is not bipartite")
            self.colors = colors

    def origin(self, e):
        return self.terminal[self.involution[e]]

    def link(self, v):
        return tuple(e for e in self.edges if self.terminal[e] == v)

    def edge_pairs(self):
        """One canonical orientation per geometric edge, declaration order."""
        seen = set()
        out = []
        for e in self.edges:
            if e not in seen:
                out.append(e)
                seen.add(e)
                seen.add(self.involution[e])
        return tuple(out)

    def is_connected(self):
        if not self.vertices:
            return True
        reach = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for e in self.edges:
                if self.terminal[e] == v:
                    w = self.origin(e)
                    if w not in reach:
                        reach.add(w)
                        frontier.append(w)
        return len(reach) == len(self.vertices)

    def structural_eq(self, other):
        return (
            set(self.vertices) == set(other.vertices)
            and set(self.edges) == set(other.edges)
            and self.involution == other.involution
            and self.terminal == other.terminal
            and self.colors == other.colors
        )


def graph_isomorphisms(g1, g2):
    """All isomorphisms g1 -> g2 as (vertex map, edge map) dict pairs,
    commuting with incidence and involution and preserving colors when
    present, enumerated in a deterministic order."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return []
    if (g1.colors is None) != (g2.colors is None):
        return []

    def vkey(g, v):
        return (g.colors[v] if g.colors else "", len(g.link(v)))

    out = []

    def extend_edges(vmap):
        emaps = [{}]
        for e in g1.edge_pairs():
            u, v = g1.origin(e), g1.terminal[e]
            new = []
            for emap in emaps:
                used = set(emap.values())
                for f in g2.edges:
                    if f in used or g2.involution[f] in used:
                        continue
                    if g2.terminal[f] == vmap[v] and g2.origin(f) == vmap[u]:
                        m2 = dict(emap)
                        m2[e] = f
                        m2[g1.involution[e]] = g2.involution[f]
                        new.append(m2)
            emaps = new
            if not emaps:
                return
        for emap in emaps:
            out.append((dict(vmap), emap))

    def backtrack(i, vmap, used):
        if i == len(g1.vertices):
            extend_edges(vmap)
            return
        v = g1.vertices[i]
        for w in g2.vertices:
            if w in used or vkey(g1, v) != vkey(g2, w):
                continue
            vmap[v] = w
            used.add(w)
            backtrack(i + 1, vmap, used)
            del vmap[v]
            used.discard(w)

    backtrack(0, {}, set())
    return out


# ---------------------------------------------------------------------------
# graphs of groups


class GraphOfGroups:
    """Graph with vertex groups, edge groups (one handle per involution
    pair) and injective attaching maps i_e: edge group -> group at t(e)."""

    def __init__(self, graph, vertex_groups, edge_groups, attaching, check=True):
        self.graph = graph
        self.vertex_groups = dict(vertex_groups)
        self.edge_groups = dict(edge_groups)
        self.attaching = dict(attaching)
        if set(self.vertex_groups) != set(graph.vertices):
            raise ValueError("vertex groups must cover exactly the vertices")
        if set(self.edge_groups) != set(graph.edges):
            raise ValueError("edge groups must cover exactly the edges")
        if set(self.attaching) != set(graph.edges):
            raise ValueError("attaching maps must cover exactly the edges")
        for e in graph.edges:
            if self.edge_groups[e] is not self.edge_groups[graph.involution[e]]:
                raise ValueError(
                    f"edge group on {e!r} must be the same handle as on its reverse"
                )
            m = self.attaching[e]
            if not isinstance(m, GroupMap):
                raise ValueError(f"attaching map on {e!r} is not a GroupMap")
            if m.domain is not self.edge_groups[e]:
                raise ValueError(f"attaching map on {e!r} has the wrong domain")
            if m.codomain is not self.vertex_groups[graph.terminal[e]]:
                raise ValueError(f"attaching map on {e!r} has the wrong codomain")
        if check:
            for e in graph.edges:
                if not self.attaching[e].is_injective():
                    raise ValueError(f"attaching map on edge {e!r} is not injective")


def _transport(x, vmap, emap, target_graph):
    """Relabel a graph of groups along a graph isomorphism onto target_graph."""
    return GraphOfGroups(
        target_graph,
        {vmap[v]: x.vertex_groups[v] for v in x.graph.vertices},
        {emap[e]: x.edge_groups[e] for e in x.graph.edges},
        {emap[e]: x.attaching[e] for e in x.graph.edges},
        check=False,
    )


# ---------------------------------------------------------------------------
# isomorphisms of graphs of groups


class DiagramReport:
    """Outcome of a diagram verification; falsy when a diagram fails,
    carrying the first violation found."""

    def __init__(self, ok, edge=None, vertex=None, reason=None):
        self.ok = ok
        self.edge = edge
        self.vertex = vertex
        self.reason = reason

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "DiagramReport(ok)"
        where = f"edge {self.edge!r}" if self.edge is not None else f"vertex {self.vertex!r}"
        return f"DiagramReport(failed at {where}: {self.reason})"


class GoGIsomorphism:
    """Vertex maps, edge maps (constant on involution pairs) and attaching
    elements gamma_e in the group at t(e)."""

    def __init__(self, vertex_maps, edge_maps, attaching_elements):
        self.vertex_maps = dict(vertex_maps)
        self.edge_maps = dict(edge_maps)
        self.attaching_elements = dict(attaching_elements)


def verify_gog_isomorphism(x1, x2, phi):
    """Check that phi is an isomorphism of graphs of groups x1 -> x2 on a
    common underlying graph: all vertex and edge maps are isomorphisms,
    edge maps agree across the involution, and for every edge e the
    diagram phi_t(e) o i'_e = ad_gamma_e o i_e o phi_e commutes on the
    edge group generators."""
    if not x1.graph.structural_eq(x2.graph):
        raise ValueError("shape mismatch: the two structures live on different graphs")
    graph = x2.graph
    for v in graph.vertices:
        m = phi.vertex_maps.get(v)
        if m is None:
            raise ValueError(f"missing vertex map at {v!r}")
        if m.domain is not x1.vertex_groups[v] or m.codomain is not x2.vertex_groups[v]:
            raise ValueError(f"vertex map at {v!r} has the wrong domain or codomain")
        if not m.is_isomorphism():
            return DiagramReport(False, vertex=v, reason="vertex map is not an isomorphism")
    for e in graph.edges:
        m = phi.edge_maps.get(e)
        if m is None:
            raise ValueError(f"missing edge map at {e!r}")
        if m.domain is not x1.edge_groups[e] or m.codomain is not x2.edge_groups[e]:
            raise ValueError(f"edge map at {e!r} has the wrong domain or codomain")
        if m.images != phi.edge_maps[graph.involution[e]].images:
            return DiagramReport(
                False, edge=e, reason="edge maps differ across the involution"
            )
        if not m.is_isomorphism():
            return DiagramReport(False, edge=e, reason="edge map is not an isomorphism")
    for e in graph.edges:
        v = graph.terminal[e]
        h = x2.vertex_groups[v]
        gamma = phi.attaching_elements.get(e)
        if gamma is None:
            raise ValueError(f"missing attaching element at {e!r}")
        gamma = h.normal_form(gamma)
        for s in x1.edge_groups[e].generators():
            lhs = phi.vertex_maps[v].apply(x1.attaching[e].apply(s))
            rhs = h.conjugate(x2.attaching[e].apply(phi.edge_maps[e].apply(s)), gamma)
            if lhs != rhs:
                return DiagramReport(
                    False,
                    edge=e,
                    reason=f"diagram fails on edge-group generator {s!r}",
                )
    return DiagramReport(True)


# ---------------------------------------------------------------------------
# extension adjustments


class ExtensionAdjustment:
    """Per-vertex automorphisms alpha_v and per-edge elements g_e used to
    upgrade a bare collection of vertex isomorphisms to a graph-of-groups
    isomorphism (with gamma_e = g_e^-1)."""

    def __init__(self, automorphisms, elements):
        self.automorphisms = dict(automorphisms)
        self.elements = dict(elements)


def _chase_edge(x1, x2, psi, adj, e):
    """Images of the edge-group generators under the composite
    i_e^-1 o ad_g_e o alpha_t(e) o psi_t(e) o i'_e, or a failure report."""
    v = x2.graph.terminal[e]
    h = x2.vertex_groups[v]
    alpha = adj.automorphisms[v]
    g = h.normal_form(adj.elements[e])
    images = []
    for s in x1.edge_groups[e].generators():
        y = alpha.apply(psi[v].apply(x1.attaching[e].apply(s)))
        y = h.conjugate(y, g)
        u = x2.attaching[e].preimage(y)
        if u is None:
            return None, DiagramReport(
                False,
                edge=e,
                reason="conjugated image leaves the attaching image (condition 1)",
            )
        images.append(u)
    return images, None


def verify_extension_adjustment(x1, x2, psi, adj):
    """Check the two extension adjustment conditions for the vertex
    isomorphisms psi: (1) each g_e conjugates the twisted image of the
    primed edge group onto the attaching image, and (2) the big diagram
    commutes, i.e. the chased edge maps agree for e and its reverse."""
    if not x1.graph.structural_eq(x2.graph):
        raise ValueError("shape mismatch: the two structures live on different graphs")
    graph = x2.graph
    for v in graph.vertices:
        m = psi.get(v)
        if m is None:
            raise ValueError(f"missing vertex isomorphism at {v!r}")
        if not m.is_isomorphism():
            return DiagramReport(False, vertex=v, reason="psi is not an isomorphism")
        a = adj.automorphisms.get(v)
        if a is None:
            raise ValueError(f"missing adjustment automorphism at {v!r}")
        if a.domain is not x2.vertex_groups[v] or a.codomain is not x2.vertex_groups[v]:
            raise ValueError(f"adjustment automorphism at {v!r} is not an endomap")
        if not a.is_isomorphism():
            return DiagramReport(
                False, vertex=v, reason="adjustment map is not an automorphism"
            )
    for e in graph.edge_pairs():
        eb = graph.involution[e]
        side_e, fail = _chase_edge(x1, x2, psi, adj, e)
        if fail is not None:
            return fail
        side_eb, fail = _chase_edge(x1, x2, psi, adj, eb)
        if fail is not None:
            return fail
        try:
            m = GroupMap(x1.edge_groups[e], x2.edge_groups[e], side_e)
        except ValueError:
            return DiagramReport(
                False, edge=e, reason="chased images do not define a homomorphism"
            )
        if not m.is_isomorphism():
            return DiagramReport(
                False,
                edge=e,
                reason="chased map is not onto the edge group (condition 1)",
            )
        if side_e != side_eb:
            return DiagramReport(
                False, edge=e, reason="big diagram does not commute (condition 2)"
            )
    return DiagramReport(True)


def assemble_isomorphism(x1, x2, psi, adj):
    """Graph-of-groups isomorphism from a verified extension adjustment:
    phi_v = alpha_v o psi_v, gamma_e = g_e^-1, and phi_e the chased edge
    map."""
    graph = x2.graph
    vertex_maps = {v: compose_maps(adj.automorphisms[v], psi[v]) for v in graph.vertices}
    edge_maps = {}
    attaching_elements = {}
    for e in graph.edge_pairs():
        images, fail = _chase_edge(x1, x2, psi, adj, e)
        if fail is not None:
            raise ValueError(f"adjustment does not chase through edge {e!r}")
        m = GroupMap(x1.edge_groups[e], x2.edge_groups[e], images)
        edge_maps[e] = m
        edge_maps[graph.involution[e]] = m
    for e in graph.edges:
        h = x2.vertex_groups[graph.terminal[e]]
        attaching_elements[e] = h.invert(h.normal_form(adj.elements[e]))
    return GoGIsomorphism(vertex_maps, edge_maps, attaching_elements)


# ---------------------------------------------------------------------------
# the decision loop


def _base_isomorphism(h1, h2, box):
    """Reference isomorphism h1 -> h2, if the handles can be matched.

    Returns (map, status, detail) where status is 'ok', 'refuted' (the
    groups are certifiably non-isomorphic) or 'unknown'.  Finite groups
    are searched completely.  Pc groups try the identity assignment
    first, so that equal presentations short-circuit, and then the
    exponent boxes 1, ..., box in turn.
    """
    if h1 is h2:
        return identity_map(h1), "ok", ""
    if type(h1) is not type(h2):
        return None, "unknown", "vertex group handles use different representations"
    if isinstance(h1, AbelianModule):
        if (h1.free_rank, h1.invariant_factors) != (h2.free_rank, h2.invariant_factors):
            return (
                None,
                "refuted",
                f"abelian invariants differ: Z^{h1.free_rank} x {list(h1.invariant_factors)}"
                f" vs Z^{h2.free_rank} x {list(h2.invariant_factors)}",
            )
        return GroupMap(h1, h2, h1.generators(), check=False), "ok", ""
    if isinstance(h1, FiniteGroupTable):
        if h1.order != h2.order:
            return None, "refuted", f"group orders differ: {h1.order} vs {h2.order}"
        gens = h1.generators()
        phi = next(isomorphisms(h1, h2, [range(h2.order)] * len(gens)), None)
        if phi is None:
            return None, "refuted", "finite groups are not isomorphic"
        return GroupMap(h1, h2, [phi[g] for g in gens]), "ok", ""
    hirsch1, hirsch2 = h1.orders.count(None), h2.orders.count(None)
    if hirsch1 != hirsch2:
        return None, "refuted", f"Hirsch lengths differ: {hirsch1} vs {hirsch2}"
    a1 = h1.abelianization().module
    a2 = h2.abelianization().module
    if (a1.free_rank, a1.invariant_factors) != (a2.free_rank, a2.invariant_factors):
        return None, "refuted", "abelianizations differ"
    sweeps = [[[g] for g in h2.generators()]] if h1.n == h2.n else []
    sweeps += [[_box_elements(h2, b)] * h1.n for b in range(1, box + 1)]
    for candidates in sweeps:
        for images in isomorphisms(h1, h2, candidates):
            m = GroupMap(h1, h2, images, check=False)
            if m.is_isomorphism():
                return m, "ok", ""
    return None, "unknown", "no presentation isomorphism found within the search box"


def _conjugate_into_image(vgroup, att, ys, box):
    """Find g with y^g in the image of the attaching map for every y,
    returning (g, preimages), (None, 'refuted') after a complete scan, or
    (None, 'unknown') when a box-limited scan is exhausted."""
    if isinstance(vgroup, AbelianModule):
        pres = [att.preimage(y) for y in ys]
        if any(t is None for t in pres):
            return None, "refuted"
        return vgroup.identity(), pres
    if isinstance(vgroup, FiniteGroupTable):
        for g in range(vgroup.order):
            pres = [att.preimage(vgroup.conjugate(y, g)) for y in ys]
            if all(t is not None for t in pres):
                return g, pres
        return None, "refuted"
    for vec in _box_elements(vgroup, box):
        g = vgroup.normal_form(vec)
        pres = [att.preimage(vgroup.conjugate(y, g)) for y in ys]
        if all(t is not None for t in pres):
            return g, pres
    return None, "unknown"


def _witness_automorphism(h, witness):
    """The automorphism of a black vertex group in a Whitehead witness.
    Each solver records the images of ``h.generators()``: a module
    witness as the rows of its matrix, the others as generator images."""
    images = witness["matrix"] if "matrix" in witness else witness["generator_images"]
    return GroupMap(h, h, images)


def _try_combo(x1s, x2, psi, alphas, whites, blacks, budget):
    """One branch of the decision loop: fixed white automorphisms, solve
    the black vertices via mixed Whitehead instances."""
    g_elems = {}
    targets = {}
    for w in whites:
        comp = compose_maps(alphas[w], psi[w])
        for f in x2.graph.link(w):
            gens_primed = x1s.edge_groups[f].generators()
            ys = [comp.apply(x1s.attaching[f].apply(s)) for s in gens_primed]
            g, out = _conjugate_into_image(x2.vertex_groups[w], x2.attaching[f], ys, budget)
            if g is None:
                return out, {
                    "stage": "white conjugation",
                    "vertex": str(w),
                    "edge": str(f),
                    "status": out,
                }
            g_elems[f] = g
            targets[f] = out
    black_witness = {}
    for b in blacks:
        link = x2.graph.link(b)
        s_tuples = []
        t_tuples = []
        for e in link:
            gens_primed = x1s.edge_groups[e].generators()
            s_tuples.append(
                tuple(psi[b].apply(x1s.attaching[e].apply(s)) for s in gens_primed)
            )
            ebar = x2.graph.involution[e]
            t_tuples.append(tuple(x2.attaching[e].apply(t) for t in targets[ebar]))
        verdict = solve_whitehead(x2.vertex_groups[b], s_tuples, t_tuples, budget=budget)
        if verdict.is_not_equivalent():
            return "refuted", {
                "stage": "black vertex",
                "vertex": str(b),
                "status": "refuted",
                "certificate": verdict.certificate,
            }
        if verdict.is_unknown():
            return "unknown", {
                "stage": "black vertex",
                "vertex": str(b),
                "status": "unknown",
                "report": verdict.report,
            }
        black_witness[b] = verdict.witness
    autos = dict(alphas)
    elems = dict(g_elems)
    for b in blacks:
        h = x2.vertex_groups[b]
        autos[b] = _witness_automorphism(h, black_witness[b])
        for e, c in zip(x2.graph.link(b), black_witness[b]["conjugators"]):
            elems[e] = h.invert(h.normal_form(c))
    adj = ExtensionAdjustment(autos, elems)
    rep = verify_extension_adjustment(x1s, x2, psi, adj)
    if not rep:
        raise RuntimeError(f"assembled adjustment fails verification: {rep!r}")
    phi = assemble_isomorphism(x1s, x2, psi, adj)
    rep2 = verify_gog_isomorphism(x1s, x2, phi)
    if not rep2:
        raise RuntimeError(f"assembled isomorphism fails verification: {rep2!r}")
    witness = {
        "vertex_maps": {str(v): phi.vertex_maps[v].serialize() for v in x2.graph.vertices},
        "edge_maps": {str(e): phi.edge_maps[e].serialize() for e in x2.graph.edges},
        "attaching_elements": {
            str(e): serialize_element(phi.attaching_elements[e]) for e in x2.graph.edges
        },
    }
    return "equivalent", witness


def _decide_on_graph(x1s, x2, lists, budget, branch_idx, log):
    psi = {}
    for v in x2.graph.vertices:
        m, status, detail = _base_isomorphism(
            x1s.vertex_groups[v], x2.vertex_groups[v], budget
        )
        if m is None:
            log.append(
                {
                    "graph_map": branch_idx,
                    "stage": "vertex groups",
                    "vertex": str(v),
                    "status": status,
                    "detail": detail,
                }
            )
            return status, None
        psi[v] = m
    whites = [v for v in x2.graph.vertices if x2.graph.colors[v] == "white"]
    blacks = [v for v in x2.graph.vertices if x2.graph.colors[v] == "black"]
    any_unknown = False
    for combo in itertools.product(*[range(len(lists[w])) for w in whites]):
        alphas = {w: lists[w][i] for w, i in zip(whites, combo)}
        status, payload = _try_combo(x1s, x2, psi, alphas, whites, blacks, budget)
        if status == "equivalent":
            return "equivalent", payload
        log.append({"graph_map": branch_idx, "orbit_choice": list(combo), **payload})
        if status == "unknown":
            any_unknown = True
    return ("unknown" if any_unknown else "refuted"), None


def _module_invariants(module):
    return {
        "free_rank": module.free_rank,
        "invariant_factors": list(module.invariant_factors),
    }


def _attach_abelianization(cert, x1, x2):
    """Corroborate a refutation with the fundamental group abelianizations
    whenever both can be computed."""
    try:
        a1 = fundamental_presentation(x1, spanning_tree(x1.graph)).abelianization()
        a2 = fundamental_presentation(x2, spanning_tree(x2.graph)).abelianization()
    except (ValueError, CapExceeded):
        return
    cert["abelianization_x1"] = _module_invariants(a1)
    cert["abelianization_x2"] = _module_invariants(a2)
    cert["abelianizations_differ"] = (
        a1.free_rank,
        a1.invariant_factors,
    ) != (a2.free_rank, a2.invariant_factors)


def decide_gog_iso(x1, x2, white_orbit_lists, budget=2):
    """Decide whether two bipartite graphs of groups are isomorphic.

    The loop enumerates graph isomorphisms between the underlying graphs,
    reference vertex-group isomorphisms, and one automorphism per white
    vertex from the caller-supplied finite orbit lists (keyed by the white
    vertices of x2); each branch then reduces to one mixed Whitehead
    instance per black vertex.  Equivalent verdicts carry a fully
    re-verified isomorphism witness; NotEquivalent verdicts mean every
    branch was refuted by a complete solver (relative to the supplied
    orbit lists); Unknown is returned when some branch exhausts a budget.
    """
    if x1.graph.colors is None or x2.graph.colors is None:
        raise ValueError("decide_gog_iso needs bipartite colorings on both inputs")
    lists = {}
    for w in x2.graph.vertices:
        if x2.graph.colors[w] != "white":
            continue
        if w not in white_orbit_lists:
            raise ValueError(f"missing orbit list for white vertex {w!r}")
        entries = []
        for a in white_orbit_lists[w]:
            m = a if isinstance(a, GroupMap) else GroupMap(
                x2.vertex_groups[w], x2.vertex_groups[w], a
            )
            if m.domain is not x2.vertex_groups[w] or m.codomain is not x2.vertex_groups[w]:
                raise ValueError(f"orbit list entry for {w!r} is not an endomap")
            if not m.is_isomorphism():
                raise ValueError(f"orbit list entry for {w!r} is not an automorphism")
            entries.append(m)
        if not entries:
            raise ValueError(f"orbit list for white vertex {w!r} is empty")
        lists[w] = entries
    sigmas = graph_isomorphisms(x1.graph, x2.graph)
    log = []
    if not sigmas:
        cert = {"reason": "the underlying graphs are not isomorphic", "branches": []}
        _attach_abelianization(cert, x1, x2)
        return Verdict(NOT_EQUIVALENT, certificate=cert)
    any_unknown = False
    for idx, (vmap, emap) in enumerate(sigmas):
        x1s = _transport(x1, vmap, emap, x2.graph)
        status, payload = _decide_on_graph(x1s, x2, lists, budget, idx, log)
        if status == "equivalent":
            payload["graph_vertex_map"] = {str(v): str(vmap[v]) for v in x1.graph.vertices}
            payload["graph_edge_map"] = {str(e): str(emap[e]) for e in x1.graph.edges}
            return Verdict(EQUIVALENT, witness=payload)
        if status == "unknown":
            any_unknown = True
    if any_unknown:
        return Verdict(UNKNOWN, report={"budget": budget, "branches": log})
    cert = {"reason": "every branch is refuted by a complete solver", "branches": log}
    _attach_abelianization(cert, x1, x2)
    return Verdict(NOT_EQUIVALENT, certificate=cert)


def verify_gog_witness(x1, x2, witness):
    """Re-verify a serialized Equivalent witness from decide_gog_iso."""
    try:
        vlook = {str(v): v for v in x2.graph.vertices}
        elook = {str(e): e for e in x2.graph.edges}
        vmap = {v: vlook[witness["graph_vertex_map"][str(v)]] for v in x1.graph.vertices}
        emap = {e: elook[witness["graph_edge_map"][str(e)]] for e in x1.graph.edges}
        x1s = _transport(x1, vmap, emap, x2.graph)
        vertex_maps = {
            v: GroupMap(
                x1s.vertex_groups[v],
                x2.vertex_groups[v],
                witness["vertex_maps"][str(v)],
            )
            for v in x2.graph.vertices
        }
        edge_maps = {
            e: GroupMap(
                x1s.edge_groups[e], x2.edge_groups[e], witness["edge_maps"][str(e)]
            )
            for e in x2.graph.edges
        }
        gammas = {e: witness["attaching_elements"][str(e)] for e in x2.graph.edges}
        phi = GoGIsomorphism(vertex_maps, edge_maps, gammas)
        return bool(verify_gog_isomorphism(x1s, x2, phi))
    except (KeyError, TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# fundamental group presentations


class Presentation:
    """Finite presentation: generator names and relator words, a word
    being a tuple of (generator index, nonzero exponent) pairs."""

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        clean = []
        for word in relators:
            w = tuple((int(i), int(e)) for i, e in word if int(e) != 0)
            for i, _ in w:
                if not 0 <= i < len(self.generators):
                    raise ValueError(f"generator index {i} out of range")
            clean.append(w)
        self.relators = tuple(clean)

    def abelianization(self) -> AbelianModule:
        n = len(self.generators)
        rows = []
        for word in self.relators:
            row = [0] * n
            for i, e in word:
                row[i] += e
            rows.append(tuple(row))
        return AdaptedQuotient(n, rows).module

    def describe(self):
        def word_str(word):
            if not word:
                return "1"
            parts = []
            for i, e in word:
                name = self.generators[i]
                parts.append(name if e == 1 else f"{name}^{e}")
            return " ".join(parts)

        lines = [f"generators: {', '.join(self.generators)}"]
        for word in self.relators:
            lines.append(f"relator: {word_str(word)}")
        return "\n".join(lines)


def _winv(word):
    return tuple((i, -e) for i, e in reversed(word))


def spanning_tree(graph):
    """Edges of a breadth-first spanning tree (one orientation each)."""
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    if not graph.vertices:
        return ()
    tree = []
    reach = {graph.vertices[0]}
    frontier = [graph.vertices[0]]
    while frontier:
        v = frontier.pop(0)
        for e in graph.edges:
            if graph.terminal[e] == v and graph.origin(e) not in reach:
                w = graph.origin(e)
                reach.add(w)
                frontier.append(w)
                tree.append(e)
    return tuple(tree)


def _vertex_relators(h, offset):
    """The relations of a pc presentation as relator words in the
    generator block at offset."""
    out = []
    for i in range(h.n):
        for j in range(i + 1, h.n):
            img = h.conjugate(h.gen(j), h.gen(i))
            word = ((offset + i, -1), (offset + j, 1), (offset + i, 1))
            out.append(word + _winv(_element_word(h, img, offset)))
    for i, m in enumerate(h.orders):
        if m is not None:
            tail = h.power(h.gen(i), m)
            out.append(((offset + i, m),) + _winv(_element_word(h, tail, offset)))
    return out


def _element_word(h, x, offset):
    """The word of x in the generator block at offset: its coordinates,
    or for a table element those of its pc normal form."""
    return tuple((offset + i, e) for i, e in enumerate(_pc_element(h, x)) if e)


def fundamental_presentation(x, tree):
    """Finite presentation of the fundamental group of a graph of groups
    relative to a spanning tree: vertex group generators and relations,
    one stable letter per non-tree geometric edge, Bass relations
    e i_e(s) e^-1 = i_ebar(s) on edge group generators, tree letters
    killed."""
    graph = x.graph
    tree_set = set()
    for e in tree:
        if e not in set(graph.edges):
            raise ValueError(f"tree edge {e!r} is not an edge of the graph")
        tree_set.add(e)
        tree_set.add(graph.involution[e])
    geometric = [e for e in graph.edge_pairs() if e in tree_set]
    if len(geometric) != len(graph.vertices) - 1:
        raise ValueError("tree is not spanning")
    reach = {graph.vertices[0]} if graph.vertices else set()
    grew = True
    while grew:
        grew = False
        for e in tree_set:
            if graph.terminal[e] in reach and graph.origin(e) not in reach:
                reach.add(graph.origin(e))
                grew = True
    if len(reach) != len(graph.vertices):
        raise ValueError("tree is not spanning")

    pcs = {v: _pc_group(x.vertex_groups[v]) for v in graph.vertices}
    names = []
    offsets = {}
    for v in graph.vertices:
        offsets[v] = len(names)
        names.extend(f"{v}_{name}" for name in pcs[v].names)
    stable = {}
    for e in graph.edge_pairs():
        if e not in tree_set:
            stable[e] = len(names)
            names.append(f"t_{e}")

    relators = []
    for v in graph.vertices:
        relators.extend(_vertex_relators(pcs[v], offsets[v]))
    for e in graph.edge_pairs():
        eb = graph.involution[e]
        vt, vo = graph.terminal[e], graph.terminal[eb]
        for s in x.edge_groups[e].generators():
            wt = _element_word(x.vertex_groups[vt], x.attaching[e].apply(s), offsets[vt])
            wo = _element_word(x.vertex_groups[vo], x.attaching[eb].apply(s), offsets[vo])
            if e in stable:
                t = stable[e]
                relators.append(((t, 1),) + wt + ((t, -1),) + _winv(wo))
            else:
                relators.append(wt + _winv(wo))
    return Presentation(names, relators)
