"""Tests for graphs of groups: containers, homomorphisms between group
handles, isomorphism verification and decision, and fundamental group
presentations."""

import itertools
import random

import pytest

from oracles import (
    module_map_injective,
    module_map_preimage,
    module_map_surjective,
    table_closure,
    table_element_order,
    table_map_preimage,
    table_relator_abelianization,
)
from nilcert.gogiso import (
    ExtensionAdjustment,
    GoGIsomorphism,
    Graph,
    GraphOfGroups,
    GroupMap,
    assemble_isomorphism,
    decide_gog_iso,
    fundamental_presentation,
    graph_isomorphisms,
    identity_map,
    spanning_tree,
    verify_extension_adjustment,
    verify_gog_isomorphism,
    verify_gog_witness,
)
from nilcert.nilgroup import (
    FiniteGroupTable,
    PcPresentation,
    Subgroup,
    center,
    generates_abelianization,
    quotient_table,
)
from nilcert.zmod import AbelianModule


def heisenberg():
    return PcPresentation(["x", "y", "z"], [None, None, None], conj={(0, 1): (0, 1, -1)})


def segment_graph(colors=True):
    """One geometric edge between a black and a white vertex."""
    return Graph(
        ["b", "w"],
        ["e", "E"],
        {"e": "E", "E": "e"},
        {"e": "b", "E": "w"},
        colors={"b": "black", "w": "white"} if colors else None,
    )


def loop_graph():
    return Graph(["v"], ["e", "E"], {"e": "E", "E": "e"}, {"e": "v", "E": "v"})


def segment_gog(black_images, white_images, black_group=None, white_group=None):
    """Edge group Z attached into the two vertex groups by the given
    generator images."""
    g = segment_graph()
    edge = AbelianModule(1, [])
    bg = black_group if black_group is not None else AbelianModule(2, [])
    wg = white_group if white_group is not None else AbelianModule(2, [])
    return GraphOfGroups(
        g,
        {"b": bg, "w": wg},
        {"e": edge, "E": edge},
        {
            "e": GroupMap(edge, bg, [black_images]),
            "E": GroupMap(edge, wg, [white_images]),
        },
    )


# ---------------------------------------------------------------------------
# graphs


def test_graph_rejects_fixed_point_involution():
    with pytest.raises(ValueError, match="fixes"):
        Graph(["v"], ["e"], {"e": "e"}, {"e": "v"})


def test_graph_rejects_non_bipartite_coloring():
    with pytest.raises(ValueError, match="bipartite"):
        Graph(
            ["v"],
            ["e", "E"],
            {"e": "E", "E": "e"},
            {"e": "v", "E": "v"},
            colors={"v": "black"},
        )
    with pytest.raises(ValueError, match="bipartite"):
        Graph(
            ["u", "v"],
            ["e", "E"],
            {"e": "E", "E": "e"},
            {"e": "u", "E": "v"},
            colors={"u": "black", "v": "black"},
        )


def test_graph_rejects_incomplete_incidence():
    with pytest.raises(ValueError, match="terminal"):
        Graph(["v"], ["e", "E"], {"e": "E", "E": "e"}, {"e": "v"})
    with pytest.raises(ValueError, match="involution"):
        Graph(["v"], ["e", "E"], {"e": "E"}, {"e": "v", "E": "v"})


def test_graph_incidence_and_links():
    g = segment_graph()
    assert g.origin("e") == "w"
    assert g.origin("E") == "b"
    assert g.link("b") == ("e",)
    assert g.link("w") == ("E",)
    assert g.edge_pairs() == ("e",)
    assert g.is_connected()


def test_graph_automorphism_counts():
    assert len(graph_isomorphisms(segment_graph(), segment_graph())) == 1
    uncolored = segment_graph(colors=False)
    assert len(graph_isomorphisms(uncolored, uncolored)) == 2
    # a loop has two orientations
    assert len(graph_isomorphisms(loop_graph(), loop_graph())) == 2


def test_graph_isomorphisms_relabel():
    g1 = segment_graph()
    g2 = Graph(
        ["B", "W"],
        ["f", "F"],
        {"f": "F", "F": "f"},
        {"f": "W", "F": "B"},
        colors={"B": "black", "W": "white"},
    )
    isos = graph_isomorphisms(g1, g2)
    assert len(isos) == 1
    vmap, emap = isos[0]
    assert vmap == {"b": "B", "w": "W"}
    assert emap == {"e": "F", "E": "f"}


def test_graph_isomorphisms_respect_colors():
    def path(colors):
        return Graph(
            ["u", "v", "x"],
            ["e", "E", "f", "F"],
            {"e": "E", "E": "e", "f": "F", "F": "f"},
            {"e": "u", "E": "v", "f": "v", "F": "x"},
            colors=colors,
        )

    two_black = path({"u": "black", "v": "white", "x": "black"})
    two_white = path({"u": "white", "v": "black", "x": "white"})
    assert graph_isomorphisms(two_black, two_white) == []
    assert len(graph_isomorphisms(two_black, two_black)) == 2
    # swapping every color still permits the color-preserving flip
    g1 = segment_graph()
    swapped = Graph(
        ["b", "w"],
        ["e", "E"],
        {"e": "E", "E": "e"},
        {"e": "b", "E": "w"},
        colors={"b": "white", "w": "black"},
    )
    isos = graph_isomorphisms(g1, swapped)
    assert len(isos) == 1
    assert isos[0][0] == {"b": "w", "w": "b"}


# ---------------------------------------------------------------------------
# group maps


def test_group_map_abelian_apply_and_preimage():
    z1 = AbelianModule(1, [])
    z2 = AbelianModule(2, [])
    inc = GroupMap(z1, z2, [(2, 0)])
    assert inc.apply((3,)) == (6, 0)
    assert inc.preimage((4, 0)) == (2,)
    assert inc.preimage((1, 0)) is None
    assert inc.preimage((0, 1)) is None


def test_group_map_rejects_relation_violations():
    heis = heisenberg()
    z2 = AbelianModule(2, [])
    with pytest.raises(ValueError, match="commute"):
        GroupMap(z2, heis, [(1, 0, 0), (0, 1, 0)])
    z_mod2 = AbelianModule(0, [2])
    z1 = AbelianModule(1, [])
    with pytest.raises(ValueError, match="torsion"):
        GroupMap(z_mod2, z1, [(1,)])


def test_group_map_wrong_image_count():
    z2 = AbelianModule(2, [])
    z1 = AbelianModule(1, [])
    with pytest.raises(ValueError, match="generator images"):
        GroupMap(z2, z1, [(1,)])


def test_group_map_injectivity_free_abelian():
    z1 = AbelianModule(1, [])
    z2 = AbelianModule(2, [])
    assert GroupMap(z1, z2, [(2, 0)]).is_injective()
    assert not GroupMap(z2, z1, [(1,), (0,)]).is_injective()
    assert not GroupMap(z2, z1, [(1,), (1,)]).is_injective()
    assert GroupMap(z2, z2, [(1, 1), (0, 1)]).is_injective()


def test_group_map_injectivity_sees_torsion_collapse():
    mixed = AbelianModule(1, [2])
    z1 = AbelianModule(1, [])
    drop = GroupMap(mixed, z1, [(1,), (0,)])
    assert not drop.is_injective()
    keep = GroupMap(mixed, AbelianModule(1, [2]), [(1, 0), (0, 1)])
    assert keep.is_injective()


def test_group_map_injectivity_into_nilpotent():
    heis = heisenberg()
    z1 = AbelianModule(1, [])
    center = GroupMap(z1, heis, [(0, 0, 1)])
    assert center.is_injective()
    assert center.preimage((0, 0, -5)) == (-5,)
    assert center.preimage((1, 0, 0)) is None
    z2 = AbelianModule(2, [])
    cornered = GroupMap(z2, heis, [(1, 0, 0), (0, 0, 1)])
    assert cornered.is_injective()
    assert not cornered.is_surjective()


def test_group_map_nonabelian_to_abelian_never_injective():
    heis = heisenberg()
    z2 = AbelianModule(2, [])
    ab = GroupMap(heis, z2, [(1, 0), (0, 1), (0, 0)])
    assert ab.apply((2, 3, 7)) == (2, 3)
    assert not ab.is_injective()
    assert ab.is_surjective()


def test_group_map_infinite_domain_finite_codomain():
    z1 = AbelianModule(1, [])
    p = PcPresentation(["a"], [4])
    c4 = quotient_table(p, Subgroup(p, []), cap=100)
    gen = c4.generators()[0]
    m = GroupMap(z1, c4, [gen])
    assert m.is_surjective()
    assert not m.is_injective()
    assert m.preimage(c4.identity()) == (0,)


def test_group_map_finite_table_expansion_and_errors():
    p = PcPresentation(["a"], [4])
    c4 = quotient_table(p, Subgroup(p, []), cap=100)
    gen = c4.generators()[0]
    inv_images = [c4.invert(gen)]
    m = GroupMap(c4, c4, inv_images)
    assert m.is_isomorphism()
    assert m.apply(gen) == c4.invert(gen)
    order2 = [i for i in range(4) if table_element_order(c4, i) == 2][0]
    squaring = GroupMap(c4, c4, [order2])
    assert not squaring.is_injective()
    assert not squaring.is_surjective()
    q = PcPresentation(["c"], [3])
    c3 = quotient_table(q, Subgroup(q, []), cap=100)
    with pytest.raises(ValueError, match="multiplication table"):
        GroupMap(c4, c3, [c3.generators()[0]])


def test_group_map_between_different_tables():
    p1 = PcPresentation(["a"], [4])
    t1 = quotient_table(p1, Subgroup(p1, []), cap=100)
    p2 = PcPresentation(["a", "b"], [2, 2], powers={0: (0, 1)})
    t2 = quotient_table(p2, Subgroup(p2, []), cap=100)
    g1 = t1.generators()[0]
    image = [i for i in range(4) if table_element_order(t2, i) == 4][0]
    m = GroupMap(t1, t2, [image])
    assert m.is_isomorphism()
    assert m.preimage(image) == g1


def test_group_map_builds_one_image_subgroup(monkeypatch):
    """``is_isomorphism`` asks for the Hirsch length of the image and
    whether it is the whole group; both read one image subgroup."""
    heis = heisenberg()
    images = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    built = []
    original = Subgroup.__init__

    def counting(self, parent, gens, normal_closure=False):
        built.append(tuple(gens))
        original(self, parent, gens, normal_closure)

    monkeypatch.setattr(Subgroup, "__init__", counting)
    m = GroupMap(heis, heis, images)
    assert m.is_isomorphism()
    assert built.count(images) == 1


# ---------------------------------------------------------------------------
# graph of groups containers


def test_gog_rejects_non_injective_attaching():
    g = segment_graph()
    edge = AbelianModule(1, [])
    z2 = AbelianModule(2, [])
    zero = GroupMap(edge, z2, [(0, 0)])
    ok = GroupMap(edge, z2, [(1, 0)])
    with pytest.raises(ValueError, match="not injective"):
        GraphOfGroups(g, {"b": z2, "w": z2}, {"e": edge, "E": edge}, {"e": zero, "E": ok})


def test_gog_rejects_mismatched_edge_handles():
    g = segment_graph()
    e1 = AbelianModule(1, [])
    e2 = AbelianModule(1, [])
    z2 = AbelianModule(2, [])
    with pytest.raises(ValueError, match="same handle"):
        GraphOfGroups(
            g,
            {"b": z2, "w": z2},
            {"e": e1, "E": e2},
            {"e": GroupMap(e1, z2, [(1, 0)]), "E": GroupMap(e2, z2, [(0, 1)])},
        )


def test_gog_rejects_wrong_codomain():
    g = segment_graph()
    edge = AbelianModule(1, [])
    z2 = AbelianModule(2, [])
    other = AbelianModule(2, [])
    bad = GroupMap(edge, other, [(1, 0)])
    ok = GroupMap(edge, z2, [(0, 1)])
    with pytest.raises(ValueError, match="codomain"):
        GraphOfGroups(g, {"b": z2, "w": z2}, {"e": edge, "E": edge}, {"e": bad, "E": ok})


# ---------------------------------------------------------------------------
# isomorphism verification


def test_verify_identity_isomorphism():
    x = segment_gog((1, 0), (0, 1))
    bg = x.vertex_groups["b"]
    wg = x.vertex_groups["w"]
    edge = x.edge_groups["e"]
    phi = GoGIsomorphism(
        {"b": identity_map(bg), "w": identity_map(wg)},
        {"e": identity_map(edge), "E": identity_map(edge)},
        {"e": (0, 0), "E": (0, 0)},
    )
    assert verify_gog_isomorphism(x, x, phi)


def test_verify_postcomposed_attaching_needs_matching_vertex_map():
    g = segment_graph()
    edge = AbelianModule(1, [])
    bg = AbelianModule(2, [])
    wg = AbelianModule(2, [])

    def build(black_img):
        return GraphOfGroups(
            g,
            {"b": bg, "w": wg},
            {"e": edge, "E": edge},
            {
                "e": GroupMap(edge, bg, [black_img]),
                "E": GroupMap(edge, wg, [(0, 1)]),
            },
        )

    x1 = build((1, 0))
    x2 = build((1, 1))
    shear = GroupMap(bg, bg, [(1, 1), (0, 1)])
    phi = GoGIsomorphism(
        {"b": shear, "w": identity_map(wg)},
        {"e": identity_map(edge), "E": identity_map(edge)},
        {"e": (0, 0), "E": (0, 0)},
    )
    assert verify_gog_isomorphism(x1, x2, phi)
    bad = GoGIsomorphism(
        {"b": identity_map(bg), "w": identity_map(wg)},
        {"e": identity_map(edge), "E": identity_map(edge)},
        {"e": (0, 0), "E": (0, 0)},
    )
    rep = verify_gog_isomorphism(x1, x2, bad)
    assert not rep
    assert rep.edge == "e"


def test_verify_needs_attaching_element():
    """Twisting one attaching map by an inner automorphism is undone by
    the attaching element, never by vertex or edge maps alone."""
    heis = heisenberg()
    z1 = AbelianModule(1, [])
    g = loop_graph()

    def build(first):
        return GraphOfGroups(
            g,
            {"v": heis},
            {"e": z1, "E": z1},
            {
                "e": GroupMap(z1, heis, [first]),
                "E": GroupMap(z1, heis, [(0, 0, 1)]),
            },
        )

    x1 = build((1, 0, 1))  # image x z, the conjugate of x by y
    x2 = build((1, 0, 0))
    ids = {"e": identity_map(z1), "E": identity_map(z1)}
    good = GoGIsomorphism({"v": identity_map(heis)}, ids, {"e": (0, 1, 0), "E": (0, 0, 0)})
    assert verify_gog_isomorphism(x1, x2, good)
    bad = GoGIsomorphism({"v": identity_map(heis)}, ids, {"e": (0, 0, 0), "E": (0, 0, 0)})
    rep = verify_gog_isomorphism(x1, x2, bad)
    assert not rep
    assert rep.edge == "e"
    assert "generator" in rep.reason


def test_verify_rejects_edge_maps_differing_across_involution():
    x = segment_gog((1, 0), (0, 1))
    edge = x.edge_groups["e"]
    bg = x.vertex_groups["b"]
    wg = x.vertex_groups["w"]
    neg = GroupMap(edge, edge, [(-1,)])
    phi = GoGIsomorphism(
        {"b": identity_map(bg), "w": identity_map(wg)},
        {"e": identity_map(edge), "E": neg},
        {"e": (0, 0), "E": (0, 0)},
    )
    rep = verify_gog_isomorphism(x, x, phi)
    assert not rep
    assert "involution" in rep.reason


def test_verify_shape_mismatch_raises():
    x1 = segment_gog((1, 0), (0, 1))
    g2 = Graph(
        ["B", "W"],
        ["f", "F"],
        {"f": "F", "F": "f"},
        {"f": "B", "F": "W"},
        colors={"B": "black", "W": "white"},
    )
    edge = AbelianModule(1, [])
    z2 = AbelianModule(2, [])
    x2 = GraphOfGroups(
        g2,
        {"B": z2, "W": z2},
        {"f": edge, "F": edge},
        {"f": GroupMap(edge, z2, [(1, 0)]), "F": GroupMap(edge, z2, [(0, 1)])},
    )
    with pytest.raises(ValueError, match="shape"):
        verify_gog_isomorphism(x1, x2, GoGIsomorphism({}, {}, {}))


# ---------------------------------------------------------------------------
# extension adjustments


def heisenberg_loop_pair():
    heis = heisenberg()
    z1 = AbelianModule(1, [])
    g = loop_graph()

    def build(first):
        return GraphOfGroups(
            g,
            {"v": heis},
            {"e": z1, "E": z1},
            {
                "e": GroupMap(z1, heis, [first]),
                "E": GroupMap(z1, heis, [(0, 0, 1)]),
            },
        )

    return heis, build((1, 0, 1)), build((1, 0, 0))


def test_extension_adjustment_verifies_and_assembles():
    heis, x1, x2 = heisenberg_loop_pair()
    psi = {"v": identity_map(heis)}
    adj = ExtensionAdjustment(
        {"v": identity_map(heis)}, {"e": (0, -1, 0), "E": (0, 0, 0)}
    )
    assert verify_extension_adjustment(x1, x2, psi, adj)
    phi = assemble_isomorphism(x1, x2, psi, adj)
    # the attaching element is the inverse of the adjustment element
    assert phi.attaching_elements["e"] == (0, 1, 0)
    assert phi.attaching_elements["E"] == (0, 0, 0)
    assert verify_gog_isomorphism(x1, x2, phi)


def test_extension_adjustment_condition_one_fails():
    heis, x1, x2 = heisenberg_loop_pair()
    psi = {"v": identity_map(heis)}
    adj = ExtensionAdjustment({"v": identity_map(heis)}, {"e": (0, 0, 0), "E": (0, 0, 0)})
    rep = verify_extension_adjustment(x1, x2, psi, adj)
    assert not rep
    assert "condition 1" in rep.reason


def test_extension_adjustment_condition_two_fails():
    """Negating one coordinate keeps both attaching images invariant but
    makes the chased edge maps disagree across the involution."""
    z2 = AbelianModule(2, [])
    z1 = AbelianModule(1, [])
    g = loop_graph()
    x = GraphOfGroups(
        g,
        {"v": z2},
        {"e": z1, "E": z1},
        {"e": GroupMap(z1, z2, [(1, 0)]), "E": GroupMap(z1, z2, [(0, 1)])},
    )
    psi = {"v": identity_map(z2)}
    flip = GroupMap(z2, z2, [(1, 0), (0, -1)])
    adj = ExtensionAdjustment({"v": flip}, {"e": (0, 0), "E": (0, 0)})
    rep = verify_extension_adjustment(x, x, psi, adj)
    assert not rep
    assert "condition 2" in rep.reason


def test_extension_adjustment_rejects_non_automorphism():
    heis, x1, x2 = heisenberg_loop_pair()
    psi = {"v": identity_map(heis)}
    doubling = GroupMap(heis, heis, [(2, 0, 0), (0, 1, 0), (0, 0, 2)])
    adj = ExtensionAdjustment({"v": doubling}, {"e": (0, -1, 0), "E": (0, 0, 0)})
    rep = verify_extension_adjustment(x1, x2, psi, adj)
    assert not rep
    assert rep.vertex == "v"


# ---------------------------------------------------------------------------
# the decision procedure


def test_decide_identity_instance():
    x = segment_gog((1, 0), (0, 1))
    wg = x.vertex_groups["w"]
    verdict = decide_gog_iso(x, x, {"w": [identity_map(wg)]})
    assert verdict.is_equivalent()
    assert verify_gog_witness(x, x, verdict.witness)
    assert verdict.witness["graph_vertex_map"] == {"b": "b", "w": "w"}


def test_decide_black_automorphism_found():
    bg = AbelianModule(2, [])
    wg = AbelianModule(2, [])
    x1 = segment_gog((1, 0), (0, 1), black_group=bg, white_group=wg)
    x2 = segment_gog((0, 1), (0, 1), black_group=bg, white_group=wg)
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(wg)]})
    assert verdict.is_equivalent()
    assert verify_gog_witness(x1, x2, verdict.witness)


def test_decide_white_orbit_list_matters():
    bg = AbelianModule(2, [])
    wg = AbelianModule(2, [])
    x1 = segment_gog((1, 0), (0, 1), black_group=bg, white_group=wg)
    x2 = segment_gog((1, 0), (1, 0), black_group=bg, white_group=wg)
    swap = GroupMap(wg, wg, [(0, 1), (1, 0)])
    with_swap = decide_gog_iso(x1, x2, {"w": [identity_map(wg), swap]})
    assert with_swap.is_equivalent()
    assert verify_gog_witness(x1, x2, with_swap.witness)
    without = decide_gog_iso(x1, x2, {"w": [identity_map(wg)]})
    assert without.is_not_equivalent()


def test_decide_content_obstruction_refuted():
    bg = AbelianModule(2, [])
    wg = AbelianModule(2, [])
    x1 = segment_gog((2, 0), (0, 1), black_group=bg, white_group=wg)
    x2 = segment_gog((3, 0), (0, 1), black_group=bg, white_group=wg)
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(wg)]})
    assert verdict.is_not_equivalent()
    cert = verdict.certificate
    assert cert["reason"] == "every branch is refuted by a complete solver"
    assert cert["branches"]
    # both fundamental groups abelianize to Z^3, so the invariant agrees
    assert cert["abelianization_x1"] == {"free_rank": 3, "invariant_factors": []}
    assert cert["abelianizations_differ"] is False


def test_decide_graph_shapes_differ():
    x1 = segment_gog((1, 0), (0, 1))
    g2 = Graph(
        ["b", "w"],
        ["e1", "E1", "e2", "E2"],
        {"e1": "E1", "E1": "e1", "e2": "E2", "E2": "e2"},
        {"e1": "b", "E1": "w", "e2": "b", "E2": "w"},
        colors={"b": "black", "w": "white"},
    )
    edge = AbelianModule(1, [])
    bg = AbelianModule(2, [])
    wg = AbelianModule(2, [])
    x2 = GraphOfGroups(
        g2,
        {"b": bg, "w": wg},
        {"e1": edge, "E1": edge, "e2": edge, "E2": edge},
        {
            "e1": GroupMap(edge, bg, [(1, 0)]),
            "E1": GroupMap(edge, wg, [(0, 1)]),
            "e2": GroupMap(edge, bg, [(1, 0)]),
            "E2": GroupMap(edge, wg, [(0, 1)]),
        },
    )
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(wg)]})
    assert verdict.is_not_equivalent()
    cert = verdict.certificate
    assert cert["reason"] == "the underlying graphs are not isomorphic"
    # the extra loop adds a free factor to the abelianization
    assert cert["abelianization_x1"]["free_rank"] == 3
    assert cert["abelianization_x2"]["free_rank"] == 4
    assert cert["abelianizations_differ"] is True


def test_decide_vertex_group_mismatch_refuted():
    heis = heisenberg()
    z3 = PcPresentation(["x", "y", "z"], [None, None, None])
    z1 = AbelianModule(1, [])
    wg = AbelianModule(1, [])
    g = segment_graph()

    def build(black):
        return GraphOfGroups(
            g,
            {"b": black, "w": wg},
            {"e": z1, "E": z1},
            {
                "e": GroupMap(z1, black, [(0, 0, 1)]),
                "E": GroupMap(z1, wg, [(1,)]),
            },
        )

    verdict = decide_gog_iso(build(heis), build(z3), {"w": [identity_map(wg)]})
    assert verdict.is_not_equivalent()
    branch = verdict.certificate["branches"][0]
    assert branch["stage"] == "vertex groups"
    assert "abelianization" in branch["detail"]


def nilpotent_segment(black_image):
    heis = heisenberg()
    z1 = AbelianModule(1, [])
    wg = AbelianModule(1, [])
    g = segment_graph()
    return (
        GraphOfGroups(
            g,
            {"b": heis, "w": wg},
            {"e": z1, "E": z1},
            {
                "e": GroupMap(z1, heis, [black_image]),
                "E": GroupMap(z1, wg, [(1,)]),
            },
        ),
        wg,
    )


def test_decide_nilpotent_black_equivalent():
    x1, wg1 = nilpotent_segment((1, 0, 0))
    x2, wg2 = nilpotent_segment((1, 0, 1))
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(x2.vertex_groups["w"])]})
    assert verdict.is_equivalent()
    assert verify_gog_witness(x1, x2, verdict.witness)


def test_decide_nilpotent_black_refuted_by_quotient():
    x1, _ = nilpotent_segment((0, 0, 1))
    x2, _ = nilpotent_segment((0, 0, 2))
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(x2.vertex_groups["w"])]})
    assert verdict.is_not_equivalent()
    branch = verdict.certificate["branches"][0]
    assert branch["stage"] == "black vertex"
    assert branch["certificate"]["kind"] == "quotient_refutation"


def test_decide_nilpotent_unknown_on_small_budget():
    x1, _ = nilpotent_segment((0, 0, 5))
    x2, _ = nilpotent_segment((0, 0, 1))
    verdict = decide_gog_iso(
        x1, x2, {"w": [identity_map(x2.vertex_groups["w"])]}, budget=1
    )
    assert verdict.is_unknown()
    assert verdict.report["budget"] == 1
    assert any(b["status"] == "unknown" for b in verdict.report["branches"])


def test_decide_finite_white_group():
    p = PcPresentation(["a"], [4])
    c4 = quotient_table(p, Subgroup(p, []), cap=100)
    gen = c4.generators()[0]
    z_mod2 = AbelianModule(0, [2])
    z_mod4 = AbelianModule(0, [4])
    order2 = [i for i in range(4) if table_element_order(c4, i) == 2][0]
    g = segment_graph()

    def build(white_target):
        return GraphOfGroups(
            g,
            {"b": z_mod4, "w": c4},
            {"e": z_mod2, "E": z_mod2},
            {
                "e": GroupMap(z_mod2, z_mod4, [(2,)]),
                "E": GroupMap(z_mod2, c4, [white_target]),
            },
        )

    x = build(order2)
    inversion = GroupMap(c4, c4, [c4.invert(gen)])
    verdict = decide_gog_iso(x, x, {"w": [identity_map(c4), inversion]})
    assert verdict.is_equivalent()
    assert verify_gog_witness(x, x, verdict.witness)


def test_decide_finite_black_group():
    p = PcPresentation(["a"], [4])
    c4 = quotient_table(p, Subgroup(p, []), cap=100)
    gen = c4.generators()[0]
    z_mod4 = AbelianModule(0, [4])
    g = segment_graph()

    def build(black_target):
        return GraphOfGroups(
            g,
            {"b": c4, "w": z_mod4},
            {"e": z_mod4, "E": z_mod4},
            {
                "e": GroupMap(z_mod4, c4, [black_target]),
                "E": GroupMap(z_mod4, z_mod4, [(1,)]),
            },
        )

    x1 = build(gen)
    x2 = build(c4.invert(gen))
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(z_mod4)]})
    assert verdict.is_equivalent()
    assert verify_gog_witness(x1, x2, verdict.witness)
    witness_gamma = verdict.witness["attaching_elements"]["e"]
    assert isinstance(witness_gamma, int)


def test_decide_cross_table_white_groups():
    p1 = PcPresentation(["a"], [4])
    t1 = quotient_table(p1, Subgroup(p1, []), cap=100)
    p2 = PcPresentation(["a", "b"], [2, 2], powers={0: (0, 1)})
    t2 = quotient_table(p2, Subgroup(p2, []), cap=100)
    z_mod2 = AbelianModule(0, [2])
    z_mod4 = AbelianModule(0, [4])
    g = segment_graph()

    def build(table):
        order2 = [i for i in range(4) if table_element_order(table, i) == 2][0]
        return GraphOfGroups(
            g,
            {"b": z_mod4, "w": table},
            {"e": z_mod2, "E": z_mod2},
            {
                "e": GroupMap(z_mod2, z_mod4, [(2,)]),
                "E": GroupMap(z_mod2, table, [order2]),
            },
        )

    x1 = build(t1)
    x2 = build(t2)
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(t2)]})
    assert verdict.is_equivalent()
    assert verify_gog_witness(x1, x2, verdict.witness)


def test_decide_relabeling_invariance():
    rng = random.Random(41)
    bg = AbelianModule(2, [])
    wg = AbelianModule(2, [])
    x1 = segment_gog((1, 1), (0, 1), black_group=bg, white_group=wg)
    for _ in range(5):
        vnames = ["p", "q"]
        enames = ["s", "S"]
        rng.shuffle(vnames)
        rng.shuffle(enames)
        g2 = Graph(
            vnames,
            enames,
            {enames[0]: enames[1], enames[1]: enames[0]},
            {enames[0]: vnames[0], enames[1]: vnames[1]},
            colors={vnames[0]: "black", vnames[1]: "white"},
        )
        edge = AbelianModule(1, [])
        x2 = GraphOfGroups(
            g2,
            {vnames[0]: bg, vnames[1]: wg},
            {enames[0]: edge, enames[1]: edge},
            {
                enames[0]: GroupMap(edge, bg, [(1, 1)]),
                enames[1]: GroupMap(edge, wg, [(0, 1)]),
            },
        )
        verdict = decide_gog_iso(x1, x2, {vnames[1]: [identity_map(wg)]})
        assert verdict.is_equivalent()
        assert verify_gog_witness(x1, x2, verdict.witness)
        # the refuted example stays refuted after relabeling
        x1_bad = segment_gog((2, 0), (0, 1), black_group=bg, white_group=wg)
        x2_bad = GraphOfGroups(
            g2,
            {vnames[0]: bg, vnames[1]: wg},
            {enames[0]: edge, enames[1]: edge},
            {
                enames[0]: GroupMap(edge, bg, [(3, 0)]),
                enames[1]: GroupMap(edge, wg, [(0, 1)]),
            },
        )
        bad = decide_gog_iso(x1_bad, x2_bad, {vnames[1]: [identity_map(wg)]})
        assert bad.is_not_equivalent()


def test_decide_input_validation():
    x = segment_gog((1, 0), (0, 1))
    wg = x.vertex_groups["w"]
    bg = x.vertex_groups["b"]
    with pytest.raises(ValueError, match="missing orbit list"):
        decide_gog_iso(x, x, {})
    with pytest.raises(ValueError, match="empty"):
        decide_gog_iso(x, x, {"w": []})
    doubling = GroupMap(wg, wg, [(2, 0), (0, 1)])
    with pytest.raises(ValueError, match="automorphism"):
        decide_gog_iso(x, x, {"w": [doubling]})
    uncolored = Graph(["b", "w"], ["e", "E"], {"e": "E", "E": "e"}, {"e": "b", "E": "w"})
    edge = x.edge_groups["e"]
    y = GraphOfGroups(
        uncolored,
        {"b": bg, "w": wg},
        {"e": edge, "E": edge},
        {"e": x.attaching["e"], "E": x.attaching["E"]},
    )
    with pytest.raises(ValueError, match="bipartite"):
        decide_gog_iso(y, y, {"w": [identity_map(wg)]})


def test_decide_accepts_raw_orbit_images():
    x1 = segment_gog((1, 0), (0, 1))
    wg1 = x1.vertex_groups["w"]
    bg1 = x1.vertex_groups["b"]
    x2 = GraphOfGroups(
        x1.graph,
        {"b": bg1, "w": wg1},
        {"e": x1.edge_groups["e"], "E": x1.edge_groups["E"]},
        {
            "e": x1.attaching["e"],
            "E": GroupMap(x1.edge_groups["E"], wg1, [(1, 0)]),
        },
    )
    verdict = decide_gog_iso(x1, x2, {"w": [[(1, 0), (0, 1)], [(0, 1), (1, 0)]]})
    assert verdict.is_equivalent()


def test_witness_tampering_rejected():
    x1 = segment_gog((1, 0), (0, 1))
    wg = x1.vertex_groups["w"]
    verdict = decide_gog_iso(x1, x1, {"w": [identity_map(wg)]})
    assert verify_gog_witness(x1, x1, verdict.witness)
    tampered = dict(verdict.witness)
    tampered["attaching_elements"] = dict(tampered["attaching_elements"])
    tampered["attaching_elements"]["e"] = [5, 0]
    # an abelian vertex group ignores conjugation, so corrupt a vertex map too
    tampered2 = dict(verdict.witness)
    tampered2["vertex_maps"] = dict(tampered2["vertex_maps"])
    tampered2["vertex_maps"]["b"] = [[2, 0], [0, 1]]
    assert not verify_gog_witness(x1, x1, tampered2)
    missing = dict(verdict.witness)
    del missing["edge_maps"]
    assert not verify_gog_witness(x1, x1, missing)


# ---------------------------------------------------------------------------
# fundamental group presentations


def test_fundamental_presentation_single_vertex():
    g = Graph(["v"], [], {}, {})
    z2 = AbelianModule(2, [])
    x = GraphOfGroups(g, {"v": z2}, {}, {})
    pres = fundamental_presentation(x, spanning_tree(g))
    assert pres.generators == ("v_a0", "v_a1")
    assert len(pres.relators) == 1
    ab = pres.abelianization()
    assert ab.free_rank == 2 and ab.invariant_factors == ()


def test_fundamental_presentation_ascending_loop():
    """Loop with attaching maps doubling and tripling one generator of Z;
    the abelianization of the resulting group is the infinite cyclic group
    generated by the stable letter."""
    g = loop_graph()
    zv = AbelianModule(1, [])
    ze = AbelianModule(1, [])
    x = GraphOfGroups(
        g,
        {"v": zv},
        {"e": ze, "E": ze},
        {"e": GroupMap(ze, zv, [(2,)]), "E": GroupMap(ze, zv, [(3,)])},
    )
    pres = fundamental_presentation(x, spanning_tree(g))
    assert pres.generators == ("v_a0", "t_e")
    assert pres.relators == (((1, 1), (0, 2), (1, -1), (0, -3)),)
    ab = pres.abelianization()
    assert ab.free_rank == 1 and ab.invariant_factors == ()


def test_fundamental_presentation_segment_glue():
    x = segment_gog((2, 0), (0, 1))
    pres = fundamental_presentation(x, spanning_tree(x.graph))
    ab = pres.abelianization()
    assert ab.free_rank == 3 and ab.invariant_factors == ()
    described = pres.describe()
    assert "b_a0^2 w_a1^-1" in described


def test_fundamental_presentation_finite_vertex():
    p = PcPresentation(["a"], [3])
    c3 = quotient_table(p, Subgroup(p, []), cap=100)
    g = Graph(["v"], [], {}, {})
    x = GraphOfGroups(g, {"v": c3}, {}, {})
    pres = fundamental_presentation(x, ())
    ab = pres.abelianization()
    assert ab.free_rank == 0 and ab.invariant_factors == (3,)


FINITE_VERTEX_GROUPS = {
    "D8": PcPresentation(["a", "b", "c"], [2, 2, 2], conj={(0, 1): (0, 1, 1)}),
    "Q8": PcPresentation(
        ["a", "b", "c"], [2, 2, 2], conj={(0, 1): (0, 1, 1)}, powers={0: (0, 0, 1), 1: (0, 0, 1)}
    ),
    "C4xC2": PcPresentation(["a", "b", "c"], [2, 2, 2], powers={0: (0, 0, 1)}),
    "Z/9": PcPresentation(["a", "b"], [3, 3], powers={0: (0, 1)}),
}


@pytest.mark.parametrize(
    "name, invariants",
    [("C4xC2", (2, 4)), ("D8", (2, 2)), ("Q8", (2, 2)), ("Z/9", (9,))],
)
def test_fundamental_presentation_table_vertex_matches_table_relators(name, invariants):
    """A table vertex group is presented by the pc presentation it
    numbers; the abelianization is that of the presentation by the whole
    multiplication table."""
    p = FINITE_VERTEX_GROUPS[name]
    table = quotient_table(p, Subgroup(p, []))
    g = Graph(["v"], [], {}, {})
    ab = fundamental_presentation(GraphOfGroups(g, {"v": table}, {}, {}), ()).abelianization()
    old = table_relator_abelianization(table)
    assert (ab.free_rank, ab.invariant_factors) == (old.free_rank, old.invariant_factors)
    assert (ab.free_rank, ab.invariant_factors) == (0, invariants)


def test_fundamental_presentation_table_loop():
    """Z/9 extended by a stable letter acting as a -> a^4: the Bass
    relation a = a^4 leaves Z x Z/3."""
    p = FINITE_VERTEX_GROUPS["Z/9"]
    z9 = quotient_table(p, Subgroup(p, []))
    a = z9.project((1, 0))
    edge = AbelianModule(0, [9])
    x = GraphOfGroups(
        loop_graph(),
        {"v": z9},
        {"e": edge, "E": edge},
        {"e": GroupMap(edge, z9, [a]), "E": GroupMap(edge, z9, [z9.power(a, 4)])},
    )
    pres = fundamental_presentation(x, ())
    assert pres.generators == ("v_a", "v_b", "t_e")
    ab = pres.abelianization()
    assert (ab.free_rank, ab.invariant_factors) == (1, (3,))


def test_fundamental_presentation_heisenberg_vertex():
    heis = heisenberg()
    g = Graph(["v"], [], {}, {})
    x = GraphOfGroups(g, {"v": heis}, {}, {})
    pres = fundamental_presentation(x, ())
    ab = pres.abelianization()
    assert ab.free_rank == 2 and ab.invariant_factors == ()


def test_fundamental_presentation_tree_validation():
    x = segment_gog((1, 0), (0, 1))
    with pytest.raises(ValueError, match="spanning"):
        fundamental_presentation(x, ())
    with pytest.raises(ValueError, match="not an edge"):
        fundamental_presentation(x, ("zz",))
    pres = fundamental_presentation(x, ("e",))
    assert all(not name.startswith("t_") for name in pres.generators)


def test_spanning_tree_requires_connected_graph():
    g = Graph(
        ["u", "v", "p", "q"],
        ["e", "E", "f", "F"],
        {"e": "E", "E": "e", "f": "F", "F": "f"},
        {"e": "u", "E": "v", "f": "p", "F": "q"},
    )
    with pytest.raises(ValueError, match="connected"):
        spanning_tree(g)


def test_decide_black_groups_given_by_two_presentations():
    # H3 as y^x = y z and as y^x = y z^-1: the base isomorphism lies in
    # the exponent box 1, which is searched before box 2
    h3 = PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, 1)})
    x1 = segment_gog((1, 0, 0), (1,), black_group=h3, white_group=AbelianModule(1, []))
    x2 = segment_gog(
        (1, 0, 0), (1,), black_group=heisenberg(), white_group=AbelianModule(1, [])
    )
    verdict = decide_gog_iso(x1, x2, {"w": [identity_map(x2.vertex_groups["w"])]})
    assert verdict.is_equivalent()
    assert verify_gog_witness(x1, x2, verdict.witness)


# ---------------------------------------------------------------------------
# group maps against brute force and the algorithms they replaced


def h3_times_c2():
    return PcPresentation(
        ["x", "y", "z", "w"], [None, None, None, 2], conj={(0, 1): (0, 1, -1, 0)}
    )


CROSS_CHECK_GROUPS = {
    "module": lambda: [
        AbelianModule(1, []), AbelianModule(2, []), AbelianModule(1, [2]), AbelianModule(0, [4])
    ],
    "table": lambda: [quotient_table(p, Subgroup(p, [])) for p in FINITE_VERTEX_GROUPS.values()],
    "pc": lambda: [
        heisenberg(),
        PcPresentation(["x", "y", "z"], [None] * 3, conj={(0, 1): (0, 1, 2)}),
        h3_times_c2(),
    ],
}


def _box(g, radius):
    """Every element of a table or finite module; otherwise the normal
    forms with coordinates in [-radius, radius]."""
    if isinstance(g, FiniteGroupTable):
        return list(range(g.order))
    if isinstance(g, AbelianModule) and g.is_finite():
        return [tuple(x) for x in g.elements()]
    n = len(g.identity())
    return sorted({g.normal_form(v) for v in itertools.product(range(-radius, radius + 1), repeat=n)})


def _central(g):
    if isinstance(g, FiniteGroupTable):
        return [x for x, (_, height) in enumerate(g.signatures()) if height <= 1]
    if isinstance(g, AbelianModule):
        return _box(g, 2)
    return list(center(g).gens) + [g.identity()]


def _random_images(rng, d, c):
    """Generator images d -> c, most of which respect d's relations: a
    module's free generators go to commuting elements and its torsion
    generators to elements of fitting order, an H3-type domain's z goes
    to [x', y'], and a table's generators to elements whose order divides
    theirs."""
    pool = _box(c, 1)
    mul = c.multiply

    def killed_by(k):
        return [t for t in pool if c.power(t, k) == c.identity()]

    if isinstance(d, AbelianModule):
        u, z = rng.choice(pool), rng.choice(_central(c))
        images = [
            mul(c.power(u, rng.randint(-2, 2)), c.power(z, rng.randint(-2, 2)))
            for _ in range(d.free_rank)
        ]
        return images + [rng.choice(killed_by(k)) for k in d.invariant_factors]
    if isinstance(d, PcPresentation):
        x, y = rng.choice(pool), rng.choice(pool)
        images = [x, y, mul(mul(c.invert(x), c.invert(y)), mul(x, y))]
        return images + [rng.choice(_central(c)) for _ in range(d.n - 3)]
    orders = [order for order, _ in d.signatures()]
    return [rng.choice(killed_by(orders[g])) for g in d.generators()]


def _random_map(rng, d, c):
    for _ in range(30):
        try:
            return GroupMap(d, c, _random_images(rng, d, c))
        except ValueError:
            pass
    return GroupMap(d, c, [c.identity()] * len(d.generators()))


def _is_finite(g):
    return isinstance(g, FiniteGroupTable) or (isinstance(g, AbelianModule) and g.is_finite())


def _check_against_references(m, rng):
    d, c = m.domain, m.codomain
    box = _box(d, 2)
    image = {}
    for x in box:
        image.setdefault(m.apply(x), x)
    kernel = [x for x in box if x != d.identity() and m.apply(x) == c.identity()]
    ys = [m.apply(rng.choice(box)) for _ in range(3)] + [rng.choice(_box(c, 2)) for _ in range(3)]
    for y in ys:
        pre = m.preimage(y)
        assert pre is None or m.apply(pre) == y
        if _is_finite(d):
            assert (pre is not None) == (y in image)
        elif isinstance(c, AbelianModule):
            assert (pre is not None) == (module_map_preimage(m, y) is not None)
        elif isinstance(c, FiniteGroupTable):
            assert (pre is not None) == (table_map_preimage(m, y) is not None)
        elif y in image:
            assert pre is not None
    if _is_finite(d):
        assert m.is_injective() == (len(image) == len(box))
    elif isinstance(c, FiniteGroupTable):
        assert not m.is_injective()
    elif isinstance(c, AbelianModule):
        abelian = isinstance(d, AbelianModule) or d.is_abelian()
        assert m.is_injective() == (abelian and module_map_injective(m))
    else:
        # a kernel element, when there is one, lies in the box
        assert m.is_injective() == (not kernel)
    if isinstance(c, FiniteGroupTable):
        assert m.is_surjective() == (len(table_closure(c, m.images)) == c.order)
    elif isinstance(c, AbelianModule):
        assert m.is_surjective() == module_map_surjective(m)
    else:
        assert m.is_surjective() == generates_abelianization(c, m.images)
    if _is_finite(d) and _is_finite(c):
        assert m.is_surjective() == (len(image) == len(_box(c, 0)))


@pytest.mark.parametrize("domain_kind", sorted(CROSS_CHECK_GROUPS))
@pytest.mark.parametrize("codomain_kind", sorted(CROSS_CHECK_GROUPS))
def test_group_map_decisions_match_brute_force_on_random_maps(domain_kind, codomain_kind):
    """``preimage``, ``is_injective`` and ``is_surjective``, decided in the
    pc presentation behind the codomain, against brute force over the
    domain where it is finite, and otherwise against the integer solve
    (module codomain), the walk from the identity (table codomain) or a
    kernel search in a box and the abelianization (pc codomain)."""
    rng = random.Random(f"group-map:{domain_kind}:{codomain_kind}")
    domains = CROSS_CHECK_GROUPS[domain_kind]()
    codomains = CROSS_CHECK_GROUPS[codomain_kind]()
    for d, c in itertools.product(domains, codomains):
        for _ in range(2):
            _check_against_references(_random_map(rng, d, c), rng)
    for g in codomains if domain_kind == codomain_kind else ():
        m = identity_map(g)
        assert m.is_isomorphism()
        _check_against_references(m, rng)
