import json

import pytest

from nilcert import formats
from nilcert.formats import (
    FormatError,
    format_word,
    gog_from_data,
    group_from_spec,
    load_gog,
    load_pcp,
    parse_element,
    parse_free_word,
    parse_gog,
    parse_pcp,
    serialize_pcp,
)
from nilcert.nilgroup import FiniteGroupTable, PcPresentation
from nilcert.zmod import AbelianModule
from oracles import presentations_equal, serialize_gog

HEISENBERG = """\
group H
gen x order inf
gen y order inf
gen z order inf
conj y ^ x = y z^-1
"""

H2 = """\
group H2
gen x order inf
gen y order inf
gen z order inf
conj y ^ x = y z^-2
"""

MIXED = """\
group M
gen a order inf
gen b order 4
conj b ^ a = b^3
pow b = 1
"""


# ---------------------------------------------------------------------------
# .pcp parsing


def test_parse_pcp_heisenberg():
    f = parse_pcp(HEISENBERG)
    assert f.name == "H"
    p = f.presentation
    assert p.names == ("x", "y", "z")
    assert p.orders == (None, None, None)
    assert p.conj[(0, 1)] == (0, 1, -1)


def test_parse_pcp_default_name_and_blank_lines():
    text = "\n# a comment-free format: unknown directives are errors\n"
    with pytest.raises(FormatError):
        parse_pcp("# hello\ngen x order inf\n")
    f = parse_pcp("gen x order inf\n\ngen y order 5\n")
    assert f.name == "G"
    assert f.presentation.orders == (None, 5)
    assert text  # silence the unused warning


def test_parse_pcp_round_trip_identity():
    for text in (HEISENBERG, H2, MIXED):
        f = parse_pcp(text)
        out = serialize_pcp(f)
        again = parse_pcp(out)
        assert presentations_equal(f.presentation, again.presentation)
        assert serialize_pcp(again) == out


def test_serialize_includes_power_relations():
    out = serialize_pcp(parse_pcp(MIXED))
    assert "gen b order 4" in out
    assert "pow b = 1" in out
    assert "conj b ^ a = b^3" in out


def test_module_docstring_examples_round_trip():
    blocks = [
        "".join(ln[4:] + "\n" for ln in block.splitlines())
        for block in formats.__doc__.split("\n\n")
        if block.startswith("    group ")
    ]
    assert len(blocks) == 2
    for text in blocks:
        assert serialize_pcp(parse_pcp(text)) == text


def test_parse_pcp_error_positions():
    with pytest.raises(FormatError) as ex:
        parse_pcp("gen x order inf\nconj y ^ x = y\n")
    assert ex.value.line == 2
    with pytest.raises(FormatError) as ex:
        parse_pcp("gen x order one\n")
    assert ex.value.line == 1
    with pytest.raises(FormatError, match="column 5"):
        parse_pcp("gen 9x order inf\n")


def test_parse_pcp_rejects_duplicates_and_order():
    with pytest.raises(FormatError, match="duplicate"):
        parse_pcp("gen x order inf\ngen x order inf\n")
    two = HEISENBERG + "conj y ^ x = y z^-1\n"
    with pytest.raises(FormatError, match="duplicate"):
        parse_pcp(two)
    with pytest.raises(FormatError):
        parse_pcp("gen x order inf\ngen y order inf\nconj x ^ y = x\n")


def test_parse_pcp_rhs_must_be_normal_form():
    bad = "gen x order inf\ngen y order inf\ngen z order inf\nconj y ^ x = z y\n"
    with pytest.raises(FormatError, match="order"):
        parse_pcp(bad)


def test_parse_pcp_rejects_inconsistent_presentation():
    bad = "gen x order inf\ngen y order 2\npow y = x\n"
    with pytest.raises(FormatError, match="rejected"):
        parse_pcp(bad)


def test_load_pcp(tmp_path):
    path = tmp_path / "h.pcp"
    path.write_text(HEISENBERG)
    f = load_pcp(str(path))
    assert f.name == "H"


def test_parse_free_word():
    names = ("x", "y", "z")
    assert parse_free_word("1", names) == []
    assert parse_free_word("y x y^-1", names) == [(1, 1), (0, 1), (1, -1)]
    with pytest.raises(FormatError, match="column 3"):
        parse_free_word("x q", names)
    with pytest.raises(FormatError):
        parse_free_word("", names)


def test_format_word():
    assert format_word(("x", "y"), (0, 0)) == "1"
    assert format_word(("x", "y"), (2, -1)) == "x^2 y^-1"


# ---------------------------------------------------------------------------
# group specs


def test_group_specs(tmp_path):
    ab = group_from_spec({"kind": "abelian", "free_rank": 2, "invariant_factors": [6]})
    assert isinstance(ab, AbelianModule)
    assert ab.free_rank == 2 and ab.invariant_factors == (6,)

    pc = group_from_spec({"kind": "pc", "text": HEISENBERG})
    assert isinstance(pc, PcPresentation) and pc.n == 3

    path = tmp_path / "c4.pcp"
    path.write_text("group C4\ngen a order 4\n")
    fin = group_from_spec({"kind": "finite", "file": "c4.pcp"}, base_dir=str(tmp_path))
    assert isinstance(fin, FiniteGroupTable) and fin.order == 4


def test_group_spec_errors(tmp_path):
    with pytest.raises(FormatError, match="kind"):
        group_from_spec({"free_rank": 1}, ".")
    with pytest.raises(FormatError):
        group_from_spec({"kind": "abelian", "free_rank": -1, "invariant_factors": []}, ".")
    with pytest.raises(FormatError, match="infinite-order"):
        group_from_spec({"kind": "finite", "text": "gen a order inf\n"})
    with pytest.raises(FormatError):
        group_from_spec({"kind": "pc"}, ".")


def test_parse_element_shapes():
    ab = AbelianModule(1, [3])
    assert parse_element(ab, [5, 7]) == (5, 7)
    with pytest.raises(FormatError):
        parse_element(ab, 3)
    p = parse_pcp(HEISENBERG).presentation
    assert parse_element(p, [1, 0, -2]) == (1, 0, -2)
    fin = group_from_spec({"kind": "finite", "text": "gen a order 4\n"})
    assert parse_element(fin, 2) == 2
    with pytest.raises(FormatError):
        parse_element(fin, [2])


# ---------------------------------------------------------------------------
# .gog files


def segment_data():
    return {
        "name": "X",
        "groups": {
            "E": {"kind": "abelian", "free_rank": 1, "invariant_factors": []},
            "W": {"kind": "abelian", "free_rank": 1, "invariant_factors": []},
            "B": {"kind": "pc", "text": HEISENBERG},
        },
        "vertices": [
            {"name": "b", "group": "B", "color": "black"},
            {"name": "w", "group": "W", "color": "white"},
        ],
        "edges": [
            {
                "name": "e",
                "reverse": "f",
                "origin": "b",
                "terminal": "w",
                "group": "E",
                "attaching": [[1]],
                "reverse_attaching": [[1, 0, 0]],
            }
        ],
    }


def test_gog_round_trip():
    f = gog_from_data(segment_data())
    text = serialize_gog(f)
    again = parse_gog(text)
    assert again.data == f.data
    assert serialize_gog(again) == text
    assert set(again.gog.graph.vertices) == {"b", "w"}
    assert again.gog.graph.colors["b"] == "black"


def test_gog_attaching_maps_parsed():
    f = gog_from_data(segment_data())
    m = f.gog.attaching["f"]
    assert m.images == ((1, 0, 0),)
    assert isinstance(m.codomain, PcPresentation)


def test_load_gog_resolves_pcp_files(tmp_path):
    (tmp_path / "h.pcp").write_text(HEISENBERG)
    data = segment_data()
    data["groups"]["B"] = {"kind": "pc", "file": "h.pcp"}
    path = tmp_path / "x.gog"
    path.write_text(json.dumps(data))
    f = load_gog(str(path))
    assert f.data["groups"]["B"]["kind"] == "pc"
    assert "file" not in f.data["groups"]["B"]
    assert isinstance(f.gog.vertex_groups["b"], PcPresentation)


def test_load_gog_parses_each_pc_or_finite_group_once(tmp_path, monkeypatch):
    texts = []

    def counting(text):
        texts.append(text)
        return parse_pcp(text)

    monkeypatch.setattr(formats, "parse_pcp", counting)
    (tmp_path / "h.pcp").write_text(HEISENBERG)
    data = segment_data()
    data["groups"]["B"] = {"kind": "pc", "file": "h.pcp"}
    data["groups"]["F"] = {"kind": "finite", "text": "gen a order 4\n"}
    path = tmp_path / "x.gog"
    path.write_text(json.dumps(data))
    f = load_gog(str(path))
    assert texts == [HEISENBERG, "gen a order 4\n"]
    assert f.data["groups"]["B"] == {"kind": "pc", "text": serialize_pcp(parse_pcp(HEISENBERG))}
    assert f.data["groups"]["F"] == {"kind": "finite", "text": "group G\ngen a order 4\npow a = 1\n"}
    assert f.data["groups"]["E"] == {"kind": "abelian", "free_rank": 1, "invariant_factors": []}


def test_gog_errors():
    with pytest.raises(FormatError, match="bad JSON"):
        parse_gog("{nope")
    data = segment_data()
    del data["edges"][0]["reverse_attaching"]
    with pytest.raises(FormatError, match="reverse_attaching"):
        gog_from_data(data)

    data = segment_data()
    data["edges"][0]["attaching"] = [[5, 5]]
    with pytest.raises(FormatError):
        gog_from_data(data)

    data = segment_data()
    data["vertices"][1]["group"] = "Q"
    with pytest.raises(FormatError, match="unknown group"):
        gog_from_data(data)

    data = segment_data()
    data["edges"][0]["origin"] = "q"
    with pytest.raises(FormatError, match="unknown vertex"):
        gog_from_data(data)

    data = segment_data()
    del data["vertices"][0]["color"]
    with pytest.raises(FormatError, match="color"):
        gog_from_data(data)


def test_gog_rejects_non_injective_attaching():
    data = segment_data()
    data["groups"]["E"] = {"kind": "abelian", "free_rank": 0, "invariant_factors": [2]}
    data["edges"][0]["attaching"] = [[1]]
    data["edges"][0]["reverse_attaching"] = [[0, 0, 1]]
    with pytest.raises(FormatError):
        gog_from_data(data)
