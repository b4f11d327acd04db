"""Command line round trips: run a subcommand with --report, then verify."""

import hashlib
import json

import pytest

from nilcert import cli, formats
from nilcert.cli import main

MIXED = """\
group M
gen a order inf
gen b order 4
conj b ^ a = b^3
pow b = 1
"""


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def mixed_pcp(tmp_path):
    path = tmp_path / "m.pcp"
    path.write_text(MIXED)
    return str(path)


@pytest.mark.parametrize(
    "argv, result",
    [
        (["nf", "{pcp}", "b a b"], {"normal_form": [1, 0], "word": "a"}),
        (["torsion", "{pcp}"], {"exponent": 4, "tau_generators": [[0, 1]], "tau_order": 4}),
    ],
)
def test_report_round_trip_with_finite_order_generator(
    argv, result, mixed_pcp, tmp_path, capsys
):
    report = str(tmp_path / "r.json")
    argv = [a.format(pcp=mixed_pcp) for a in argv]
    code, out = run(argv + ["--json", "--report", report], capsys)
    assert code == 0
    assert json.loads(out) == result
    data = json.loads(open(report).read())
    assert data["payload"]["problem"]["group_pcp"] == MIXED

    code, out = run(["verify", report, "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"kind": argv[0], "verified": True}


@pytest.mark.parametrize(
    "m, cap, message",
    [
        (4, 64, "quotient order 256 exceeds cap 64"),
        (4, 8, "quotient order 64 exceeds cap 8"),
        (4, 4, "quotient order 64 exceeds cap 4"),
        (3, 4, "quotient order 27 exceeds cap 4"),
    ],
)
def test_torsion_cap_error_comes_from_the_exponent_search(m, cap, message, tmp_path, capsys):
    # H3 with z of order m: tau = <z> fits the cap.  The exponent search
    # builds G/G^m, of order m^3, and when that fits but does not
    # separate, G/G^2m, of order 4 m^3; the first that exceeds the cap
    # names it
    path = tmp_path / "q.pcp"
    path.write_text(
        f"group Q{m}\ngen x order inf\ngen y order inf\ngen z order {m}\n"
        "conj y ^ x = y z\npow z = 1\n"
    )
    code, out = run(["torsion", str(path), "--json", "--quotient-cap", str(cap)], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {"code": "cap", "message": message}


def test_report_without_pow_lines_still_verifies(mixed_pcp, tmp_path, capsys):
    report = tmp_path / "r.json"
    code, _ = run(["torsion", mixed_pcp, "--report", str(report)], capsys)
    assert code == 0
    data = json.loads(report.read_text())
    pcp = data["payload"]["problem"]["group_pcp"]
    older = "".join(ln for ln in pcp.splitlines(True) if not ln.startswith("pow "))
    assert older != pcp
    data["payload"]["problem"]["group_pcp"] = older
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_rejects_tampered_report(mixed_pcp, tmp_path, capsys):
    report = tmp_path / "r.json"
    run(["torsion", mixed_pcp, "--report", str(report)], capsys)
    data = json.loads(report.read_text())
    data["payload"]["result"]["tau_order"] = 2
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


def test_comment_line_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "c.pcp"
    path.write_text("# hello\ngen x order inf\n")
    code, out = run(["nf", str(path), "x", "--json"], capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "parse"
    assert "line 1, column 1" in err["message"]


# ---------------------------------------------------------------------------
# whitehead and gog-iso: report -> verify on each kind of group, with the
# --json stdout pinned

H3 = """\
group H
gen x order inf
gen y order inf
gen z order inf
conj y ^ x = y z
"""

D8 = """\
group D
gen a order 2
gen b order 2
gen c order 2
conj b ^ a = b c
"""

ABELIAN = {"kind": "abelian", "free_rank": 1, "invariant_factors": [2, 4]}
FINITE = {"kind": "finite", "text": D8}
PC = {"kind": "pc", "text": H3}


def whitehead_round_trip(instance, extra, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    report = str(tmp_path / "r.json")
    code, out = run(["whitehead", str(path), "--json", "--report", report] + extra, capsys)
    vcode, vout = run(["verify", report, "--json"], capsys)
    assert (vcode, json.loads(vout)) == (0, {"kind": "whitehead", "verified": True})
    return code, out


@pytest.mark.parametrize(
    "group, s, t, expected",
    [
        (
            ABELIAN,
            [[[1, 0, 1]], [[0, 1, 0]]],
            [[[1, 1, 0]], [[0, 1, 2]]],
            '{"kind": "equivalent", "witness": {"conjugators": [[0, 0, 0], [0, 0, 0]], '
            '"matrix": [[1, 1, 3], [0, 1, 2], [0, 0, 1]]}}\n',
        ),
        (
            ABELIAN,
            [[[2, 0, 0]]],
            [[[1, 0, 0]]],
            '{"certificate": {"coords_a": [[2]], "coords_b": [[1]], "part": "free", '
            '"reason": "forced transport between the saturations is not integral"}, '
            '"kind": "not_equivalent"}\n',
        ),
        (
            FINITE,
            [[2, 4]],
            [[4, 2]],
            '{"kind": "equivalent", "witness": {"conjugators": [0], "generator_images": '
            '[1, 4, 2], "generators": [1, 2, 4], "map": [0, 1, 4, 5, 2, 3, 7, 6]}}\n',
        ),
        (
            FINITE,
            [[1]],
            [[0]],
            '{"certificate": {"aut_order": 8, "order": 8, "reason": "every automorphism '
            'fails on some tuple for every conjugator"}, "kind": "not_equivalent"}\n',
        ),
        (
            PC,
            [[[1, 0, 0]]],
            [[[1, 0, 1]]],
            '{"kind": "equivalent", "witness": {"conjugators": [[0, 2, 0]], '
            '"generator_images": [[1, 0, -1], [-1, -1, -1], [0, 0, -1]]}}\n',
        ),
        (
            PC,
            [[[0, 0, 1]]],
            [[[0, 0, 2]]],
            '{"certificate": {"aut_order": 384, "exponent": 4, "kernel_generators": '
            '[[4, 0, 0], [0, 4, 0], [0, 0, 2]], "kind": "quotient_refutation", '
            '"projected_s": [[[0, 0, 1]]], "projected_t": [[[0, 0, 0]]], '
            '"quotient_order": 32}, "kind": "not_equivalent"}\n',
        ),
    ],
)
def test_whitehead_report_verifies(group, s, t, expected, tmp_path, capsys):
    code, out = whitehead_round_trip({"group": group, "s": s, "t": t}, [], tmp_path, capsys)
    assert code == 0
    assert out == expected


def test_whitehead_and_verify_parse_a_pc_group_once(tmp_path, capsys, monkeypatch):
    texts = []
    parse_pcp = formats.parse_pcp

    def counting(text):
        texts.append(text)
        return parse_pcp(text)

    monkeypatch.setattr(formats, "parse_pcp", counting)
    monkeypatch.setattr(cli, "parse_pcp", counting)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"group": PC, "s": [[[1, 0, 0]]], "t": [[[1, 0, 1]]]}))
    report = str(tmp_path / "r.json")
    assert run(["whitehead", str(path), "--json", "--report", report], capsys)[0] == 0
    assert texts == [H3]
    texts.clear()
    assert run(["verify", report, "--json"], capsys)[0] == 0
    assert texts == [H3]


def test_whitehead_rejects_an_inconsistent_finite_presentation(tmp_path, capsys):
    """A finite group's table numbers the normal forms of its pc
    presentation, so the overlap check on that presentation is the input
    check: here a^2 = b does not commute with a, which inverts b."""
    text = "group B\ngen a order 2\ngen b order 4\nconj b ^ a = b^3\npow a = b\n"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"group": {"kind": "finite", "text": text}, "s": [[1]], "t": [[1]]}))
    code, out = run(["whitehead", str(path), "--json"], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": {"code": "parse", "message": "presentation rejected: overlap a^2 a"}
    }


Z = {"kind": "pc", "text": "group Z\ngen a order inf\n"}


@pytest.mark.parametrize(
    "group, s, message",
    [
        (Z, [[[1.9]]], "exponents must be integers"),
        (Z, [[["2"]]], "exponents must be integers"),
        (Z, [[[True]]], "exponents must be integers"),
        (FINITE, [[True]], "element of a finite group must be an index"),
        (FINITE, [[2.0]], "element of a finite group must be an index"),
    ],
)
def test_whitehead_rejects_an_element_that_is_not_made_of_integers(
    group, s, message, tmp_path, capsys
):
    """An exponent or index must be a JSON integer: 1.9 is not read as 1,
    "2" as 2, or true as 1."""
    t = [[[1]]] if group is Z else [[1]]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"group": group, "s": s, "t": t}))
    code, out = run(["whitehead", str(path), "--json"], capsys)
    assert code == 1
    assert json.loads(out) == {"error": {"code": "parse", "message": message}}


def test_whitehead_unknown_exits_2(tmp_path, capsys):
    instance = {"group": PC, "s": [[[0, 0, 5]]], "t": [[[0, 0, 1]]]}
    code, out = whitehead_round_trip(instance, ["--budget", "1"], tmp_path, capsys)
    assert code == 2
    assert out == (
        '{"kind": "unknown", "report": {"budget": 1, "quotients": [{"exponent": 2, '
        '"outcome": "images equivalent in the quotient", "quotient_order": 4}, '
        '{"exponent": 3, "outcome": "images equivalent in the quotient", '
        '"quotient_order": 27}], "witness_boxes_swept": [1]}}\n'
    )


def nilpotent_segment_gog(black_image):
    """A black H3 vertex and a white Z vertex joined by a Z edge."""
    return {
        "name": "X",
        "groups": {"H": PC, "Z": {"kind": "abelian", "free_rank": 1}},
        "vertices": [
            {"name": "b", "group": "H", "color": "black"},
            {"name": "w", "group": "Z", "color": "white"},
        ],
        "edges": [
            {"name": "e", "reverse": "E", "origin": "w", "terminal": "b", "group": "Z",
             "attaching": [black_image], "reverse_attaching": [[1]]},
        ],
    }


@pytest.mark.parametrize(
    "first, second, budget, expected",
    [
        (
            [1, 0, 0],
            [1, 0, 1],
            "1",
            '{"kind": "equivalent", "witness": {"attaching_elements": {"E": [0], '
            '"e": [0, 2, 0]}, "edge_maps": {"E": [[1]], "e": [[1]]}, "graph_edge_map": '
            '{"E": "E", "e": "e"}, "graph_vertex_map": {"b": "b", "w": "w"}, '
            '"vertex_maps": {"b": [[1, 0, -1], [-1, -1, -1], [0, 0, -1]], "w": [[1]]}}}\n',
        ),
        (
            [0, 0, 1],
            [0, 0, 2],
            "2",
            '{"certificate": {"abelianization_x1": {"free_rank": 2, "invariant_factors": '
            '[]}, "abelianization_x2": {"free_rank": 2, "invariant_factors": []}, '
            '"abelianizations_differ": false, "branches": [{"certificate": {"aut_order": '
            '384, "exponent": 4, "kernel_generators": [[4, 0, 0], [0, 4, 0], [0, 0, 2]], '
            '"kind": "quotient_refutation", "projected_s": [[[0, 0, 1]]], "projected_t": '
            '[[[0, 0, 0]]], "quotient_order": 32}, "graph_map": 0, "orbit_choice": [0], '
            '"stage": "black vertex", "status": "refuted", "vertex": "b"}], "reason": '
            '"every branch is refuted by a complete solver"}, "kind": "not_equivalent"}\n',
        ),
    ],
)
def test_gog_iso_nilpotent_black_report_verifies(
    first, second, budget, expected, tmp_path, capsys
):
    paths = []
    for name, image in (("x1", first), ("x2", second)):
        path = tmp_path / f"{name}.gog"
        path.write_text(json.dumps(nilpotent_segment_gog(image)))
        paths.append(str(path))
    report = str(tmp_path / "r.json")
    code, out = run(["gog-iso", *paths, "--budget", budget, "--json", "--report", report], capsys)
    assert code == 0
    assert out == expected
    code, out = run(["verify", report, "--json"], capsys)
    assert (code, json.loads(out)) == (0, {"kind": "gog_iso", "verified": True})


def test_gog_iso_unknown_exits_2(tmp_path, capsys):
    paths = []
    for name, image in (("x1", [0, 0, 5]), ("x2", [0, 0, 1])):
        path = tmp_path / f"{name}.gog"
        path.write_text(json.dumps(nilpotent_segment_gog(image)))
        paths.append(str(path))
    report = str(tmp_path / "r.json")
    code, out = run(["gog-iso", *paths, "--budget", "1", "--json", "--report", report], capsys)
    assert code == 2
    assert out == (
        '{"kind": "unknown", "report": {"branches": [{"graph_map": 0, "orbit_choice": [0], '
        '"report": {"budget": 1, "quotients": [{"exponent": 2, "outcome": "images '
        'equivalent in the quotient", "quotient_order": 4}, {"exponent": 3, "outcome": '
        '"images equivalent in the quotient", "quotient_order": 27}], '
        '"witness_boxes_swept": [1]}, "stage": "black vertex", "status": "unknown", '
        '"vertex": "b"}], "budget": 1}}\n'
    )
    code, out = run(["verify", report, "--json"], capsys)
    assert (code, json.loads(out)) == (0, {"kind": "gog_iso", "verified": True})


def test_verify_infinite_index_subgroup_is_a_verify_error(tmp_path, capsys):
    path = tmp_path / "h.pcp"
    path.write_text(H3)
    report = tmp_path / "r.json"
    code, _ = run(["separate-torsion", str(path), "--report", str(report)], capsys)
    assert code == 0
    data = json.loads(report.read_text())
    data["payload"]["result"]["subgroup_generators"] = [[0, 0, 3]]
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


def test_report_with_a_seed_key_verifies(mixed_pcp, tmp_path, capsys):
    report = tmp_path / "r.json"
    code, _ = run(["nf", mixed_pcp, "b a b", "--report", str(report)], capsys)
    assert code == 0
    data = json.loads(report.read_text())
    data["payload"]["seed"] = 5
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert (code, json.loads(out)) == (0, {"kind": "nf", "verified": True})


def test_seed_option_is_gone(mixed_pcp, capsys):
    code, out = run(["nf", mixed_pcp, "b", "--seed", "3", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "{pcp}", "b", "--budget", "3"],
        ["ucs", "{pcp}", "--quotient-cap", "30"],
        ["torsion", "{pcp}", "--budget", "3"],
    ],
    ids=["nf-budget", "ucs-quotient-cap", "torsion-budget"],
)
def test_options_a_subcommand_ignores_are_usage_errors(argv, mixed_pcp, capsys):
    code, out = run([a.format(pcp=mixed_pcp) for a in argv] + ["--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage"


def test_one_parser_serves_every_call_of_a_process(mixed_pcp, capsys, monkeypatch):
    """A usage error, then two different subcommands, through the parser
    kept for the process, print what parsers built afresh for each call
    print."""
    argvs = [
        ["nf", mixed_pcp, "b", "--seed", "3", "--json"],
        ["nf", mixed_pcp, "b a b", "--json"],
        ["torsion", mixed_pcp, "--json"],
    ]
    built = []
    original = cli.build_parser

    def counting():
        built.append(None)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    kept = [run(argv, capsys) for argv in argvs]
    assert len(built) == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert len(built) == 4
    assert kept == fresh
    assert [code for code, _out in kept] == [1, 0, 0]


def test_verify_rejects_a_witness_that_breaks_a_commuting_pair(tmp_path, capsys):
    h3z = H3.replace("conj", "gen w order inf\nconj")
    instance = {"group": {"kind": "pc", "text": h3z}, "s": [[[0, 0, 0, 1]]], "t": [[[0, 0, 0, 1]]]}
    code, _ = whitehead_round_trip(instance, [], tmp_path, capsys)
    assert code == 0
    report = tmp_path / "r.json"
    data = json.loads(report.read_text())
    # w -> x w respects y^x = y z and is onto, but breaks w^y = w
    data["payload"]["problem"]["t"] = [[[1, 0, 0, 1]]]
    data["payload"]["result"]["witness"]["generator_images"] = [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]
    ]
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


@pytest.mark.parametrize("generators", [[], [0]])
def test_verify_rejects_a_forged_finite_witness(generators, tmp_path, capsys):
    # Z/4, (1) vs (2): the transposition of 1 and 2 respects right
    # multiplication by the list the forged witness carries, and by no
    # generating set
    instance = {"group": {"kind": "finite", "text": "group C\ngen a order 4\n"},
                "s": [[1]], "t": [[2]]}
    code, _ = whitehead_round_trip(instance, [], tmp_path, capsys)
    assert code == 0
    report = tmp_path / "r.json"
    data = json.loads(report.read_text())
    assert data["payload"]["result"]["kind"] == "not_equivalent"
    data["payload"]["result"] = {"kind": "equivalent", "witness": {
        "map": [0, 2, 1, 3], "generators": generators, "generator_images": [],
        "conjugators": [0]}}
    report.write_text(json.dumps(data))
    assert_verify_rejects(report, capsys)


def test_verify_rejects_an_out_of_range_finite_conjugator(tmp_path, capsys):
    instance = {"group": {"kind": "finite", "text": "group C\ngen a order 4\n"},
                "s": [[1]], "t": [[1]]}
    code, _ = whitehead_round_trip(instance, [], tmp_path, capsys)
    assert code == 0
    report = tmp_path / "r.json"
    data = json.loads(report.read_text())
    data["payload"]["result"]["witness"]["conjugators"] = [99]
    report.write_text(json.dumps(data))
    assert_verify_rejects(report, capsys)


@pytest.mark.parametrize("field, value", [("conjugators", [False]), ("map", [False, True])])
def test_verify_rejects_a_boolean_finite_witness_entry(field, value, tmp_path, capsys):
    """An index is a JSON integer: false and true are not 0 and 1."""
    instance = {"group": {"kind": "finite", "text": "group C\ngen a order 2\n"},
                "s": [[1]], "t": [[1]]}
    code, _ = whitehead_round_trip(instance, [], tmp_path, capsys)
    assert code == 0
    report = tmp_path / "r.json"
    data = json.loads(report.read_text())
    witness = data["payload"]["result"]["witness"]
    assert witness[field] == [int(v) for v in value]
    witness[field] = value
    report.write_text(json.dumps(data))
    assert_verify_rejects(report, capsys)


@pytest.mark.parametrize("field", ["generator_images", "conjugators"])
def test_verify_rejects_a_fractional_pc_witness_exponent(field, tmp_path, capsys):
    """An exponent is a JSON integer: 1.5 is not read as 1."""
    instance = {"group": PC, "s": [[[1, 0, 0]]], "t": [[[1, 0, 1]]]}
    code, _ = whitehead_round_trip(instance, ["--budget", "1"], tmp_path, capsys)
    assert code == 0
    report = tmp_path / "r.json"
    data = json.loads(report.read_text())
    witness = data["payload"]["result"]["witness"]
    witness[field] = [[c + 0.5 if c >= 0 else c for c in v] for v in witness[field]]
    report.write_text(json.dumps(data))
    assert_verify_rejects(report, capsys)


@pytest.fixture(scope="module")
def refutation_report(tmp_path_factory):
    """The report of H3, (z) vs (z^2), refuted in G/G^4."""
    path = tmp_path_factory.mktemp("refutation")
    instance = path / "instance.json"
    instance.write_text(json.dumps({"group": PC, "s": [[[0, 0, 1]]], "t": [[[0, 0, 2]]]}))
    report = path / "r.json"
    assert main(["whitehead", str(instance), "--report", str(report)]) == 0
    return json.loads(report.read_text())


@pytest.mark.parametrize(
    "field, value",
    [
        ("projected_s", [[[1, 1, 1]]]),
        ("projected_t", [[[0, 1, 0]]]),
        ("kernel_generators", [[9, 0, 0]]),
        ("aut_order", 7),
    ],
)
def test_verify_rejects_a_tampered_quotient_refutation(
    field, value, refutation_report, tmp_path, capsys
):
    data = json.loads(json.dumps(refutation_report))
    certificate = data["payload"]["result"]["certificate"]
    assert certificate["kind"] == "quotient_refutation" and certificate[field] != value
    certificate[field] = value
    report = tmp_path / "r.json"
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


# y^x = y z^-2, that is [x, y] = z^2
H3SQ = H3.replace("y z", "y z^-2")


def test_verify_rejects_a_tampered_final_survival_level(tmp_path, capsys):
    path = tmp_path / "h3sq.pcp"
    path.write_text(H3SQ)
    report = tmp_path / "r.json"
    code, _ = run(["separate-torsion", str(path), "--report", str(report)], capsys)
    assert code == 0
    code, out = run(["verify", str(report), "--json"], capsys)
    assert (code, json.loads(out)) == (0, {"kind": "separate_torsion", "verified": True})
    data = json.loads(report.read_text())
    logged = data["payload"]["result"]["survival_log"][-1]["classes"][0]
    assert logged["induced_images"] != [[0, 0, 0]] * 3
    logged["induced_images"] = [[0, 0, 0]] * 3
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


def separate_torsion_report(text, extra, tmp_path, capsys):
    path = tmp_path / "g.pcp"
    path.write_text(text)
    report = tmp_path / "r.json"
    code, out = run(["separate-torsion", str(path), "--json", "--report", str(report)] + extra,
                    capsys)
    return code, json.loads(out), report


def test_separate_torsion_unknown_exits_2_and_verifies(tmp_path, capsys):
    code, out, report = separate_torsion_report(H3SQ, ["--budget", "1"], tmp_path, capsys)
    assert code == 2
    assert out["unknown"] is True and out["partial"]["complete"] is False
    problem = json.loads(report.read_text())["payload"]["problem"]
    assert (problem["budget"], problem["quotient_cap"]) == (1, 10**6)
    code, out = run(["verify", str(report), "--json"], capsys)
    assert (code, json.loads(out)) == (0, {"kind": "separate_torsion", "verified": True})


def _mark_incomplete_whole_group(result):
    result["complete"] = False
    result["subgroup_generators"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return result


@pytest.mark.parametrize(
    "edit",
    [
        _mark_incomplete_whole_group,
        lambda result: {"unknown": True, "reason": "made up"},
        lambda result: dict(result, subgroup_index=9),
    ],
    ids=["incomplete-whole-group", "made-up-unknown", "index"],
)
def test_verify_rejects_an_edited_separate_torsion_report(edit, tmp_path, capsys):
    code, _, report = separate_torsion_report(H3, [], tmp_path, capsys)
    assert code == 0
    data = json.loads(report.read_text())
    data["payload"]["result"] = edit(data["payload"]["result"])
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


M8 = MIXED.replace("group M", "group M8").replace("order 4", "order 8")


def test_separate_torsion_m8_is_pinned_and_verifies(tmp_path, capsys):
    # its chain reaches exponent 2520 = 3 lcm(1..8) at level 8
    path = tmp_path / "m8.pcp"
    path.write_text(M8)
    report = tmp_path / "r.json"
    code, out = run(["separate-torsion", str(path), "--json", "--report", str(report)], capsys)
    assert code == 0
    assert json.loads(out)["complete"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a9dc880feec96f018c4f9a4a7dba3a6d1fd5892986b168a8e56af4fb2f6b350b"
    )
    code, out = run(["verify", str(report), "--json"], capsys)
    assert (code, json.loads(out)) == (0, {"kind": "separate_torsion", "verified": True})


def test_quotient_cap_is_a_cap_error(tmp_path, capsys):
    for name, text, order in [("h3sq", H3SQ, 216), ("m8", M8, 36)]:
        path = tmp_path / f"{name}.pcp"
        path.write_text(text)
        code, out = run(["separate-torsion", str(path), "--quotient-cap", "30", "--json"], capsys)
        assert code == 1
        assert out == (
            f'{{"error": {{"code": "cap", "message": "quotient order {order} exceeds cap 30"}}}}\n'
        )


# ---------------------------------------------------------------------------
# ucs and elusive: pinned --json stdout, report -> verify, tampering


@pytest.mark.parametrize(
    "group, message",
    [
        ({"free_rank": True, "invariant_factors": [2]}, "free_rank must be a nonnegative integer"),
        ({"free_rank": 0, "invariant_factors": [True, 2]}, "invariant factors must be integers >= 2"),
        ({"free_rank": 1, "invariant_factors": 2}, "invariant factors must be integers >= 2"),
    ],
)
def test_whitehead_rejects_a_malformed_abelian_group_spec(group, message, tmp_path, capsys):
    """true is not the free rank 1, nor an invariant factor, and the
    invariant factors are a list."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"group": {"kind": "abelian", **group},
                                "s": [[[1, 0]]], "t": [[[1, 1]]]}))
    code, out = run(["whitehead", str(path), "--json"], capsys)
    assert code == 1
    assert json.loads(out) == {"error": {"code": "parse", "message": message}}


def verified_report(argv, kind, tmp_path, capsys):
    report = tmp_path / "r.json"
    code, out = run(argv + ["--json", "--report", str(report)], capsys)
    assert code == 0
    vcode, vout = run(["verify", str(report), "--json"], capsys)
    assert (vcode, json.loads(vout)) == (0, {"kind": kind, "verified": True})
    return out, report


def assert_verify_rejects(report, capsys):
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


def test_ucs_h3_json_is_pinned_and_verifies(tmp_path, capsys):
    path = tmp_path / "h3.pcp"
    path.write_text(H3)
    out, report = verified_report(["ucs", str(path)], "ucs", tmp_path, capsys)
    assert out == '{"series": [[], [[0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}\n'
    data = json.loads(report.read_text())
    data["payload"]["result"]["series"][1] = [[0, 0, 2]]
    report.write_text(json.dumps(data))
    assert_verify_rejects(report, capsys)


def test_elusive_h3sq_json_is_pinned_and_verifies(tmp_path, capsys):
    path = tmp_path / "h3sq.pcp"
    path.write_text(H3SQ)
    out, report = verified_report(["elusive", str(path)], "elusive", tmp_path, capsys)
    assert out == (
        '{"elusive": [{"coset": [0, 1], "outer_order": 2, "power_conjugator": [0, 1, 0], '
        '"representative_images": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}, {"coset": [1, 0], '
        '"outer_order": 2, "power_conjugator": [-1, 0, 0], "representative_images": '
        '[[1, 0, 0], [0, 1, 1], [0, 0, 1]]}, {"coset": [1, 1], "outer_order": 2, '
        '"power_conjugator": [-1, 1, 0], "representative_images": [[1, 0, 1], [0, 1, 1], '
        '[0, 0, 1]]}]}\n'
    )
    data = json.loads(report.read_text())
    data["payload"]["result"]["elusive"][0]["representative_images"][0] = [1, 0, 2]
    report.write_text(json.dumps(data))
    assert_verify_rejects(report, capsys)


# ---------------------------------------------------------------------------
# embed, expm and logm: pinned --json stdout, report -> verify, tampering
# and input errors

F4 = """\
group F4
gen a order inf
gen b order inf
gen c order inf
gen d order inf
conj b ^ a = b c
conj c ^ a = c d
"""

# H3 with z of order 2
Q = H3.replace("gen z order inf", "gen z order 2") + "pow z = 1\n"


def embed_round_trip(text, tmp_path, capsys):
    path = tmp_path / "g.pcp"
    path.write_text(text)
    report = tmp_path / "r.json"
    code, out = run(["embed", str(path), "--json", "--report", str(report)], capsys)
    assert code == 0
    vcode, vout = run(["verify", str(report), "--json"], capsys)
    assert (vcode, json.loads(vout)) == (0, {"kind": "embed", "verified": True})
    return out, report


def test_embed_h3sq_json_is_pinned_and_verifies(tmp_path, capsys):
    out, _ = embed_round_trip(H3SQ, tmp_path, capsys)
    assert out == (
        '{"dimension": 3, "images": [[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]], '
        '[["1", "0", "0"], ["0", "1", "2"], ["0", "0", "1"]], '
        '[["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]]}\n'
    )


def test_embed_f4_json_is_pinned_and_verifies(tmp_path, capsys):
    out, _ = embed_round_trip(F4, tmp_path, capsys)
    # four 14 x 14 images from the regular action on polynomials; the
    # digest pins every entry of the stdout
    assert json.loads(out)["dimension"] == 14
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "304cb837fbdaee314c5b0054072f0c0eccf75c57cf696a29f4827aa606eeb548"
    )


def test_verify_rejects_a_tampered_embedding_image(tmp_path, capsys):
    _, report = embed_round_trip(F4, tmp_path, capsys)
    data = json.loads(report.read_text())
    row = data["payload"]["result"]["images"][1][0]
    row[-1] = str(int(row[-1]) + 1)
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"


@pytest.mark.parametrize(
    "text, extra",
    [(Q, []), (F4, ["--class-cap", "2"])],
    ids=["torsion", "class-cap"],
)
def test_embed_input_errors_exit_1(text, extra, tmp_path, capsys):
    path = tmp_path / "g.pcp"
    path.write_text(text)
    code, out = run(["embed", str(path), "--json"] + extra, capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "value"


@pytest.mark.parametrize(
    "command, entries, matrix",
    [
        ("expm", "0 1 0; 0 0 1; 0 0 0",
         [["1", "1", "1/2"], ["0", "1", "1"], ["0", "0", "1"]]),
        ("logm", "1 1 0; 0 1 1; 0 0 1",
         [["0", "1", "-1/2"], ["0", "0", "1"], ["0", "0", "0"]]),
    ],
)
def test_expm_logm_reports_verify_and_reject_tampering(
    command, entries, matrix, tmp_path, capsys
):
    report = tmp_path / "r.json"
    argv = [command, "--dim", "3", "--entries", entries, "--json", "--report", str(report)]
    code, out = run(argv, capsys)
    assert (code, json.loads(out)) == (0, {"matrix": matrix})
    code, out = run(["verify", str(report), "--json"], capsys)
    assert (code, json.loads(out)) == (0, {"kind": command, "verified": True})
    data = json.loads(report.read_text())
    data["payload"]["result"]["matrix"][0][2] = "7"
    report.write_text(json.dumps(data))
    code, out = run(["verify", str(report), "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verify"
