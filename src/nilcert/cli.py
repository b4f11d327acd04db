"""Command line front end.

Subcommands: nf, ucs, torsion, elusive, separate-torsion, whitehead,
gog-iso, embed, expm, logm, verify.  Exit codes: 0 when the command
computed or decided, 2 when a budgeted procedure answered Unknown, 1 on
input errors.  ``--json`` prints the machine-readable result to stdout;
``--report FILE`` writes a full run report whose payload embeds every
input, so the ``verify`` subcommand can re-check it from the payload
alone.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from .formats import (
    FormatError,
    format_word,
    gog_from_data,
    group_from_spec,
    load_gog,
    load_group_spec,
    load_pcp,
    parse_element,
    parse_free_word,
    parse_pcp,
    serialize_pcp,
)
from .gogiso import GroupMap, decide_gog_iso, identity_map, verify_gog_witness
from .malcev import QMatrix, embed_matrix_group, expm, logm, matrix_to_json
from .nilgroup import (
    GroupHom,
    Inconsistent,
    NotNilpotent,
    PcPresentation,
    Subgroup,
    serialize_element,
    torsion_data,
    upper_central_series,
)
from .outsep import (
    BudgetExhausted,
    CongruenceCertificate,
    OuterAutoClass,
    elusive_elements,
    elusive_records,
    separate_torsion,
)
from .whitehead import solve_whitehead, verify_quotient_refutation, verify_whitehead_witness
from .zmod import CapExceeded, IndexInfinite

DEFAULT_CAP = 10**6
# the chain search wants more levels than the other bounded searches
DEFAULT_CHAIN_LEVELS = 8


class CliError(Exception):
    """Input error with a machine-readable code."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


class VerifyFailure(Exception):
    pass


class RunReport:
    """Record of one invocation: the command, input hashes, a
    self-contained result payload, the verification transcript, and the
    wall time in seconds."""

    def __init__(self, command, inputs, payload, transcript, wall_time):
        self.command = command
        self.inputs = inputs
        self.payload = payload
        self.transcript = transcript
        self.wall_time = wall_time

    def as_dict(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "payload": self.payload,
            "transcript": self.transcript,
            "wall_time": self.wall_time,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _read_pcp(path):
    try:
        return load_pcp(path)
    except OSError as ex:
        raise CliError("io", f"cannot read {path!r}: {ex}")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        raise CliError("io", f"cannot read {path!r}: {ex}")
    except json.JSONDecodeError as ex:
        raise CliError("parse", f"{path}: bad JSON at line {ex.lineno}: {ex.msg}")


def _format_tuples(vectors):
    return "[" + ",".join("(" + ",".join(str(c) for c in v) + ")" for v in vectors) + "]"


def _parse_matrix_text(text, dim):
    rows = [r for r in text.split(";")]
    entries = []
    for r in rows:
        row = []
        for tok in r.split():
            try:
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise CliError("parse", f"bad matrix entry {tok!r}")
        entries.append(row)
    if len(entries) != dim or any(len(r) != dim for r in entries):
        raise CliError("parse", f"expected a {dim}x{dim} matrix")
    return entries


def _format_matrix(m):
    return "; ".join(" ".join(str(x) for x in row) for row in m.entries)


# ---------------------------------------------------------------------------
# command handlers: each returns (result, payload, lines, exit_code, transcript)


def cmd_nf(args):
    pcp = _read_pcp(args.pcp)
    p = pcp.presentation
    pairs = parse_free_word(args.word, p.names)
    nf = p.collect(pairs)
    result = {"normal_form": list(nf), "word": format_word(p.names, nf)}
    payload = {
        "kind": "nf",
        "problem": {"group_pcp": serialize_pcp(pcp), "word": args.word},
        "result": result,
    }
    return result, payload, [result["word"]], 0, ["collected the word to normal form"]


def cmd_ucs(args):
    pcp = _read_pcp(args.pcp)
    terms = upper_central_series(pcp.presentation)
    series = [[list(g) for g in t.gens] for t in terms]
    result = {"series": series}
    payload = {
        "kind": "ucs",
        "problem": {"group_pcp": serialize_pcp(pcp)},
        "result": result,
    }
    lines = [
        f"nu_{i} {_format_tuples(term)}" for i, term in enumerate(series)
    ]
    return result, payload, lines, 0, [f"series has {len(series) - 1} proper terms"]


def cmd_torsion(args):
    pcp = _read_pcp(args.pcp)
    td = torsion_data(pcp.presentation, cap=args.quotient_cap)
    result = {
        "tau_generators": [list(g) for g in td.tau.gens],
        "tau_order": len(td.tau_elements),
        "exponent": td.m,
    }
    payload = {
        "kind": "torsion",
        "problem": {"group_pcp": serialize_pcp(pcp)},
        "result": result,
    }
    lines = [
        f"tau order {result['tau_order']}",
        f"tau generators {_format_tuples(result['tau_generators'])}",
        f"exponent {td.m}",
    ]
    return result, payload, lines, 0, ["computed the torsion subgroup"]


def cmd_elusive(args):
    pcp = _read_pcp(args.pcp)
    classes = elusive_elements(pcp.presentation)
    result = {"elusive": elusive_records(classes)}
    payload = {
        "kind": "elusive",
        "problem": {"group_pcp": serialize_pcp(pcp)},
        "result": result,
    }
    lines = [f"elusive classes {len(classes)}"]
    for entry in result["elusive"]:
        lines.append(
            f"outer order {entry['outer_order']} "
            f"images {_format_tuples(entry['representative_images'])}"
        )
    return result, payload, lines, 0, ["enumerated elusive outer classes"]


def _separate_torsion_result(p, budget, cap):
    """The separate-torsion result: the certificate's JSON, or an
    Unknown result carrying the partial certificate when the chain
    search runs out of levels."""
    try:
        cert = separate_torsion(p, max_levels=budget, cap=cap)
    except BudgetExhausted as ex:
        result = {"unknown": True, "reason": str(ex)}
        if ex.certificate is not None:
            result["partial"] = json.loads(ex.certificate.to_json())
        return result
    return json.loads(cert.to_json())


def cmd_separate_torsion(args):
    pcp = _read_pcp(args.pcp)
    result = _separate_torsion_result(pcp.presentation, args.budget, args.quotient_cap)
    problem = {
        "group_pcp": serialize_pcp(pcp),
        "budget": args.budget,
        "quotient_cap": args.quotient_cap,
    }
    payload = {"kind": "separate_torsion", "problem": problem, "result": result}
    if result.get("unknown"):
        return result, payload, [f"unknown: {result['reason']}"], 2, ["budget exhausted"]
    lines = [
        f"index {result['subgroup_index']}",
        f"generators {_format_tuples(result['subgroup_generators'])}",
    ]
    return result, payload, lines, 0, ["certificate verified during construction"]


def _whitehead_parts(instance, base_dir, cap):
    if not isinstance(instance, dict):
        raise CliError("parse", "instance must be a JSON object")
    for key in ("group", "s", "t"):
        if key not in instance:
            raise CliError("parse", f"instance is missing {key!r}")
    spec, group = load_group_spec(instance["group"], base_dir, cap)
    s = [[parse_element(group, x) for x in tup] for tup in instance["s"]]
    t = [[parse_element(group, x) for x in tup] for tup in instance["t"]]
    return spec, group, s, t


def cmd_whitehead(args):
    instance = _read_json(args.instance)
    base_dir = os.path.dirname(args.instance) or "."
    spec, group, s, t = _whitehead_parts(instance, base_dir, args.quotient_cap)
    verdict = solve_whitehead(
        group, s, t, budget=args.budget, quotient_cap=args.quotient_cap
    )
    problem = {
        "group": spec,
        "s": [[serialize_element(x) for x in tup] for tup in s],
        "t": [[serialize_element(x) for x in tup] for tup in t],
        "budget": args.budget,
        "quotient_cap": args.quotient_cap,
    }
    result = verdict.as_dict()
    payload = {"kind": "whitehead", "problem": problem, "result": result}
    code = 2 if verdict.is_unknown() else 0
    transcript = []
    if verdict.is_equivalent():
        ok = verify_whitehead_witness(group, s, t, result["witness"])
        transcript.append("witness re-verified" if ok else "witness check FAILED")
        if not ok:
            raise CliError("internal", "emitted witness failed re-verification")
    return result, payload, [verdict.kind], code, transcript


def _orbit_maps(gog, orbits_data, which="second structure"):
    graph = gog.graph
    if graph.colors is None:
        raise CliError("parse", f"the {which} has no vertex coloring")
    white = [v for v in graph.vertices if graph.colors[v] == "white"]
    if orbits_data is not None:
        if not isinstance(orbits_data, dict):
            raise CliError("parse", "orbit lists must be a JSON object")
        stray = set(orbits_data) - {str(v) for v in white}
        if stray:
            raise CliError(
                "parse", f"orbit list names unknown white vertices: {sorted(stray)}"
            )
    lists = {}
    for v in white:
        h = gog.vertex_groups[v]
        if orbits_data is not None and str(v) in orbits_data:
            entries = []
            for images in orbits_data[str(v)]:
                entries.append(
                    GroupMap(h, h, [parse_element(h, x) for x in images])
                )
            lists[v] = entries
        else:
            lists[v] = [identity_map(h)]
    return lists


def _orbit_payload(lists):
    return {str(v): [m.serialize() for m in maps] for v, maps in lists.items()}


def cmd_gog_iso(args):
    try:
        x1 = load_gog(args.first, cap=args.quotient_cap)
        x2 = load_gog(args.second, cap=args.quotient_cap)
    except OSError as ex:
        raise CliError("io", str(ex))
    orbits_data = _read_json(args.orbits) if args.orbits else None
    lists = _orbit_maps(x2.gog, orbits_data)
    verdict = decide_gog_iso(x1.gog, x2.gog, lists, budget=args.budget)
    problem = {
        "x1": x1.data,
        "x2": x2.data,
        "orbits": _orbit_payload(lists),
        "budget": args.budget,
    }
    result = verdict.as_dict()
    payload = {"kind": "gog_iso", "problem": problem, "result": result}
    code = 2 if verdict.is_unknown() else 0
    transcript = []
    if verdict.is_equivalent():
        if not verify_gog_witness(x1.gog, x2.gog, result["witness"]):
            raise CliError("internal", "emitted witness failed re-verification")
        transcript.append("witness re-verified")
    return result, payload, [verdict.kind], code, transcript


def cmd_embed(args):
    pcp = _read_pcp(args.pcp)
    images = embed_matrix_group(pcp.presentation, class_cap=args.class_cap)
    mats = [matrix_to_json(u.mat) for u in images]
    result = {
        "dimension": images[0].n if images else 0,
        "images": mats,
    }
    payload = {
        "kind": "embed",
        "problem": {"group_pcp": serialize_pcp(pcp), "class_cap": args.class_cap},
        "result": result,
    }
    lines = [
        f"{nm}: {_format_matrix(u.mat)}"
        for nm, u in zip(pcp.presentation.names, images)
    ]
    return result, payload, lines, 0, ["computed unitriangular generator images"]


def cmd_expm(args):
    entries = _parse_matrix_text(args.entries, args.dim)
    u = expm(entries)
    result = {"matrix": matrix_to_json(u.mat)}
    payload = {
        "kind": "expm",
        "problem": {"dim": args.dim, "entries": args.entries},
        "result": result,
    }
    return result, payload, [_format_matrix(u.mat)], 0, ["exponential computed"]


def cmd_logm(args):
    entries = _parse_matrix_text(args.entries, args.dim)
    m = logm(entries)
    result = {"matrix": matrix_to_json(m.mat)}
    payload = {
        "kind": "logm",
        "problem": {"dim": args.dim, "entries": args.entries},
        "result": result,
    }
    return result, payload, [_format_matrix(m.mat)], 0, ["logarithm computed"]


# ---------------------------------------------------------------------------
# verification of emitted reports


def _verify_nf(problem, result, transcript):
    p = parse_pcp(problem["group_pcp"]).presentation
    nf = p.collect(parse_free_word(problem["word"], p.names))
    if list(nf) != result["normal_form"]:
        raise VerifyFailure("normal form does not recompute")
    transcript.append("normal form recomputed")


def _verify_ucs(problem, result, transcript):
    p = parse_pcp(problem["group_pcp"]).presentation
    series = [[list(g) for g in t.gens] for t in upper_central_series(p)]
    if series != result["series"]:
        raise VerifyFailure("upper central series does not recompute")
    transcript.append("upper central series recomputed")


def _verify_torsion(problem, result, transcript):
    p = parse_pcp(problem["group_pcp"]).presentation
    td = torsion_data(p)
    if [list(g) for g in td.tau.gens] != result["tau_generators"]:
        raise VerifyFailure("torsion generators do not recompute")
    if td.m != result["exponent"] or len(td.tau_elements) != result["tau_order"]:
        raise VerifyFailure("torsion data does not recompute")
    if not td.verify_embedding():
        raise VerifyFailure("separation embedding fails on the sample ball")
    transcript.append("torsion data recomputed and embedding re-checked")


def _verify_elusive(problem, result, transcript):
    p = parse_pcp(problem["group_pcp"]).presentation
    fresh = elusive_records(elusive_elements(p))
    if fresh != result["elusive"]:
        raise VerifyFailure("elusive class list does not recompute")
    for entry in result["elusive"]:
        images = [tuple(v) for v in entry["representative_images"]]
        cls = OuterAutoClass(GroupHom(p, p, images, check=True), check=True)
        if cls.is_trivial():
            raise VerifyFailure("logged elusive class is inner")
    transcript.append(f"{len(fresh)} elusive classes recomputed and re-verified")


def _verify_separate_torsion(problem, result, transcript):
    p = parse_pcp(problem["group_pcp"]).presentation
    if result.get("unknown"):
        fresh = _separate_torsion_result(
            p,
            problem.get("budget", DEFAULT_CHAIN_LEVELS),
            problem.get("quotient_cap", DEFAULT_CAP),
        )
        if fresh != result:
            raise VerifyFailure("budget exhaustion does not reproduce at the same budget")
        transcript.append("budget exhaustion and partial certificate reproduced")
        return
    sub = Subgroup(p, [tuple(g) for g in result["subgroup_generators"]])
    if sub.index_in_parent() != result["subgroup_index"]:
        raise VerifyFailure("logged subgroup index does not recompute")
    cert = CongruenceCertificate(
        p,
        sub,
        result["base_case"],
        result["chain"],
        result["elusive_classes"],
        result["survival_log"],
        complete=result["complete"],
    )
    try:
        cert.verify()
    except RuntimeError as ex:
        raise VerifyFailure(str(ex))
    transcript.append("congruence certificate replayed")


def _verify_whitehead(problem, result, transcript):
    group = group_from_spec(problem["group"])
    s = [[parse_element(group, x) for x in tup] for tup in problem["s"]]
    t = [[parse_element(group, x) for x in tup] for tup in problem["t"]]
    kind = result["kind"]
    if kind == "equivalent":
        if not verify_whitehead_witness(group, s, t, result["witness"]):
            raise VerifyFailure("witness fails re-verification")
        transcript.append("witness re-verified")
        return
    if kind == "not_equivalent":
        cert = result["certificate"]
        if isinstance(group, PcPresentation) and cert.get("kind") == "quotient_refutation":
            if not verify_quotient_refutation(group, s, t, cert):
                raise VerifyFailure("quotient refutation fails re-verification")
            transcript.append("quotient refutation re-verified")
            return
        fresh = solve_whitehead(
            group, s, t, problem.get("budget", 2), problem.get("quotient_cap", DEFAULT_CAP)
        )
        if fresh.kind != kind:
            raise VerifyFailure("complete solver disagrees with the logged verdict")
        transcript.append("verdict recomputed by the complete solver")
        return
    fresh = solve_whitehead(
        group, s, t, problem.get("budget", 2), problem.get("quotient_cap", DEFAULT_CAP)
    )
    if fresh.kind != kind:
        raise VerifyFailure("recomputed verdict disagrees")
    transcript.append("unknown verdict reproduced at the same budget")


def _verify_gog_iso(problem, result, transcript):
    x1 = gog_from_data(problem["x1"])
    x2 = gog_from_data(problem["x2"])
    lists = _orbit_maps(x2.gog, problem.get("orbits"))
    kind = result["kind"]
    if kind == "equivalent":
        if not verify_gog_witness(x1.gog, x2.gog, result["witness"]):
            raise VerifyFailure("isomorphism witness fails re-verification")
        transcript.append("isomorphism witness re-verified")
        return
    fresh = decide_gog_iso(x1.gog, x2.gog, lists, budget=problem.get("budget", 2))
    if fresh.kind != kind:
        raise VerifyFailure("recomputed verdict disagrees")
    transcript.append("verdict recomputed")


def _verify_embed(problem, result, transcript):
    p = parse_pcp(problem["group_pcp"]).presentation
    images = embed_matrix_group(p, class_cap=problem.get("class_cap", 3))
    if [matrix_to_json(u.mat) for u in images] != result["images"]:
        raise VerifyFailure("embedding images do not recompute")
    transcript.append("matrix embedding recomputed")


def _verify_expm(problem, result, transcript):
    entries = _parse_matrix_text(problem["entries"], problem["dim"])
    u = expm(entries)
    if matrix_to_json(u.mat) != result["matrix"]:
        raise VerifyFailure("exponential does not recompute")
    if logm(u).mat != QMatrix(entries):
        raise VerifyFailure("logarithm does not invert the exponential")
    transcript.append("exponential recomputed and inverted")


def _verify_logm(problem, result, transcript):
    entries = _parse_matrix_text(problem["entries"], problem["dim"])
    m = logm(entries)
    if matrix_to_json(m.mat) != result["matrix"]:
        raise VerifyFailure("logarithm does not recompute")
    if expm(m).mat != QMatrix(entries):
        raise VerifyFailure("exponential does not invert the logarithm")
    transcript.append("logarithm recomputed and inverted")


_VERIFIERS = {
    "nf": _verify_nf,
    "ucs": _verify_ucs,
    "torsion": _verify_torsion,
    "elusive": _verify_elusive,
    "separate_torsion": _verify_separate_torsion,
    "whitehead": _verify_whitehead,
    "gog_iso": _verify_gog_iso,
    "embed": _verify_embed,
    "expm": _verify_expm,
    "logm": _verify_logm,
}


def verify_payload(payload):
    """Re-check a report payload; returns the transcript, raises
    VerifyFailure on any mismatch."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise VerifyFailure("payload has no kind")
    kind = payload["kind"]
    if kind not in _VERIFIERS:
        raise VerifyFailure(f"unknown payload kind {kind!r}")
    transcript = []
    _VERIFIERS[kind](payload.get("problem", {}), payload.get("result", {}), transcript)
    return transcript


def cmd_verify(args):
    data = _read_json(args.target)
    payload = data.get("payload", data) if isinstance(data, dict) else data
    try:
        transcript = verify_payload(payload)
    except (VerifyFailure, FormatError, IndexInfinite, KeyError, TypeError, ValueError) as ex:
        raise CliError("verify", f"verification failed: {ex}")
    result = {"verified": True, "kind": payload["kind"]}
    lines = [f"verified {payload['kind']}"] + transcript
    # pass the checked payload through so a report written by verify is
    # itself verifiable
    return result, payload, lines, 0, transcript


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


def _add_common(sp):
    sp.add_argument("--json", action="store_true", help="print the result as JSON")
    sp.add_argument("--report", metavar="FILE", help="write a full run report")


def _add_budget(sp, default=2):
    sp.add_argument("--budget", type=int, default=default, help="search budget")


def _add_quotient_cap(sp):
    sp.add_argument(
        "--quotient-cap",
        type=int,
        default=DEFAULT_CAP,
        help="largest finite quotient the tool will build",
    )


def build_parser():
    parser = _Parser(prog="nilcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("nf", help="normal form of a word")
    sp.add_argument("pcp")
    sp.add_argument("word")
    sp.set_defaults(fn=cmd_nf)

    sp = sub.add_parser("ucs", help="upper central series")
    sp.add_argument("pcp")
    sp.set_defaults(fn=cmd_ucs)

    sp = sub.add_parser("torsion", help="torsion subgroup and exponent")
    sp.add_argument("pcp")
    _add_quotient_cap(sp)
    sp.set_defaults(fn=cmd_torsion)

    sp = sub.add_parser("elusive", help="elusive outer automorphism classes")
    sp.add_argument("pcp")
    sp.set_defaults(fn=cmd_elusive)

    sp = sub.add_parser("separate-torsion", help="congruence separating torsion")
    sp.add_argument("pcp")
    _add_budget(sp, DEFAULT_CHAIN_LEVELS)
    _add_quotient_cap(sp)
    sp.set_defaults(fn=cmd_separate_torsion)

    sp = sub.add_parser("whitehead", help="mixed Whitehead instance from JSON")
    sp.add_argument("instance")
    _add_budget(sp)
    _add_quotient_cap(sp)
    sp.set_defaults(fn=cmd_whitehead)

    sp = sub.add_parser("gog-iso", help="graph-of-groups isomorphism")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--orbits", metavar="FILE",
                    help="JSON orbit lists per white vertex (default: identity)")
    _add_budget(sp)
    _add_quotient_cap(sp)
    sp.set_defaults(fn=cmd_gog_iso)

    sp = sub.add_parser("embed", help="unitriangular matrix embedding")
    sp.add_argument("pcp")
    sp.add_argument("--class-cap", type=int, default=3)
    sp.set_defaults(fn=cmd_embed)

    sp = sub.add_parser("expm", help="exponential of a strictly upper matrix")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--entries", required=True)
    sp.set_defaults(fn=cmd_expm)

    sp = sub.add_parser("logm", help="logarithm of a unitriangular matrix")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--entries", required=True)
    sp.set_defaults(fn=cmd_logm)

    sp = sub.add_parser("verify", help="re-verify an emitted run report")
    sp.add_argument("target", metavar="report")
    sp.set_defaults(fn=cmd_verify)

    for sp in sub.choices.values():
        _add_common(sp)
    return parser


def _input_hashes(args):
    hashes = {}
    for attr in ("pcp", "instance", "first", "second", "orbits", "target"):
        path = getattr(args, attr, None)
        if path and os.path.exists(path):
            hashes[path] = _sha256(path)
    return hashes


def main(argv=None):
    eff = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(eff)
        start = time.monotonic()
        result, payload, lines, code, transcript = args.fn(args)
        wall = time.monotonic() - start
    except CliError as ex:
        _emit_error(eff, ex.code, str(ex))
        return 1
    except FormatError as ex:
        _emit_error(eff, "parse", str(ex))
        return 1
    except (Inconsistent, NotNilpotent) as ex:
        _emit_error(eff, "inconsistent", str(ex))
        return 1
    except CapExceeded as ex:
        _emit_error(eff, "cap", str(ex))
        return 1
    except ValueError as ex:
        _emit_error(eff, "value", str(ex))
        return 1
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        for line in lines:
            print(line)
    if args.report:
        report = RunReport(args.command, _input_hashes(args), payload, transcript, wall)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return code


def _emit_error(argv, code, message):
    print(f"error: {message}", file=sys.stderr)
    if "--json" in argv:
        print(json.dumps({"error": {"code": code, "message": message}}, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
