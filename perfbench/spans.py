"""Spans around nilcert's public functions, for the traced run.

`Tracer.install()` replaces each listed function or method with a
wrapper, in every nilcert module that bound it by name.  A wrapper opens
a span unless the innermost open span belongs to the same layer, so the
collector, which recurses through its own public methods, gets one span
per outermost call.  Spans are timed in processor time of the process,
like the operations.  A span's self time is its duration minus the time
covered by its child spans.  Spans are kept in memory, up to MAX_SPANS,
and written when the run ends.
"""

import json
import sys
import time

MAX_SPANS = 100_000

# layer -> (module, class or None, attribute) of the calls spanned
LAYERS = {
    "nilgroup.collector": [("nilgroup", "PcPresentation", m) for m in (
        "collect", "multiply", "invert", "power", "conjugate", "commutator", "normal_form")],
    "nilgroup.subgroup": [("nilgroup", "Subgroup", m) for m in (
        "__init__", "reduce", "express", "contains")] + [
        ("nilgroup", None, "intersect_finite_index")],
    "nilgroup.power_subgroup": [("nilgroup", None, "verbal_power_subgroup")],
    "nilgroup.quotient": [("nilgroup", None, "quotient_table"),
                          ("nilgroup", "QuotientMap", "__init__")],
    "nilgroup.hom": [("nilgroup", "GroupHom", "__init__"),
                     ("nilgroup", "GroupHom", "is_automorphism")],
    "nilgroup.conjugacy": [("nilgroup", None, f) for f in (
        "simultaneous_conjugator", "centralizer", "center", "lower_central_series")],
    "zmod": [("zmod", None, f) for f in ("hnf", "snf", "solve_integer")],
    "whitehead.nilpotent": [("whitehead", None, "whitehead_nilpotent")],
    "whitehead.finite": [("whitehead", None, "whitehead_finite")],
    "outsep.elusive": [("outsep", None, "elusive_elements")],
    "outsep.good_enough": [("outsep", None, "good_enough_subgroup")],
    "outsep.survives": [("outsep", None, "survives")],
    "outsep.separate": [("outsep", None, "separate_torsion")],
    "malcev.embed": [("malcev", None, "embed_matrix_group")],
    "gogiso.decide": [("gogiso", None, "decide_gog_iso")],
    "gogiso.group_map": [("gogiso", "GroupMap", "__init__")],
    "gogiso.graph_iso": [("gogiso", None, "graph_isomorphisms")],
    "formats.parse": [("formats", None, f) for f in (
        "parse_pcp", "serialize_pcp", "parse_gog", "gog_from_data", "group_from_spec")],
    "cli.main": [("cli", None, "main")],
    "cli.verify": [("cli", None, "verify_payload")],
}


def _presentation_key(p):
    return (p.names, p.orders, tuple(sorted(p.conj.items())), tuple(sorted(p.powers.items())))


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, name, start, end, parent, op)
        self.dropped = 0
        self.stack = []  # [layer, span index, child seconds]
        self.op_id = None
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.hom_candidates = 0
        self.counts = {"power_pairs": set(), "quotient_order_sum": 0,
                       "automorphisms": 0, "conjugators_found": 0, "survived": 0}

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"nilcert.{name}"] for name in
                   ("nilgroup", "zmod", "whitehead", "outsep", "malcev", "gogiso",
                    "formats", "cli")}
        for layer, targets in LAYERS.items():
            for mod, cls, attr in targets:
                if cls is not None:
                    owner = getattr(modules[mod], cls)
                    setattr(owner, attr, self._wrap(layer, attr, owner.__dict__[attr]))
                    continue
                original = getattr(modules[mod], attr)
                wrapper = self._wrap(layer, attr, original)
                for m in modules.values():
                    if m.__dict__.get(attr) is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, layer, name, fn):
        outcome = getattr(self, f"_outcome_{name}", None)
        candidate = (layer, name) == ("nilgroup.hom", "__init__")
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            spans = self.spans
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)  # filled when the span ends
            else:
                index = -1
                self.dropped += 1
            frame = [layer, index, 0.0]
            stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                duration = end - start
                self.calls[layer] += 1
                self.hom_candidates += candidate
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[index] = (layer, name, start, end, parent, self.op_id)
            if outcome is not None:
                outcome(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- outcomes counted where the work happens -----------------------------

    def _outcome_verbal_power_subgroup(self, args, result):
        self.counts["power_pairs"].add((self.op_id, _presentation_key(args[0]), args[1]))

    def _outcome_quotient_table(self, args, result):
        self.counts["quotient_order_sum"] += result.order

    def _outcome_is_automorphism(self, args, result):
        self.counts["automorphisms"] += bool(result)

    def _outcome_simultaneous_conjugator(self, args, result):
        self.counts["conjugators_found"] += result is not None

    def _outcome_survives(self, args, result):
        self.counts["survived"] += bool(result)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics, per round of the workload."""
        c, s, k = self.calls, self.self_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (c[layer] / rounds, "count")
            out[f"{layer}.self_s"] = (s[layer] / rounds, "s")
        out["nilgroup.power_subgroup.distinct_ratio"] = (
            ratio(len(k["power_pairs"]), c["nilgroup.power_subgroup"]), "ratio")
        out["nilgroup.quotient.order_sum"] = (k["quotient_order_sum"] / rounds, "count")
        out["nilgroup.hom.automorphism_ratio"] = (
            ratio(k["automorphisms"], self.hom_candidates), "ratio")
        out["nilgroup.conjugacy.found_ratio"] = (
            ratio(k["conjugators_found"], c["nilgroup.conjugacy"]), "ratio")
        out["outsep.survives.survived_ratio"] = (
            ratio(k["survived"], c["outsep.survives"]), "ratio")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"layer": layer, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
