"""Closed-form products of class-two presentations whose tails are central
(``nilgroup._CentralTails``), against the collector they bypass
(``oracles.collector_only``); the path each benchmark group takes; and
the overlap checks, which collect whatever the shape."""

import importlib.util
import pathlib
import random

import pytest

from oracles import collector_only, overlaps_hold_by_iterative_collection, random_element
from nilcert import nilgroup
from nilcert.formats import parse_pcp
from nilcert.nilgroup import Inconsistent, PcPresentation, QuotientMap, verbal_power_subgroup


def _benchmark_groups():
    """The groups of ``perfbench/groups.py``, parsed from their texts."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "groups.py"
    spec = importlib.util.spec_from_file_location("perfbench_groups", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: parse_pcp(g.text).presentation for name, g in module.GROUPS.items()}


BENCH = _benchmark_groups()
CLOSED_FORM = ["H3", "H3inv", "H3sq", "H5", "Q", "Q3", "Q4", "H3xC2", "Z2xH3xC2"]
# class 3 and more (F4, UT4, UT5), or a diagonal exponent other than 1
COLLECTED = ["F4", "UT4", "UT5", "M", "M8", "M9"]


def test_each_benchmark_group_takes_its_path():
    assert sorted(BENCH) == sorted(CLOSED_FORM + COLLECTED)
    assert [name for name in CLOSED_FORM if BENCH[name]._class_two is None] == []
    assert [name for name in COLLECTED if BENCH[name]._class_two is not None] == []


def _agree(p, rng, box, count=25):
    """Products (normal-form a, any integer b), inverses, powers with
    |k| <= 300, normal forms and collections, with and without the closed
    form."""
    for _ in range(count):
        a = random_element(p, rng, box)
        b = tuple(rng.randint(-box, box) for _ in range(p.n))
        k = rng.randint(-300, 300)
        word = [(rng.randrange(p.n), rng.randint(-box, box)) for _ in range(6)]
        fast = (p.multiply(a, b), p.invert(a), p.power(a, k), p.normal_form(b), p.collect(word))
        with collector_only(p):
            slow = (p.multiply(a, b), p.invert(a), p.power(a, k), p.normal_form(b), p.collect(word))
        assert fast == slow, (p.names, p.orders, a, b, k, word)
    return count


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_matches_the_collector_on_benchmark_groups_and_quotients(name):
    p = BENCH[name]
    rng = random.Random(name)
    checked = sum(_agree(p, rng, box) for box in (3, 300))
    for k in (2, 3, 4, 6):
        q = QuotientMap(p, verbal_power_subgroup(p, k)).target
        assert q._class_two is not None, (name, k)
        checked += sum(_agree(q, rng, box, 10) for box in (3, 300))
    assert checked == 130


def random_class_two(rng, check):
    """Noncentral generators x0, x1, ... with tails on central generators
    z0, z1, ..., relative orders infinite or small, power tails on the
    central generators beyond.  Often inconsistent."""
    r, s = rng.randint(2, 3), rng.randint(1, 2)
    n = r + s
    orders = [rng.choice((None, None, 2, 3, 4)) for _ in range(r)]
    orders += [rng.choice((None, 2, 3, 4, 6)) for _ in range(s)]

    def central_tail(start):
        return [rng.randint(-2, 2) if t >= max(start, r) else 0 for t in range(n)]

    conj = {}
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.7:
                v = central_tail(r)
                v[j] = 1
                conj[(i, j)] = v
    powers = {i: central_tail(i + 1) for i in range(n) if orders[i] is not None}
    names = [f"x{i}" for i in range(r)] + [f"z{i}" for i in range(s)]
    return PcPresentation(names, orders, conj, powers=powers, check=check)


def test_closed_form_matches_the_collector_on_random_central_presentations():
    rng = random.Random(24)
    found = tries = 0
    while found < 30:
        tries += 1
        try:
            p = random_class_two(rng, check=True)
        except Inconsistent:
            continue
        assert p._class_two is not None
        _agree(p, rng, rng.choice((3, 300)), 5)
        found += 1
    assert tries > found  # some drawn presentations were inconsistent


def _refuse(*args):
    raise AssertionError("an overlap check reached the closed form")


def test_overlap_checks_collect_whatever_the_shape(monkeypatch):
    """``Inconsistent`` is raised exactly when the overlaps fail under the
    iterative collector; the checks never reach the closed form, which
    stays on afterwards."""
    for name in ("multiply", "power", "collect", "carry"):
        monkeypatch.setattr(nilgroup._CentralTails, name, _refuse)
    rng = random.Random(2024)
    outcomes = []
    for _ in range(60):
        p = random_class_two(rng, check=False)
        kernel = p._class_two
        assert kernel is not None
        try:
            p.check_consistency()
            raised = False
        except Inconsistent:
            raised = True
        assert p._class_two is kernel
        assert raised == (not overlaps_hold_by_iterative_collection(p))
        outcomes.append(raised)
    assert 0 < sum(outcomes) < len(outcomes)
