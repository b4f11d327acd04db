#!/usr/bin/env python3
"""Reference figures for the README, taken outside the workloads.

    python3 perfbench/reference.py            # all of them, about 8 minutes
    python3 perfbench/reference.py mult h3    # a subset

mult  H5 and F4 multiplications per second at exponent boxes 3, 30, 300
h3    `whitehead_nilpotent` on H3, (x) vs (x z) at budget 2: time and
      candidate homomorphisms built
f4    `separate_torsion` on F4: time
m8    `verbal_power_subgroup(M8, 180)`: time
"""

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import groups as G  # noqa: E402
from nilcert import nilgroup, outsep, whitehead  # noqa: E402
from nilcert.formats import parse_pcp  # noqa: E402


def presentation(name):
    return parse_pcp(G.GROUPS[name].text).presentation


def mult(seconds=5.0):
    rng = random.Random(0)
    for name in ("H5", "F4"):
        for box in (3, 30, 300):
            p = presentation(name)
            count, busy = 0, 0.0
            while busy < seconds:
                a = tuple(rng.randint(-box, box) for _ in range(p.n))
                b = tuple(rng.randint(-box, box) for _ in range(p.n))
                start = time.perf_counter()
                p.multiply(a, b)
                busy += time.perf_counter() - start
                count += 1
            print(f"{name} multiply, box {box}: {count / busy:.1f} per second ({count} products)")


def h3():
    p = presentation("H3")
    start = time.perf_counter()
    verdict = whitehead.whitehead_nilpotent(p, [[(1, 0, 0)]], [[(1, 0, 1)]], budget=2)
    seconds = time.perf_counter() - start
    built = [0]
    original = nilgroup.GroupHom.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    nilgroup.GroupHom.__init__ = counting
    try:
        whitehead.whitehead_nilpotent(presentation("H3"), [[(1, 0, 0)]], [[(1, 0, 1)]], budget=2)
    finally:
        nilgroup.GroupHom.__init__ = original
    print(f"H3 whitehead (x) vs (x z): {verdict.kind} in {seconds:.2f} s, "
          f"{built[0]} candidate homomorphisms")


def f4():
    start = time.perf_counter()
    cert = outsep.separate_torsion(presentation("F4"))
    print(f"F4 separate_torsion: complete={cert.complete} in {time.perf_counter() - start:.1f} s")


def m8():
    start = time.perf_counter()
    sub = nilgroup.verbal_power_subgroup(presentation("M8"), 180)
    print(f"verbal_power_subgroup(M8, 180): index {sub.index_in_parent()} "
          f"in {time.perf_counter() - start:.1f} s")


FIGURES = {"mult": mult, "h3": h3, "f4": f4, "m8": m8}

if __name__ == "__main__":
    for key in sys.argv[1:] or FIGURES:
        FIGURES[key]()
