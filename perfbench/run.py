#!/usr/bin/env python3
"""Benchmark of nilcert, run in-process from the root of a checkout.

    python3 perfbench/run.py --workload normal-form --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --selftest

A run sets up (loads every input), then runs whole rounds of operations
until --seconds have passed, checks every output, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones from
a run with spans around nilcert's public functions.  See README.md.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
sys.path.insert(0, HERE)

import groups  # noqa: E402
import workloads as W  # noqa: E402

# set-ups timed before each round
SETUP_REPEATS = 5
# Any operation still running after this many seconds counts as failed.
SAFETY_LIMIT_S = 60.0

# Operations, verify runs and set-ups are timed in processor time of this
# process: the work is single-threaded and in-process, and on a shared
# machine wall time also counts the time another tenant holds the
# processor (it varied by a third between calls of equal work).
clock = time.process_time


class OpTimeout(BaseException):
    """Raised in the main thread when an operation's time limit expires;
    a BaseException, so no handler in nilcert catches it."""


def _expired(signum, frame):
    raise OpTimeout()


@contextmanager
def time_limit(seconds):
    """Limit in processor seconds of this process, like the timing."""
    old = signal.signal(signal.SIGPROF, _expired)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)


def load_nilcert():
    """Import nilcert from the checkout's src/ directory."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nilcert import cli, formats  # noqa: F401  (loads every module)


def make_api():
    cli = sys.modules["nilcert.cli"]
    formats = sys.modules["nilcert.formats"]
    return SimpleNamespace(main=cli.main, parse_pcp=formats.parse_pcp,
                           parse_gog=formats.parse_gog,
                           group_from_spec=formats.group_from_spec)


def make_workload(name, api, tmp):
    cls = W.WORKLOADS[name]
    return cls(api) if cls is W.NormalForm else cls(api, W.Cli(api, tmp))


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it."""
    return math.floor(100 * (n - 10) / n)


def run_op(op, tracer, op_id):
    """Returns (seconds, verify seconds, result or None, exception or None)."""
    if op.prepare is not None:
        op.prepare()
    if tracer is not None:
        tracer.op_id = op_id
    # Untimed: each operation starts from a collected heap, as a command
    # run starts from a fresh process, so no operation pays for collecting
    # an earlier one's garbage.
    gc.collect()
    start = clock()
    try:
        with time_limit(op.limit or SAFETY_LIMIT_S):
            result = op.call()
    except (Exception, OpTimeout) as ex:  # a failed operation, counted as such
        return clock() - start, 0.0, None, ex
    seconds = clock() - start
    verify_s = 0.0
    if op.verify is not None:
        start = clock()
        op.verify()
        verify_s = clock() - start
    return seconds, verify_s, result, None


def run_round(ops, tracer, first_id, log):
    rec = {"times": [], "busy": 0.0, "verify": 0.0, "failed": 0, "attempted": len(ops),
           "problems": [], "decided": 0}
    for k, op in enumerate(ops):
        seconds, verify_s, result, error = run_op(op, tracer, first_id + k)
        rec["busy"] += seconds + verify_s
        rec["verify"] += verify_s
        if error is not None:
            rec["failed"] += 1
            if op.fault is None:
                log(f"unexpected failure: {op.label}: {type(error).__name__}: {error}")
            continue
        rec["times"].append(seconds)
        problems = op.check(result)
        rec["problems"].extend(problems)
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], dict):
            rec["decided"] += result[1].get("kind") in ("equivalent", "not_equivalent")
    return rec


def run(workload_name, seed, seconds, trace, log):
    os.environ.pop("NILCERT_QUOTIENT_CAP", None)
    load_nilcert()
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    api = make_api()
    tmp = os.path.join(TMP_DIR, str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        workload = make_workload(workload_name, api, tmp)
        ops = workload.round(seed, 0)
        setups = []
        rounds = []
        start = time.perf_counter()
        op_id = 0
        while True:
            # Set-ups are timed before every round, so that they sample the
            # machine's state over the whole run as the operations do; the
            # spans of a traced run leave them out.
            for _ in range(0 if tracer else SETUP_REPEATS):
                setup_start = clock()
                workload.setup(seed)
                setups.append(clock() - setup_start)
            rounds.append(run_round(ops, tracer, op_id, log))
            op_id += len(ops)
            if time.perf_counter() - start >= seconds:
                break
            ops = workload.round(seed, len(rounds))
        timed_s = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)  # only when no other run is using it
        except OSError:
            pass
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:20]:
        log(f"wrong output: {p}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    per_round = rounds[0]["attempted"] - rounds[0]["failed"]
    q = tail_percentile(per_round)
    summary = {
        "workload": workload_name, "seed": seed, "rounds": len(rounds),
        "ops_per_round": rounds[0]["attempted"], "tail_percentile": q,
        "verify_s_per_round": statistics.median(r["verify"] for r in rounds),
        "decided_per_round": statistics.median(r["decided"] for r in rounds),
    }
    ops_per_s = statistics.median(len(r["times"]) / r["busy"] for r in rounds)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_s_p50": (statistics.median(t for r in rounds for t in r["times"]), "s"),
            "op_s_tail": (statistics.quantiles(
                [t for r in rounds for t in r["times"]], n=100)[q - 1], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(len(rounds))
        metrics["trace.timed_s"] = (timed_s, "s")
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        metrics["verdict.decided"] = (summary["decided_per_round"], "count")
        metrics["cli.verify.round_s"] = (summary["verify_s_per_round"], "s")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload_name}-{seed}.jsonl"))
    return {
        "summary": summary,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the models against every relation, without timing")
    args = parser.parse_args(argv)
    if args.selftest:
        failures = groups.selftest()
        for name, bad in failures.items():
            print(f"{name}: {bad}")
        print("selftest " + ("failed" if failures else "ok"))
        return 1 if failures else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    def log(message):
        print(message, file=sys.stderr)

    try:
        out = run(args.workload, args.seed, args.seconds, args.trace, log)
    except ImportError as ex:
        log(f"cannot import nilcert from {os.path.join(ROOT, 'src')}: {ex}")
        return 2
    s = out["summary"]
    print(" ".join(f"{k}={v}" for k, v in s.items()))
    for name, m in out["result"]["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
