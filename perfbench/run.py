#!/usr/bin/env python3
"""Build and run the pfc end-to-end / per-layer benchmark.

    python3 perfbench/run.py --workload solve_p1_3d --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Builds the pfc library and the benchmark program (pfc_perfbench) from this
checkout's sources (CMake, into .bench_build/perfbench), runs one workload,
checks that its last output line is a well-formed result holding exactly
the metrics BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and prints that line last. Any failure exits non-zero
without printing a result. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "pfc_perfbench"
# Longest a run may take once built; the contract allows 180 s.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found", 2)
    with open(path) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "pfc").is_dir():
        fail(f"pfc sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def run_binary(args, timeout):
    """Runs pfc_perfbench in its own process group; on timeout the whole group
    (including any JIT compiler it started) is killed and reaped."""
    proc = subprocess.Popen([str(BINARY)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {timeout} s", 5)
    return proc.returncode, out


def validate(line, spec, traced):
    """Returns the parsed result, or raises ValueError naming the problem."""
    res = json.loads(line)
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        raise ValueError(f"result keys must be exactly {sorted(RESULT_KEYS)}")
    if not isinstance(res["correct"], bool):
        raise ValueError("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            raise ValueError(f"{k} must be a whole number")
    if res["attempted"] < 1 or not 0 <= res["failed"] <= res["attempted"]:
        raise ValueError("attempted must be >= 1 and failed within it")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(declared):
        missing = sorted(set(declared) - set(got))
        unknown = sorted(set(got) - set(declared))
        raise ValueError(f"metrics missing {missing}, unknown {unknown}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            raise ValueError(f"metric {name} must be {{value, unit: "
                             f"{declared[name]}}}")
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"metric {name} is not a finite number")
    return res


def self_test(spec):
    build()
    bad = []
    code, out = run_binary(["--self-test"], 60)
    sys.stdout.write(out)
    if code != 0:
        bad.append("pfc_perfbench self-test")
    mixes = [run_binary(["--print-mix", "--seed", "11"], 60)[1]
             for _ in range(2)]
    if not mixes[0] or mixes[0] != mixes[1]:
        bad.append("serve mix differs between two invocations")
    if mixes[0] == run_binary(["--print-mix", "--seed", "12"], 60)[1]:
        bad.append("serve mix ignores the seed")
    code, _ = run_binary(["--workload", "no_such_workload", "--seed", "1",
                          "--seconds", "1", "--trace", "0", "--dir",
                          ".bench_run/selftest"], 60)
    if code == 0:
        bad.append("pfc_perfbench accepted an unknown workload")
    rc = subprocess.run([sys.executable, __file__, "--workload",
                         "no_such_workload", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], capture_output=True).returncode
    if rc == 0:
        bad.append("run.py accepted an unknown workload")
    good = {m["name"]: {"value": 1.0, "unit": m["unit"]}
            for m in spec["end_to_end"]}
    base = {"correct": True, "attempted": 1, "failed": 0}
    cases = {
        "valid result": (dict(base, metrics=good), True),
        "unknown metric": (dict(base, metrics=dict(
            good, bogus={"value": 1.0, "unit": "s"})), False),
        "missing metric": (dict(base, metrics={
            k: v for k, v in good.items() if k != "setup_s"}), False),
        "extra key": (dict(base, metrics=good, extra=1), False),
    }
    for what, (res, ok) in cases.items():
        try:
            validate(json.dumps(res), spec, traced=False)
            passed = ok
        except ValueError:
            passed = not ok
        if not passed:
            bad.append(f"validator: {what}")
    for b in bad:
        print(f"self-test FAILED: {b}")
    print("run.py self-test:", "ok" if not bad else "FAILED")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    if a.self_test:
        sys.exit(self_test(spec))
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r} (known: {', '.join(names)})",
             2)
    if a.seconds < 1:
        fail("--seconds must be at least 1", 2)
    build()
    code, out = run_binary(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
         str(a.seconds), "--trace", str(a.trace), "--dir",
         f".bench_run/{a.workload}"], RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        validate(lines[-1], spec, traced=a.trace == 1)
    except (ValueError, json.JSONDecodeError, IndexError) as e:
        sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
        sys.stdout.flush()
        print(lines[-1], file=sys.stderr)
        fail(f"no valid result (pfc_perfbench exit code {code}): {e}", code or 4)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
