#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout.  The first run configures and
builds perfbench/ (the library from src/ plus bench_wallclock) as a
Release build under .bench_build/perfbench; later runs rebuild only
what changed.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics (the metrics
BENCHMARK.json declares for the mode, with the units it declares); the
full result, including run metadata and the ungated raw-time metrics, is
also merged into .bench_build/BENCH_wallclock.json
(scripts/collect_bench.sh picks it up).  Exits nonzero, without a result
line, if the build fails, and nonzero with a result line if any output
check failed.

BENCHMARK.json is the one list of metric names and units.  The program
reports name -> value for what it measured; this script attaches the
units, and fails the run if the program reports a name nothing here
declares or leaves out a metric its workload owns (LAYER_OWNERS).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
RESULTS = os.path.join(BUILD_ROOT, "BENCH_wallclock.json")
BINARY = os.path.join(BUILD_DIR, "bench_wallclock")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# End-to-end metrics every untraced run records in BENCH_wallclock.json
# but that BENCHMARK.json does not gate: raw wall time drifts with the
# host's speed (perfbench/README.md, "Spread").
UNGATED = {"keys_per_s": "keys/s", "call_ms_p50": "ms", "setup_wall_s": "s"}

# The per-layer metrics each workload's traced run must measure, as name
# prefixes.  A declared metric no workload owns reads 0 in every result.
LAYER_OWNERS = {
    "grid_shearsort": (
        "network.", "core.s2.", "core.initial_s2_ms", "core.merge_level_",
        "core.transposition_self_ms", "core.exec_steps", "core.comparisons",
        "core.exchanges", "core.formula_time", "staticcheck.", "trace."),
    "seq_engine": ("core.seq.", "trace."),
    "service_federated": (
        "service.", "router.", "core.s2.ms", "core.s2.phases", "trace."),
    "stream_sort": (
        "stream.", "core.splitters.", "core.block_sort.", "core.host_merge.",
        "durability.", "trace."),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _ = run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            BUILD_TIMEOUT_S,
        )
        if code != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")


def git_revision():
    """HEAD of the checkout's own .git, if it has one; git itself is not
    invoked, so nothing outside the checkout is read."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def owned(workload, name):
    return name.startswith(LAYER_OWNERS.get(workload, ()))


def metric_problems(workload, trace, known, measured):
    """Names measured but declared nowhere, and metrics the workload
    should have measured but did not.  `known` maps every name the mode
    may report to its unit."""
    problems = []
    undeclared = sorted(set(measured) - set(known))
    if undeclared:
        problems.append("metrics not declared in BENCHMARK.json: %s" % undeclared)
    if trace:
        expected = {n for n in known if owned(workload, n)}
        orphans = sorted(n for n in known
                         if not any(owned(w, n) for w in LAYER_OWNERS))
        if orphans:
            problems.append("per-layer metrics no workload measures: %s" % orphans)
        stray = sorted(n for n in measured if n in known and n not in expected)
        if stray:
            problems.append("per-layer metrics outside %s's layers: %s"
                            % (workload, stray))
    else:
        expected = set(known)
    missing = sorted(expected - set(measured))
    if missing:
        problems.append("metrics %s should measure but did not: %s"
                        % (workload, missing))
    return problems


def check_trace_file(path):
    """The trace must parse as Chrome trace-event JSON."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return "trace file %s unreadable: %s" % (path, e)
    if not events:
        return "trace has no events"
    for e in events:
        if e.get("ph") != "X" or not isinstance(e.get("ts"), (int, float)) or \
                not isinstance(e.get("dur"), (int, float)) or "name" not in e:
            return "malformed trace event %r" % (e,)
    return None


def record(result, workload, trace):
    try:
        with open(RESULTS) as f:
            merged = json.load(f)
    except (OSError, ValueError):
        merged = {}
    merged.setdefault("workloads", {}).setdefault(workload, {})[
        "traced" if trace else "untraced"] = result
    tmp = RESULTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
    os.replace(tmp, RESULTS)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    build()
    code, out = run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", OUT_DIR, "--git-rev", git_revision()],
        RUN_TIMEOUT_S,
        capture=True,
    )
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail("bench_wallclock exited %d without a result" % code)

    measured = result["metrics"]
    units = dict(declared) if args.trace else dict(declared, **UNGATED)
    extra = metric_problems(args.workload, args.trace, units, measured)
    result["metrics"] = {name: {"value": value, "unit": units.get(name, "?")}
                         for name, value in measured.items()}
    if args.trace:
        trace_path = os.path.join(OUT_DIR, "trace_%s.json" % args.workload)
        bad = check_trace_file(trace_path)
        if bad:
            extra.append(bad)
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    for p in extra:
        print("SELF-CHECK FAILED: " + p)
    correct = result["correct"] and not extra and code == 0
    result["correct"] = correct
    result["problems"] += extra
    record(result, args.workload, args.trace)

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured.get(name, 0), "unit": unit}
                    for name, unit in declared.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
