#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles the
simulator from src/) into $CARGO_TARGET_DIR or .bench_build and runs
one workload. The binary's measured values become the result line,
with the metric names and units of BENCHMARK.json for the mode. The
run's determinism fingerprint is checked against earlier runs of the
same binary at the same seed. The result is the last line of standard
output. Exits non-zero when the build fails, a check fails, or the
result is malformed.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                os.remove(cache)
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "flashbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, env=env)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "flashbench")


def to_result(raw, trace):
    """Turn the binary's values into the result line.

    BENCHMARK.json names the metrics of each mode and their units.
    Every end-to-end metric must have been measured. A per-layer
    metric the workload did not produce belongs to a layer it bypasses
    and reads 0. Returns (result, problems).
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = raw["values"]
    problems = ["%s is not a metric in BENCHMARK.json" % n
                for n in sorted(set(values) - known)]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in values:
            value = values[m["name"]]
        elif trace:
            value = 0
        else:
            problems.append("%s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": raw["correct"] and not problems,
              "attempted": raw["attempted"],
              "failed": raw["failed"] + len(problems),
              "metrics": metrics}
    return result, problems


def check_fingerprint(build_dir, binary, workload, seed, output):
    """Simulated statistics at a seed must repeat across processes."""
    found = re.findall(r"^fingerprint \S+ seed \d+: ([0-9a-f]{16})$", output,
                       re.M)
    if len(found) != 1:
        return "expected one fingerprint line, found %d" % len(found)
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(build_dir, "fingerprints.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    key = "%s:%s:%d" % (digest, workload, seed)
    if key in seen and seen[key] != found[0]:
        return ("fingerprint %s differs from %s recorded by an earlier run "
                "of the same binary" % (found[0], seen[key]))
    seen[key] = found[0]
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, RuntimeError) as e:
        log("perfbench: %s" % e)
        return 2

    out_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (args.workload,
                                                    RUN_TIMEOUT_S))
        return 3
    lines = res.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
        result, problems = to_result(raw, args.trace)
    except (ValueError, KeyError, TypeError):
        log("perfbench: no result line (exit code %d)" % res.returncode)
        return res.returncode or 1

    fp_problem = check_fingerprint(build_dir, binary, args.workload,
                                   args.seed, res.stdout)
    if fp_problem:
        problems.append(fp_problem)
        result["correct"] = False
        result["failed"] += 1
    for p in problems:
        log("perfbench: " + p)
    print(json.dumps(result), flush=True)
    if problems:
        return 1
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
