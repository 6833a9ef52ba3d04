#!/usr/bin/env python3
"""EvRec end-to-end benchmark driver (see perfbench/README.md).

    python3 perfbench/run.py --workload recommend --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first run builds perfbench/ (which
compiles the library sources under src/) into $CARGO_TARGET_DIR, default
.bench_build/, and trains the bench-profile representation model once into
a cache keyed by the built binary. Each run then executes one workload in
its own process and prints, as its last stdout line, one JSON object with
correct, attempted, failed and the metrics BENCHMARK.json lists (end-to-end
ones with --trace 0, per-layer ones with --trace 1), each with its unit.
The program's own log (stderr) goes to a file under the build directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def log_tail(path, lines=30):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def ensure_built():
    """Builds the benchmark (CMake skips what is up to date); returns the
    binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("EvRec sources (src/) not found next to perfbench/", 2)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", str(BUILD_JOBS), "--target",
         "evrec_perfbench", "perfbench_stats_test"],
    ]
    for step in steps:
        if run_logged(step, log) != 0:
            fail(f"build failed ({' '.join(step)}):\n{log_tail(log)}")
    return out


def ensure_model(out):
    """Trains the serving model once per built binary; returns its cache."""
    binary = os.path.join(out, "evrec_perfbench")
    with open(binary, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    cache = os.path.join(build_dir(), "model-cache", key)
    # The pipeline only reads and writes its cache when the directory
    # exists; without it every set-up would silently retrain.
    os.makedirs(cache, exist_ok=True)
    if any(n.startswith("evrec_repmodel_") and n.endswith(".bin")
           for n in os.listdir(cache)):
        return cache
    log = os.path.join(cache, "train.log")
    code = run_logged([binary, "--prepare-model", "--cache-dir", cache], log)
    if code != 0:
        fail(f"model training failed:\n{log_tail(log)}")
    return cache


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(out, cache, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, text lines, result dict)."""
    logs = os.path.join(build_dir(), "logs")
    os.makedirs(logs, exist_ok=True)
    cmd = [os.path.join(out, "evrec_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--cache-dir", cache]
    if smoke:
        cmd.append("--smoke")
    log = os.path.join(logs, f"{workload}-seed{seed}-trace{int(trace)}.log")
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish in {RUN_TIMEOUT_S}s (log: {log})")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("RESULT "):
        fail(f"{workload} exited {proc.returncode} without a result; "
             f"log {log}:\n{log_tail(log)}")
    raw = json.loads(lines[-1][len("RESULT "):])
    units = expected_metrics(trace)
    if set(raw["metrics"]) != set(units):
        fail(f"{workload} reported metrics {sorted(raw['metrics'])}, "
             f"BENCHMARK.json lists {sorted(units)}")
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    return proc.returncode, lines[:-1], result


def smoke(out, cache):
    """Stats unit tests, then every workload and check at a short length."""
    code = subprocess.run([os.path.join(out, "perfbench_stats_test")],
                          cwd=ROOT).returncode
    if code != 0:
        fail("perfbench_stats_test failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in workloads:
        for trace in (False, True):
            code, _, result = run_workload(out, cache, workload, 1, 1, trace,
                                           smoke=True)
            good = code == 0 and result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({result['attempted']} operations)")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the stats tests and every workload briefly")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    out = ensure_built()
    cache = ensure_model(out)
    if args.smoke:
        return smoke(out, cache)
    code, lines, result = run_workload(out, cache, args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
