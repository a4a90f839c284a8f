#!/usr/bin/env python3
"""Builds and runs the dspcc benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py compare <results-dir-a> <results-dir-b>

Run from the root of a checkout. The benchmark package is built from
source into $CARGO_TARGET_DIR (default .bench_build). Each run prints the
binary's report, a stamp line (nproc, CPU model, rustc, commit, source
digest), and, as its last line, the JSON result. Results and span files go
to .bench_results/; the service's disk cache lives in .bench_work/ while a
run lasts.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["retarget_cold", "design_iteration", "service_mixed"]
RESULTS = os.path.join(ROOT, ".bench_results")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "dspcc-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in ("target",) and not x.startswith("."))
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def stamp():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
    }


def result_path(workload, seed, trace):
    return os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")


def run_one(binary, workload, seed, seconds, trace, st):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out-dir", RESULTS, "--work-dir", WORK,
    ]
    os.makedirs(RESULTS, exist_ok=True)
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        print(f"perfbench: {workload} printed nothing (exit {done.returncode})", file=sys.stderr)
        return done.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines))
        print(f"perfbench: {workload} printed no result (exit {done.returncode})", file=sys.stderr)
        return done.returncode or 1, None
    counts = next((json.loads(l[len("counts: "):]) for l in lines if l.startswith("counts: ")), {})
    for line in lines[:-1]:
        print(line)
    record = {"stamp": st, "workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "counts": counts, "result": result}
    # The traced and untraced runs of one seed must agree on every count.
    other = result_path(workload, seed, 1 - trace)
    if os.path.exists(other):
        with open(other) as f:
            prior = json.load(f)
        same_run = prior.get("stamp") == st and prior.get("seconds") == seconds
        if same_run and prior.get("counts") != counts:
            print(f"perfbench: exact-repeat counts differ from the trace={1 - trace} run "
                  f"of seed {seed}: {prior.get('counts')} vs {counts}", file=sys.stderr)
            result["correct"] = False
            done.returncode = done.returncode or 1
    with open(result_path(workload, seed, trace), "w") as f:
        json.dump(record, f, indent=1)
    return done.returncode, result


def compare(dir_a, dir_b):
    """Prints per-workload metric medians of two result directories and
    flags results whose stamps differ."""
    def load(d):
        out = []
        for name in sorted(os.listdir(d)):
            if name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    out.append(json.load(f))
        return out

    a, b = load(dir_a), load(dir_b)
    machine = {json.dumps({k: r["stamp"][k] for k in ("nproc", "cpu", "rustc")}, sort_keys=True)
               for r in a + b}
    if len(machine) > 1:
        print("WARNING: results come from different machines or toolchains; "
              "their timings are not comparable:")
        for s in sorted(machine):
            print(f"  {s}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            rows = {}
            for side, runs in (("a", a), ("b", b)):
                for r in runs:
                    if r["workload"] == workload and r["trace"] == trace:
                        for k, v in r["result"]["metrics"].items():
                            rows.setdefault(k, {}).setdefault(side, []).append(v["value"])
            if not rows:
                continue
            print(f"{workload} (trace {trace}):")
            for k, sides in rows.items():
                ma = statistics.median(sides["a"]) if sides.get("a") else float("nan")
                mb = statistics.median(sides["b"]) if sides.get("b") else float("nan")
                change = (mb / ma - 1) * 100 if ma else float("nan")
                print(f"  {k:28} a {ma:14.6g}  b {mb:14.6g}  {change:+7.2f}%")
    return 0 if len(machine) <= 1 else 3


def parse(argv):
    opts = {"workload": None, "seed": None, "seconds": None, "trace": "0"}
    it = iter(argv)
    for flag in it:
        key = flag.lstrip("-")
        if key not in opts:
            raise SystemExit(f"perfbench: unknown flag {flag}")
        try:
            opts[key] = next(it)
        except StopIteration:
            raise SystemExit(f"perfbench: {flag} needs a value")
    return opts


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare <results-dir-a> <results-dir-b>")
        return compare(argv[1], argv[2])
    opts = parse(argv)
    cfg = load_json(os.path.join(HERE, "config.json"))
    workload = opts["workload"]
    if workload not in WORKLOADS + ["all"]:
        raise SystemExit(f"perfbench: --workload must be one of {WORKLOADS + ['all']}")
    seed = int(opts["seed"] if opts["seed"] is not None else cfg["default_seed"])
    if opts["seconds"] is not None:
        seconds = opts["seconds"]
    else:
        seconds = str(load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"])
    trace = int(opts["trace"])
    binary = build()
    if binary is None:
        return 1
    st = stamp()
    print("stamp: " + json.dumps(st, sort_keys=True))
    if workload != "all":
        code, result = run_one(binary, workload, seed, seconds, trace, st)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # Every workload, one process each; the last line sums them up with
    # the metrics named <workload>.<metric>.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        print(f"=== {w} ===")
        code, result = run_one(binary, w, seed, seconds, trace, st)
        worst = worst or code
        if result is None:
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{w}.{k}"] = v
    share = total["failed"] / max(total["attempted"], 1)
    print(f"failed share over all workloads: {total['failed']} of {total['attempted']} ({share:.6f})")
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
