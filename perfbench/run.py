#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload pooled-edge --seed 1 --seconds 30 --trace 0

Builds the bswp library and the perfbench binary from this checkout (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, and prints a host fingerprint line followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
are BENCHMARK.json's end_to_end list (--trace 0) or its per_layer list
(--trace 1). A per-layer metric of a layer the workload never exercises
reads 0.

Exit code 0 with a result line, or non-zero with a message on stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        subprocess.run(cfg, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def check_exact(store, exe, exact):
    """Counts that are exact by design must repeat between runs of the same
    build: the first run records them, every later run compares."""
    st = os.stat(exe)
    build_id = f"{st.st_size}-{st.st_mtime_ns}"
    seen = {}
    if os.path.isfile(store):
        with open(store) as f:
            saved = json.load(f)
        if saved.get("build") == build_id:
            seen = saved["values"]
    bad = [k for k, v in exact.items() if k in seen and seen[k] != v]
    for k in bad:
        print(f"perfbench: exact count {k} changed between runs: {seen[k]} -> {exact[k]}",
              file=sys.stderr)
    seen.update({k: v for k, v in exact.items() if k not in seen})
    with open(store, "w") as f:
        json.dump({"build": build_id, "values": seen}, f)
    return not bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no bswp source tree at {ROOT} (run from a checkout of the repository)")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    # Compiler and run temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    exe = build(build_dir, env)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((l[len("fingerprint "):] for l in lines if l.startswith("fingerprint ")),
                       "{}")
    exact = next((l[len("exact "):] for l in lines if l.startswith("exact ")), "{}")
    result = json.loads(lines[-1])
    exact = {k: v["value"] for k, v in json.loads(exact).items()}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": m["unit"]}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            die(f"end-to-end metric {name} was not measured")
    listed = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unlisted = sorted(set(measured) - listed)
    if args.trace and unlisted:
        print(f"perfbench: measured but not in BENCHMARK.json: {', '.join(unlisted)}",
              file=sys.stderr)

    store = os.path.join(build_dir, f"exact-{args.workload}-trace{args.trace}.json")
    correct = bool(result["correct"]) and check_exact(store, exe, exact)
    out = {"correct": correct, "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": metrics}
    print(f"fingerprint {fingerprint}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
