#!/usr/bin/env python3
"""Build and run the pimserve benchmark.

    python3 perfbench/run.py --workload point-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Builds the Go program in perfbench/ against the checkout it sits in,
keeping every Go cache and temporary file under .bench_build/, and runs
it from the checkout root. The last line of standard output is the JSON
result. --workload all runs every workload untraced and traced and ends
with one JSON line holding all their metrics, prefixed by workload.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["point-hot", "mixed-cold", "write-durable"]
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": os.path.join("gopath", "pkg", "mod"),
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": os.path.join("home", ".config"),
        "XDG_CACHE_HOME": os.path.join("home", ".cache"),
    }
    for key, sub in dirs.items():
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOENV="off",
               GOWORK="off", CGO_ENABLED="0")
    return env


def build(env):
    binary = os.path.join(BUILD, "perfbench")
    subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(ROOT, "perfbench"),
                   env=env, stdout=sys.stderr, check=True)
    return binary


def run(binary, env, workload, seed, seconds, trace, capture):
    cmd = [binary, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-workdir", os.path.join(BUILD, "work")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def run_all(binary, env, args):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, env, workload, args.seed, args.seconds, trace, True)
            lines = out.strip().splitlines() if out else []
            print(f"== {workload} trace={trace}")
            for line in lines[:-1]:
                print(line)
            if code != 0 or not lines:
                status = 1
                total["correct"] = False
                continue
            res = json.loads(lines[-1])
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    env = go_env()
    try:
        binary = build(env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(binary, env, args)
    code, _ = run(binary, env, args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
