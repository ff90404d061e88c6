#!/usr/bin/env python3
"""Build and run the benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  The first call builds
perfbench/main.exe with dune (the dune cache is disabled, so nothing is
written outside the checkout); later calls reuse the build.  The last
line of standard output is the result object printed by main.exe.

--smoke runs every workload at a tiny horizon, traced and untraced, and
asserts that every metric named in BENCHMARK.json is emitted with its
unit and that the traced run's span self times sum to its wall clock.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join(ROOT, ".perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def environment():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT_DIR
    env["PERFBENCH_NPROC"] = str(os.cpu_count() or "unknown")
    env["PERFBENCH_COMMIT"] = commit()
    return env


def commit():
    # Only a checkout that is itself a git work tree has a commit; never
    # let git search the parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run from the root of a source checkout" % needed)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune is not installed", 3)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("build failed", 3)


def run(args, env, capture=False):
    try:
        return subprocess.run(
            [EXE] + args,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(args), 4)


def smoke(env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--smoke"]
            done = run(args, env, capture=True)
            if done.returncode != 0:
                problems.append("%s trace %s exited %d" % (workload, trace, done.returncode))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (workload, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s has unit %r, not %r"
                                    % (workload, m["name"], got.get("unit"), m["unit"]))
            if trace == "1":
                coverage = metrics["trace.self_time_coverage"]["value"]
                if abs(coverage - 1.0) > 0.01:
                    problems.append("%s: span self times cover %.4f of the wall clock"
                                    % (workload, coverage))
            print("%s trace %s: correct=%s attempted=%d failed=%d"
                  % (workload, trace, result["correct"], result["attempted"],
                     result["failed"]))
    for p in problems:
        print("SMOKE FAILURE: " + p)
    sys.exit(1 if problems else 0)


def main():
    env = environment()
    build(env)
    if sys.argv[1:] == ["--smoke"]:
        smoke(env)
    done = run(sys.argv[1:], env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
