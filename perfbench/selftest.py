#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps the benchmark contract, that
perfbench/metrics.json maps its per-layer metrics, and that the generated
inputs have the same size for every seed; then runs every workload at tiny size, untraced
and traced, and checks that each run passes its correctness gate with
no failures and emits exactly the metric names of BENCHMARK.json, each
with its unit. Finally checks that the benchmark refuses to run, with a
non-zero exit and no result, from a directory holding only
BENCHMARK.json and perfbench/. Exits non-zero on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok, what):
    print(f"selftest {what}: {'ok' if ok else 'FAIL'}", flush=True)
    if not ok:
        sys.exit(1)


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def check_contract(bench, names):
    check(sorted(bench) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]),
        "BENCHMARK.json keys")
    check(2 <= len(bench["workloads"]) <= 8
          and all(sorted(w) == ["name", "why"] and len(w["why"]) <= 200
                  and "\n" not in w["why"] for w in bench["workloads"]),
          "workloads")
    check(all(sorted(m) == ["better", "bound", "name", "unit"]
              and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "end_to_end entries")
    check(all(sorted(m) == ["better", "name", "unit"] for m in bench["per_layer"]),
          "per_layer entries")
    check({"name": "setup_s", "unit": "s", "better": "lower"}.items()
          <= next(m for m in bench["end_to_end"] if m["name"] == "setup_s").items(),
          "setup_s metric")
    all_names = names + [w["name"] for w in bench["workloads"]]
    check(all(NAME.match(n) for n in all_names) and len(set(all_names)) == len(all_names),
          "names well formed and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
              for m in bench["end_to_end"] + bench["per_layer"]),
          "units and directions")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds")


def check_name_map(bench, names_map):
    per_layer = [m["name"] for m in bench["per_layer"]]
    check(sorted(names_map["moves"]) == sorted(per_layer),
          "metrics.json maps exactly the per-layer metrics of BENCHMARK.json")
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    check(all(w in workloads and e in e2e
              for moves in names_map["moves"].values() for w, e in moves),
          "per-layer metrics name known workloads and end-to-end metrics")
    check(isinstance(names_map["held_out_seed"], int), "held-out seed")


def check_inputs():
    """Runs the executable the tiny runs built, as perfbench/run.py does."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    p = subprocess.run([exe, "--check-inputs"],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(p.returncode == 0 and p.stdout.strip().endswith("inputs ok"),
          "inputs of 200 seeds have a seed-independent size")


def run_bench(cwd, workload, trace):
    cmd = bench_cmd + ["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(bench, workload, trace):
    p = run_bench(ROOT, workload, trace)
    tag = f"{workload} trace={trace}"
    if p.returncode != 0:
        print(p.stdout[-2000:], p.stderr[-2000:], sep="\n")
    check(p.returncode == 0, f"{tag} exits 0")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag} result keys")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
          f"{tag} correct, failed_ratio = 0/{res['attempted']}")
    want = bench["per_layer" if trace else "end_to_end"]
    check(sorted(res["metrics"]) == sorted(m["name"] for m in want),
          f"{tag} emits every {'per_layer' if trace else 'end_to_end'} name")
    check(all(res["metrics"][m["name"]]["unit"] == m["unit"]
              and isinstance(res["metrics"][m["name"]]["value"], (int, float))
              for m in want),
          f"{tag} values and units")
    if not trace:
        check(all(res["metrics"][m["name"]]["value"] > 0 for m in want),
              f"{tag} end-to-end values are non-zero")


def check_bare_directory(bench):
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        p = run_bench(bare, bench["workloads"][0]["name"], 0)
        last = (p.stdout.strip().splitlines() or [""])[-1]
        check(p.returncode != 0 and not last.startswith("{"),
              "refuses to run outside a checkout")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    bench = load("BENCHMARK.json")
    bench_cmd = list(bench["command"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check_contract(bench, names)
    check_name_map(bench, load("perfbench/metrics.json"))
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_inputs()
    check_bare_directory(bench)
    print("selftest: all ok")
