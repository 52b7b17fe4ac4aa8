#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the repository root; builds through run.py first. Checks that

  * BENCHMARK.json lists exactly the metrics the program prints, with the
    same units;
  * two traced runs of seed 7 give bit-identical simulated metrics (fleet
    counts and energy per task, plan energy and search nodes), equal to
    the values recorded below, and paper ratios within 1e-3 of theirs:
    EEWA's host-measured adjuster time enters the simulated timeline, so
    the ratios carry ~1e-4 of jitter;
  * both fleet workloads offer the same number of tasks for one seed;
  * seed 8 passes every output check on every workload;
  * run.py fails without printing a result where only BENCHMARK.json and
    perfbench/ exist.

A recorded value that no longer matches means the model changed, not
just its speed: re-record it only for a change meant to move it.
Exits 0 when every check passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

WORKLOADS = ["paper_suite", "fleet_spread", "fleet_pack", "plan_homog",
             "plan_typed", "runtime_storm"]
SECONDS = 1.0
SEED, OTHER_SEED = 7, 8

# Simulated metrics of seed 7, bit-exact; they do not depend on --seconds.
FLEET_SPREAD = {
    "energy_per_task_mj": 5.939361876595231, "sim.fleet.batches": 640,
    "sim.fleet.epochs": 10, "sim.fleet.parks": 0, "sim.fleet.wakes": 0,
    "sim.fleet.parked_machine_s": 0, "sim.fleet.wake_stall_s": 0,
    "sim.machine.steals": 536582, "sim.machine.probes": 7369777,
    "sim.machine.dvfs_transitions": 1482,
}
FLEET_PACK = {
    "energy_per_task_mj": 8.107553800584705, "sim.fleet.batches": 379,
    "sim.fleet.epochs": 10, "sim.fleet.parks": 35, "sim.fleet.wakes": 35,
    "sim.fleet.parked_machine_s": 1.7727089658039747,
    "sim.fleet.wake_stall_s": 0.32799999999999996,
    "sim.machine.steals": 26014, "sim.machine.probes": 88961,
    "sim.machine.dvfs_transitions": 3188,
}
EXACT = {
    "fleet_spread": FLEET_SPREAD,
    "fleet_pack": FLEET_PACK,
    "plan_homog": {"plan_energy_rel": 0.47726944623649986,
                   "core.search.nodes.homog": 18752.890625,
                   "core.search.aborted_frac.homog": 1},
    "plan_typed": {"plan_energy_rel": 0.3460045827227117,
                   "core.search.nodes.typed": 33560.84375,
                   "core.search.aborted_frac.typed": 1},
}
# Seed 7's paper ratios (Fig. 6), to within 1e-3.
CLOSE = {"paper_suite": {"energy_vs_cilk": 0.693788607169105,
                         "time_vs_cilk": 0.9259785242141569}}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def offered(stdout):
    m = re.search(r"offered (\d+) tasks per round", stdout)
    return int(m.group(1)) if m else None


def main():
    run("plan_homog", SEED, 0.1, 0)  # build once, up front
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    listed = subprocess.run([os.path.join(build_dir, "eewa_perfbench"),
                             "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    program = {(kind, name, unit) for kind, name, unit in
               (line.split() for line in listed if line)}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {("e2e", m["name"], m["unit"]) for m in bench["end_to_end"]}
    declared |= {("layer", m["name"], m["unit"]) for m in bench["per_layer"]}
    check(program == declared, "BENCHMARK.json matches --list-metrics")
    check([w["name"] for w in bench["workloads"]] == WORKLOADS,
          "BENCHMARK.json lists the six workloads")

    fleet_offered = {}
    for w in WORKLOADS:
        first, out1 = run(w, SEED, SECONDS, 1)
        second, _ = run(w, SEED, SECONDS, 1)
        for r in (first, second):
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  f"{w} seed {SEED}: output checks pass")
        v1, v2 = values(first), values(second)
        for name, want in EXACT.get(w, {}).items():
            check(v1[name] == v2[name] == want,
                  f"{w}: {name} is {want!r} in both runs ({v1[name]!r}, {v2[name]!r})")
        for name, want in CLOSE.get(w, {}).items():
            check(all(abs(v[name] - want) <= 1e-3 * want for v in (v1, v2)),
                  f"{w}: {name} is {want} within 1e-3 in both runs "
                  f"({v1[name]}, {v2[name]})")
        if w.startswith("fleet"):
            fleet_offered[w] = offered(out1)
        other, _ = run(w, OTHER_SEED, SECONDS, 0)
        check(other["correct"] and other["failed"] == 0,
              f"{w} seed {OTHER_SEED}: output checks pass")
        check(set(other["metrics"]) == {m["name"] for m in bench["end_to_end"]},
              f"{w}: untraced run prints every end-to-end metric")
        check(all(m["value"] > 0 for m in other["metrics"].values()),
              f"{w}: every end-to-end metric is positive")

    check(len(set(fleet_offered.values())) == 1 and None not in fleet_offered.values(),
          f"fleet workloads offer the same stream ({fleet_offered})")

    # Where only BENCHMARK.json and perfbench/ exist, the build must fail
    # and no result may be printed.
    bare = os.path.join(build_dir, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_homog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=300)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "run.py fails without a result outside a full checkout")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
