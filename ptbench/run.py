#!/usr/bin/env python3
"""Build ptbench from source and run one workload.

Usage, from the repository root:
    python3 ptbench/run.py --workload ace_serial --seed 1 --seconds 8 --trace 0
    python3 ptbench/run.py --selftest

The build lands in $CARGO_TARGET_DIR (default .bench_build) and each run's
outputs (result.json with the run header; trace.json and steps.jsonl for
traced runs) in its runs/<workload>/ directory. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer metric
(--trace 1, after the printed layer table). attempted / failed count the
PT-IM steps gated, so failed / attempted is the failed-step fraction.

--selftest shows the correctness gate can fail: ace_serial runs against a
reference perturbed by 1e-3 (dipole check), with max_scf = 4 (convergence
check) and with max_scf = 1 (the solver throws) must all be refused.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import layers  # noqa: E402  (this script's directory is on sys.path)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the ptim sources are not beside this directory; run from a checkout")
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = os.path.join(base, "ptbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(base, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "ptbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return base, os.path.join(bdir, "ptbench")


def run_binary(exe, args):
    """Run ptbench; return its summary (last stdout line) or exit."""
    try:
        p = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ptbench exceeded {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        fail(f"ptbench exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("ptbench printed no summary")
    return json.loads(lines[-1])


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def selftest(exe, base):
    out = os.path.join(base, "runs", "selftest")
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", "ace_serial", "--seed", "1", "--seconds", "0",
              "--trace", "0", "--out", out,
              "--reference", os.path.join(HERE, "reference.txt")]
    ok = True
    for extra in (["--perturb-reference", "1e-3"], ["--max-scf", "4"],
                  ["--max-scf", "1"]):
        s = run_binary(exe, common + extra)
        refused = not s["correct"] and s["failed"] > 0
        print(f"selftest {' '.join(extra)}: correct={s['correct']} "
              f"failed={s['failed']}/{s['attempted']} -> "
              f"{'gate refused it (ok)' if refused else 'GATE PASSED IT'}")
        ok = ok and refused
    shutil.rmtree(out, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    base, exe = build()
    if a.selftest:
        return selftest(exe, base)
    if not a.workload:
        fail("--workload is required")

    out = os.path.join(base, "runs", a.workload)
    shutil.rmtree(out, ignore_errors=True)
    s = run_binary(exe, ["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace),
                         "--out", out,
                         "--reference", os.path.join(HERE, "reference.txt")])
    h = s["header"]
    print(f"# {a.workload} seed {a.seed}: nproc {h['nproc']}, {h['ranks']} ranks x "
          f"{h['omp_team']} OpenMP + {h['stream_workers']} stream workers, "
          f"isa {h['simd_isa']}, backend {h['backend']}, {h['compiler']}, "
          f"{h['build_type']}")
    print(f"# {s['reps']} reps; step_s_tail is p{s['tail_percentile']:.1f} of "
          f"{s['tail_samples']} untraced steps (10 beyond it)")

    if a.trace:
        spans, rows, other = layers.load(os.path.join(out, "trace.json"),
                                         os.path.join(out, "steps.jsonl"))
        table, values, nsteps = layers.analyse(spans, rows, other)
        print(layers.format_table(table, values, nsteps, other))
        declared = declared_metrics("per_layer")
    else:
        values = s["metrics"]
        declared = declared_metrics("end_to_end")
        for m in declared:
            print(f"{m['name']:<16} {values.get(m['name'], float('nan')):.6g} {m['unit']}")

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not produced")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": s["correct"], "attempted": s["attempted"],
              "failed": s["failed"], "metrics": metrics}
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(dict(result, header=h, seed=a.seed, trace=a.trace), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
