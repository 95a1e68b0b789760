"""gausscorr benchmark: one workload, checked, timed, printed as one JSON line.

    python3 perfbench/run.py --workload oracle_audit|geof_flow|measured_pipeline \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in single-threaded worker
processes (BLAS pinned to one thread, GAUSSCORR_THREADS unset), one after
another: three set-up probes, then the measured run.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.  The
line before it is the run record.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("oracle_audit", "geof_flow", "measured_pipeline")
END_TO_END = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mib": "MiB"}
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(Exception):
    pass


def run_worker(args, phase, workdir, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--phase", phase, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{phase} worker passed the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{phase} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gausscorr", "__init__.py")):
        sys.stderr.write(f"benchmark: no gausscorr package under {SRC}\n")
        return 2

    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "GAUSSCORR_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    deadline = start + DEADLINE_S
    try:
        setups = [run_worker(args, "setup", workdir, env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_worker(args, "run", workdir, env, deadline)
    except WorkerFailed as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 1
    setups.append(res["setup_s"])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), **res["versions"],
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "GAUSSCORR_THREADS": env.get("GAUSSCORR_THREADS"),
        "setup_s_samples": setups, "rounds": res["rounds"], "round_s": res["round_s"],
        "kernel_ms": res["kernel_ms"],
        "items_per_round": res["items_per_round"],
        "attempted": res["attempted"], "failed": res["failed"], "correct": res["correct"],
        "spans": res.get("spans"),
    }
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"run_record": record}))

    if args.trace:
        metrics = res["per_layer"]
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
