"""One workload in one single-threaded process; prints one JSON object.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --phase setup|run --workdir DIR

The setup phase imports gausscorr, builds and warms the inputs and reports
how long that took.  The run phase does the same, then repeats rounds of
the same operations until another round would end more than half a round
after S seconds.  Times
are rescaled to the reference speed of :mod:`speed`, and each operation and
item is taken at its fastest over the untraced rounds.  With --trace 1 rounds
alternate untraced and traced (at least one of each); per-layer figures come
from the traced rounds and the spans are written to the work directory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

# Per-layer metrics: name -> unit.  Counts and seconds are per traced round.
LEAF_LAYERS = ("correlations.discord_oracle", "correlations.discord", "core.ppt_min_eig",
               "correlations.geof", "scenarios.correlation_flow",
               "scenarios.attenuation_sweep", "scenarios.run_recovery", "sampling.sample",
               "sampling.estimate_cm", "optimality.certify")
CLI_COMMANDS = ("discord", "sweep", "recover", "certify", "simulate")
PER_LAYER = {}
for _layer in LEAF_LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.busy_s": "s",
                      f"{_layer}.p50_ms": "ms"})
PER_LAYER.update({"sampling.error_monte_carlo.calls": "count",
                  "sampling.error_monte_carlo.busy_s": "s",
                  "sampling.error_monte_carlo.self_s": "s"})
PER_LAYER.update({f"cli.{c}.busy_s": "s" for c in CLI_COMMANDS})
FIGURES = {"correlations.discord.clamped": "count", "correlations.geof.unconverged": "count",
           "correlations.oracle_gap_max": "nats", "correlations.geof_ref_gap_max": "nats",
           "scenarios.flow_residual_max": "nats", "sampling.csv_bytes": "bytes"}
PER_LAYER.update(FIGURES)
PER_LAYER.update({"bench.round.self_s": "s", "trace.overhead_s": "s"})
MAX_FIGURES = {k for k in FIGURES if k.endswith("_max")}


def fastest(rounds, sampler):
    """(sum over operations of each one's fastest time, fastest time of each item).

    Every operation and the items inside it are rescaled by the host speed
    the sampler measured while the operation ran.
    """
    ops, items = {}, []
    for r in rounds:
        item_s = []
        for name, start, end, item_raw in r.ops:
            factor = sampler.factor(start, end)
            ops[name] = min(ops.get(name, float("inf")), (end - start) * factor)
            item_s += [x * factor for x in item_raw]
        items.append(item_s)
    return sum(ops.values()), [min(ts) for ts in zip(*items)]


def layer_metrics(tracer, traced, untraced, figures, sampler):
    """Per-layer figures; span times are rescaled by the traced rounds' host speed."""
    stats = tracer.layer_stats(len(traced))
    scale = statistics.median(sampler.factor(r.ops[0][1], r.ops[-1][2]) for r in traced)
    out = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name in FIGURES:
            value = figures.get(name, 0)
        elif name == "trace.overhead_s":
            value = fastest(traced, sampler)[0] - fastest(untraced, sampler)[0]
        else:
            calls, busy, own, p50 = stats.get(layer, (0, 0.0, 0.0, 0.0))
            value = {"calls": calls, "busy_s": busy * scale, "self_s": own * scale,
                     "p50_ms": p50 * scale}[stat]
        out[name] = {"value": value, "unit": PER_LAYER[name]}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    # one core for the workload and the speed sampler, so the sampler times
    # the core the workload runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    start = perf_counter()
    import gausscorr  # noqa: F401  (package import is part of set-up time)
    import numpy
    import scipy

    import speed
    from spans import Tracer
    from workloads import Round, WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm()
    setup_s = perf_counter() - start
    kernel = statistics.median(speed.kernel_seconds() for _ in range(3))
    setup_s *= speed.REFERENCE_S / kernel
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    rounds = []                      # (traced, wall seconds, Round)
    with speed.Sampler() as sampler:
        begin = perf_counter()
        while True:
            tracer.recording = bool(args.trace) and len(rounds) % 2 == 1
            r = Round(tracer)
            t0 = perf_counter()
            tracer.call("bench.round", workload.round, tracer, r)
            rounds.append((tracer.recording, perf_counter() - t0, r))
            tracer.recording = False
            elapsed = perf_counter() - begin
            if len(rounds) > args.trace and elapsed + rounds[-1][1] / 2 > args.seconds:
                break

    untraced = [r for traced, _, r in rounds if not traced]
    traced = [r for t, _, r in rounds if t]
    run_s, items = fastest(untraced, sampler)
    figures = {}
    for _, _, r in rounds:
        for key, value in r.figures.items():
            figures[key] = max(figures.get(key, 0), value) if key in MAX_FIGURES else value
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "items_per_s": len(items) / run_s,
        "item_p50_ms": 1e3 * float(numpy.percentile(items, 50)),
        "item_p90_ms": 1e3 * float(numpy.percentile(items, 90)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(rounds),
        "round_s": [s for _, s, _ in rounds],
        "kernel_ms": [1e3 * speed.REFERENCE_S / sampler.factor(r.ops[0][1], r.ops[-1][2])
                      for _, _, r in rounds],
        "items_per_round": len(items),
        "attempted": sum(r.attempted for _, _, r in rounds),
        "failed": sum(r.failed for _, _, r in rounds),
        "correct": all(r.correct for _, _, r in rounds),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        result["per_layer"] = layer_metrics(tracer, traced, untraced, figures, sampler)
        spans_path = os.path.join(args.workdir, "spans.json")
        tracer.write(spans_path)
        result["spans"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
