"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Runs one workload (``train``, ``serve_open``, ``stream_socket`` or
``stream_replay``) against the package in ``src/`` through its public
API, checks the workload's outputs and that the run left no process,
thread or socket behind, prints a run record, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, measured
with nothing wrapped; ``--trace 1`` reports the per-layer metrics from
a separate traced run.  See ``perfbench/README.md`` for every metric,
its unit and the layer it belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
from time import perf_counter, process_time

import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("train", "serve_open", "stream_socket", "stream_replay")
#: Set-up runs this many times before the measurement (the last one is
#: measured) and this many times after it; ``setup_s`` is the median.
#: Splitting the repeats around the measurement samples the host at
#: times tens of seconds apart, so one slow spell moves fewer of them.
SETUP_BEFORE = 3
SETUP_AFTER = 2
#: Per-thread self times must add up to the traced root span within
#: this share of its duration.
BALANCE_TOLERANCE = 0.01

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cpu_ms_per_op", "ms"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
)


def _serve_rung_metrics():
    import workload_serve_open

    names = []
    for rung in workload_serve_open.RUNGS:
        for metric, unit in (("queue_wait_p50_ms", "ms"),
                             ("batch_size_mean", "count"),
                             ("forward_ms_per_batch", "ms"),
                             ("forward_busy_share", "ratio"),
                             ("backlog_max", "count")):
            names.append((f"serve.{rung[0]}.{metric}", unit))
    return names


PER_LAYER = (
    ("core.stems_ms", "ms"),
    ("core.exclusive_ms", "ms"),
    ("core.interactive_ms", "ms"),
    ("core.pull_ms", "ms"),
    ("core.push_ms", "ms"),
    ("core.spatial_ms", "ms"),
    ("core.loss_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.ops_per_step", "count"),
    ("tensor.alloc_mib_per_step", "MiB"),
    ("optim.clip_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("training.step_other_ms", "ms"),
    ("training.validate_ms", "ms"),
    *_serve_rung_metrics(),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.max_qps_under_slo", "1/s"),
    ("pool.overhead_ms_per_batch", "ms"),
    ("results.hit_ratio", "ratio"),
    ("results.forwards_per_tick", "count"),
    ("cache.push_ms", "ms"),
    ("cache.sample_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("frontend.overhead_ms", "ms"),
    ("frontend.errors", "count"),
    ("frontend.rejected_busy", "count"),
    ("ingest.offer_ms", "ms"),
    ("ingest.quarantined", "count"),
    ("ingest.reordered", "count"),
    ("ingest.gaps", "count"),
    ("stream.forecast_ms", "ms"),
    ("stream.fallback_share", "ratio"),
    ("drift.observe_ms", "ms"),
    ("adapt.fit_s", "s"),
    ("adapt.swap_ms", "ms"),
    ("adapt.retrains", "count"),
    ("adapt.recovery_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
    ("trace.balance_error_pct", "%"),
)


def _workload(name):
    import importlib

    return importlib.import_module(f"workload_{name}")


def _setup(module, name, seed):
    if name == "stream_replay":
        workdir = os.path.join(WORKDIR, f"work-{os.getpid()}")
        return module.setup(seed, workdir)
    return module.setup(seed)


def end_to_end_metrics(outcome, setup_times):
    latency = harness.latency_summary(outcome["latencies"])
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": harness.peak_rss_mib(),
        "cpu_ms_per_op": outcome["cpu_ms_per_op"],
        "throughput_ops_s": outcome["throughput"],
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
    }
    return values, latency


def per_layer_metrics(outcome):
    layers = dict(outcome["layers"])
    root, index = outcome["root"], outcome["index"]
    duration, total = index.tree_balance(root)
    layers["trace.overhead_pct"] = outcome["overhead"][0] * 100.0
    layers["trace.unattributed_share"] = root.self_s / duration
    layers["trace.balance_error_pct"] = abs(total - duration) / duration * 100
    unknown = set(layers) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: layers.get(name, 0.0) for name, _ in PER_LAYER}, {
        "root_span": root.name, "root_s": duration, "self_sum_s": total,
        "tolerance_pct": BALANCE_TOLERANCE * 100,
        "overhead_basis": outcome["overhead"][1],
        "spans": len(index.spans)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro  # the package under test
    except ImportError as error:
        print(f"error: cannot import the package under test from "
              f"{source}: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2
    from repro.parallel import limit_blas_threads

    # One BLAS thread per process, as the replica pool gives each
    # replica: on two cores a second BLAS thread doubled CPU per
    # training step at unchanged throughput, and its spinning competes
    # with the replica process and the load generator.
    blas = limit_blas_threads(1)

    wall0, cpu0 = perf_counter(), process_time()
    threads_before = set(threading.enumerate())
    module = _workload(args.workload)
    # Import the package's subsystems once, timed on its own, so every
    # set-up repeat measures the same work.
    import repro.experiments.common  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.stream.simulate  # noqa: F401
    import_s = perf_counter() - wall0
    setup_times = []

    def set_up():
        started = perf_counter()
        state = _setup(module, args.workload, args.seed)
        setup_times.append(perf_counter() - started)
        return state

    for _ in range(SETUP_BEFORE - 1):
        set_up().close()
    state = set_up()
    tracer = harness.Tracer() if args.trace else None
    try:
        if tracer is None:
            outcome = module.measure(state, args.seconds)
        else:
            outcome = module.measure_traced(state, args.seconds, tracer)
    finally:
        state.close()
    addresses = list(state.addresses)
    for _ in range(SETUP_AFTER):
        extra = set_up()
        addresses.extend(extra.addresses)
        extra.close()
    problems = harness.teardown_problems(threads_before, addresses)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": dict(harness.host_fingerprint(ROOT), blas_thread_cap=1,
                     blas_cap_via=blas),
        "import_s": import_s,
        "setup_s": setup_times,
        "checks": outcome["checks"],
        "phases": outcome["phases"],
        "problems": problems,
    }
    if tracer is None:
        metrics, latency = end_to_end_metrics(outcome, setup_times)
        units = dict(END_TO_END)
        record["latency"] = latency
        record["measured_wall_s"] = outcome["wall_s"]
        record["measured_cpu_s"] = outcome["cpu_s"]
        record["measured_child_cpu_s"] = outcome["child_cpu_s"]
        record["quiet"] = outcome.get("quiet")
        record["extra_end_to_end"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["extra"].items()}
    else:
        metrics, balance = per_layer_metrics(outcome)
        units = dict(PER_LAYER)
        record["trace"] = balance
        if (abs(balance["self_sum_s"] - balance["root_s"])
                > BALANCE_TOLERANCE * balance["root_s"]):
            problems.append("per-layer self times do not add up to the "
                            "traced root span")
        tracer.dump(os.path.join(
            WORKDIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    record["run_wall_s"] = perf_counter() - wall0
    record["run_cpu_s"] = process_time() - cpu0

    failed = int(outcome["failed"])
    correct = outcome["wrong"] == 0 and not problems
    print("run record: " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["ops"]),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
