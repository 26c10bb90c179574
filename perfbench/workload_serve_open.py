"""``serve_open``: open-loop single-window requests at a ladder of rates.

One generator thread submits single-window requests, drawn by seed
from the test split, through ``ForecastServer.submit`` on a seeded
arrival schedule.  The server uses the default ``ServeConfig`` except
``replicas=1``, which puts the forward on the second core and keeps
the generator on time.  Each request is timed from when it was *due*,
so a stall also charges the requests queued behind it.

The ladder climbs from lone requests (evenly spaced, so the coalescing
window always waits alone) through Poisson rates below capacity to one
rate above saturation.  Here the batcher, queue and replica pool work;
the result cache, wire and stream layers are idle.
"""

from __future__ import annotations

import threading
from time import perf_counter, sleep

import numpy as np

import harness

#: (name, offered requests/s, share of --seconds, arrival process).
#: "lone" is evenly spaced; the others are Poisson.  The last rung is
#: above this host's measured capacity (about 400 requests/s).
RUNGS = (
    ("lone", 40.0, 0.30, "even"),
    ("q100", 100.0, 0.15, "poisson"),
    ("q200", 200.0, 0.15, "poisson"),
    ("q300", 300.0, 0.15, "poisson"),
    ("q800", 800.0, 0.12, "poisson"),
)
#: Tail-latency limit for ``max_qps_under_slo``.
SLO_MS = 100.0
WARMUP_REQUESTS = 20


def schedule(seed, seconds):
    """Seeded arrival plan: list of (rung index, due offset s, sample).

    Each rung gets ``round(rate * duration)`` arrivals inside its own
    window: evenly spaced, or uniform order statistics (a Poisson
    process conditioned on its count).  The plan depends only on
    ``seed`` and ``seconds``; the program under test sees nothing but
    the requests it produces.
    """
    rng = np.random.default_rng(seed)
    plan = []
    offset = 0.0
    for rung, (_name, rate, share, process) in enumerate(RUNGS):
        duration = share * seconds
        count = int(round(rate * duration))
        if process == "even":
            due = (np.arange(count) + 0.5) / rate
        else:
            due = np.sort(rng.uniform(0.0, duration, count))
        plan.extend((rung, offset + float(t)) for t in due)
        offset += duration
    samples = rng.integers(0, 1 << 30, len(plan))
    return [(rung, due, int(sample))
            for (rung, due), sample in zip(plan, samples)]


class Setup:
    def __init__(self, seed):
        from repro.core import MUSENet
        from repro.experiments.common import get_profile, muse_config, prepare
        from repro.serve import ForecastServer, ServeConfig

        profile = get_profile("paper")
        self.data = prepare("nyc-bike", profile, seed=seed)
        self.model = MUSENet(muse_config(self.data, profile, seed=seed))
        self.seed = seed
        self.server = ForecastServer(
            self.model, ServeConfig(replicas=1),
            template=self.data.test.slice(0, 1)).start()
        self.addresses = ()

    def close(self):
        self.server.close()
        harness.stop_resource_tracker()


def setup(seed):
    return Setup(seed)


class _Generator:
    """Submits the plan on time and records due-to-done latencies."""

    def __init__(self, server, test, plan):
        self.server = server
        self.test = test
        self.plan = plan
        self.latency = [None] * len(plan)
        self.failed = [False] * len(plan)
        self.late = [0.0] * len(plan)
        self.backlog = [0] * len(plan)
        self.futures = [None] * len(plan)
        self.completed = 0
        self._lock = threading.Lock()
        self.rows = [None] * len(plan)

    def _done(self, slot, due):
        def callback(future):
            finished = perf_counter()
            with self._lock:
                self.completed += 1
            if future.exception() is not None:
                self.failed[slot] = True
            else:
                self.rows[slot] = future.result()
            self.latency[slot] = finished - due
        return callback

    def run(self, tracer=None):
        test = self.test
        base = perf_counter() + 0.05
        for slot, (_rung, offset, sample) in enumerate(self.plan):
            due = base + offset
            wait = due - perf_counter()
            if wait > 0:
                if tracer is None:
                    sleep(wait)
                else:
                    with tracer.span("loadgen.sleep"):
                        sleep(wait)
            submitted = perf_counter()
            self.late[slot] = max(0.0, submitted - due)
            with self._lock:
                self.backlog[slot] = slot - self.completed
            row = sample % len(test)
            try:
                future = self.server.submit(test.slice(row, row + 1))
            except RuntimeError:
                self.failed[slot] = True
                self.latency[slot] = 0.0
                continue
            self.futures[slot] = future
            future.add_done_callback(self._done(slot, due))
        self.base = base

    def wait(self, timeout):
        deadline = perf_counter() + timeout
        for slot, future in enumerate(self.futures):
            if future is None:
                continue
            try:
                future.result(timeout=max(0.0, deadline - perf_counter()))
            except Exception:
                self.failed[slot] = True
        # Done callbacks run on the batcher thread just after the
        # result is set; give the last one a moment to record.
        while (any(f is not None and self.latency[i] is None
                   for i, f in enumerate(self.futures))
               and perf_counter() < deadline):
            sleep(0.001)


def _rungs(gen, plan):
    """Per-rung latency, throughput and backlog from the generator."""
    rungs = []
    for index, (name, rate, _share, _process) in enumerate(RUNGS):
        slots = [i for i, entry in enumerate(plan) if entry[0] == index]
        ok = [i for i in slots if not gen.failed[i]]
        latencies = [gen.latency[i] for i in ok]
        summary = harness.latency_summary(latencies)
        first_due = gen.base + plan[slots[0]][1]
        last_done = max(gen.base + plan[i][1] + gen.latency[i] for i in ok)
        failed = len(slots) - len(ok)
        rungs.append({
            "name": name, "rate": rate, "sent": len(slots),
            "succeeded": len(ok), "failed": failed,
            "p50_ms": summary["p50_ms"], "tail_ms": summary["tail_ms"],
            "tail_pct": summary["tail_pct"],
            "completed_per_s": len(ok) / (last_done - first_due),
            "growing": harness.backlog_growing(
                [gen.backlog[i] for i in slots]),
            "backlog_max": max(gen.backlog[i] for i in slots),
            "window": (first_due, last_done),
        })
    return rungs


def _offline_check(state, gen, plan):
    """Served rows equal the offline predict within float tolerance."""
    from repro.training import TrainConfig, Trainer

    test = state.data.test
    offline = Trainer(state.model, TrainConfig(epochs=0)).predict_scaled(test)
    atol = 1e-6 if offline.dtype == np.float32 else 1e-12
    mismatched = 0
    worst = 0.0
    for slot, (_rung, _due, sample) in enumerate(plan):
        if gen.failed[slot]:
            continue
        diff = float(np.abs(gen.rows[slot][0] - offline[sample % len(test)])
                     .max())
        worst = max(worst, diff)
        if diff > atol:
            mismatched += 1
    return mismatched, {"rows": len(plan), "max_abs_diff": worst,
                        "atol": atol, "mismatched": mismatched}


def _warm_up(state):
    test = state.data.test
    for i in range(WARMUP_REQUESTS):
        state.server.forecast(test.slice(i % len(test), i % len(test) + 1))


def _run_plan(state, plan, tracer=None):
    gen = _Generator(state.server, state.data.test, plan)
    gen.run(tracer)
    gen.wait(timeout=60.0)
    return gen


def _phases(rungs):
    return {rung["name"]: {key: rung[key] for key in
                           ("rate", "sent", "succeeded", "failed", "p50_ms",
                            "tail_ms", "tail_pct", "completed_per_s",
                            "growing", "backlog_max")}
            for rung in rungs}


def measure(state, seconds):
    """Untraced run: end-to-end metrics."""
    _warm_up(state)
    plan = schedule(state.seed, seconds)
    cpu0, child0 = harness.cpu_seconds()
    started = perf_counter()
    gen = _run_plan(state, plan)
    wall = perf_counter() - started
    cpu1, _ = harness.cpu_seconds()
    mismatched, detail = _offline_check(state, gen, plan)
    state.close()  # reap the replica so its CPU time is counted
    child = harness.cpu_seconds()[1] - child0
    rungs = _rungs(gen, plan)
    lone, top = rungs[0], rungs[-1]
    failed = sum(gen.failed) + mismatched
    lone_latencies = [gen.latency[i] for i, entry in enumerate(plan)
                      if entry[0] == 0 and not gen.failed[i]]
    return {
        "ops": len(plan),
        "failed": failed,
        "wrong": mismatched,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "child_cpu_s": child,
        "cpu_ms_per_op": (cpu1 - cpu0 + child) * 1e3 / len(plan),
        "latencies": lone_latencies,
        "throughput": top["completed_per_s"],
        "extra": {
            "lone_p50_ms": (lone["p50_ms"], "ms"),
            "max_qps_under_slo": (harness.max_qps_under_slo(rungs, SLO_MS),
                                  "1/s"),
            "slo_ms": (SLO_MS, "ms"),
        },
        "checks": {"offline_rows": detail},
        "phases": _phases(rungs),
    }


def measure_traced(state, seconds, tracer):
    """Traced run: untraced lone rung for calibration, then the ladder
    with per-batch serve records and spans on the generator thread."""
    from repro.serve import ForecastServer

    _warm_up(state)
    plan = schedule(state.seed, seconds)
    calibration = _run_plan(state, [e for e in plan if e[0] == 0])
    batches = []
    stats = state.server.stats
    record_batch = stats.record_batch

    def recorded(requests, samples, forward_s, waits, latencies):
        batches.append((perf_counter(), requests, forward_s, list(waits)))
        return record_batch(requests, samples, forward_s, waits, latencies)

    stats.record_batch = recorded
    tracer.wrap(ForecastServer, "submit", "serve.submit")
    try:
        with tracer.span("serve_open.run") as root:
            gen = _run_plan(state, plan, tracer)
    finally:
        tracer.unwrap_all()
        del stats.record_batch
    mismatched, detail = _offline_check(state, gen, plan)
    rungs = _rungs(gen, plan)
    layers = {}
    # A batch belongs to the rung whose first arrival was due last
    # before the batch completed; the top rung runs until its last
    # request is done.
    starts = [rung["window"][0] for rung in rungs]
    ends = starts[1:] + [rungs[-1]["window"][1]]
    bounds = starts[1:] + [float("inf")]
    for rung, start, end, bound in zip(rungs, starts, ends, bounds):
        inside = [b for b in batches if start <= b[0] < bound]
        waits = [w for b in inside for w in b[3]]
        requests = sum(b[1] for b in inside)
        forward = [b[2] for b in inside]
        prefix = f"serve.{rung['name']}"
        layers[f"{prefix}.queue_wait_p50_ms"] = (
            harness.percentile(waits, 50) * 1e3 if waits else 0.0)
        layers[f"{prefix}.batch_size_mean"] = (
            requests / len(inside) if inside else 0.0)
        layers[f"{prefix}.forward_ms_per_batch"] = (
            1e3 * sum(forward) / len(forward) if forward else 0.0)
        layers[f"{prefix}.forward_busy_share"] = sum(forward) / (end - start)
        layers[f"{prefix}.backlog_max"] = float(rung["backlog_max"])
    layers["loadgen.late_ms_p99"] = harness.percentile(gen.late, 99) * 1e3
    layers["loadgen.max_qps_under_slo"] = harness.max_qps_under_slo(
        rungs, SLO_MS)
    layers["pool.overhead_ms_per_batch"] = (
        layers["serve.lone.forward_ms_per_batch"]
        - _in_process_predict_ms(state))
    untraced = harness.percentile(
        [calibration.latency[i] for i in range(len(calibration.plan))
         if not calibration.failed[i]], 50)
    return {
        "ops": len(plan) + len(calibration.plan),
        "failed": sum(gen.failed) + sum(calibration.failed) + mismatched,
        "wrong": mismatched,
        "checks": {"offline_rows": detail},
        "phases": _phases(rungs),
        "layers": layers,
        "root": root,
        "index": harness.SpanIndex(tracer.spans()),
        "overhead": (rungs[0]["p50_ms"] / (untraced * 1e3) - 1.0,
                     "lone-rung p50: traced ladder vs untraced lone rung"),
    }


def _in_process_predict_ms(state, repeats=50):
    """Median in-process ``predict`` at batch size 1, in ms."""
    from repro.tensor import no_grad

    sample = state.data.test.slice(0, 1)
    times = []
    with no_grad():
        for _ in range(repeats):
            started = perf_counter()
            state.model.predict(sample)
            times.append(perf_counter() - started)
    return harness.percentile(times, 50) * 1e3
