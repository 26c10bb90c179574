"""``stream_replay``: closed-loop disruption replay through StreamRuntime.

Replays the ``late``, ``corrupt``, ``dropout``, ``outage`` and
``level_shift`` scenarios of ``repro.stream.simulate`` through a
warm-started ``StreamRuntime`` with auto-adapt on, forecasting the
stream frontier before each arrival exactly as ``run_scenario`` does.
This is the only workload that runs ``stream.*``: reorder/quarantine,
gap fill, the fallback ladder, drift, and warm retrain plus hot swap.
Its 4x4 model is bound by Python per-op overhead, the opposite of
``train``.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter, process_time

import numpy as np

import harness
import workload_train

SCENARIOS = ("late", "corrupt", "dropout", "outage", "level_shift")
OFFLINE_EPOCHS = 8
#: Adaptive level-shift recovery: recovery-segment normalized RMSE over
#: pre-disruption normalized RMSE (the stream robustness gate).
MAX_RECOVERY_RATIO = 1.10
#: One frozen pass (auto-adapt off) over the five scenarios per this
#: many seconds of ``--seconds``, at least three.  A frozen replay of a
#: scenario repeats the same work every time.
SECONDS_PER_FROZEN_PASS = 1.25


class Setup:
    def __init__(self, seed, workdir):
        from repro.stream import simulate as sim

        self.seed = seed
        self.scenarios = {name: sim.make_scenario(name, seed=seed)
                          for name in SCENARIOS}
        # Every scenario shares the offline prefix, so one offline fit
        # serves all five; fail loudly if that ever stops being true.
        reference = self.scenarios[SCENARIOS[0]]
        for scenario in self.scenarios.values():
            if not np.array_equal(scenario.flows[:scenario.train_end],
                                  reference.flows[:reference.train_end]):
                raise RuntimeError(
                    f"scenario {scenario.name} has its own training prefix")
        self.state = sim.train_offline(reference, epochs=OFFLINE_EPOCHS,
                                       seed=seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.addresses = ()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup(seed, workdir):
    return Setup(seed, workdir)


def _replay(state, name, adaptive=True):
    """Replay one scenario, with auto-adapt on or off (frozen).

    Each arrival is timed from ``ingest`` to the frontier forecast.  An
    arrival during which a warm retrain ran is kept apart: the retrain
    (wall and CPU) is the adaptation's cost, not the serving path's.
    """
    from repro.stream import simulate as sim

    scenario = state.scenarios[name]
    runtime = sim.build_runtime(scenario, state.state, adaptive=adaptive,
                                checkpoint_dir=state.workdir, seed=state.seed)
    retrains = []  # (wall s, cpu s) per adapt() call
    adapt = runtime.adapt

    def timed_adapt():
        started, cpu = perf_counter(), harness.cpu_seconds()[0]
        try:
            return adapt()
        finally:
            retrains.append((perf_counter() - started,
                             harness.cpu_seconds()[0] - cpu))

    runtime.adapt = timed_adapt
    flows = scenario.flows
    pending = {}
    serving = []  # arrival latencies without a retrain inside
    serving_cpu = []  # and their process CPU
    retrain_arrivals = 0
    failed = 0

    def forecast_frontier():
        index = runtime.cache.next_index
        if (runtime.cache.count and index not in pending
                and index < len(flows)):
            pending[index] = runtime.forecast()

    with runtime:
        forecast_frontier()
        for position, tick in enumerate(scenario.ticks):
            before = len(retrains)
            started, cpu = perf_counter(), process_time()
            try:
                runtime.ingest(tick)
                forecast_frontier()
            except Exception:
                failed = len(scenario.ticks) - position
                break
            if len(retrains) == before:
                serving.append(perf_counter() - started)
                serving_cpu.append(process_time() - cpu)
            else:
                retrain_arrivals += 1
        runtime.flush()
        telemetry = runtime.telemetry()
    results = [(pending[i], flows[i]) for i in sorted(pending)
               if i >= scenario.train_end]
    return {
        "name": name, "latencies": serving, "cpu": serving_cpu,
        "failed": failed,
        "retrain_arrivals": retrain_arrivals, "retrains": retrains,
        "results": results, "telemetry": telemetry,
        "report": sim.evaluate_results(scenario, results),
        "arrivals": len(scenario.ticks), "adaptive": adaptive,
    }


def _checks(state, replays):
    """Corrupt-frame quarantine, no crash, and (adaptive pass only)
    level-shift recovery.

    A corrupt frame that was not quarantined is a wrong output; a
    level-shift recovery ratio above ``MAX_RECOVERY_RATIO`` is a failed
    adaptation, counted as one failed operation (the runtime caps its
    adaptation rounds, so recovery is a target, not an invariant).
    """
    wrong = 0
    failed = 0
    checks = {}
    shift = replays["level_shift"]
    if shift["adaptive"]:
        ratio = recovery_ratio(shift)
        ok = ratio <= MAX_RECOVERY_RATIO
        failed += 0 if ok else 1
        checks["level_shift_recovery"] = {
            "ratio": ratio, "max_ratio": MAX_RECOVERY_RATIO, "ok": ok,
            "retrains": shift["telemetry"]["retrains"]}
    expected = {int(tick.index) for tick in state.scenarios["corrupt"].ticks
                if np.isinf(tick.frame).any()
                or (np.nan_to_num(tick.frame) < 0).any()}
    quarantined = {record["index"] for record in
                   replays["corrupt"]["telemetry"]["ingest"]["quarantine"]
                   if record["reason"] == "corrupt"}
    missed = expected - quarantined
    wrong += len(missed)
    checks["corrupt_quarantined"] = {
        "expected": sorted(expected), "quarantined": sorted(quarantined),
        "missed": sorted(missed)}
    for replay in replays.values():
        failed += replay["failed"]
    return failed + wrong, wrong, checks


def recovery_ratio(replay):
    """Recovery-segment over pre-disruption normalized RMSE."""
    report = replay["report"]
    return report["recovery"]["nrmse"] / report["pre"]["nrmse"]


def _phases(passes):
    """Arrivals sent/succeeded/failed per scenario, adaptive and frozen."""
    phases = {}
    for replays in passes:
        for name, r in replays.items():
            key = f"{'adaptive' if r['adaptive'] else 'frozen'}.{name}"
            phase = phases.setdefault(key, {"sent": 0, "succeeded": 0,
                                            "failed": 0, "retrains": 0})
            phase["sent"] += r["arrivals"]
            phase["succeeded"] += r["arrivals"] - r["failed"]
            phase["failed"] += r["failed"]
            phase["retrains"] += r["telemetry"]["retrains"]
    return phases


def _frozen_passes(seconds):
    return max(3, int(round(seconds / SECONDS_PER_FROZEN_PASS)))


def _pass(state, adaptive):
    return {name: _replay(state, name, adaptive) for name in SCENARIOS}


def measure(state, seconds):
    """Untraced run: one adaptive pass and several frozen passes.

    The frozen passes are spread evenly between the adaptive replays,
    so a scenario's frozen replays sample the host seconds apart.  A
    frozen replay repeats the same work every time, so latency,
    throughput and CPU per arrival come from ``harness.fastest_repeats``
    over each scenario's frozen replays.  The adaptive pass's serving
    figures and its warm retrains are reported in the run record: how
    many retrains a scenario triggers, and how long each takes (the
    rolling window it fits on grows with the tick drift is confirmed
    at), depends on the seed's data.
    """
    count = _frozen_passes(seconds)
    adaptive = {}
    frozen = []
    started, cpu0 = perf_counter(), harness.cpu_seconds()[0]
    for number, name in enumerate(SCENARIOS):
        adaptive[name] = _replay(state, name, adaptive=True)
        while len(frozen) < count * (number + 1) // len(SCENARIOS):
            with harness.pinned(len(frozen)):
                frozen.append(_pass(state, adaptive=False))
    wall = perf_counter() - started
    measured_cpu = harness.cpu_seconds()[0] - cpu0
    passes = [adaptive] + frozen
    failed = wrong = 0
    checks = {}
    for number, replays in enumerate(passes):
        bad, incorrect, found = _checks(state, replays)
        failed += bad
        wrong += incorrect
        checks[f"pass{number}"] = found
    latencies, cpu = [], []
    for name in SCENARIOS:
        repeats = [replays[name] for replays in frozen]
        for r, i in harness.fastest_repeats(
                [repeat["latencies"] for repeat in repeats]):
            latencies.append(repeats[r]["latencies"][i])
            cpu.append(repeats[r]["cpu"][i])
    retrains = [t for r in adaptive.values() for t in r["retrains"]]
    adaptive_serving = [t for r in adaptive.values() for t in r["latencies"]]
    return {
        "ops": sum(r["arrivals"] for replays in passes
                   for r in replays.values()),
        "failed": failed,
        "wrong": wrong,
        "wall_s": wall,
        "cpu_s": measured_cpu,
        "child_cpu_s": 0.0,
        "cpu_ms_per_op": 1e3 * sum(cpu) / len(cpu),
        "latencies": latencies,
        "throughput": len(latencies) / sum(latencies),
        "quiet": {"basis": "fastest of each scenario's frozen replays "
                           "per arrival",
                  "frozen_pass_p50_ms": [harness.percentile(
                      [t for r in replays.values() for t in r["latencies"]],
                      50) * 1e3 for replays in frozen]},
        "extra": {
            "retrain_s": (harness.percentile([w for w, _ in retrains], 50)
                          if retrains else 0.0, "s"),
            "retrains": (len(retrains), "count"),
            "retrain_wall_s": (sum(w for w, _ in retrains), "s"),
            "retrain_cpu_s": (sum(c for _, c in retrains), "s"),
            "adaptive_p50_ms": (harness.percentile(adaptive_serving, 50)
                                * 1e3, "ms"),
            "replay_wall_s": (wall, "s"),
            "level_shift_recovery_ratio": (
                recovery_ratio(adaptive["level_shift"]), "ratio"),
        },
        "checks": checks,
        "phases": _phases(passes),
    }


def wrap_stream(tracer):
    """Spans around the stream, ingest, drift and adaptation entry points."""
    from repro.serve import ForecastServer
    from repro.stream import DriftSentinel, StreamIngestor, StreamRuntime
    from repro.training import Trainer

    tracer.wrap(StreamRuntime, "ingest", "stream.ingest")
    tracer.wrap(StreamRuntime, "forecast", "stream.forecast")
    tracer.wrap(StreamRuntime, "adapt", "adapt.retrain")
    tracer.wrap(StreamIngestor, "offer", "ingest.offer")
    tracer.wrap(DriftSentinel, "observe", "drift.observe")
    tracer.wrap(Trainer, "fit", "adapt.fit")
    tracer.wrap(ForecastServer, "load_checkpoint", "adapt.swap")


def measure_traced(state, seconds, tracer):
    """Traced run: an untraced frozen ``late`` replay for calibration,
    then a traced adaptive pass and a traced frozen ``late`` replay."""
    calibration = _replay(state, "late", adaptive=False)
    workload_train.wrap_core(tracer)
    wrap_stream(tracer)
    try:
        with tracer.span("stream_replay.run") as root:
            replays = _pass(state, adaptive=True)
            compared = _replay(state, "late", adaptive=False)
    finally:
        tracer.unwrap_all()
    failed, wrong, checks = _checks(state, replays)
    failed += calibration["failed"] + compared["failed"]
    index = harness.SpanIndex(tracer.spans())
    layers = workload_train.core_per_predict(
        index, outside=("adapt.retrain",))
    offers = index.select("ingest.offer")
    layers["ingest.offer_ms"] = harness.mean_ms(offers)
    counts = {"quarantined": 0, "reordered": 0, "gaps": 0}
    forecasts = 0
    fallbacks = 0
    retrains = 0
    for replay in replays.values():
        for key in counts:
            counts[key] += replay["telemetry"]["ingest"]["counts"][key]
        sources = replay["report"]["sources"]
        forecasts += sum(sources.values())
        fallbacks += sum(v for k, v in sources.items() if k != "model")
        retrains += replay["telemetry"]["retrains"]
    for key, value in counts.items():
        layers[f"ingest.{key}"] = float(value)
    layers["stream.forecast_ms"] = harness.mean_ms(index.select("stream.forecast"))
    layers["stream.fallback_share"] = fallbacks / max(1, forecasts)
    layers["drift.observe_ms"] = harness.mean_ms(index.select("drift.observe"))
    fits = index.select("adapt.fit", within="adapt.retrain")
    layers["adapt.fit_s"] = (sum(s.duration for s in fits) / len(fits)
                             if fits else 0.0)
    layers["adapt.swap_ms"] = harness.mean_ms(
        index.select("adapt.swap", within="adapt.retrain"))
    layers["adapt.retrains"] = float(retrains)
    layers["adapt.recovery_ratio"] = recovery_ratio(replays["level_shift"])
    untraced = harness.percentile(calibration["latencies"], 50)
    traced = harness.percentile(compared["latencies"], 50)
    return {
        "ops": sum(r["arrivals"] for r in replays.values())
        + calibration["arrivals"] + compared["arrivals"],
        "failed": failed,
        "wrong": wrong,
        "checks": checks,
        "phases": _phases([replays]),
        "layers": layers,
        "root": root,
        "index": index,
        "overhead": (traced / untraced - 1.0,
                     "frozen late-scenario arrival p50: traced vs untraced"),
    }

