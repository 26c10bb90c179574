"""``stream_socket``: writes beside reads through the socket front-end.

An in-process streaming ``ForecastServer`` (default ``ServeConfig``,
so in-process forwards and the result cache), warm-started from the
history before the test split, runs behind a loopback
``SocketFrontend``.  One generator thread holds two ``ForecastClient``
connections: the writer ``push``es the next test-split frame on a
fixed tick schedule (open loop), then the reader sends ``READS``
``forecast`` requests for seeded cell subsets (closed loop) before the
next tick.  A tick's latency runs from when its push was due to the
reply of its last read.  The wire, front-end, ``WindowCache`` and result cache do
the work, with one forward and ``READS - 1`` cache hits per tick.

Only the dataset's clean frames are pushed.  The socket ``push`` path
accepting Inf frames is a known defect this workload does not test.
"""

from __future__ import annotations

import json
import types
from time import perf_counter, process_time, sleep

import numpy as np

import harness
import workload_train

TICKS_PER_S = 20.0
READS = 8
CELLS_PER_READ = 4
WARMUP_TICKS = 5
#: Ticks per block for ``harness.quiet_blocks`` (0.15 s), and the share
#: of blocks, cheapest first, the time metrics are read from.
QUIET_BLOCK_TICKS = 3
QUIET_SHARE = 1.0 / 3.0


class Setup:
    def __init__(self, seed):
        from repro.core import MUSENet
        from repro.experiments.common import get_profile, muse_config, prepare
        from repro.serve import (ForecastClient, ForecastServer, ServeConfig,
                                 SocketFrontend)

        profile = get_profile("paper")
        self.seed = seed
        self.data = prepare("nyc-bike", profile, seed=seed)
        self.model = MUSENet(muse_config(self.data, profile, seed=seed))
        flows = self.data.dataset.flows
        periodicity = self.data.periodicity
        start = int(self.data.test.indices[0])
        self.history = flows[start - periodicity.min_index:start]
        self.live = flows[start:]
        self.server = ForecastServer(
            self.model, ServeConfig(), scaler=self.data.scaler,
            periodicity=periodicity, frame_shape=flows.shape[1:]).start()
        self.frontend = None
        self.clients = []
        try:
            for frame in self.history:
                self.server.push_tick(frame)
            self.frontend = SocketFrontend(self.server).start()
            self.addresses = (self.frontend.address,)
            self.writer = ForecastClient(self.frontend.address)
            self.clients.append(self.writer)
            self.reader = ForecastClient(self.frontend.address)
            self.clients.append(self.reader)
        except BaseException:
            self.close()
            raise
        self.pushed = []  # raw frames pushed over the socket, in order

    def close(self):
        for client in self.clients:
            client.close()
        if self.frontend is not None:
            self.frontend.close()
        self.server.close()


def setup(seed):
    return Setup(seed)


def _plan(seed, ticks, grid_shape):
    """Seeded cell subsets: plan[tick][read] is a list of (row, col)."""
    rng = np.random.default_rng(seed)
    height, width = grid_shape
    cells = height * width
    return [[[(int(c) // width, int(c) % width)
              for c in rng.choice(cells, CELLS_PER_READ, replace=False)]
             for _ in range(READS)] for _ in range(ticks)]


def _run(state, ticks, tracer=None):
    """Drive ``ticks`` ticks; returns per-tick records."""
    grid = state.live.shape[-2:]
    plan = _plan(state.seed + len(state.pushed), ticks, grid)
    records = []
    base = perf_counter() + 0.02
    for tick in range(ticks):
        due = base + tick / TICKS_PER_S
        wait = due - perf_counter()
        if wait > 0:
            if tracer is None:
                sleep(wait)
            else:
                with tracer.span("loadgen.sleep"):
                    sleep(wait)
        frame = state.live[len(state.pushed) % len(state.live)]
        record = {"reads": [], "failed": 0, "cpu_at": process_time()}
        try:
            state.writer.push(frame)
            state.pushed.append(frame)
        except Exception:
            record["failed"] += 1 + READS
            records.append(record)
            continue
        record["write_s"] = perf_counter() - due
        record["index"] = len(state.history) + len(state.pushed)
        for cells in plan[tick]:
            started = perf_counter()
            try:
                values, index, generation = state.reader.forecast(cells)
            except Exception:
                record["failed"] += 1
                continue
            record["reads"].append((perf_counter() - started, cells, values,
                                    index, generation))
        if not record["failed"]:
            record["tick_s"] = perf_counter() - due
        records.append(record)
    return records


def _check(state, records):
    """Reads bit-identical to the offline forward of their window.

    The offline forward is ``MUSENet.predict`` at batch 1 on the window
    ``build_samples`` cuts from the pushed sequence (atol 0: the wire's
    float transport is exact and the forward is the same code).
    """
    from repro.data.windows import build_samples
    from repro.tensor import no_grad

    frames = np.concatenate([state.history, np.asarray(state.pushed)])
    scaled = state.data.scaler.transform(frames)
    scaled = np.concatenate([scaled, np.zeros_like(scaled[:1])])
    mismatched = 0
    wrong_index = 0
    checked = 0
    with no_grad():
        for record in records:
            if not record["reads"]:
                continue
            sample = build_samples(scaled, state.data.periodicity,
                                   [record["index"]])
            offline = state.model.predict(sample)[0]
            for _s, cells, values, index, _gen in record["reads"]:
                checked += 1
                if index != record["index"]:
                    wrong_index += 1
                    continue
                expected = np.stack([offline[:, r, c] for r, c in cells])
                if not np.array_equal(values, expected):
                    mismatched += 1
    return mismatched + wrong_index, {
        "reads_checked": checked, "mismatched": mismatched,
        "wrong_index": wrong_index, "atol": 0.0}


def _forwards(state):
    snap = state.server.snapshot()
    return snap["batches"], snap["result_cache"]


def _outcome(state, records, forwards_before, cache_before):
    ticks = len(records)
    reads = [r for record in records for r in record["reads"]]
    failed_ops = sum(record["failed"] for record in records)
    mismatched, detail = _check(state, records)
    batches, cache = _forwards(state)
    forwards = batches - forwards_before
    single_flight = forwards == sum(1 for r in records if r["reads"])
    detail["forwards"] = forwards
    detail["ticks"] = ticks
    detail["one_forward_per_tick"] = single_flight
    wrong = mismatched + (0 if single_flight else 1)
    failed = failed_ops + wrong
    hits = (cache["hits"] + cache["coalesced"]
            - cache_before["hits"] - cache_before["coalesced"])
    misses = cache["misses"] - cache_before["misses"]
    phases = {
        "push": {"sent": ticks,
                 "succeeded": sum(1 for r in records if "write_s" in r),
                 "failed": sum(1 for r in records if "write_s" not in r)},
        "forecast": {"sent": ticks * READS, "succeeded": len(reads),
                     "failed": ticks * READS - len(reads)},
    }
    return {
        "ticks": ticks, "reads": reads, "failed": failed, "wrong": wrong,
        "detail": detail, "phases": phases, "hits": hits, "misses": misses,
    }


def _ticks_for(seconds):
    return max(20, int(seconds * TICKS_PER_S))


def measure(state, seconds):
    """Untraced run: end-to-end metrics."""
    _run(state, WARMUP_TICKS)
    forwards0, cache0 = _forwards(state)
    cpu0, _ = harness.cpu_seconds()
    started = perf_counter()
    records = _run(state, _ticks_for(seconds))
    wall = perf_counter() - started
    cpu = harness.cpu_seconds()[0] - cpu0
    ended_cpu = process_time()
    out = _outcome(state, records, forwards0, cache0)
    ops = out["ticks"] * (1 + READS)
    writes = [r["write_s"] for r in records if "write_s" in r]
    # Tick latency and the process CPU of a tick's interval (every
    # thread: client, front-end, server) come from the quiet blocks of
    # ticks; a failed tick makes its block the costliest.
    cpu_at = [r["cpu_at"] for r in records] + [ended_cpu]
    quiet = harness.quiet_blocks(
        [r.get("tick_s", float("inf")) for r in records],
        QUIET_BLOCK_TICKS, QUIET_SHARE)
    quiet_cpu = sum(cpu_at[i + 1] - cpu_at[i] for i in quiet)
    return {
        "ops": ops,
        "failed": out["failed"],
        "wrong": out["wrong"],
        "wall_s": wall,
        "cpu_s": cpu,
        "child_cpu_s": 0.0,
        "cpu_ms_per_op": 1e3 * quiet_cpu / (len(quiet) * (1 + READS)),
        "latencies": [records[i]["tick_s"] for i in quiet
                      if "tick_s" in records[i]],
        "throughput": (ops - out["failed"]) / wall,
        "quiet": {"ops": len(quiet), "of": out["ticks"],
                  "block": QUIET_BLOCK_TICKS,
                  "raw_tick_p50_ms": harness.percentile(
                      [r["tick_s"] for r in records if "tick_s" in r],
                      50) * 1e3},
        "extra": {
            "write_p50_ms": (harness.percentile(writes, 50) * 1e3, "ms"),
            "read_p50_ms": (harness.percentile(
                [r[0] for r in out["reads"]], 50) * 1e3, "ms"),
            "results_hit_ratio": (out["hits"] / max(1, out["hits"]
                                                   + out["misses"]), "ratio"),
        },
        "checks": {"socket_reads": out["detail"]},
        "phases": out["phases"],
    }


def wrap_serving(tracer):
    """Spans around the serve, cache, wire and client entry points."""
    from repro.serve import ForecastClient, ForecastServer, WindowCache
    from repro.serve import wire

    tracer.wrap(ForecastServer, "push_tick", "serve.push_tick")
    tracer.wrap(ForecastServer, "forecast_tick", "serve.forecast_tick")
    tracer.wrap(WindowCache, "push", "cache.push")
    tracer.wrap(WindowCache, "sample", "cache.sample")
    tracer.wrap(ForecastClient, "push", "client.push")
    tracer.wrap(ForecastClient, "forecast", "client.forecast")
    tracer.wrap(wire, "encode_frame", "wire.encode")
    tracer.wrap(wire, "array_payload", "wire.encode")
    tracer.wrap(wire, "payload_array", "wire.decode")
    # JSON parsing happens inside recv_frame/read_frame_async, which
    # also wait on the socket; trace the parse itself through the
    # module's json reference.
    shim = types.SimpleNamespace(dumps=json.dumps, loads=json.loads,
                                 JSONDecodeError=json.JSONDecodeError)
    tracer.wrap(shim, "loads", "wire.decode")
    tracer.replace(wire, "json", shim)


def measure_traced(state, seconds, tracer):
    """Traced run: untraced calibration ticks, then traced ticks."""
    _run(state, WARMUP_TICKS)
    calibration = _run(state, _ticks_for(seconds) // 3)
    calibration_ticks = [r["tick_s"] for r in calibration if "tick_s" in r]
    forwards0, cache0 = _forwards(state)
    workload_train.wrap_core(tracer)
    wrap_serving(tracer)
    try:
        with tracer.span("stream_socket.run") as root:
            records = _run(state, _ticks_for(seconds), tracer)
    finally:
        tracer.unwrap_all()
    out = _outcome(state, records, forwards0, cache0)
    index = harness.SpanIndex(tracer.spans())
    layers = workload_train.core_per_predict(index)
    requests = out["ticks"] * (1 + READS)
    layers["results.hit_ratio"] = out["hits"] / max(1, out["hits"]
                                                    + out["misses"])
    layers["results.forwards_per_tick"] = out["misses"] / max(1, out["ticks"])
    layers["cache.push_ms"] = harness.mean_ms(index.select("cache.push"))
    layers["cache.sample_ms"] = harness.mean_ms(index.select("cache.sample"))
    layers["wire.encode_ms"] = 1e3 * index.total_s("wire.encode") / requests
    layers["wire.decode_ms"] = 1e3 * index.total_s("wire.decode") / requests
    layers["frontend.overhead_ms"] = (
        harness.mean_ms(index.select("client.forecast"))
        - harness.mean_ms(index.select("serve.forecast_tick")))
    telemetry = state.frontend.telemetry()
    layers["frontend.errors"] = float(telemetry["errors"])
    layers["frontend.rejected_busy"] = float(telemetry["rejected_busy"])
    untraced = harness.percentile(calibration_ticks, 50)
    traced = harness.percentile(
        [r["tick_s"] for r in records if "tick_s" in r], 50)
    calibration_failed = sum(r["failed"] for r in calibration)
    return {
        "ops": requests + len(calibration) * (1 + READS),
        "failed": out["failed"] + calibration_failed,
        "wrong": out["wrong"],
        "checks": {"socket_reads": out["detail"]},
        "phases": out["phases"],
        "layers": layers,
        "root": root,
        "index": index,
        "overhead": (traced / untraced - 1.0,
                     "tick p50: traced ticks vs untraced calibration ticks"),
    }

