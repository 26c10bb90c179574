"""``train``: closed-loop ``Trainer.fit`` at paper-profile geometry.

MUSE-Net with the paper profile's geometry (d=16, k=32, two ResPlus
blocks, batch 8) on small nyc-bike (a 6x10 grid), default dtype and
trainer options, a fixed number of epochs and no early stop: the
untraced run repeats a one-epoch fit from the same initial weights,
the traced run fits several epochs in one go.  The ``core``,
``tensor`` and ``optim`` layers do nearly all the work; no serve or
stream code runs.
"""

from __future__ import annotations

import math
from time import perf_counter, process_time

import numpy as np

import harness

#: Nominal step rate used to size the run from ``--seconds``.  The
#: work done is a function of ``--seconds`` only, never of how fast
#: this host happens to be, so every run has the same sample count.
NOMINAL_STEPS_PER_S = 14.0
BATCH_SIZE = 8


class Setup:
    def __init__(self, seed):
        from repro.core import MUSENet
        from repro.experiments.common import get_profile, muse_config, prepare

        self.seed = seed
        self.profile = get_profile("paper")
        self.data = prepare("nyc-bike", self.profile, seed=seed)
        self.model = MUSENet(muse_config(self.data, self.profile, seed=seed))
        self.addresses = ()

    def trainer(self, epochs, max_steps=None):
        from repro.training import TrainConfig, Trainer

        return Trainer(self.model, TrainConfig(
            epochs=epochs, batch_size=BATCH_SIZE, lr=self.profile.lr,
            seed=self.seed, max_steps=max_steps))

    def close(self):
        pass


def setup(seed):
    return Setup(seed)


class _StepProbe:
    """Times each training step: ``zero_grad`` entry to ``step`` exit.

    Installed on the optimizer *instance*, so only this workload's
    trainer is observed.  With a profiler it also takes the exact op
    and allocation counts of each step.
    """

    def __init__(self, optimizer, profiler=None):
        self.durations = []
        self.cpu = []
        self.ops = []
        self.alloc_bytes = []
        self._profiler = profiler
        self._started = None
        self._cpu = None
        self._counts = None
        zero_grad, step = optimizer.zero_grad, optimizer.step

        def probed_zero_grad():
            self._started = perf_counter()
            self._cpu = process_time()
            if self._profiler is not None:
                self._counts = self._snapshot()
            return zero_grad()

        def probed_step():
            result = step()
            self.durations.append(perf_counter() - self._started)
            self.cpu.append(process_time() - self._cpu)
            if self._profiler is not None:
                calls, alloc = self._snapshot()
                self.ops.append(calls - self._counts[0])
                self.alloc_bytes.append(alloc - self._counts[1])
            return result

        optimizer.zero_grad = probed_zero_grad
        optimizer.step = probed_step
        self._optimizer = optimizer

    def _snapshot(self):
        profiler = self._profiler
        calls = sum(stats.calls for stats in profiler.stats.values())
        alloc = (profiler.forward_alloc_bytes + profiler.grad_alloc_bytes
                 + profiler.optimizer_alloc_bytes)
        return calls, alloc

    def remove(self):
        del self._optimizer.zero_grad
        del self._optimizer.step


def _fit(state, epochs, profiler=None):
    """One timed ``Trainer.fit``: returns (probe, history, wall, cpu)."""
    trainer = state.trainer(epochs)
    probe = _StepProbe(trainer.optimizer, profiler)
    cpu0 = harness.cpu_seconds()[0]
    started = perf_counter()
    try:
        history = trainer.fit(state.data)
    finally:
        probe.remove()
    wall = perf_counter() - started
    return probe, history, wall, harness.cpu_seconds()[0] - cpu0


def _loss_checks(history):
    """Every epoch-mean loss finite, hence every step loss finite."""
    losses = list(history.train_loss) + list(history.train_reg) \
        + list(history.val_rmse)
    bad = sum(1 for value in losses if not math.isfinite(value))
    return bad, {"epochs": history.epochs_run, "nonfinite_losses": bad,
                 "final_train_loss": history.train_loss[-1]}


def epochs_for(state, seconds):
    steps_per_epoch = math.ceil(len(state.data.train) / BATCH_SIZE)
    return max(3, round(seconds * NOMINAL_STEPS_PER_S / steps_per_epoch))


def measure(state, seconds):
    """Untraced run: end-to-end metrics.

    The run is several one-epoch fits, each from the same initial
    weights with the same seed, so every fit repeats the same work.
    Step time and CPU come from ``harness.fastest_repeats`` over the
    fits' steps, and the time between steps (batching, validation)
    from the fit that spent the least there.
    """
    state.trainer(1, max_steps=3).fit(state.data)  # warm-up
    initial = state.model.state_dict()
    fits = []
    for repeat in range(epochs_for(state, seconds)):
        state.model.load_state_dict(initial)
        with harness.pinned(repeat):
            fits.append(_fit(state, 1))
    probes = [probe for probe, _history, _wall, _cpu in fits]
    chosen = harness.fastest_repeats([p.durations for p in probes])
    between_s, between_cpu = min(
        (wall - sum(probe.durations), cpu - sum(probe.cpu))
        for probe, _history, wall, cpu in fits)
    steps = len(chosen)
    latencies = [probes[r].durations[i] for r, i in chosen]
    step_cpu = sum(probes[r].cpu[i] for r, i in chosen)
    details = [_loss_checks(history) for _p, history, _w, _c in fits]
    bad = sum(count for count, _detail in details)
    ops = sum(len(p.durations) for p in probes)
    wall = sum(f[2] for f in fits)
    return {
        "ops": ops,
        "failed": bad,
        "wrong": bad,
        "wall_s": wall,
        "cpu_s": sum(f[3] for f in fits),
        "child_cpu_s": 0.0,
        "cpu_ms_per_op": 1e3 * (step_cpu + between_cpu) / steps,
        "latencies": latencies,
        "throughput": steps / (sum(latencies) + between_s),
        "quiet": {"basis": "fastest of the one-epoch fits per step",
                  "fits": len(fits),
                  "steps_per_fit": steps, "between_steps_s": between_s,
                  "raw_steps_per_s": ops / wall,
                  "raw_step_p50_ms": harness.percentile(
                      [d for p in probes for d in p.durations], 50) * 1e3},
        "extra": {},
        "checks": {"losses_finite": [detail for _bad, detail in details]},
        "phases": {"fit": {"sent": ops, "succeeded": ops - bad,
                           "failed": bad, "fits": len(fits),
                           "epochs_per_fit": 1}},
    }


CORE_CLASSES = (
    ("core.stems", "repro.core.encoders", "SeriesStem"),
    ("core.exclusive", "repro.core.encoders", "ExclusiveEncoder"),
    ("core.interactive", "repro.core.encoders", "InteractiveEncoder"),
    ("core.pull", "repro.core.encoders", "SimplexEncoder"),
    ("core.pull", "repro.core.encoders", "DuplexEncoder"),
    ("core.push", "repro.core.decoders", "ReconstructionDecoder"),
    ("core.spatial", "repro.core.resplus", "ResPlusNetwork"),
)
CORE_METRICS = ("core.stems", "core.exclusive", "core.interactive",
                "core.pull", "core.push", "core.spatial", "core.loss")


def wrap_core(tracer):
    """Spans around every core submodule forward, the loss and predict."""
    import importlib

    import repro.core.model as model_module

    for span, module, cls in CORE_CLASSES:
        tracer.wrap(getattr(importlib.import_module(module), cls),
                    "forward", span)
    tracer.wrap(model_module, "muse_training_loss", "core.loss")
    tracer.wrap(model_module.MUSENet, "predict", "core.predict")


def core_per_predict(index, outside=()):
    """Core self times per ``MUSENet.predict`` call, in ms."""
    count = max(1, len(index.select("core.predict", outside=outside)))
    return {f"{name}_ms": 1e3 * index.self_s(
        name, within="core.predict", outside=outside) / count
        for name in CORE_METRICS}


def wrap_training(tracer):
    """Spans around the trainer, autodiff and optimizer entry points."""
    import repro.training.trainer as trainer_module
    from repro.optim import Adam
    from repro.tensor import Tensor

    tracer.wrap(trainer_module.Trainer, "fit", "training.fit")
    tracer.wrap(trainer_module.Trainer, "predict_flows", "training.validate")
    tracer.wrap(trainer_module, "clip_grad_norm", "optim.clip")
    tracer.wrap(Adam, "step", "optim.step")
    tracer.wrap(Tensor, "backward", "tensor.backward")


def measure_traced(state, seconds, tracer):
    """Traced run: one untraced calibration epoch, then a traced fit."""
    from repro.profiling import profile

    state.trainer(1, max_steps=3).fit(state.data)  # warm-up
    calibration, _, _, _ = _fit(state, 1)
    epochs = epochs_for(state, seconds)
    wrap_core(tracer)
    wrap_training(tracer)
    try:
        with profile() as profiler, tracer.span("train.run") as root:
            probe, history, wall, _cpu = _fit(state, epochs, profiler)
    finally:
        tracer.unwrap_all()
    bad, detail = _loss_checks(history)
    index = harness.SpanIndex(tracer.spans())
    steps = len(probe.durations)
    step_ms = 1e3 / steps
    in_step = dict(within="training.fit", outside=("training.validate",))
    layers = {}
    for name in CORE_METRICS:
        layers[f"{name}_ms"] = index.self_s(name, **in_step) * step_ms
    layers["tensor.backward_ms"] = index.self_s("tensor.backward") * step_ms
    layers["tensor.ops_per_step"] = float(np.mean(probe.ops))
    layers["tensor.alloc_mib_per_step"] = float(
        np.mean(probe.alloc_bytes)) / 2**20
    layers["optim.clip_ms"] = index.self_s("optim.clip") * step_ms
    layers["optim.step_ms"] = index.self_s("optim.step") * step_ms
    layers["training.step_other_ms"] = index.self_s("training.fit") * step_ms
    validations = index.select("training.validate")
    layers["training.validate_ms"] = 1e3 * sum(
        s.duration for s in validations) / max(1, len(validations))
    untraced = harness.percentile(calibration.durations, 50)
    traced = harness.percentile(probe.durations, 50)
    return {
        "ops": steps,
        "failed": bad,
        "wrong": bad,
        "checks": {"losses_finite": detail},
        "phases": {"fit": {"sent": steps, "succeeded": steps - bad,
                           "failed": bad, "epochs": epochs}},
        "layers": layers,
        "root": root,
        "index": index,
        "overhead": (traced / untraced - 1.0,
                     "step p50: traced fit vs untraced calibration epoch"),
        "traced_wall_s": wall,
    }

