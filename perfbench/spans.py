"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of each layer (class methods on the
class, imported functions in the module that calls them) for the
duration of a traced run and restores them afterwards.  Spans nest per
thread: a layer's *self* time is its spans' duration minus the time of
the spans they directly caused, so a reward evaluation that runs bump
assignment and a thermal model reports only its own arithmetic.

Only the calling process is traced.  Collection workers of the sharded
trainer run in child processes, so their spans are not recorded: on
``rl_sharded`` the layers below ``parallel.collector`` read as idle in
the parent, and ``parallel.collect.wait_s`` holds the parent's blocked
time instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict

# (layer, module, attribute path, counter).  The counter turns one call
# (its arguments and result) into {count name: amount}; it runs only for
# the outermost span of a layer, so a batched call that fans into the
# layer's scalar path is counted once.


def _one(_args, _result):
    return {"calls": 1}


def _placements(args, _result):
    placements = args[1]
    n = 1 if hasattr(placements, "system") else len(placements)
    return {"calls": 1, "placements": n}


def _env_step(args, result):
    finished = result.finished
    return {
        "steps": len(args[1]),
        "episodes": len(finished),
        "deadlocks": sum(1 for _, _, info in finished if info.get("deadlock")),
    }


def _payload(_args, result):
    return {"calls": 1, "bytes": len(result)}


def _propose(_args, result):
    return {"proposals": 1, "feasible": int(result is not None)}


def _fetch(_args, result):
    return {"calls": 1, "hits": int(bool(result[0]))}


WRAPPED = (
    ("thermal.characterize", "repro.experiments.runner", "load_or_characterize", _one),
    ("thermal.fast", "repro.thermal.fast_model", "FastThermalModel.evaluate", _placements),
    ("thermal.fast", "repro.thermal.fast_model", "FastThermalModel.evaluate_batch", _placements),
    ("thermal.fast", "repro.thermal.fast_model", "FastThermalModel.max_temperatures", _placements),
    ("thermal.solver", "repro.thermal.grid_solver", "GridThermalSolver.evaluate", _placements),
    ("thermal.solver", "repro.thermal.grid_solver", "GridThermalSolver.evaluate_many", _placements),
    ("thermal.solver", "repro.thermal.grid_solver", "GridThermalSolver.max_temperatures", _placements),
    ("bumps.assign", "repro.bumps.assign", "BumpAssigner.assign", _one),
    ("reward", "repro.reward.reward", "RewardCalculator.evaluate", _placements),
    ("reward", "repro.reward.reward", "RewardCalculator.evaluate_batch", _placements),
    ("reward", "repro.reward.reward", "RewardCalculator.evaluate_many", _placements),
    ("reward", "repro.reward.reward", "RewardCalculator.evaluate_many_exact", _placements),
    ("env.step", "repro.env.batched_env", "BatchedFloorplanEnv.step", _env_step),
    ("agent.act", "repro.agent.networks", "ActorCritic.act_batch", _one),
    ("rl.ppo", "repro.rl.ppo", "PPOUpdater.update", _one),
    ("nn.payload", "repro.parallel.collector", "dumps_payload", _payload),
    ("nn.payload", "repro.agent.trainer", "dumps_payload", _payload),
    ("parallel.collect", "repro.parallel.collector", "EpisodeCollector.collect", _one),
    ("sa.propose", "repro.baselines.tap25d", "TAP25DPlacer.propose", _propose),
    ("store.fetch", "repro.store.runstore", "RunStore.fetch", _fetch),
    ("serve.evaluate", "repro.serve.engine", "ServeEngine.evaluate", _one),
    ("serve.place", "repro.serve.engine", "ServeEngine.place", _one),
)


class Tracer:
    """Span recorder for the layers in :data:`WRAPPED`.

    ``install`` patches the layers, ``uninstall`` restores them.  While
    ``paused`` (the benchmark's own output checks) wrapped calls run
    untraced, so checking work never reads as program work.
    """

    def __init__(self):
        self.busy = defaultdict(float)  # layer -> inclusive seconds
        self.self_time = defaultdict(float)  # layer -> exclusive seconds
        self.counts = defaultdict(int)  # "layer.count" -> amount
        self.spans = 0
        self.paused = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def install(self) -> None:
        for layer, module_name, path, counter in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[name]
            setattr(owner, name, self._wrap(layer, original, counter))
            self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, layer, function, counter):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer.paused:
                return function(*args, **kwargs)
            stack = tracer._stack()
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]  # layer, time of direct children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.spans += 1
                    tracer.self_time[layer] += elapsed - frame[1]
                    if outermost:
                        tracer.busy[layer] += elapsed
            if outermost:
                with tracer._lock:
                    for key, amount in counter(args, result).items():
                        tracer.counts[f"{layer}.{key}"] += amount
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def busy_snapshot(self) -> dict:
        """Copy of the inclusive busy times (for deltas over one phase)."""
        with self._lock:
            return dict(self.busy)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


@contextlib.contextmanager
def paused(tracer: Tracer | None):
    """Context in which wrapped calls are not recorded (no-op untraced)."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False
