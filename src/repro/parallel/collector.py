"""Distributed PPO episode collection over a persistent process pool.

The trainer's batched engine already made every episode a pure function
of (policy weights, its own ``episode.{index}`` RNG stream): episode
``k`` of a run draws from ``SeedSequence(seed).rng(f"episode.{k}")`` no
matter which lockstep wave it rides in, which is what makes batched
collection width-invariant.  This module pushes that property across
process boundaries:

* :func:`collect_wave` / :func:`collect_slice` — the one and only
  lockstep collection loop.  The trainer's in-process path and the pool
  workers both run *this* code, so ``collect_jobs=N`` cannot drift from
  ``collect_jobs=1`` by construction.
* :class:`EpisodeCollector` — a persistent worker pool.  Workers build
  their environment + network replica once (pool initializer); each
  epoch the trainer broadcasts its policy weights (the versioned
  :func:`repro.nn.dumps_payload` schema — the same bytes a checkpoint
  would hold) and assigns each worker a contiguous, *wave-aligned*
  slice of episode indices (:func:`partition_episodes`).  Every episode
  keeps its exact ``episode.{index}`` stream *and* its exact lockstep
  wave width, and the parent merges the slices back in index order, so
  the merged epoch is **bitwise identical** to in-process collection —
  the regression tests pin ``collect_jobs`` 2 and 4 against 1 for the
  plain, RND and batched trainers, including kill+resume.

Because the per-episode streams are *stateless* — derived on demand
from ``(seed, index)`` — workers carry no RNG state between epochs.
The only cross-epoch collection state is the trainer's global episode
counter, which PR 5's checkpoint payload already captures
(``state_dict()["episode_index"]``); kill+resume under sharded
collection therefore stays bitwise with no extra bookkeeping.

The sequential engine (``batch_size=1``) shares one action stream
across episodes — episode ``k``'s trajectory depends on every draw
before it — so it cannot be sharded without changing its golden-pinned
results; the trainer falls back to in-process collection for it
(loudly).

**Fault tolerance.**  Because every slice is a pure function of the
broadcast weights and its ``episode.{index}`` SeedSequence streams,
losing a worker loses no information: :meth:`EpisodeCollector.collect`
detects dead workers (``BrokenProcessPool``) and stalled epochs (no
slice completing within ``slice_timeout``), rebuilds the pool on fresh
processes, and re-dispatches exactly the missing slices — the merged
epoch is **bitwise identical** to an undisturbed one (regression-
pinned).  After ``max_pool_failures`` consecutive failed rounds the
collector degrades to in-process collection (same
:func:`collect_slice` loop, still bitwise) instead of fighting a
broken machine.  A worker-initializer failure is captured in the
worker and re-raised promptly as a
:class:`~repro.parallel.faults.WorkerInitError` carrying the real
traceback, never surfacing as an opaque ``BrokenProcessPool``.
Degradation is not a life sentence: after ``reprobe_after`` in-process
epochs the collector re-probes the pool (one probation round — a
single failed round re-degrades), so a run that outlives a transient
machine-wide stall gets its workers back.

**Pipelined (async) collection.**  :meth:`EpisodeCollector.prefetch`
dispatches a slice set *without blocking* and
:meth:`EpisodeCollector.collect_prefetched` harvests it later — the
futures-based handoff behind the trainer's ``async_collect`` mode,
where collection of epoch k+1 (with the *pre-update* epoch-k weights)
overlaps the PPO update of epoch k.  The broadcast payload is
double-buffered by construction: the prefetch holds its own serialized
weight bytes, so the learner is free to mutate the live network while
workers collect.  All fault tolerance carries over — a lost prefetch
worker is re-dispatched at harvest time *from the stored bytes*, so
faults can never change which policy collected an epoch.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait

import numpy as np

from repro.nn import dumps_payload, loads_payload
from repro.parallel import chaos
from repro.parallel.faults import RetryPolicy, WorkerInitError
from repro.rl import Episode
from repro.utils import SeedSequence, get_logger

__all__ = [
    "EpisodeCollector",
    "POLICY_PAYLOAD_KIND",
    "ReplicaCollector",
    "collect_slice",
    "collect_wave",
    "partition_episodes",
]

_logger = get_logger("parallel.collector")

#: ``kind`` tag of the per-epoch policy-weight broadcast payload.
POLICY_PAYLOAD_KIND = "collector-policy"


def episode_rng(seeds: SeedSequence, index: int) -> np.random.Generator:
    """The RNG stream of global episode ``index`` (pure in (seed, index))."""
    return seeds.rng(f"episode.{index}")


def partition_episodes(
    start_index: int, count: int, width: int, jobs: int
) -> list:
    """Contiguous, wave-aligned ``(start, size)`` slices of an epoch.

    In-process collection sweeps the epoch in lockstep waves of
    ``width`` episodes (a final partial wave takes the remainder).
    Slices are cut ONLY on those wave boundaries, so a sharded epoch
    reproduces the exact in-process wave structure: every episode rides
    a wave of the same width it would ride under ``collect_jobs=1``.
    That alignment is load-bearing for bitwise equality — per-row
    results are width-invariant across widths >= 2 (shape-stable
    per-row GEMMs), but a width-1 wave goes through a different BLAS
    kernel (GEMV vs GEMM) whose accumulation can differ in the last
    ulp, so the remainder wave must stay a remainder wave.

    Deterministic in its arguments: the first ``n_waves % jobs`` slices
    get one extra wave.  Empty slices are never emitted (``jobs``
    beyond the wave count simply go idle), so every returned slice maps
    to one worker task.
    """
    if count < 1:
        return []
    width = min(width, count)
    n_waves = -(-count // width)  # ceil division
    workers = min(jobs, n_waves)
    base, extra = divmod(n_waves, workers)
    slices = []
    first_wave = 0
    for worker in range(workers):
        waves = base + (1 if worker < extra else 0)
        begin = first_wave * width
        end = min((first_wave + waves) * width, count)
        slices.append((start_index + begin, end - begin))
        first_wave += waves
    return slices


def collect_wave(network, batched_env, rngs, greedy: bool = False) -> list:
    """One lockstep wave of ``len(rngs)`` episodes through ``batched_env``.

    Row ``i`` samples exclusively from ``rngs[i]``; the conv stack runs
    per-row shape-stable GEMMs, so each episode's trajectory is
    independent of its wave companions — the invariance every
    ``collect_jobs``/``batch_size`` guarantee in this repo rests on.
    """
    wave_n = len(rngs)
    episodes = [Episode() for _ in range(wave_n)]
    infos: list = [{} for _ in range(wave_n)]
    observations, masks = batched_env.reset(wave_n)
    live = batched_env.live_indices
    static_channels = batched_env.observation_builder.STATIC_CHANNELS
    first_step = True
    while len(live):
        actions, log_probs, values = network.act_batch(
            observations,
            masks,
            [rngs[i] for i in live],
            greedy=greedy,
            static_channels=static_channels,
            # Right after a lockstep reset every row is identical, so
            # the forward runs once and broadcasts.
            shared_rows=first_step,
        )
        first_step = False
        for row, index in enumerate(live):
            episodes[index].add_step(
                observations[row],
                masks[row],
                int(actions[row]),
                float(log_probs[row]),
                float(values[row]),
            )
        result = batched_env.step(actions)
        for index, reward, info in result.finished:
            episodes[index].set_terminal_reward(reward)
            infos[index] = info
        observations, masks = result.observations, result.masks
        live = result.live_indices
    return list(zip(episodes, infos))


def collect_slice(
    network,
    batched_env,
    seeds: SeedSequence,
    start_index: int,
    count: int,
    width: int,
    greedy: bool = False,
) -> list:
    """Collect episodes ``start_index .. start_index+count-1`` in waves.

    Exactly the trainer's in-process batched loop: waves of
    ``min(width, remaining)`` episodes, each episode on its own
    ``episode.{index}`` stream.  Called identically by the trainer
    (one slice spanning the whole epoch) and by pool workers (one
    contiguous sub-slice each).
    """
    collected = []
    width = min(width, count)
    for offset in range(0, count, width):
        wave_n = min(width, count - offset)
        rngs = [
            episode_rng(seeds, start_index + offset + k)
            for k in range(wave_n)
        ]
        collected.extend(collect_wave(network, batched_env, rngs, greedy))
    return collected


class ReplicaCollector:
    """A lazily built env + network replica collecting from weight bytes.

    The one in-process collection engine every fallback path shares:
    the pool's degradation rung, the remote collector's last rung, and
    the remote worker's task loop all call :meth:`collect` with the
    broadcast payload bytes and a list of ``(index, (start, size))``
    slices.  Construction is deferred to first use (degradation paths
    are usually never taken), and the network's init weights are
    irrelevant — every call starts by loading the broadcast payload —
    so a fixed dummy RNG keeps it cheap and seed-independent.
    """

    def __init__(
        self, system, reward_calculator, env_config, channels, batch_size, seed
    ):
        self._env_args = (system, reward_calculator, env_config)
        self._channels = tuple(channels)
        self.batch_size = batch_size
        self._seed = seed
        self._network = None
        self._batched_env = None
        self._seeds: SeedSequence | None = None

    def _ensure(self) -> None:
        if self._network is not None:
            return
        # Imported lazily: repro.agent.__init__ imports the trainer,
        # which imports this module — a module-level import of the
        # networks would close that cycle during interpreter start-up.
        from repro.agent.networks import ActorCritic
        from repro.env import BatchedFloorplanEnv, FloorplanEnv

        env = FloorplanEnv(*self._env_args)
        self._network = ActorCritic(
            env.observation_shape,
            env.n_actions,
            channels=self._channels,
            rng=np.random.default_rng(0),
        )
        self._batched_env = BatchedFloorplanEnv(*self._env_args)
        self._seeds = SeedSequence(self._seed)

    def collect(self, weights: bytes, slices: list, greedy: bool) -> dict:
        """Run ``[(index, (start, size)), ...]``; returns {index: pairs}.

        Loads the broadcast payload into the replica — never a live
        training network, which under async collection may already hold
        post-update weights — then runs the one lockstep loop.  The
        payload round-trips bit-for-bit, so every engine that runs this
        code on the same bytes agrees bitwise.
        """
        self._ensure()
        self._network.load_state_dict(
            loads_payload(weights, kind=POLICY_PAYLOAD_KIND)
        )
        return {
            index: collect_slice(
                self._network,
                self._batched_env,
                self._seeds,
                start,
                size,
                self.batch_size,
                greedy=greedy,
            )
            for index, (start, size) in slices
        }


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-process replica of the collection stack, built once by the pool
#: initializer and reused for every epoch the worker serves.
_WORKER_STATE: dict | None = None


def _init_worker(
    system, reward_calculator, env_config, channels, batch_size, seed
) -> None:
    """Pool initializer: build this worker's env + network replica.

    Runs once per worker process.  The network's init weights are
    irrelevant — every task starts by loading the broadcast weights —
    so a fixed dummy RNG keeps construction cheap and seed-independent.

    A construction failure (bad env config, missing table file...) is
    **captured**, not raised: an initializer that raises kills the
    worker, the executor respawns it, it dies again, and the parent
    eventually sees an opaque ``BrokenProcessPool`` with the real
    traceback lost to a worker's stderr.  Instead the failure is parked
    in the worker state and the first task re-raises it as a
    :class:`WorkerInitError` carrying the full traceback — promptly and
    debuggably.
    """
    global _WORKER_STATE
    try:
        chaos.maybe_fail("collector.init")
        # Imported here, not at module level: repro.agent.__init__
        # imports the trainer, which imports this module — a module-
        # level import of the networks would close that cycle during
        # interpreter start-up.
        from repro.agent.networks import ActorCritic
        from repro.env import BatchedFloorplanEnv, FloorplanEnv

        env = FloorplanEnv(system, reward_calculator, env_config)
        network = ActorCritic(
            env.observation_shape,
            env.n_actions,
            channels=channels,
            rng=np.random.default_rng(0),
        )
        _WORKER_STATE = {
            "network": network,
            "batched_env": BatchedFloorplanEnv(
                system, reward_calculator, env_config
            ),
            "seeds": SeedSequence(seed),
            "batch_size": batch_size,
        }
    except BaseException:  # noqa: BLE001 - captured for prompt re-raise
        _WORKER_STATE = {"init_error": traceback.format_exc()}


def _collect_remote(
    weights: bytes,
    start_index: int,
    count: int,
    greedy: bool,
    chaos_point: str = "collector.slice",
) -> list:
    """Worker task: load the broadcast weights, collect one slice.

    ``chaos_point`` names the injection site this dispatch fires
    (``collector.slice`` for lockstep epochs, ``collector.prefetch``
    for slices dispatched ahead of time by the async trainer) so chaos
    runs can target one mode without disturbing the other.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer contract
        raise RuntimeError("collector worker was never initialized")
    if "init_error" in state:
        raise WorkerInitError(
            "collection worker failed to initialize:\n" + state["init_error"]
        )
    chaos.maybe_fail(chaos_point, f"slice@{start_index}")
    state["network"].load_state_dict(
        loads_payload(weights, kind=POLICY_PAYLOAD_KIND)
    )
    return collect_slice(
        state["network"],
        state["batched_env"],
        state["seeds"],
        start_index,
        count,
        state["batch_size"],
        greedy=greedy,
    )


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class EpisodeCollector:
    """Persistent worker pool for sharded episode collection.

    Parameters
    ----------
    system, reward_calculator, env_config:
        The environment replica each worker builds (must be picklable —
        the fast thermal model is; a live ``splu``-holding grid solver
        is not, and RL arms never train against one).
    jobs:
        Worker processes (>= 2; ``collect_jobs=1`` never constructs a
        collector).
    batch_size:
        Lockstep wave width inside each worker (>= 2: the sequential
        engine's shared action stream cannot be sharded).
    seed:
        The trainer seed; workers re-derive the exact per-episode
        streams from it.
    encoder_channels:
        Conv widths of the actor-critic replica.
    slice_timeout:
        Straggler detection: if no slice completes for this many
        seconds while work is outstanding, the epoch is declared
        stalled, the pool's workers are killed and rebuilt, and the
        missing slices are re-dispatched (bitwise-safe — slices are
        pure functions of the broadcast weights and seed streams).
        ``None`` (default) disables the stall clock.
    policy:
        :class:`~repro.parallel.faults.RetryPolicy` supplying the
        backoff pauses between pool rebuilds (its attempt budget is
        not used here — ``max_pool_failures`` bounds the rebuilds).
    max_pool_failures:
        After this many *consecutive* failed dispatch rounds (a round
        that completes at least one slice resets the count), the
        collector stops fighting the machine and degrades to
        in-process collection — same :func:`collect_slice` loop, so
        still bitwise.
    reprobe_after:
        Degradation is bounded, not sticky: after this many in-process
        collection rounds the collector re-probes the pool with one
        probation round (a single failed round re-degrades immediately,
        a successful one fully rehabilitates the pool).  ``0`` restores
        the old degrade-forever behavior.  Re-probing never changes
        results — only which process runs the same pure slice
        functions.

    Workers spawn lazily on the first :meth:`collect` and persist
    across epochs; :meth:`close` (or the context manager) releases
    them.  Any failure or interrupt mid-collection shuts the pool down
    with ``cancel_futures=True`` before propagating, so a Ctrl-C never
    strands worker processes behind a dead trainer.
    """

    def __init__(
        self,
        system,
        reward_calculator,
        env_config,
        *,
        jobs: int,
        batch_size: int,
        seed: int,
        encoder_channels: tuple = (16, 32, 32),
        slice_timeout: float | None = None,
        policy: RetryPolicy | None = None,
        max_pool_failures: int = 3,
        reprobe_after: int = 2,
    ):
        if jobs < 2:
            raise ValueError("EpisodeCollector needs jobs >= 2")
        if batch_size < 2:
            raise ValueError(
                "distributed collection requires the batched engine "
                "(batch_size >= 2); the sequential engine's episodes "
                "share one action stream and cannot be sharded bitwise"
            )
        if max_pool_failures < 1:
            raise ValueError("max_pool_failures must be >= 1")
        if reprobe_after < 0:
            raise ValueError("reprobe_after must be >= 0 (0 = never)")
        self.jobs = jobs
        self.batch_size = batch_size
        self.slice_timeout = slice_timeout
        self.policy = policy if policy is not None else RetryPolicy()
        self.max_pool_failures = max_pool_failures
        self.reprobe_after = reprobe_after
        self._env_args = (system, reward_calculator, env_config)
        self._seed = seed
        self._initargs = (
            system,
            reward_calculator,
            env_config,
            tuple(encoder_channels),
            batch_size,
            seed,
        )
        self._pool: ProcessPoolExecutor | None = None
        self._consecutive_failures = 0
        self._degraded = False
        self._inprocess_rounds = 0
        self._fallback: ReplicaCollector | None = None
        # Outstanding prefetch (async mode): {"weights", "slices",
        # "futures", "greedy"} or None.  At most one at a time.
        self._prefetch: dict | None = None

    @property
    def active(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._pool is not None

    @property
    def degraded(self) -> bool:
        """Whether the collector has fallen back to in-process collection."""
        return self._degraded

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            _logger.info("starting %d collection workers", self.jobs)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=self._initargs,
            )
        return self._pool

    def _teardown_pool(self) -> None:
        """Kill the worker processes and forget the pool (hung-safe).

        ``shutdown(wait=True)`` would block on a hung worker forever;
        instead the process table is snapshotted, the executor is
        abandoned with ``cancel_futures``, and the workers are
        terminated outright.  Slices are side-effect-free, so a killed
        worker loses nothing that re-dispatch cannot reproduce.
        """
        if self._pool is None:
            return
        workers = list((getattr(self._pool, "_processes", None) or {}).values())
        self._pool.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            if process.is_alive():
                process.terminate()
        self._pool = None

    def _collect_in_process(
        self, weights: bytes, slices: list, greedy: bool
    ) -> dict:
        """Run ``slices`` through the same lockstep loop, in the parent.

        The degradation path, delegated to a lazily cached
        :class:`ReplicaCollector` (which loads the *broadcast payload*,
        never the trainer's live network — see its docstring).
        """
        if self._fallback is None:
            self._fallback = ReplicaCollector(
                *self._env_args,
                channels=self._initargs[3],
                batch_size=self.batch_size,
                seed=self._seed,
            )
        return self._fallback.collect(weights, slices, greedy)

    def _degrade(self, reason: str) -> None:
        _logger.error(
            "collection pool failed %d consecutive round(s) (%s); "
            "degrading to in-process collection — results stay bitwise "
            "identical, only wall clock suffers%s",
            self._consecutive_failures,
            reason,
            (
                f"; the pool will be re-probed after "
                f"{self.reprobe_after} in-process round(s)"
                if self.reprobe_after
                else ""
            ),
        )
        self._teardown_pool()
        self._degraded = True
        self._inprocess_rounds = 0

    def _maybe_reprobe(self) -> None:
        """Bounded re-probe: lift degradation after ``reprobe_after`` rounds.

        The rehabilitated pool gets exactly one probation round —
        ``_consecutive_failures`` restarts at ``max_pool_failures - 1``,
        so a single failed round re-degrades (and restarts the re-probe
        clock), while a successful round resets the count to zero as
        usual.
        """
        if not self._degraded or not self.reprobe_after:
            return
        if self._inprocess_rounds < self.reprobe_after:
            return
        _logger.warning(
            "re-probing the collection pool after %d in-process "
            "round(s) — one probation round, results unaffected",
            self._inprocess_rounds,
        )
        self._degraded = False
        self._inprocess_rounds = 0
        self._consecutive_failures = self.max_pool_failures - 1

    def collect(
        self, network, start_index: int, count: int, greedy: bool = False
    ) -> list:
        """Collect ``count`` episodes starting at global ``start_index``.

        Broadcasts ``network``'s weights once, fans contiguous index
        slices over the workers, and returns ``[(Episode, info), ...]``
        merged in strict index order — bitwise identical to one
        in-process :func:`collect_slice` over the same range.
        """
        weights = dumps_payload(network.state_dict(), kind=POLICY_PAYLOAD_KIND)
        return self.collect_with_weights(
            weights, start_index, count, greedy=greedy
        )

    def collect_with_weights(
        self,
        weights: bytes,
        start_index: int,
        count: int,
        greedy: bool = False,
    ) -> list:
        """Like :meth:`collect`, but from already-serialized weights.

        The async trainer's entry point: the payload bytes pin *which*
        policy collects, independent of what the live network holds by
        the time collection actually runs.

        Survives worker loss: dead workers (``BrokenProcessPool``) and
        stalled epochs (``slice_timeout``) trigger a pool rebuild and
        re-dispatch of exactly the slices that never completed.  A
        deterministic exception from a slice (a real bug) propagates
        immediately; so does :class:`WorkerInitError` (rebuilt workers
        would fail construction identically).  After
        ``max_pool_failures`` consecutive failed rounds the remaining
        slices run in-process and the collector degrades (until the
        bounded re-probe lifts it).
        """
        slices = list(
            enumerate(
                partition_episodes(
                    start_index, count, self.batch_size, self.jobs
                )
            )
        )
        return self._run_rounds(
            weights, slices, {}, None, greedy, "collector.slice"
        )

    # ------------------------------------------------------------------
    # pipelined (async) handoff
    # ------------------------------------------------------------------

    @property
    def prefetching(self) -> bool:
        """Whether a prefetched slice set is outstanding."""
        return self._prefetch is not None

    def prefetch(
        self,
        weights: bytes,
        start_index: int,
        count: int,
        greedy: bool = False,
    ) -> None:
        """Dispatch a slice set to the pool without waiting for it.

        The double-buffered half of async collection: ``weights`` is a
        self-contained serialized payload, so the caller may mutate its
        live network (run the PPO update) while workers collect.
        Harvest with :meth:`collect_prefetched`.

        Degraded (or submission-failed) prefetches dispatch nothing —
        the caller's harvest falls back to :meth:`collect_with_weights`
        with the same stored bytes, so overlap is lost but results are
        not.  At most one prefetch may be outstanding.
        """
        if self._prefetch is not None:
            raise RuntimeError(
                "a prefetch is already outstanding; harvest it with "
                "collect_prefetched() or drop it with cancel_prefetch()"
            )
        self._maybe_reprobe()
        if self._degraded:
            return
        slices = list(
            enumerate(
                partition_episodes(
                    start_index, count, self.batch_size, self.jobs
                )
            )
        )
        try:
            futures = self._submit_round(
                weights, slices, greedy, "collector.prefetch"
            )
        except Exception as error:  # noqa: BLE001 - resilience path
            # A dead pool at submit time counts as one failed round;
            # the harvest-side retry loop (or eventual degradation)
            # takes it from here.  A non-transient error (a real bug)
            # would reproduce at harvest time too — surface it now.
            if not self.policy.is_transient(error):
                raise
            _logger.warning(
                "prefetch dispatch failed (%r); collection will run "
                "synchronously at harvest time",
                error,
            )
            self._teardown_pool()
            self._consecutive_failures += 1
            return
        self._prefetch = {
            "weights": weights,
            "slices": slices,
            "futures": futures,
            "greedy": greedy,
        }

    def collect_prefetched(self) -> list:
        """Harvest the outstanding prefetch (blocking), merged in order.

        Fault tolerance matches :meth:`collect_with_weights`: slices
        lost with a dead worker are re-dispatched from the prefetch's
        *stored* weight bytes, so a fault can never change which policy
        collected the epoch.
        """
        state = self._prefetch
        self._prefetch = None
        if state is None:
            raise RuntimeError("no prefetch is outstanding")
        return self._run_rounds(
            state["weights"],
            state["slices"],
            {},
            state["futures"],
            state["greedy"],
            "collector.prefetch",
        )

    def cancel_prefetch(self) -> None:
        """Drop the outstanding prefetch, if any (idempotent).

        Queued slices are cancelled; already-running ones finish in
        their workers and are discarded.  Nothing is consumed, so
        determinism is unaffected.
        """
        state = self._prefetch
        self._prefetch = None
        if state is None:
            return
        for future in state["futures"]:
            future.cancel()

    # ------------------------------------------------------------------

    def _run_rounds(
        self,
        weights: bytes,
        slices: list,
        results: dict,
        futures: dict | None,
        greedy: bool,
        chaos_point: str,
    ) -> list:
        """Drive ``slices`` to completion; the one retry/degrade loop.

        ``futures`` carries an already-dispatched round (the prefetch
        handoff) to harvest before any new dispatch.  Missing slices
        are re-dispatched on fresh pools with backoff until they
        complete, a deterministic error propagates, or
        ``max_pool_failures`` consecutive failures degrade the rest to
        in-process collection.
        """
        self._maybe_reprobe()
        if self._degraded:
            self._inprocess_rounds += 1
            results.update(
                self._collect_in_process(
                    weights,
                    [item for item in slices if item[0] not in results],
                    greedy,
                )
            )
            return self._merge(results, slices)
        try:
            while True:
                missing = [item for item in slices if item[0] not in results]
                if not missing:
                    break
                if self._consecutive_failures >= self.max_pool_failures:
                    self._degrade("giving up on the pool")
                    self._inprocess_rounds += 1
                    results.update(
                        self._collect_in_process(weights, missing, greedy)
                    )
                    break
                round_failure = None
                if futures is None:
                    try:
                        futures = self._submit_round(
                            weights, missing, greedy, chaos_point
                        )
                    except Exception as error:
                        # A worker dying between two submits of the same
                        # round breaks the pool mid-dispatch and makes
                        # the *next* submit raise synchronously; that is
                        # a lost round like any other, not a crash.
                        if not self.policy.is_transient(error):
                            raise
                        round_failure = f"dispatch failed: {error!r}"
                if round_failure is None:
                    round_failure = self._gather_round(futures, results)
                futures = None
                if round_failure is None:
                    self._consecutive_failures = 0
                else:
                    self._consecutive_failures += 1
                    _logger.warning(
                        "collection round failed (%s); rebuilding the pool "
                        "and re-dispatching %d missing slice(s) "
                        "[failure %d/%d]",
                        round_failure,
                        sum(
                            1
                            for item in slices
                            if item[0] not in results
                        ),
                        self._consecutive_failures,
                        self.max_pool_failures,
                    )
                    self._teardown_pool()
                    if self._consecutive_failures < self.max_pool_failures:
                        time.sleep(
                            self.policy.backoff(
                                "collector", self._consecutive_failures
                            )
                        )
        except BaseException:
            # Real bug, WorkerInitError, or Ctrl-C in the parent: never
            # strand the pool — cancel queued slices and abandon the rest.
            self.close(wait=False)
            raise
        return self._merge(results, slices)

    def _submit_round(
        self, weights: bytes, missing: list, greedy: bool, chaos_point: str
    ) -> dict:
        """Dispatch ``missing`` to the pool; returns {future: index}."""
        pool = self._ensure_pool()
        return {
            pool.submit(
                _collect_remote, weights, start, size, greedy, chaos_point
            ): index
            for index, (start, size) in missing
        }

    def _gather_round(self, futures: dict, results: dict) -> str | None:
        """Await one dispatched round; fills ``results`` in place.

        Returns ``None`` on full success, else a short description of
        the failure (the round should be retried on a fresh pool).
        Deterministic slice exceptions and init failures are raised,
        not returned — they would reproduce on any pool.
        """
        pending = set(futures)
        while pending:
            finished, pending = futures_wait(
                pending,
                timeout=self.slice_timeout,
                return_when=FIRST_COMPLETED,
            )
            if not finished:
                # Straggler: nothing completed inside the stall window.
                return (
                    f"no slice completed within slice_timeout="
                    f"{self.slice_timeout:.1f}s"
                )
            for future in finished:
                error = future.exception()
                if error is None:
                    results[futures[future]] = future.result()
                elif self.policy.is_transient(error):
                    # Dead worker / broken pool: sibling futures are
                    # lost with it; report the round failed.
                    return f"worker lost: {error!r}"
                else:
                    # A real exception from the slice itself (or a
                    # WorkerInitError): reproduces on retry — raise.
                    raise error
        return None

    @staticmethod
    def _merge(results: dict, slices: list) -> list:
        # Slices are keyed by their partition index, so concatenation
        # in that order IS the fixed index-order merge the
        # best-placement selection relies on — however many dispatch
        # rounds (or the in-process fallback) produced them.
        return [
            pair for index, _ in slices for pair in results[index]
        ]

    def close(self, wait: bool = True) -> None:
        """Release the worker processes (idempotent)."""
        self.cancel_prefetch()
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None

    def __enter__(self) -> "EpisodeCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=exc_info[0] is None)
