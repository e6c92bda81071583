"""Warm-cache registry: build each benchmark's evaluators exactly once.

The expensive part of answering any request is the evaluator stack —
thermal characterization (``load_or_characterize``: an NxN grid of
FEM solves per die size), the ``FastThermalModel`` table interpolators,
and the ``GridThermalSolver`` whose ``splu`` factorization
``hotspot_reuse_factorization`` keeps alive.  The registry builds that
stack once per (benchmark, characterization knobs) key and hands every
subsequent request the warm bundle.

Concurrency contract (the serve layer runs one thread per HTTP
request):

* **Single-flight builds.**  N threads requesting the same cold key
  trigger exactly one ``build_evaluators`` call; the other N-1 block on
  the leader's event and count as hits.  (The disk-level FileLock in
  ``load_or_characterize`` already protects cross-*process* races; this
  layer exists so N in-process threads don't each pay a redundant
  table *load* — or worse, N redundant characterizations on a cold
  cache dir.)
* **Exclusive compute.**  Each bundle carries an RLock that callers
  hold while running its evaluators.  The evaluator objects mutate
  internal state (``evaluation_count``, cached factorizations), so two
  requests never drive one bundle concurrently — they serialize here,
  which is exactly what the micro-batching layer wants anyway: queue
  while busy, then coalesce into one batched call.
"""

from __future__ import annotations

import threading

from repro.experiments.runner import build_evaluators, spec_fingerprint
from repro.store import store_key
from repro.utils import get_logger

__all__ = ["EvaluatorBundle", "WarmRegistry", "bundle_key", "bundle_knobs"]

_logger = get_logger("serve.registry")


def bundle_knobs(budget) -> tuple:
    """The budget fields that change what ``build_evaluators``
    constructs: the characterization density, and whether the grid
    solver caches its factorization."""
    return (
        tuple(budget.position_samples),
        bool(budget.hotspot_reuse_factorization),
    )


def bundle_key(spec, budget) -> str:
    """Content key of one warm evaluator bundle.

    Only the benchmark's content fingerprint and :func:`bundle_knobs`
    participate.  Budgets differing only in training/annealing knobs
    share a bundle.
    """
    position_samples, reuse_factorization = bundle_knobs(budget)
    return store_key(
        "serve-evaluators",
        {
            "spec": spec_fingerprint(spec),
            "position_samples": position_samples,
            "hotspot_reuse_factorization": reuse_factorization,
        },
    )


class EvaluatorBundle:
    """One benchmark's warm evaluator stack plus its compute lock."""

    __slots__ = ("key", "evaluators", "lock", "built_s")

    def __init__(self, key: str, evaluators: dict, built_s: float):
        self.key = key
        self.evaluators = evaluators
        self.lock = threading.RLock()
        self.built_s = built_s

    def evaluator_calls(self) -> int:
        """Total reward evaluations both calculators have ever run —
        the counter whose per-request delta the stats report (a
        memoized repeat must show a delta of zero)."""
        return (
            self.evaluators["reward_fast"].evaluation_count
            + self.evaluators["reward_solver"].evaluation_count
        )


class _Entry:
    __slots__ = ("event", "bundle", "error")

    def __init__(self):
        self.event = threading.Event()
        self.bundle: EvaluatorBundle | None = None
        self.error: BaseException | None = None


class WarmRegistry:
    """Single-flight cache of :class:`EvaluatorBundle` per content key."""

    def __init__(self, cache_dir=None, builder=None):
        # ``builder`` is injectable so tests can count/fail builds
        # without touching the real characterization path.
        self._builder = builder or build_evaluators
        self._cache_dir = cache_dir
        self._lock = threading.Lock()
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.builds = 0

    def bundle(self, spec, budget, key: str | None = None) -> EvaluatorBundle:
        """The warm bundle for (spec, budget) — built at most once.

        ``key`` is ``bundle_key(spec, budget)`` when the caller has it
        already.  The first thread in becomes the builder; concurrent
        requesters of the same key block until the build publishes (or
        re-raise the builder's error — a failed build is dropped so a
        later request can retry rather than caching the failure
        forever).
        """
        import time

        if key is None:
            key = bundle_key(spec, budget)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry()
                self._entries[key] = entry
                self.misses += 1
                is_builder = True
            else:
                self.hits += 1
                is_builder = False
        if not is_builder:
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            return entry.bundle
        try:
            start = time.perf_counter()
            evaluators = self._builder(spec, budget, self._cache_dir)
            entry.bundle = EvaluatorBundle(
                key, evaluators, built_s=time.perf_counter() - start
            )
            with self._lock:
                self.builds += 1
            _logger.info(
                "warmed evaluators for %s in %.2fs (key %s)",
                spec.name,
                entry.bundle.built_s,
                key[:12],
            )
        except BaseException as error:
            entry.error = error
            with self._lock:
                # Drop the failed entry: the next request retries the
                # build instead of inheriting a poisoned cache slot.
                self._entries.pop(key, None)
            raise
        finally:
            entry.event.set()
        return entry.bundle

    def stats(self) -> dict:
        with self._lock:
            return {
                "bundles": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
            }
