"""Micro-batching queue: coalesce concurrent requests into one batch.

Request threads :meth:`submit` work items tagged with a *group key*
(items in one group may ride the same batched call); a single worker
thread drains the queue.  Whenever the worker is free it takes every
queued item of the oldest group (up to ``max_batch``) and runs them
through one ``run_batch`` call.  A lone request on an idle worker
therefore starts at once, while requests that arrive during a batch
queue up and ride the next one together — a concurrent burst still
amortizes into one GEMM-shaped evaluation, exactly the traffic shape
``evaluate_batch``/``act_batch`` were built for, and nothing ever
waits for companions that may not come.

Correctness does not depend on batch composition: the batched
evaluation paths this feeds are bitwise row-invariant (a placement's
reward, and an episode's trajectory at wave width >= 2, are independent
of what else shares the batch), so coalescing is purely a throughput
decision.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

from repro.utils import get_logger

__all__ = ["MicroBatcher"]

_logger = get_logger("serve.batcher")


class MicroBatcher:
    """One worker thread coalescing same-group submissions.

    Parameters
    ----------
    run_batch:
        ``run_batch(group_key, payloads) -> results`` (same length and
        order as ``payloads``).  Runs on the worker thread; an exception
        fails every item of that batch (independent batches are
        unaffected).
    max_batch:
        Hard cap per batch; excess same-group items form the next batch.
    """

    def __init__(
        self, run_batch, *, max_batch: int = 16, name: str = "batcher"
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._run_batch = run_batch
        self.max_batch = int(max_batch)
        self.name = name
        self._cond = threading.Condition()
        self._queue: list = []  # [(group_key, payload, Future)]
        self._closed = False
        self.n_batches = 0
        self.n_items = 0
        self.largest_batch = 0
        self._worker = threading.Thread(
            target=self._run, name=f"repro-serve-{name}", daemon=True
        )
        self._worker.start()

    # -- client side ---------------------------------------------------

    def submit(self, group_key, payload) -> Future:
        """Enqueue one item; the Future resolves with its result."""
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            self._queue.append((group_key, payload, future))
            self._cond.notify()
        return future

    def call(self, group_key, payload):
        """Blocking :meth:`submit` — the request-handler convenience."""
        return self.submit(group_key, payload).result()

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify()
        self._worker.join(timeout=5.0)
        # Fail anything still queued so no client blocks forever.
        with self._cond:
            leftovers, self._queue = self._queue, []
        for _, _, future in leftovers:
            future.set_exception(RuntimeError(f"{self.name} closed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker side ---------------------------------------------------

    def _take_batch(self) -> list | None:
        """Block until something is queued; take the oldest group.

        Returns the batch (oldest group's items, submission order,
        capped at ``max_batch``) or ``None`` at shutdown.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            group_key = self._queue[0][0]
            batch, rest = [], []
            for item in self._queue:
                if item[0] == group_key and len(batch) < self.max_batch:
                    batch.append(item)
                else:
                    rest.append(item)
            self._queue = rest
            return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            group_key = batch[0][0]
            payloads = [item[1] for item in batch]
            try:
                results = self._run_batch(group_key, payloads)
                if len(results) != len(payloads):
                    raise RuntimeError(
                        f"{self.name}: run_batch returned {len(results)} "
                        f"results for {len(payloads)} payloads"
                    )
            except BaseException as error:  # noqa: BLE001 — fail the batch
                for _, _, future in batch:
                    if not future.cancelled():
                        future.set_exception(error)
                continue
            with self._cond:
                self.n_batches += 1
                self.n_items += len(batch)
                self.largest_batch = max(self.largest_batch, len(batch))
            for (_, _, future), result in zip(batch, results):
                if not future.cancelled():
                    future.set_result(result)

    def stats(self) -> dict:
        with self._cond:
            return {
                "batches": self.n_batches,
                "items": self.n_items,
                "largest_batch": self.largest_batch,
                "queued": len(self._queue),
            }
