"""The closed-loop serve client, run in a process of its own.

A client that shares the server's process also shares its interpreter
lock, so its JSON and socket work would decide how the server's threads
interleave.  Real clients are other processes, so the benchmark's is too.
It is a plain child process: the job arrives as JSON on stdin and the
outcome leaves as JSON on stdout (``python3 clients.py < job.json``).

The client sends its next request only after the previous answer
arrived.  The loop runs for ``seconds`` and at least ``min_requests``
requests.  Every answer is checked here, against values the benchmark
computed before the loop.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from repro.serve import ServeClient


def place_fields(response: dict) -> tuple:
    result = response["result"]
    return (
        result["reward"],
        result["wirelength"],
        result["temperature_c"],
        response["placement"],
    )


def _problems(client: ServeClient, job: dict, index: int) -> list:
    if job["is_place"][index]:
        response = client.place(job["system"], job["place_method"], job["place_budget"])
        problems = []
        if response["cache"] != "hit":
            problems.append(f"place was a {response['cache']}")
        if list(place_fields(response)) != job["cold_fields"]:
            problems.append("place hit differs from the cold miss")
        return problems
    target = job["targets"][index]
    expected = job["expected"][target]
    response = client.evaluate(
        job["system"], job["pool"][target], "fast", job["budget"]
    )
    got = {key: response[key] for key in expected}
    return [] if got == expected else [f"evaluate {got} != direct {expected}"]


def closed_loop(job: dict) -> dict:
    """Run the loop; returns per-request ``(latency_s, problems)`` and
    the loop's wall time."""
    client = ServeClient(job["url"])
    outcomes = []
    start = time.perf_counter()
    stop_at = start + job["seconds"]
    for index in range(len(job["is_place"])):
        if index >= job["min_requests"] and time.perf_counter() >= stop_at:
            break
        sent = time.perf_counter()
        try:
            problems = _problems(client, job, index)
        except Exception:  # noqa: BLE001 - reported as this request's failure
            problems = [f"raised {traceback.format_exc()}"]
        outcomes.append((time.perf_counter() - sent, problems))
    return {"outcomes": outcomes, "wall": time.perf_counter() - start}


if __name__ == "__main__":
    json.dump(closed_loop(json.load(sys.stdin)), sys.stdout)
