"""Open-loop HTTP load generator for ``serve_open_loop``.

Requests follow a fixed schedule of due times (a seeded Poisson process)
and are sent by ``threads`` worker threads, one connection each, so at
most ``threads`` requests are in flight.  A request that finds both
threads busy is sent late; its latency still counts from its due time,
so a stall shows up in every request it delays.  The clock stops when
the response body has been read; checking the body comes afterwards.
"""

from __future__ import annotations

import http.client
import threading
import time

import numpy as np


class Outcome:
    """Timing and raw response of one request (stamps are monotonic)."""

    __slots__ = ("due", "sent", "done", "status", "body")

    def __init__(self, due, sent, done, status, body) -> None:
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.body = body


def post(host: str, port: int, body: bytes, timeout: float):
    """POST one ``/predict`` request; returns ``(status, body)``.

    A connection error, timeout or malformed response returns status
    ``None``.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/predict", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as error:
        return None, repr(error).encode()
    finally:
        conn.close()


def poisson_schedule(rng: np.random.Generator, rate: float,
                     count: int) -> np.ndarray:
    """Due offsets (seconds from the start) of *count* arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def run_open_loop(host: str, port: int, bodies: list[bytes],
                  offsets: np.ndarray, threads: int = 2,
                  timeout: float = 10.0, lead_s: float = 0.05):
    """Send ``bodies[i]`` at ``start + offsets[i]``; returns
    ``(outcomes, max_inflight)``."""
    start = time.monotonic() + lead_s
    outcomes: list[Outcome | None] = [None] * len(bodies)
    lock = threading.Lock()
    state = {"next": 0, "inflight": 0, "max_inflight": 0}

    def worker() -> None:
        while True:
            with lock:
                index = state["next"]
                state["next"] += 1
            if index >= len(bodies):
                return
            due = start + float(offsets[index])
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            with lock:
                state["inflight"] += 1
                state["max_inflight"] = max(state["max_inflight"],
                                            state["inflight"])
            sent = time.monotonic()
            status, body = post(host, port, bodies[index], timeout)
            done = time.monotonic()
            with lock:
                state["inflight"] -= 1
            outcomes[index] = Outcome(due, sent, done, status, body)

    pool = [threading.Thread(target=worker, daemon=True)
            for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return outcomes, state["max_inflight"]
