"""End-to-end benchmark of the three paths users run: ``repro run``, a
``repro explore`` sweep and a served ``/predict`` request.

Usage, from the repository root::

    python3 perfbench/run.py --workload pipeline_cold --seed 0 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (see ``RECORD.md`` for why each was chosen):

``pipeline_cold``
    ``Pipeline.run()`` of the digits MLP (quick budget, designs
    conventional/asm2/asm1, all eight stages, 16 simulated samples, two
    fault rates) against an empty stage cache, then 60 warm re-runs from
    that cache.  Each sample is a fresh process with config seed
    ``64 * seed + i``; samples repeat until ``--seconds`` have passed.
``explore_sweep``
    ``run_exploration`` of ``examples/configs/digits_explore.toml`` (12
    candidates, ``jobs=1``, space seeds ``2 * seed`` and ``2 * seed + 1``)
    on an empty journal and cache, then 40 warm passes that re-run it
    from the stage cache with the journal records deleted.
``serve_open_loop``
    ``python -m repro serve`` of a seeded 8-bit asm2 1024-100-10 MLP,
    driven by :mod:`loadgen` with single-sample requests on a seeded
    Poisson schedule at 50 req/s (at least 1000 requests, two threads,
    at most two connections).

End-to-end metrics (``--trace 0``; every workload reports all of them):

``setup_s``        median time from spawning a workload process until
                   timing can begin (imports, config/space, artifact
                   export, server readiness, warm-up requests); several
                   set-ups per run.
``wall_s``         median wall time of the cold timed phase (one cold
                   pipeline run, one cold sweep, the whole load phase).
``warm_s``         median wall time of a warm re-run: a pipeline run or
                   sweep from the stage cache; for serving, a server
                   (re)start with the artifact on disk until ready.
``latency_p50_ms`` median latency of one unit of user-visible work: a
                   served request from its due time until its body is
                   read (a failed request counts as the 10 s client
                   timeout); an explore candidate of the cold pass; a
                   ``repro run`` from process start to report (set-up
                   plus cold run).
``peak_rss_mb``    peak RSS of the workload process (the server when
                   serving).
``ok_frac``        verified operations over attempted operations.

``--trace 1`` runs each sample a second time with wrappers (from
:mod:`tracer`) around each layer's public entry points, prints the
per-layer table with self time and ``<unattributed>`` rows, and reports
the per-layer metrics plus ``trace.overhead_pct`` (traced against
untraced) and ``trace.coverage_pct`` (share of the cold ``Pipeline.run``
or ``run_exploration`` span under named child spans; 0 for serving,
which has no single root span).  The serving tail,
``loadgen.latency_p99_ms``, is reported there, from the untraced load
phase, and carries no bound: on a two-vCPU VM it swings 12-47 ms with
the host (see RECORD.md).

Every process the benchmark starts runs with BLAS and OpenMP pools
pinned to one thread.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

#: BLAS/OpenMP pools pinned to one thread in this process and every
#: process it starts (unpinned OpenBLAS threads spin beside the server
#: and the load generator on a two-core host; see RECORD.md).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import tracer  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
DEFAULT_SEED = 0

#: SHA-256 of the canonical outputs for the default seed: the first
#: ``pipeline_cold`` sample's report (config seed 0; includes simulated
#: energy and toggles) and the ``explore_sweep`` report (space seeds 0
#: and 1; includes the frontier).  A change to either is a change in
#: what the program computes; each sample reports its ``digest``.
PINNED = {
    "pipeline":
        "d7ca1d7677bf57d6cd12619ea4cdeb690c68fb65a15832b1755893db0362e1f9",
    "explore":
        "e06ef2e6c7645aadecbdcd96e4593b5cb811ef31624145e7fc03e0193ea5258e",
}

MAX_SAMPLES = 64
PIPELINE_MIN_SAMPLES = 3
PIPELINE_WARM_RUNS = 60
EXPLORE_MIN_SAMPLES = 2
EXPLORE_WARM_PASSES = 40
MIN_SETUPS = 5

SERVE_RATE = 50.0
SERVE_MIN_REQUESTS = 1000
SERVE_SETUPS = 7
SERVE_WARMUP = 20
SERVE_POOL = 256
SERVE_TIMEOUT_S = 10.0
SERVE_MODEL = "digits"

class BenchError(RuntimeError):
    """The benchmark could not run a workload to the end."""


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    # a fixed hash seed keeps dict/set layouts, and so timings, alike
    # from process to process
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p), PYTHONUNBUFFERED="1", PYTHONHASHSEED="0")


# ----------------------------------------------------------------------
class Run:
    """One workload invocation: its work directory and child processes."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 trace: bool, env: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
        self.trace_dir = os.path.join(WORK, "traces")
        self.env = env
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def trace_path(self, name: str) -> str:
        return os.path.join(self.trace_dir,
                            f"{self.workload}-seed{self.seed}-{name}.jsonl")

    def worker(self, task: str, params: dict) -> dict:
        """Run one worker task in a fresh interpreter; adds ``setup_s``."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, task, json.dumps(params)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=150)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {task} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {task} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        return result

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


@dataclass
class Outcome:
    """What a workload measured."""

    metrics: dict
    attempted: int
    failed: int
    failures: list[str]
    table: str = ""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


def _traced_metrics(spans: list[dict], samples: int, root: str | None,
                    overhead_pct: float) -> dict:
    metrics = tracer.layer_metrics(spans, samples)
    metrics["loadgen.latency_p99_ms"] = 0.0
    metrics["loadgen.lag_p99_ms"] = 0.0
    metrics["loadgen.max_inflight"] = 0.0
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["trace.coverage_pct"] = (
        tracer.coverage(spans, root) * 100 if root else 0.0)
    return metrics


def _batch_outcome(run: Run, task: str, make_params, min_samples: int,
                   latency, root: str) -> Outcome:
    """Sample loop and metrics of the pipeline and explore workloads."""
    untraced, traced = [], []
    started = time.monotonic()
    index = 0
    min_steps = 1 if run.trace else min_samples
    while index < MAX_SAMPLES and (
            index < min_steps or time.monotonic() - started < run.seconds):
        params = make_params(index)
        untraced.append(run.worker(task, params))
        if run.trace:
            traced.append(run.worker(task, dict(
                params, run=f"{task}-{index}",
                trace_out=run.trace_path(str(index)))))
        index += 1
    samples = untraced + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    if run.trace:
        spans = [span for i in range(len(traced))
                 for span in tracer.load_spans(run.trace_path(str(i)))]
        plain = median([s["wall_s"] for s in untraced])
        overhead = (median([s["wall_s"] for s in traced]) - plain) / plain
        return Outcome(_traced_metrics(spans, len(traced), root,
                                       overhead * 100),
                       attempted, failed, failures,
                       tracer.format_table(spans, len(traced)))
    setups = [s["setup_s"] for s in untraced]
    while len(setups) < MIN_SETUPS:
        setups.append(run.worker(task, dict(
            make_params(0), setup_only=True,
            dir=run.path("setup-only")))["setup_s"])
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([s["wall_s"] for s in untraced]),
        "warm_s": median([w for s in untraced for w in s["warm_s"]]),
        "latency_p50_ms": median(latency(untraced)) * 1e3,
        "peak_rss_mb": median([s["peak_rss_mb"] for s in untraced]),
        "ok_frac": (attempted - failed) / attempted,
    }
    return Outcome(metrics, attempted, failed, failures)


def pipeline_cold(run: Run) -> Outcome:
    def params(index: int) -> dict:
        pinned = (PINNED["pipeline"]
                  if run.seed == DEFAULT_SEED and index == 0 else None)
        return {"config_seed": run.seed * MAX_SAMPLES + index,
                "warm_runs": PIPELINE_WARM_RUNS, "pinned": pinned,
                "dir": run.path(f"sample-{index}")}

    return _batch_outcome(
        run, "pipeline", params, PIPELINE_MIN_SAMPLES,
        lambda samples: [s["setup_s"] + s["wall_s"] for s in samples],
        "pipeline.Pipeline.run")


def explore_sweep(run: Run) -> Outcome:
    seeds = [2 * run.seed, 2 * run.seed + 1]

    def params(index: int) -> dict:
        pinned = PINNED["explore"] if run.seed == DEFAULT_SEED else None
        return {"space_seeds": seeds, "warm_passes": EXPLORE_WARM_PASSES,
                "pinned": pinned, "dir": run.path(f"sample-{index}")}

    return _batch_outcome(
        run, "explore", params, EXPLORE_MIN_SAMPLES,
        lambda samples: [t for s in samples for t in s["latency_s"]],
        "explore.run_exploration")


# ----------------------------------------------------------------------
class Server:
    """``repro serve`` as a child process (or the traced launcher)."""

    def __init__(self, run: Run, artifact: str, name: str,
                 trace_out: str | None = None) -> None:
        args = [f"{SERVE_MODEL}={artifact}", "--port", "0"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   trace_out, *args]
        self.log_path = run.path(f"{name}.log")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT, env=run.env,
                                     cwd=ROOT)
        try:
            self.host, self.port = self._wait_listening()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready = time.monotonic()

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                match = re.search(r"on http://([0-9.]+):([0-9]+)",
                                  handle.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        with open(self.log_path) as handle:
            raise BenchError(f"server did not start:\n{handle.read()}")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise BenchError("server never became ready")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _check(status, body: bytes, expected: np.ndarray) -> bool:
    """A 200 whose scores equal the offline forward pass exactly."""
    if status != 200:
        return False
    try:
        scores = np.asarray(json.loads(body)["scores"], dtype=np.float64)
    except (ValueError, KeyError, TypeError):
        return False
    return bool(np.array_equal(scores, expected[np.newaxis]))


def _warm_up(server: Server, bodies, expected) -> int:
    """Closed-loop warm-up requests; returns how many failed."""
    failed = 0
    for step in range(SERVE_WARMUP):
        status, body = loadgen.post(server.host, server.port, bodies[step],
                                    SERVE_TIMEOUT_S)
        failed += not _check(status, body, expected[step])
    return failed


def _load(server: Server, bodies, expected, offsets, picks):
    """One open-loop load phase; returns its measurements."""
    outcomes, max_inflight = loadgen.run_open_loop(
        server.host, server.port, [bodies[p] for p in picks], offsets,
        timeout=SERVE_TIMEOUT_S)
    ok = [_check(o.status, o.body, expected[p])
          for o, p in zip(outcomes, picks)]
    latency = [o.done - o.due if good else SERVE_TIMEOUT_S
               for o, good in zip(outcomes, ok)]
    first_due = outcomes[0].due - float(offsets[0])
    return {"start": first_due, "end": max(o.done for o in outcomes),
            "latency": latency, "failed": ok.count(False),
            "lag": [o.sent - o.due for o in outcomes],
            "max_inflight": max_inflight}


def serve_open_loop(run: Run) -> Outcome:
    count = max(SERVE_MIN_REQUESTS, int(round(SERVE_RATE * run.seconds)))
    rng = np.random.default_rng([run.seed, 1])
    offsets = loadgen.poisson_schedule(rng, SERVE_RATE, count)
    picks = rng.integers(0, SERVE_POOL, size=count)
    setups, starts = [], []
    attempted = failed = 0
    server = None
    try:
        for index in range(SERVE_SETUPS):
            if server is not None:
                server.stop()
                server = None
            spawned = time.monotonic()
            exported = run.worker("export", {
                "seed": run.seed, "pool": SERVE_POOL,
                "dir": run.path(f"export-{index}")})
            with np.load(os.path.join(os.path.dirname(exported["artifact"]),
                                      "reference.npz")) as data:
                pool, expected = data["pool"], data["expected"]
            bodies = [json.dumps({"model": SERVE_MODEL,
                                  "inputs": row.tolist()}).encode()
                      for row in pool]
            launched = time.monotonic()
            server = Server(run, exported["artifact"], f"server-{index}")
            starts.append(server.ready - launched)
            failed += _warm_up(server, bodies, expected)
            attempted += SERVE_WARMUP
            setups.append(time.monotonic() - spawned)

        load = _load(server, bodies, expected, offsets, picks)
        rss = server.peak_rss_mb()
        server.stop()
        server = None
        attempted += count
        failed += load["failed"]
        if not run.trace:
            metrics = {
                "setup_s": median(setups),
                "wall_s": load["end"] - load["start"],
                "warm_s": median(starts),
                "latency_p50_ms": median(load["latency"]) * 1e3,
                "peak_rss_mb": rss,
                "ok_frac": (attempted - failed) / attempted,
            }
            return Outcome(metrics, attempted, failed, [])

        trace_out = run.trace_path("server")
        server = Server(run, exported["artifact"], "server-traced",
                        trace_out=trace_out)
        failed += _warm_up(server, bodies, expected)
        traced = _load(server, bodies, expected, offsets, picks)
        server.stop()
        server = None
        attempted += SERVE_WARMUP + count
        failed += traced["failed"]
    finally:
        if server is not None:
            server.stop()

    spans = [s for s in tracer.load_spans(trace_out)
             if s["start"] >= traced["start"]]
    plain = median(load["latency"])
    metrics = _traced_metrics(
        spans, 1, None, (median(traced["latency"]) - plain) / plain * 100)
    metrics["loadgen.latency_p99_ms"] = percentile(load["latency"], 99) * 1e3
    metrics["loadgen.lag_p99_ms"] = percentile(traced["lag"], 99) * 1e3
    metrics["loadgen.max_inflight"] = float(traced["max_inflight"])
    return Outcome(metrics, attempted, failed, [],
                   tracer.format_table(spans, 1))


WORKLOADS = {"pipeline_cold": pipeline_cold, "explore_sweep": explore_sweep,
             "serve_open_loop": serve_open_loop}


# ----------------------------------------------------------------------
def warm_bytecode(env: dict) -> None:
    """Compile the program and the benchmark once, before any timing."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a shell that starts us in the background may leave SIGINT ignored,
    # and children inherit "ignored" across exec; a handled signal resets
    # to the default instead, so the server still stops on SIGINT
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for needed in ("BENCHMARK.json", "src/repro/__init__.py",
                   "examples/configs/digits_explore.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a "
                  f"checkout of the repository", file=sys.stderr)
            return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    env = child_env()
    try:
        warm_bytecode(env)
        for name in names:
            run = Run(name, args.seed, args.seconds, bool(args.trace), env)
            try:
                outcomes[name] = WORKLOADS[name](run)
            finally:
                run.cleanup()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    result_metrics = {}
    for name, outcome in outcomes.items():
        print(f"== {name} (seed {args.seed}, trace {args.trace}): "
              f"{outcome.attempted - outcome.failed}/{outcome.attempted} "
              f"verified")
        if outcome.table:
            print(outcome.table)
        for failure in outcome.failures:
            print(f"FAILED: {failure}")
        prefix = "" if len(outcomes) == 1 else f"{name}."
        for metric, value in outcome.metrics.items():
            unit = units[metric]
            print(f"{prefix + metric:<40} {value:>14.6f} {unit}")
            result_metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
