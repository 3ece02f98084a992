"""One benchmark sample in a fresh interpreter.

Usage (from ``run.py``, never by hand)::

    python perfbench/worker.py <task> '<json params>'

Tasks: ``pipeline`` (one cold ``Pipeline.run`` plus warm re-runs),
``explore`` (one cold ``run_exploration`` plus warm passes) and
``export`` (the serving artifact and its offline reference scores).
With ``"setup_only": true`` the first two stop once set-up is done.
Each task prints one JSON object as its last stdout line.  ``ready``
is the ``time.monotonic()`` stamp at which set-up ended and timing
began; the parent subtracts its spawn stamp from it to get ``setup_s``
(``time.monotonic()`` is one clock for all processes on Linux).

A fresh process per sample keeps in-process memos (effective-weight
tables, per-layer plan caches) from carrying over between samples.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: The ``repro run`` config of ``pipeline_cold`` (seed and paths are set
#: per sample).
PIPELINE_CONFIG = {
    "app": "mnist_mlp",
    "budget": "quick",
    "designs": ["conventional", "asm2", "asm1"],
    "stages": ["train", "constrain", "evaluate", "faults", "energy",
               "export", "serve-check"],
    "sim_samples": 16,
    "fault_rates": [0.001, 0.01],
    "export_dir": "artifacts",
    "cache_dir": "cache",
}

EXPLORE_SPACE = os.path.join(ROOT, "examples", "configs",
                             "digits_explore.toml")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(params: dict):
    if not params.get("trace_out"):
        return None
    from tracer import Tracer
    return Tracer(params["run"])


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ----------------------------------------------------------------------
def canonical_report(report) -> str:
    """A pipeline report as JSON without the one field that legitimately
    differs between a cold run and a warm re-run (``cached_stages``)."""
    data = report.to_dict()
    data.pop("cached_stages")
    return json.dumps(data, sort_keys=True, default=str)


def task_pipeline(params: dict) -> dict:
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.pipeline import Pipeline

    config = PipelineConfig.from_dict(
        dict(PIPELINE_CONFIG, seed=params["config_seed"],
             fault_seed=params["config_seed"]))
    tracer = _tracer(params)
    if tracer is not None:
        import tracer as layers
        layers.install_compute(tracer)
        layers.install_pipeline(tracer)
    _fresh_dir(params["dir"])
    os.chdir(params["dir"])
    ready = time.monotonic()
    if params.get("setup_only"):
        return {"ready": ready, "peak_rss_mb": _peak_rss_mb()}

    started = time.perf_counter()
    report = Pipeline(config).run()
    wall = time.perf_counter() - started
    warm = []
    reports = []
    for _ in range(params["warm_runs"]):
        started = time.perf_counter()
        again = Pipeline(config).run()
        warm.append(time.perf_counter() - started)
        reports.append(again)
    if tracer is not None:
        tracer.dump(params["trace_out"])

    failures = []
    cold = canonical_report(report)
    if report.stages_run != Pipeline(config).plan():
        failures.append(f"stages run {report.stages_run}")
    if not set(config.stages) <= set(report.stages_run):
        failures.append("a requested stage is missing")
    if report.cached_stages:
        failures.append(f"cold run hit the cache: {report.cached_stages}")
    if not report.serve_check.bit_identical:
        failures.append("serve-check is not bit-identical")
    if params.get("pinned") and _sha(cold) != params["pinned"]:
        failures.append(f"report digest {_sha(cold)} != pinned "
                        f"{params['pinned']}")
    failed = 1 if failures else 0
    for again in reports:
        if (canonical_report(again) != cold
                or again.cached_stages != again.stages_run):
            failed += 1
            failures.append("a warm re-run differs from the cold run")
    return {"ready": ready, "wall_s": wall, "warm_s": warm,
            "attempted": 1 + len(reports), "failed": failed,
            "failures": failures[:5], "digest": _sha(cold),
            "peak_rss_mb": _peak_rss_mb()}


# ----------------------------------------------------------------------
def _records(journal_dir: str) -> dict[str, bytes]:
    records_dir = os.path.join(journal_dir, "records")
    out = {}
    for name in sorted(os.listdir(records_dir)):
        with open(os.path.join(records_dir, name), "rb") as handle:
            out[name] = handle.read()
    return out


def task_explore(params: dict) -> dict:
    import dataclasses

    from repro.explore import executor, strategies
    from repro.explore.space import SearchSpace

    space = dataclasses.replace(SearchSpace.load(EXPLORE_SPACE),
                                seeds=tuple(params["space_seeds"]))
    tracer = _tracer(params)
    if tracer is not None:
        import tracer as layers
        layers.install_compute(tracer)
        layers.install_pipeline(tracer)
        layers.install_explore(tracer)
    # one perf_counter pair per candidate gives the per-candidate latency
    latencies = []
    evaluate = executor.evaluate_candidate

    def timed_candidate(*args, **kwargs):
        started = time.perf_counter()
        record = evaluate(*args, **kwargs)
        latencies.append(time.perf_counter() - started)
        return record

    executor.evaluate_candidate = timed_candidate
    _fresh_dir(params["dir"])
    os.chdir(params["dir"])
    ready = time.monotonic()
    if params.get("setup_only"):
        return {"ready": ready, "peak_rss_mb": _peak_rss_mb()}

    started = time.perf_counter()
    report = strategies.run_exploration(space, "journal", jobs=1)
    wall = time.perf_counter() - started
    cold_latencies = list(latencies)
    cold_records = _records("journal")
    warm = []
    warm_outputs = []
    for _ in range(params["warm_passes"]):
        shutil.rmtree(os.path.join("journal", "records"))
        started = time.perf_counter()
        again = strategies.run_exploration(space, "journal", jobs=1)
        warm.append(time.perf_counter() - started)
        warm_outputs.append((again.to_dict(), _records("journal")))
    if tracer is not None:
        tracer.dump(params["trace_out"])

    failures = []
    cold = report.to_dict()
    candidates = len(cold_records)
    if candidates != 12 or report.evaluated != 12 or report.failed:
        failures.append(f"cold pass: {candidates} records, "
                        f"{report.evaluated} evaluated, "
                        f"{report.failed} failed")
    digest = _sha(json.dumps(cold, sort_keys=True))
    if params.get("pinned") and digest != params["pinned"]:
        failures.append(f"report digest {digest} != pinned "
                        f"{params['pinned']}")
    failed = candidates if failures else 0
    for again, records in warm_outputs:
        bad = sum(1 for name in cold_records
                  if records.get(name) != cold_records[name])
        if again != cold or set(records) != set(cold_records):
            bad = candidates
        if bad:
            failures.append("a warm pass differs from the cold pass")
        failed += bad
    return {"ready": ready, "wall_s": wall, "warm_s": warm,
            "latency_s": cold_latencies,
            "attempted": candidates * (1 + len(warm_outputs)),
            "failed": failed, "failures": failures[:5], "digest": digest,
            "peak_rss_mb": _peak_rss_mb()}


# ----------------------------------------------------------------------
def task_export(params: dict) -> dict:
    """Export the served artifact and the generator's reference scores.

    The network is a seeded, untrained 1024-100-10 MLP lowered to an
    8-bit asm2 deployment; the input pool is seeded pixel-like vectors.
    """
    import numpy as np

    from repro.asm.alphabet import standard_set
    from repro.datasets.registry import build_model
    from repro.nn.quantized import QuantizationSpec, QuantizedNetwork

    rng = np.random.default_rng([params["seed"], 0])
    model = build_model("mnist_mlp", seed=int(rng.integers(2 ** 31)))
    network = QuantizedNetwork.from_float(
        model, QuantizationSpec.constrained(8, standard_set(2)))
    artifact = os.path.join(params["dir"], "artifact")
    _fresh_dir(params["dir"])
    network.export(artifact)
    pool = np.round(rng.random((params["pool"], 1024)), 4)
    np.savez(os.path.join(params["dir"], "reference.npz"), pool=pool,
             expected=network.forward(pool))
    return {"ready": time.monotonic(), "artifact": artifact}


TASKS = {"pipeline": task_pipeline, "explore": task_explore,
         "export": task_export}


if __name__ == "__main__":
    task, raw = sys.argv[1], sys.argv[2]
    print(json.dumps(TASKS[task](json.loads(raw))), flush=True)
