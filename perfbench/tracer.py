"""In-memory span recorder and the wrappers that time each layer from outside.

A traced benchmark process creates one :class:`Tracer`, calls the
``install_*`` functions for the layers its workload exercises, and dumps
the spans as JSONL when it exits.  The wrappers replace public entry
points of the program (module functions, class methods, registry dict
entries) with timed versions; the program's own code is not edited.

A span is ``{"id", "parent", "name", "start", "end", "run", "attrs"}``
with ``time.monotonic()`` stamps, which on Linux share one clock across
processes.  ``parent`` is the innermost span open on the same thread when
the span started (``None`` for a root).

The second half of the module turns spans back into numbers: self time
(a span minus the union of its children), per-layer metrics, and the
per-layer table with an explicit ``<unattributed>`` row under each
parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

#: Run id of the traced server process (its spans feed ``serving.*``).
SERVER_RUN = "server"

#: The eight pipeline stages, in canonical order.
STAGES = ("train", "quantize", "constrain", "evaluate", "faults", "energy",
          "export", "serve-check")


class Tracer:
    """Collects spans for one process; ``dump`` writes them as JSONL."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id, parent, name, start, end, attrs) -> None:
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": start, "end": end, "run": self.run,
                           "attrs": attrs})

    def traced(self, original, name: str, attrs=None):
        """A timed stand-in for *original*.

        ``attrs(args, kwargs, result)`` (optional) returns a dict stored
        on the span, e.g. the sample count of a forward pass.  A call
        that raises leaves no span; the benchmark fails on it anyway.
        """
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            tracer._record(span_id, parent, name, start, end,
                           attrs(args, kwargs, result) if attrs else {})
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` (module or class) with a traced version."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, attrs))

    def wrap_future(self, owner, attr: str, name: str) -> None:
        """Trace a call that returns a future, until the future resolves.

        The span opens in the calling thread (parented there) and closes
        in whichever thread resolves the future.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            start = time.monotonic()
            future = original(*args, **kwargs)
            future.add_done_callback(lambda _f: tracer._record(
                span_id, parent, name, start, time.monotonic(), {}))
            return future

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span) + "\n")


def _samples(args, kwargs, result) -> dict:
    return {"samples": int(len(args[1]))}


# ----------------------------------------------------------------------
# wrappers per layer (each imports the layer it instruments)
# ----------------------------------------------------------------------
def install_compute(tracer: Tracer) -> None:
    """datasets, nn, training, hardware, kernels and faults layers."""
    from repro.hardware.simulator import CycleAccurateEngine
    from repro.nn.quantized import QuantizedNetwork
    from repro.nn.trainer import Trainer
    from repro.pipeline import stages
    from repro.serving.compiled import CompiledModel
    from repro.training.constrained import ConstraintProjector

    tracer.wrap(stages, "load_dataset", "datasets.load_dataset")
    tracer.wrap(Trainer, "fit", "nn.Trainer.fit")
    tracer.wrap(Trainer, "train_epoch", "nn.Trainer.train_epoch")
    tracer.wrap(ConstraintProjector, "project",
                "training.ConstraintProjector.project")
    tracer.wrap(CycleAccurateEngine, "run_layer",
                "hardware.CycleAccurateEngine.run_layer",
                attrs=lambda a, k, trace: {"macs": trace.macs})
    tracer.wrap(QuantizedNetwork, "forward",
                "kernels.QuantizedNetwork.forward", attrs=_samples)
    tracer.wrap(CompiledModel, "forward", "kernels.CompiledModel.forward",
                attrs=_samples)


def install_pipeline(tracer: Tracer) -> None:
    """Stage functions, weight-state cache I/O and ``Pipeline.run``."""
    from repro.pipeline import pipeline, stages

    for stage in STAGES:
        stages.STAGE_FUNCTIONS[stage] = tracer.traced(
            stages.STAGE_FUNCTIONS[stage], f"pipeline.stage.{stage}")
    # pipeline.py imported these by name, so wrap them where it calls them
    tracer.wrap(pipeline, "save_state", "pipeline.save_state")
    tracer.wrap(pipeline, "load_state", "pipeline.load_state")
    tracer.wrap(pipeline.Pipeline, "run", "pipeline.Pipeline.run",
                attrs=lambda a, k, report: {"hits": len(report.cached_stages)})


def install_explore(tracer: Tracer) -> None:
    """Candidate evaluation, journal I/O and ``run_exploration``."""
    from repro.explore import executor, strategies
    from repro.explore.journal import ExplorationJournal

    tracer.wrap(executor, "evaluate_candidate", "explore.evaluate_candidate")
    tracer.wrap(ExplorationJournal, "load_record", "explore.load_record",
                attrs=lambda a, k, record: {"hit": record is not None})
    tracer.wrap(ExplorationJournal, "write_record", "explore.write_record")
    tracer.wrap(strategies, "run_exploration", "explore.run_exploration")


def install_serving(tracer: Tracer) -> None:
    """HTTP handler, micro-batcher wait and the compiled forward pass."""
    from repro.serving.batching import MicroBatcher
    from repro.serving.compiled import CompiledModel
    from repro.serving.server import ServingServer

    tracer.wrap(ServingServer, "finish_request", "serving.finish_request")
    tracer.wrap_future(MicroBatcher, "submit", "serving.batcher")
    tracer.wrap(CompiledModel, "forward", "kernels.CompiledModel.forward",
                attrs=_samples)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load_spans(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def _children(spans: list[dict]) -> dict:
    """``(run, parent id) -> [child spans]``."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["run"], span["parent"])].append(span)
    return children


def self_time(span: dict, children: dict) -> float:
    """The span's duration minus the part its children cover."""
    kids = children.get((span["run"], span["id"]), [])
    inner = [(max(k["start"], span["start"]), min(k["end"], span["end"]))
             for k in kids]
    inner = [(s, e) for s, e in inner if e > s]
    return (span["end"] - span["start"]) - _union(inner)


def coverage(spans: list[dict], root: str) -> float:
    """Share of the cold *root* span's time (the first one in each run)
    that its children cover, over all runs (0..1)."""
    children = _children(spans)
    first: dict[str, dict] = {}
    for span in spans:
        known = first.get(span["run"])
        if span["name"] == root and (known is None
                                     or span["start"] < known["start"]):
            first[span["run"]] = span
    total = sum(s["end"] - s["start"] for s in first.values())
    if total <= 0:
        return 0.0
    return 1.0 - sum(self_time(s, children) for s in first.values()) / total


def _dur(spans, name) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[dict], samples: int) -> dict[str, float]:
    """Per-layer metrics; times and counts are per sample (``samples``
    traced workload repetitions contributed to *spans*)."""
    n = max(1, samples)
    children = _children(spans)

    def total(name):
        return sum(_dur(spans, name)) / n

    def count(name):
        return len(_dur(spans, name)) / n

    def self_total(name):
        return sum(self_time(s, children)
                   for s in spans if s["name"] == name) / n

    run_layer = "hardware.CycleAccurateEngine.run_layer"
    sim_macs = sum(s["attrs"]["macs"] for s in spans if s["name"] == run_layer)
    sim_time = sum(_dur(spans, run_layer))
    forward = [s for s in spans if s["name"].startswith("kernels.")]
    hits = sum(s["attrs"].get("hits", 0) for s in spans
               if s["name"] == "pipeline.Pipeline.run") / n
    runs = sum(count(f"pipeline.stage.{stage}") for stage in STAGES)
    handler = _dur(spans, "serving.finish_request")
    batcher = _dur(spans, "serving.batcher")
    served = [s for s in spans if s["name"] == "kernels.CompiledModel.forward"
              and s["run"] == SERVER_RUN]
    handler_self = [self_time(s, children) for s in spans
                    if s["name"] == "serving.finish_request"]

    metrics = {
        "datasets.load_s": total("datasets.load_dataset"),
        "datasets.loads": count("datasets.load_dataset"),
        "nn.fit_s": total("nn.Trainer.fit"),
        "nn.epochs": count("nn.Trainer.train_epoch"),
        "training.project_s": total("training.ConstraintProjector.project"),
        "training.projects": count("training.ConstraintProjector.project"),
        "hardware.sim_s": sim_time / n,
        "hardware.sim_macs": sim_macs / n,
        "hardware.ns_per_mac": sim_time * 1e9 / sim_macs if sim_macs else 0.0,
        "kernels.forward_s": sum(s["end"] - s["start"] for s in forward) / n,
        "kernels.forward_samples": sum(s["attrs"]["samples"]
                                       for s in forward) / n,
        "faults.stage_s": total("pipeline.stage.faults"),
    }
    for stage in STAGES:
        metrics[f"pipeline.stage_s.{stage}"] = total(f"pipeline.stage.{stage}")
    metrics.update({
        "pipeline.stage_runs": runs,
        "pipeline.stage_hits": hits,
        "pipeline.hit_ratio": hits / (hits + runs) if hits + runs else 0.0,
        "pipeline.cache_io_s": (total("pipeline.save_state")
                                + total("pipeline.load_state")),
        "pipeline.self_s": self_total("pipeline.Pipeline.run"),
        "explore.candidate_s": total("explore.evaluate_candidate"),
        "explore.evaluated": count("explore.evaluate_candidate"),
        "explore.journal_hits": sum(
            1 for s in spans if s["name"] == "explore.load_record"
            and s["attrs"].get("hit")) / n,
        "explore.journal_s": (total("explore.load_record")
                              + total("explore.write_record")),
        "explore.self_s": self_total("explore.run_exploration"),
        "serving.handler_ms.p50": _pct(handler, 50) * 1e3,
        "serving.handler_ms.p99": _pct(handler, 99) * 1e3,
        "serving.batcher_ms.p50": _pct(batcher, 50) * 1e3,
        "serving.batcher_ms.p99": _pct(batcher, 99) * 1e3,
        "serving.forward_ms": (float(np.mean([s["end"] - s["start"]
                                              for s in served])) * 1e3
                               if served else 0.0),
        "serving.batch_samples_mean": (float(np.mean(
            [s["attrs"]["samples"] for s in served])) if served else 0.0),
        "serving.handler_self_ms": (float(np.mean(handler_self)) * 1e3
                                    if handler_self else 0.0),
    })
    return metrics


def format_table(spans: list[dict], samples: int) -> str:
    """Per-layer tree: calls, total and self time per sample, with an
    ``<unattributed>`` row (the parent's self time) under every parent."""
    n = max(1, samples)
    by_id = {(s["run"], s["id"]): s for s in spans}
    children = _children(spans)
    paths: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
    parents: set[tuple] = set()
    for span in spans:
        path = [span["name"]]
        parent = by_id.get((span["run"], span["parent"]))
        while parent is not None:
            path.append(parent["name"])
            parent = by_id.get((parent["run"], parent["parent"]))
        key = tuple(reversed(path))
        row = paths[key]
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += self_time(span, children)
        if (span["run"], span["id"]) in children:
            parents.add(key)
    lines = [f"{'span (per sample)':<64} {'calls':>8} {'total_s':>10} "
             f"{'self_s':>10}"]

    def emit(prefix: tuple, depth: int) -> None:
        kids = sorted((k for k in paths
                       if len(k) == len(prefix) + 1 and k[:-1] == prefix),
                      key=lambda k: -paths[k][1])
        for key in kids:
            calls, total, own = paths[key]
            label = "  " * depth + key[-1]
            lines.append(f"{label:<64} {calls / n:>8.1f} {total / n:>10.4f} "
                         f"{own / n:>10.4f}")
            emit(key, depth + 1)
            if key in parents:
                label = "  " * (depth + 1) + "<unattributed>"
                lines.append(f"{label:<64} {'':>8} {own / n:>10.4f} "
                             f"{own / n:>10.4f}")

    emit((), 0)
    return "\n".join(lines)
