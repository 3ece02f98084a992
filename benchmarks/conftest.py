"""Shared helpers for the benchmark suite.

Training-backed benches run a *tiny* budget so the whole suite finishes in
minutes; the printed tables are the same rows the paper reports (regenerate
the paper-scale numbers with ``repro experiment all --full``).
Each bench writes its table to ``results/`` and prints it, so running with
``pytest benchmarks/ --benchmark-only -s`` shows every reproduced row.
"""

import json
import os
import socket

import pytest

import repro
from repro.pipeline.config import Budget

#: Budget used by training-backed benches.
TINY = Budget("tiny", n_train=400, n_test=200, max_epochs=5,
              retrain_epochs=3)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS_DIR = os.path.join(REPO_ROOT, "results")


def emit(name: str, text: str) -> None:
    """Print a reproduced table and persist it under results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def emit_json(name: str, results: dict, version: int = 1,
              merge: bool = False) -> str:
    """Write machine-readable bench results as ``BENCH_<name>.json``.

    The one writer every perf bench shares: wraps *results* in the
    ``{"format": "repro-bench/<name>/<version>", "results": ...}``
    envelope and writes it at the repo root (next to the text tables'
    ``emit``), where the CI perf-smoke jobs and the perf trajectory
    tooling expect it.  Returns the path written.

    Every payload carries ``host``, ``repro_version`` and ``git_sha`` so
    numbers from different machines / releases / commits are never
    compared blindly, plus ``tree_dirty``: ``True`` when tracked files
    differed from ``HEAD`` at measurement time, i.e. the numbers belong
    to uncommitted code.  The stamps are attribution only — they
    stay out of every cache key (the RPR001 allowlist covers
    ``benchmarks/``).

    With ``merge=True`` an existing same-format payload's result
    sections are kept (new keys win) and the stamps are refreshed —
    multi-script suites like ``training`` combine their sections this
    way.  A payload from another format version is replaced outright.
    """
    from repro.obs.history import git_sha, tree_dirty

    payload = {"format": f"repro-bench/{name}/{version}",
               "host": socket.gethostname(),
               "repro_version": repro.__version__,
               "git_sha": git_sha(cwd=REPO_ROOT),
               "tree_dirty": tree_dirty(cwd=REPO_ROOT),
               "results": results}
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    if merge:
        try:
            with open(path) as handle:
                prior = json.load(handle)
        except (OSError, ValueError):
            prior = None
        if prior is not None and prior.get("format") == payload["format"] \
                and isinstance(prior.get("results"), dict):
            payload["results"] = {**prior["results"], **results}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture
def tiny_budget():
    return TINY
