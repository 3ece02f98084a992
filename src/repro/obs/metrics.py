"""Thread-safe metrics: counters, gauges, histograms, one registry.

The registry is the repo's single telemetry vocabulary — the pipeline's
cache counters, the kernel layer's per-backend call accounting, the
explorer's journal statistics and the serving stack's request metrics
all record into :class:`MetricsRegistry` instances (serving owns its
own always-on registry; everything else shares the process-global one
behind :func:`repro.obs.enable`).

Design constraints:

* zero dependencies (stdlib only) — importable from anywhere, including
  :mod:`repro.kernels` which must stay import-light;
* thread-safe recording — the serving server records from many handler
  threads, the micro-batcher from its worker thread;
* bounded memory — histograms keep exact count/sum/min/max forever but
  estimate quantiles from a rolling window (a long-lived server stays
  O(1));
* proper quantiles — linear interpolation (:func:`quantile`, the
  ``numpy.quantile(..., method="linear")`` rule), not the biased
  nearest-rank-by-truncation this replaced in ``serving/metrics.py``.

Exports are JSON (:meth:`MetricsRegistry.to_dict`) and the Prometheus
text exposition format (:meth:`MetricsRegistry.to_prometheus`, served at
``GET /metrics``).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Iterable

__all__ = ["quantile", "Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_WINDOW", "HELP_TEXT", "prometheus_name",
           "escape_label_value"]

#: Default rolling-window size for histogram quantile estimation.
DEFAULT_WINDOW = 2048

#: ``# HELP`` text for the repo's documented metric vocabulary
#: (docs/observability.md).  Kept here — not as a metric kwarg — so help
#: text never masquerades as a label schema; ad-hoc metrics without an
#: entry simply render without a HELP line.  Extend via
#: :meth:`MetricsRegistry.describe` for registry-local metrics.
HELP_TEXT: dict[str, str] = {
    "pipeline.cache.hits": "Pipeline stage cache hits",
    "pipeline.cache.misses": "Pipeline stage cache misses",
    "datasets.renders": "Datasets rendered (load_dataset memo misses)",
    "datasets.memo_hits": "load_dataset calls served from its memo",
    "kernels.calls": "Kernel dispatches per backend and kernel",
    "kernels.seconds": "Cumulative kernel seconds per backend and kernel",
    "explore.journal_hits": "Explore candidates satisfied from the journal",
    "explore.journal_writes": "Explore candidate records written",
    "explore.candidates_evaluated": "Explore candidates actually evaluated",
    "explore.candidate_seconds": "Wall seconds per evaluated candidate",
    "explore.workers": "Worker processes of the last explore pool",
    "explore.worker_utilization":
        "Sum of candidate seconds / (workers * wall seconds)",
    "explore.retries": "Explore candidate attempts retried after a failure",
    "explore.quarantined":
        "Explore candidates quarantined as typed failure records",
    "explore.corrupt_records":
        "Corrupt or truncated journal records skipped on resume",
    "faults.injected": "Faults injected per fault-model kind",
    "serving.requests": "HTTP inference requests served",
    "serving.samples": "Samples classified across all requests",
    "serving.batches": "Micro-batcher flushes",
    "serving.errors": "Failed inference requests",
    "serving.shed_total": "Requests shed at the queue depth bound (503)",
    "serving.deadline_expired":
        "Queued requests dropped past their deadline",
    "serving.energy_nj": "Estimated energy spent serving, in nanojoules",
    "serving.queue_depth": "Micro-batcher queue depth",
    "serving.latency_seconds": "End-to-end request latency in seconds",
    "serving.batch_size": "Micro-batcher flush sizes",
    "serving.model_requests": "Requests per served model",
    "serving.model_samples": "Samples per served model",
    "serving.model_energy_nj": "Energy per served model, in nanojoules",
    "obs.spans_dropped": "Spans dropped past the in-memory forest cap",
}


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation quantile of *values* (``0 <= q <= 1``).

    Matches ``numpy.quantile(values, q)`` (the default "linear" method):
    the quantile position is ``q * (n - 1)`` and the two bracketing
    order statistics are interpolated.  An empty sequence returns 0.0 —
    the snapshot-friendly convention every caller here wants.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)


class Counter:
    """Monotonically increasing value (float so it can carry seconds)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, worker count)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Distribution tracker: exact count/sum/min/max, windowed quantiles.

    The count, sum and extremes cover *every* observation ever made; the
    quantiles are estimated from the last ``window`` observations so the
    memory footprint is bounded (the standard rolling-window trade-off
    for long-lived servers).
    """

    __slots__ = ("_lock", "_count", "_sum", "_min", "_max", "_window")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("histogram window must be >= 1")
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._window.append(value)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Windowed linear-interpolation quantile (0.0 when empty)."""
        with self._lock:
            window = list(self._window)
        return quantile(window, q)

    def summary(self, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
                ) -> dict[str, float]:
        """One JSON-able row: count/sum/mean/min/max plus quantiles."""
        with self._lock:
            count, total = self._count, self._sum
            low = self._min if count else 0.0
            high = self._max if count else 0.0
            window = list(self._window)
        row: dict[str, float] = {
            "count": count, "sum": total,
            "mean": total / count if count else 0.0,
            "min": low, "max": high,
        }
        for q in quantiles:
            row[f"p{format(q * 100, 'g')}"] = quantile(window, q)
        return row


# ----------------------------------------------------------------------
# Prometheus text exposition helpers
# ----------------------------------------------------------------------
def prometheus_name(name: str) -> str:
    """Sanitise a dotted metric name into ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    safe = "".join(c if c.isalnum() or c in "_:" else "_" for c in name)
    if not safe or not (safe[0].isalpha() or safe[0] in "_:"):
        safe = "_" + safe
    return safe


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format rules."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_suffix(labels: tuple[tuple[str, str], ...],
                  extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    inner = ",".join(f'{prometheus_name(key)}="{escape_label_value(val)}"'
                     for key, val in items)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value:                       # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
class MetricsRegistry:
    """A named, labelled family of counters, gauges and histograms.

    Metric instances are memoized by ``(name, sorted labels)`` — calling
    ``registry.counter("kernels.calls", backend="fast")`` twice returns
    the same :class:`Counter`.  A name is bound to one metric kind; mixing
    kinds under one name raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    def describe(self, name: str, text: str) -> None:
        """Attach registry-local ``# HELP`` text to a metric name.

        Overrides the shared :data:`HELP_TEXT` vocabulary for this
        registry only; exposition escapes the text per the format rules.
        """
        with self._lock:
            self._help[name] = text

    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict[str, Any],
             factory) -> Any:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            bound = self._kinds.get(name)
            if bound is not None and bound != kind:
                raise ValueError(
                    f"metric {name!r} is a {bound}, not a {kind}")
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
                self._kinds[name] = kind
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, window: int = DEFAULT_WINDOW,
                  **labels: Any) -> Histogram:
        return self._get("histogram", name, labels,
                         lambda: Histogram(window=window))

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._help.clear()

    def _sorted_items(self):
        with self._lock:
            items = sorted(self._metrics.items())
            kinds = dict(self._kinds)
            help_text = dict(self._help)
        return items, kinds, help_text

    def to_dict(self) -> list[dict]:
        """Flat, JSON-able metric rows sorted by (name, labels)."""
        items, kinds, _ = self._sorted_items()
        rows = []
        for (name, labels), metric in items:
            row: dict[str, Any] = {"name": name, "kind": kinds[name],
                                   "labels": dict(labels)}
            if isinstance(metric, Histogram):
                row.update(metric.summary())
            else:
                row["value"] = metric.value
            rows.append(row)
        return rows

    def to_prometheus(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Counters and gauges become single samples; histograms become
        summaries (``name{quantile="0.5"}``, ``name_count``,
        ``name_sum``).  Dotted names are sanitised to underscores, label
        values escaped per the format rules, and each metric family gets
        its ``# HELP`` line (from :data:`HELP_TEXT` or
        :meth:`describe`) ahead of its ``# TYPE`` line.
        """
        items, kinds, help_text = self._sorted_items()
        lines: list[str] = []
        typed: set[str] = set()
        for (name, labels), metric in items:
            pname = prometheus_name(name)
            kind = kinds[name]
            if name not in typed:
                typed.add(name)
                help_line = help_text.get(name, HELP_TEXT.get(name))
                if help_line:
                    escaped = (help_line.replace("\\", "\\\\")
                               .replace("\n", "\\n"))
                    lines.append(f"# HELP {pname} {escaped}")
                ptype = {"counter": "counter", "gauge": "gauge",
                         "histogram": "summary"}[kind]
                lines.append(f"# TYPE {pname} {ptype}")
            if isinstance(metric, Histogram):
                summary = metric.summary()
                for q in (0.5, 0.95, 0.99):
                    suffix = _label_suffix(
                        labels, (("quantile", format(q, "g")),))
                    value = summary["p" + format(q * 100, "g")]
                    lines.append(f"{pname}{suffix} {_fmt(value)}")
                lines.append(f"{pname}_count{_label_suffix(labels)} "
                             f"{_fmt(summary['count'])}")
                lines.append(f"{pname}_sum{_label_suffix(labels)} "
                             f"{_fmt(summary['sum'])}")
            else:
                lines.append(
                    f"{pname}{_label_suffix(labels)} {_fmt(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")
