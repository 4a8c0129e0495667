"""Prometheus text-format exposition and JSON snapshots for the registry.

:func:`render_prometheus` turns a :class:`~repro.obs.registry.MetricsRegistry`
into the Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers,
``metric{label="..."} value`` samples, histogram ``_bucket{le=...}`` /
``_sum`` / ``_count`` triples).  Rendering is fully deterministic: metrics
sort by name, samples by label tuple, floats format via ``%.10g`` — so two
same-seed runs scrape byte-identical text (pinned by tests).

:func:`validate_prometheus_text` is a small structural parser used by the CI
smoke and the acceptance tests; it checks header/sample shape, histogram
bucket monotonicity and the ``+Inf`` terminal bucket, and returns the parsed
samples for further assertions.

:func:`snapshot` / :func:`write_bench_json` serialize the same data as JSON
following the repo's ``BENCH_*.json`` convention
(``json.dumps(..., indent=2, sort_keys=True) + "\\n"``).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .registry import NAMESPACE, Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "render_prometheus",
    "snapshot",
    "validate_prometheus_text",
    "write_bench_json",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _fmt(value: float) -> str:
    """Deterministic float formatting (integers render without a fraction)."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labelnames: Sequence[str], labelvalues: Sequence[str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _qualify(name: str) -> str:
    return f"{NAMESPACE}_{name}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every registered metric in Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry.collect():
        full = _qualify(metric.name)
        if not _NAME_RE.match(full):
            raise ValueError(f"invalid metric name for exposition: {full!r}")
        help_text = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {metric.metric_type}")
        if isinstance(metric, Histogram):
            for labelvalues, _state in metric.samples():
                labels = dict(zip(metric.labelnames, labelvalues))
                cumulative = metric.bucket_counts(**labels)
                count = metric.count_value(**labels)
                for bound, cum in zip(metric.buckets, cumulative):
                    le = _label_str(
                        metric.labelnames, labelvalues, f'le="{_fmt(bound)}"'
                    )
                    lines.append(f"{full}_bucket{le} {cum}")
                inf = _label_str(metric.labelnames, labelvalues, 'le="+Inf"')
                lines.append(f"{full}_bucket{inf} {count}")
                suffix = _label_str(metric.labelnames, labelvalues)
                lines.append(f"{full}_sum{suffix} {_fmt(metric.sum_value(**labels))}")
                lines.append(f"{full}_count{suffix} {count}")
        else:
            for labelvalues, value in metric.samples():
                suffix = _label_str(metric.labelnames, labelvalues)
                lines.append(f"{full}{suffix} {_fmt(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def validate_prometheus_text(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Structurally validate exposition text; return samples grouped by metric.

    Checks performed:

    * every non-comment line parses as ``name[{labels}] value``;
    * every sample's base metric has ``# HELP`` and ``# TYPE`` headers above it;
    * histogram ``_bucket`` series are cumulative (non-decreasing in ``le``)
      and end with an ``le="+Inf"`` bucket equal to ``_count``.

    Raises ``ValueError`` on the first violation.
    """
    typed: Dict[str, str] = {}
    helped: Dict[str, str] = {}
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            helped[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and typed.get(stripped) == "histogram":
                base = stripped
                break
        if base not in typed:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE header")
        if base not in helped:
            raise ValueError(f"line {lineno}: sample {name!r} has no HELP header")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw_labels):
                labels[lm.group(1)] = lm.group(2)
                consumed = lm.end()
            rest = raw_labels[consumed:].strip().strip(",")
            if rest:
                raise ValueError(f"line {lineno}: malformed labels: {raw_labels!r}")
        value_text = match.group("value")
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed value: {value_text!r}")
        samples.setdefault(name, []).append((labels, value))

    # Histogram structure: cumulative buckets per label set, +Inf == _count.
    for base, mtype in typed.items():
        if mtype != "histogram":
            continue
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        for labels, value in samples.get(f"{base}_bucket", []):
            le = labels.get("le")
            if le is None:
                raise ValueError(f"histogram {base!r}: bucket sample missing le label")
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            series.setdefault(key, []).append((float(le), value))
        counts = {
            tuple(sorted(labels.items())): value
            for labels, value in samples.get(f"{base}_count", [])
        }
        for key, buckets in series.items():
            ordered = sorted(buckets)
            values = [v for _, v in ordered]
            if any(b > a for b, a in zip(values, values[1:])):
                raise ValueError(f"histogram {base!r}: bucket counts not cumulative")
            if not ordered or ordered[-1][0] != math.inf:
                raise ValueError(f"histogram {base!r}: missing le=\"+Inf\" bucket")
            if key in counts and ordered[-1][1] != counts[key]:
                raise ValueError(
                    f"histogram {base!r}: +Inf bucket != _count for labels {key}"
                )
    return samples


def snapshot(registry: MetricsRegistry) -> Dict[str, object]:
    """JSON-serializable snapshot of every registered metric."""
    out: Dict[str, object] = {}
    for metric in registry.collect():
        full = _qualify(metric.name)
        if isinstance(metric, Histogram):
            series = []
            for labelvalues, _state in metric.samples():
                labels = dict(zip(metric.labelnames, labelvalues))
                series.append(
                    {
                        "labels": {k: str(v) for k, v in labels.items()},
                        "buckets": list(metric.buckets),
                        "bucket_counts": metric.bucket_counts(**labels),
                        "sum": metric.sum_value(**labels),
                        "count": metric.count_value(**labels),
                    }
                )
            out[full] = {"type": "histogram", "help": metric.help, "series": series}
        elif isinstance(metric, (Counter, Gauge)):
            out[full] = {
                "type": metric.metric_type,
                "help": metric.help,
                "series": [
                    {
                        "labels": dict(zip(metric.labelnames, labelvalues)),
                        "value": value,
                    }
                    for labelvalues, value in metric.samples()
                ],
            }
    return out


def write_bench_json(path: Path, payload: object) -> Path:
    """Write ``payload`` following the repo's ``BENCH_*.json`` convention."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
