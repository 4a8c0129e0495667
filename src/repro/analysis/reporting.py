"""Plain-text reporting helpers: tables and simple ASCII charts.

The benchmark harness regenerates the paper's quantitative content as rows of
numbers.  Since the environment is headless, "figures" are rendered as aligned
text tables and, where a trend is the point (e.g. cost vs. query-region size),
as simple ASCII bar charts.  Everything returns strings so benchmarks can both
print them and store them alongside the raw rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "format_table",
    "format_bar_chart",
    "format_trace_tree",
    "format_critical_path",
    "ResultTable",
]


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    title: Optional[str] = None,
    precision: int = 5,
) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    # Union of all rows' keys in first-seen order, so tables mixing row
    # shapes (e.g. measurement rows + audit rows) lose no columns.
    columns = list(dict.fromkeys(key for row in rows for key in row))
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([_format_value(row.get(c, ""), precision) for c in columns])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(cell.ljust(width) for cell, width in zip(rendered[0], widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered[1:]:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def format_bar_chart(
    labels: Sequence[object],
    values: Sequence[float],
    title: Optional[str] = None,
) -> str:
    """Render values as horizontal ASCII bars, the longest 50 characters."""
    width = 50
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if not values:
        return f"{title or 'chart'}: (no data)"
    peak = max(values)
    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = max(len(str(label)) for label in labels)
    for label, value in zip(labels, values):
        bar_len = 0 if peak == 0 else int(round(width * value / peak))
        lines.append(f"{str(label).rjust(label_width)} | {'#' * bar_len} {value:g}")
    return "\n".join(lines)


def _span_sort_key(span) -> Tuple[float, int, str, str]:
    return (span.start, span.hop, str(span.kind), str(span.broker_id))


def format_trace_tree(spans: Sequence[object], title: Optional[str] = None) -> str:
    """Render one trace's spans as an indented hop tree.

    ``spans`` are duck-typed :class:`~repro.obs.trace.Span` records (all of
    one trace).  Hop spans are indented by hop depth so the rendering reads as
    the event's fan-out through the overlay; ``route`` / ``covering`` /
    ``phase`` spans attach under the broker they ran at.  Deterministic for
    deterministic span sets.
    """
    if not spans:
        return f"{title or 'trace'}: (no spans)"
    lines: List[str] = [title] if title else []
    depth_of: Dict[str, int] = {}
    for span in sorted(spans, key=_span_sort_key):
        detail = dict(getattr(span, "detail", ()) or ())
        if span.kind == "publish":
            depth_of[str(span.broker_id)] = 0
            lines.append(f"publish @{span.broker_id} t={span.start:g}")
        elif span.kind == "hop":
            depth_of[str(span.broker_id)] = span.hop
            indent = "  " * span.hop
            lines.append(
                f"{indent}hop {span.parent} -> {span.broker_id} "
                f"t={span.start:g} +{span.duration:g}"
            )
        else:
            depth = depth_of.get(str(span.broker_id), 0)
            indent = "  " * (depth + 1)
            extra = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(detail.items()))
                if detail
                else ""
            )
            lines.append(f"{indent}{span.kind} @{span.broker_id}{extra}")
    return "\n".join(lines)


def format_critical_path(spans: Sequence[object], title: Optional[str] = None) -> str:
    """Render the slowest hop chain of one trace — its delivery critical path.

    Walks the hop spans backward from the latest arrival to the publishing
    broker, accumulating per-hop latency, so the output names the links a
    latency optimisation would have to shorten.
    """
    hops = [span for span in spans if getattr(span, "kind", None) == "hop"]
    if not hops:
        return f"{title or 'critical path'}: (no hops)"
    by_receiver: Dict[str, object] = {}
    for span in sorted(hops, key=_span_sort_key):
        # First arrival wins: reverse-path forwarding delivers each event to a
        # broker once per epoch, but a re-trace may record duplicates.
        by_receiver.setdefault(str(span.broker_id), span)
    last = max(by_receiver.values(), key=lambda s: (s.start + s.duration, s.hop))
    chain = [last]
    cursor = last
    while str(cursor.parent) in by_receiver:
        cursor = by_receiver[str(cursor.parent)]
        if cursor in chain:  # defensive: malformed span sets must not loop
            break
        chain.append(cursor)
    chain.reverse()
    total = sum(span.duration for span in chain)
    lines: List[str] = [title] if title else []
    lines.append(
        f"critical path: {len(chain)} hop(s), {total:g} total latency, "
        f"arrives t={last.start + last.duration:g}"
    )
    for span in chain:
        lines.append(f"  {span.parent} -> {span.broker_id}  +{span.duration:g}")
    return "\n".join(lines)


class ResultTable:
    """A growing collection of result rows with convenience accessors."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rows: List[Dict[str, object]] = []

    def add(self, **row: object) -> None:
        """Append a row given as keyword arguments."""
        self.rows.append(dict(row))

    def extend(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Append many rows."""
        for row in rows:
            self.rows.append(dict(row))

    def column(self, name: str) -> List[object]:
        """Return one column as a list (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def to_text(self) -> str:
        """Render the table as aligned text."""
        return format_table(self.rows, title=self.name)

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()
