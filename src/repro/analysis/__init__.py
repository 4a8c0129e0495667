"""Plain-text reporting and the command-line entry point (``serve``, ``metrics``).

The experiments that write ``benchmarks/results/`` are scripts under
``experiments/``.
"""

from .reporting import ResultTable, format_bar_chart, format_table

__all__ = [
    "ResultTable",
    "format_bar_chart",
    "format_table",
]
