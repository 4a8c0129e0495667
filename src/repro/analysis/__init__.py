"""Plain-text reporting and the command-line entry point.

The experiment drivers live in :mod:`.experiments`, on the paper's layer;
the CLI imports them only inside ``list``, ``run`` and ``metrics``.
"""

from .reporting import ResultTable, format_bar_chart, format_table

__all__ = [
    "ResultTable",
    "format_bar_chart",
    "format_table",
]
