"""Per-table reproduction harnesses (DESIGN.md §6)."""
from repro.experiments.tables import (
    TABLES,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
)
from repro.experiments.io import render_markdown, write_table

__all__ = [
    "TABLES",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "render_markdown",
    "write_table",
]
