"""Markdown rendering/writing for table harness outputs."""
from __future__ import annotations

import os
from typing import Any

from repro.experiments.tables import TABLES

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


def render_markdown(rows: list[dict[str, Any]], title: str = "") -> str:
    """Render list-of-dicts as a GitHub markdown table (column order from
    the first row)."""
    if not rows:
        return f"## {title}\n\n(no rows)\n"
    cols = list(rows[0].keys())
    out = [f"## {title}", "", "| " + " | ".join(cols) + " |",
           "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(_fmt(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out) + "\n"


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.2f}"
        return f"{v:.3f}"
    return str(v)


def write_table(name: str, rows: list[dict[str, Any]]) -> str:
    """Write ``results/<name>.md`` under the title ``TABLES[name]`` gives;
    returns the rendered markdown."""
    md = render_markdown(rows, TABLES[name][1])
    path = os.path.abspath(os.path.join(RESULTS_DIR, f"{name}.md"))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(md)
    return md
