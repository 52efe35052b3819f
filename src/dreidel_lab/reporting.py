"""Bound-check reports and deterministic CSV/JSON emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ARTIFACT_VERSION = "0.1.0"
BOUND_COLUMNS = ["name", "paper_bound", "measured", "margin", "verdict"]


@dataclass(frozen=True)
class BoundEntry:
    name: str
    bound: float | None
    measured: float
    margin: float
    verdict: str  # "pass" | "fail" | "report"


@dataclass
class BoundReport:
    title: str
    entries: list[BoundEntry] = field(default_factory=list)

    def _add(self, name: str, bound: float | None, measured: float, margin: float, verdict: str) -> BoundEntry:
        entry = BoundEntry(name, bound, measured, margin, verdict)
        self.entries.append(entry)
        return entry

    def check_ge(self, name: str, measured: float, bound: float, slack: float = 0.0) -> BoundEntry:
        """Record a lower-bound check: measured >= bound - slack."""
        return self._add(name, bound, measured, measured - bound, "pass" if measured >= bound - slack else "fail")

    def check_le(self, name: str, measured: float, bound: float, slack: float = 0.0) -> BoundEntry:
        """Record an upper-bound check: measured <= bound + slack."""
        return self._add(name, bound, measured, bound - measured, "pass" if measured <= bound + slack else "fail")

    def report_only(self, name: str, measured: float) -> BoundEntry:
        return self._add(name, None, measured, float("nan"), "report")

    @property
    def ok(self) -> bool:
        return all(e.verdict != "fail" for e in self.entries)

    @property
    def failures(self) -> list[BoundEntry]:
        return [e for e in self.entries if e.verdict == "fail"]

    def rows(self) -> list[list]:
        return [
            [e.name, _fmt(e.bound), _fmt(e.measured), _fmt(e.margin), e.verdict]
            for e in self.entries
        ]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, np.floating):
        x = float(x)
    elif isinstance(x, np.integer):
        x = int(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def header_lines(meta: dict) -> list[str]:
    payload = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    return [f"# runspec: {payload}", f"# artifact-version: {ARTIFACT_VERSION}"]


def format_csv(meta: dict, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = header_lines(meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def format_json(meta: dict, payload) -> str:
    doc = {"runspec": meta, "artifact_version": ARTIFACT_VERSION, "data": payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text(path: str, text: str) -> None:
    """Write `text` to `path`; a path that cannot be written is a ValueError."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def emit_plot_data(series: Sequence[tuple[float, float]], path: str, meta: dict | None = None) -> None:
    """Two-column (x, y) text file, one row per point."""
    if not series:
        raise ValueError("empty series")
    lines = header_lines(meta or {})
    for x, y in series:
        lines.append(f"{_fmt(x)} {_fmt(y)}")
    write_text(path, "\n".join(lines) + "\n")
