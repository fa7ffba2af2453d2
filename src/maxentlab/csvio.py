"""CSV emission with a fixed, reproducible text form.

Comma delimiter, '.' decimal point, LF line endings, mandatory header row.
Floats are written with repr (shortest round-trip form) so identical values
always serialize to identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import IoError


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if "," in text or "\n" in text:
        raise IoError(f"CSV cell may not contain commas or newlines: {text!r}")
    return text


def csv_text(header: str, rows) -> str:
    lines = [header]
    width = len(header.split(","))
    for row in rows:
        cells = [format_cell(v) for v in row]
        if len(cells) != width:
            raise IoError(f"row has {len(cells)} cells, header has {width}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header cells and raw string rows, each cell exactly as ``format_cell`` wrote it.

    Callers coerce types themselves. Only LF ends a line, so a cell keeps any
    carriage return, and a row of one empty cell is a row.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final line ending
    if not lines:
        raise IoError(f"{path} is empty")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
