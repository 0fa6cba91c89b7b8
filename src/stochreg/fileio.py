"""Atomic file output plus JSON/CSV helpers with exact float round-trips.

Floats are rendered with ``repr``, the shortest string that parses back to the
identical IEEE double, so regenerating a file from the same inputs reproduces
it byte for byte and parsing a written file recovers the original values.
Writes go to a temporary sibling followed by ``os.replace``; readers never see
a partial file.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

SCHEMA_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` atomically.  The temporary sibling is named by
    process and thread, so concurrent writers of one path never share it;
    the last replace wins."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def dump_json(obj, path) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], list[list]]:
    """Read back a CSV written by write_csv; numeric fields become floats."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parsed = []
        for cell in line.split(","):
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        rows.append(parsed)
    return header, rows
