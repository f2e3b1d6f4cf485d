"""Rules for outside input: JSON files, field sets, numbers and CSV tables.

The device, config, calibration and records loaders all read through
here, so every malformed file surfaces as a ValueError that names the
file, the line or the field, and never as an internal error.
"""

from __future__ import annotations

import json
import sys


def read_json(path):
    """The value in a JSON file; any failure to decode it names the file.

    That covers invalid JSON, bytes that are not UTF-8, nesting deeper than
    the parser's recursion limit and integers past Python's digit limit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def check_fields(data, what: str, allowed, required=()) -> dict:
    """`data` is a JSON object with every required key and no other key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"{what} missing fields: {', '.join(missing)}")
    unknown = [k for k in data if k not in allowed]
    if unknown:
        raise ValueError(f"{what} has unknown fields: {', '.join(unknown)}")
    return data


def read_number(value, what: str) -> float:
    """A JSON number as a float: finite and within the float range.

    bool, str and null are not numbers, though Python would convert them.
    """
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def read_csv(path, headers, parse_row) -> tuple:
    """`parse_row(*columns)` of every row of a `#`-commented CSV table.

    Blank lines and lines starting with `#` are skipped. The first line
    left must be one of `headers` (tuples of column names), and every
    later line must have as many columns; a ValueError from `parse_row`
    is reported at its `path:line`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    rows = [(i + 1, tuple(c.strip() for c in line.split(",")))
            for i, line in enumerate(lines)
            if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty file, no header")
    header_no, header = rows[0]
    if header not in headers:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        raise ValueError(f"{path}:{header_no}: expected header {expected}, "
                         f"got {','.join(header)!r}")
    parsed = []
    for line_no, columns in rows[1:]:
        if len(columns) != len(header):
            raise ValueError(f"{path}:{line_no}: expected {len(header)} "
                             f"columns, got {len(columns)}")
        try:
            parsed.append(parse_row(*columns))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return tuple(parsed)
