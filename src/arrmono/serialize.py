"""Line-oriented structured serialization for reports and golden files.

The format is deterministic byte-for-byte: polynomial terms are emitted in
the canonical graded-lex order, matrices row-major with a shape header, and
every block parses back into an equal value.

    matrix <name> ring=laurent var=x nvars=4 rows=4 cols=5
    row [[["1",[0,0,1,0]],["-1",[0,1,1,0]]], ...]
    endmatrix

Rational matrices use ring=rational and plain coefficient strings per entry.
"""

from __future__ import annotations

import json
from functools import partial

from .errors import ParseError
from .linalg import QQ, RingMatrix
from .rings import (
    MAX_VARIABLES,
    PolyRing,
    RationalField,
    _shown,
    parse_fraction,
    parse_int,
    poly_from_pairs,
    poly_to_pairs,
)


def matrix_header(name: str, m: RingMatrix) -> str:
    ring = m.ring
    if isinstance(ring, RationalField):
        tag = "ring=rational"
    elif isinstance(ring, PolyRing):
        tag = f"ring={'laurent' if ring.laurent else 'poly'} var={ring.var} nvars={ring.nvars}"
    else:
        raise ValueError(f"cannot serialize matrices over {ring!r}")
    return f"matrix {name} {tag} rows={m.rows} cols={m.cols}"


_encode = json.JSONEncoder(separators=(",", ":")).encode


def matrix_lines(name: str, m: RingMatrix) -> list[str]:
    """The matrix block: each row rendered once from its nonzero entries,
    with the zero's text, encoded once, in every absent cell."""
    lines = [matrix_header(name, m)]
    cell = str if isinstance(m.ring, RationalField) else poly_to_pairs
    zero = _encode(cell(m.ring.zero()))
    for row in m.nonzero_rows():
        texts = [zero] * m.cols
        for j, e in row.items():
            texts[j] = _encode(cell(e))
        lines.append("row [" + ",".join(texts) + "]")
    lines.append("endmatrix")
    return lines


def parse_matrix_block(lines: list[str]) -> tuple[str, RingMatrix]:
    """Parse back the output of matrix_lines; returns (name, matrix).  Any
    malformed block raises ParseError."""
    if not lines or not lines[0].startswith("matrix ") or lines[-1] != "endmatrix":
        raise ParseError("malformed matrix block")
    try:
        return _parse_matrix_block(lines)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        # A missing header field, a field without '=' and a row that is not
        # a JSON list of entries all land here.
        raise ParseError(f"malformed matrix block: {type(exc).__name__}: {exc}") from None


def _parse_matrix_block(lines: list[str]) -> tuple[str, RingMatrix]:
    head = lines[0].split()
    name = head[1]
    opts = dict(part.split("=", 1) for part in head[2:])
    body = lines[1:-1]
    # Each row is a line, and a row of cols entries is longer than cols.
    parse_int(opts["rows"], len(body), len(body), "row count")
    cols = parse_int(opts["cols"], 0, sum(map(len, body)), "column count")
    if opts["ring"] == "rational":
        ring, parse = QQ, parse_fraction
    else:
        nvars = parse_int(opts["nvars"], 0, MAX_VARIABLES, "variable count")
        ring = PolyRing(nvars=nvars, laurent=(opts["ring"] == "laurent"), var=opts["var"])
        parse = partial(poly_from_pairs, ring=ring)
    entries = []
    for ln in body:
        if not ln.startswith("row "):
            raise ParseError(f"bad row line {_shown(ln)}")
        payload = json.loads(ln[4:])
        if len(payload) != cols:
            raise ParseError("row width mismatch")
        entries.append([parse(cell) for cell in payload])
    return name, RingMatrix(ring, entries)


def extract_matrix(text: str, name: str) -> RingMatrix:
    """Find and parse the named matrix block in a structured report."""
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith(f"matrix {name} "):
            for j in range(i + 1, len(lines)):
                if lines[j] == "endmatrix":
                    return parse_matrix_block(lines[i:j + 1])[1]
            raise ParseError(f"unterminated matrix block {name}")
    raise ParseError(f"no matrix named {name}")


class ReportWriter:
    """Accumulates a structured or human-readable report."""

    def __init__(self, structured: bool):
        self.structured = structured
        self.lines: list[str] = []
        self.failures: list[str] = []
        self.warnings: list[str] = []
        if structured:
            self.lines.append("arrmono-report v1")

    def section(self, name: str) -> None:
        self.lines.append(f"section {name}" if self.structured else f"== {name}")

    def kv(self, key: str, value) -> None:
        if self.structured:
            self.lines.append(f"kv {key} {value}")
        else:
            self.lines.append(f"{key}: {value}")

    def matrix(self, name: str, m: RingMatrix) -> None:
        if self.structured:
            self.lines.extend(matrix_lines(name, m))
        else:
            # Each nonzero entry is written once; an absent cell is the
            # zero's text, which widens a column only if the column has one.
            self.lines.append(f"{name} ({m.rows}x{m.cols}):")
            zero = str(m.ring.zero())
            rows = [{j: str(e) for j, e in row.items()} for row in m.nonzero_rows()]
            widths = [0] * m.cols
            filled = [0] * m.cols
            for row in rows:
                for j, text in row.items():
                    widths[j] = max(widths[j], len(text))
                    filled[j] += 1
            widths = [max(w, len(zero)) if f < m.rows else w for w, f in zip(widths, filled)]
            for row in rows:
                cells = [row.get(j, zero).rjust(w) for j, w in enumerate(widths)]
                self.lines.append("  [ " + "   ".join(cells) + " ]")

    def check(self, name: str, passed: bool, detail: str = "", warn_only: bool = False) -> None:
        if passed:
            status = "pass"
        elif warn_only:
            status = "warn"
            self.warnings.append(name)
        else:
            status = "FAIL"
            self.failures.append(name)
        suffix = f" {detail}" if detail and status != "pass" else ""
        if self.structured:
            self.lines.append(f"check {name} {status}{suffix}")
        else:
            self.lines.append(f"[{status}] {name}{suffix}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"
