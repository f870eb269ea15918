"""Parsing and serialization of fusion data and permutation groups.

Structured format (canonical, JSON): one document per ring with keys
  format   -- "fusion-data/1"
  name     -- label string
  rank     -- m
  involution -- 0-based list, entry i is i*
  tensor   -- m matrices; matrix i, row j, column k is N_{ij}^k; entries are
              integers, "p/q" strings for rationals, or floats
serialized with sorted keys and a trailing newline, so round-trips are
byte-identical.

Text format (paper-style): m blank-line-separated m x m integer matrices,
whitespace-delimited, matrix i row j column k = N_{ij}^k; the involution is
inferred from the N_{ij}^0 entries.

Group format: permutation generators in cycle notation, one generator per
line or comma-separated, e.g. "(0 1 2)(3 4), (0 1)"; single-digit cycles may
omit the spaces: "(012),(01)".
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction
from itertools import chain

import numpy as np

from ..core import FusionData, involution_of
from ..errors import ParseError
from ..tolerance import DEFAULT_TOL, Tolerance
from .groups import FiniteGroup, _cycles, _pad, group_from_generators

__all__ = [
    "serialize",
    "parse",
    "serialize_text",
    "parse_text",
    "parse_group",
    "load",
    "dump",
]


def _entry_to_json(x):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _entry_from_json(x, where):
    if isinstance(x, bool):
        raise ParseError(0, 0, f"boolean entry at {where}")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParseError(0, 0, f"non-finite entry {x!r} at {where}")
        return x
    if isinstance(x, str):
        m = re.fullmatch(r"(-?\d+)/(\d+)", x.strip())
        if not m or int(m.group(2)) == 0:
            raise ParseError(0, 0, f"bad rational {x!r} at {where}")
        return Fraction(int(m.group(1)), int(m.group(2)))
    raise ParseError(0, 0, f"bad entry {x!r} at {where}")


def serialize(data: FusionData) -> str:
    doc = {
        "format": "fusion-data/1",
        "name": data.name,
        "rank": data.rank,
        "involution": list(data.involution),
        "tensor": [
            [[_entry_to_json(data.tensor[i, j, k]) for k in range(data.rank)]
             for j in range(data.rank)]
            for i in range(data.rank)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse(text: str, tol: Tolerance = DEFAULT_TOL) -> FusionData:
    """Parse the structured format; the result is validated at `tol`
    (associativity failures are rejected at load)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from exc
    if not isinstance(doc, dict) or doc.get("format") != "fusion-data/1":
        raise ParseError(1, 1, "not a fusion-data/1 document")
    for key in ("name", "rank", "involution", "tensor"):
        if key not in doc:
            raise ParseError(1, 1, f"missing key {key!r}")
    m, tensor = doc["rank"], doc["tensor"]
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ParseError(1, 1, f"rank {m!r} is not a positive integer")

    def shaped(x) -> bool:
        return isinstance(x, list) and len(x) == m

    if not (shaped(tensor) and all(shaped(mat) and all(map(shaped, mat)) for mat in tensor)):
        raise ParseError(1, 1, "tensor is not rank x rank x rank")
    if not isinstance(doc["involution"], list):
        raise ParseError(1, 1, "involution is not a list")
    flat = list(chain.from_iterable(chain.from_iterable(tensor)))
    if set(map(type, flat)) != {int}:
        flat = [
            _entry_from_json(x, f"tensor[{i}][{j}][{k}]")
            for (i, j, k), x in zip(np.ndindex(m, m, m), flat)
        ]
    data = FusionData(str(doc["name"]), doc["involution"], flat)
    data.flags_at(tol)  # validates, and keeps the flag set for later stages
    return data


def serialize_text(data: FusionData) -> str:
    """Paper-style text block (integer tensors only)."""
    if data.scalar_kind != "integer":
        raise ValueError("text format holds integer tensors only")
    blocks = []
    for i in range(data.rank):
        rows = [
            " ".join(str(int(data.tensor[i, j, k])) for k in range(data.rank))
            for j in range(data.rank)
        ]
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def parse_text(text: str, name: str = "ring") -> FusionData:
    """Parse blank-line-separated integer matrices; infer the involution from
    the N_{ij}^0 column and validate."""
    lines = text.split("\n")
    blocks: list[list[tuple[int, list[int]]]] = [[]]
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            if blocks[-1]:
                blocks.append([])
            continue
        row = []
        for colno, tok in enumerate(stripped.split()):
            try:
                row.append(int(tok))
            except ValueError:
                raise ParseError(lineno, colno + 1, f"not an integer: {tok!r}")
        blocks[-1].append((lineno, row))
    if blocks and not blocks[-1]:
        blocks.pop()
    m = len(blocks)
    if m == 0:
        raise ParseError(1, 1, "empty input")
    tensor = np.zeros((m, m, m), dtype=object)
    for i, block in enumerate(blocks):
        if len(block) != m:
            lineno = block[0][0] if block else 1
            raise ParseError(lineno, 1, f"matrix {i} has {len(block)} rows, expected {m}")
        for j, (lineno, row) in enumerate(block):
            if len(row) != m:
                raise ParseError(lineno, 1, f"row has {len(row)} entries, expected {m}")
            for k in range(m):
                tensor[i, j, k] = row[k]
    involution = involution_of(
        tensor[:, :, 0],
        error=lambda i, hits: ParseError(1, 1, f"cannot infer involution for element {i}: hits {hits}"),
    )
    data = FusionData(name, involution, tensor)
    data.flags  # validates, and keeps the flag set for later stages
    return data


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_group(text: str, name: str = "G") -> FiniteGroup:
    """Permutation generators in cycle notation -> FiniteGroup."""
    gen_strings = [
        s.strip()
        for s in re.split(r"[,\n;]+", text)
        if s.strip()
    ]
    if not gen_strings:
        raise ParseError(1, 1, "no generators")
    cycles_per_gen = []
    points = 0
    for lineno, gs in enumerate(gen_strings, start=1):
        if not re.fullmatch(r"\s*(\([\d\s]*\)\s*)+", gs):
            raise ParseError(lineno, 1, f"not cycle notation: {gs!r}")
        cycles, used = [], set()
        for cyc in _CYCLE_RE.findall(gs):
            toks = cyc.split()
            if len(toks) <= 1 and cyc.strip():
                # single token: digits without separators, one point per digit
                toks = list(cyc.strip())
            pts = []
            for t in toks:
                if not t.isdigit():
                    raise ParseError(lineno, 1, f"bad point {t!r} in {gs!r}")
                pts.append(int(t))
            if len(set(pts)) != len(pts):
                raise ParseError(lineno, 1, f"repeated point in cycle {cyc!r}")
            if used.intersection(pts):
                raise ParseError(lineno, 1, f"cycles of {gs!r} are not disjoint")
            used.update(pts)
            if pts:
                cycles.append(pts)
                points = max(points, max(pts) + 1)
        cycles_per_gen.append(cycles)
    perms = [_pad(_cycles(*cycles), points) for cycles in cycles_per_gen]
    return group_from_generators(perms, name)


def dump(data: FusionData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(data))


def load(path, tol: Tolerance = DEFAULT_TOL) -> FusionData:
    """Read a ring file in the structured or the text format, validated at
    `tol` (text files hold integer tensors, which validate at any tolerance).
    A file that is not UTF-8 raises ParseError at its first bad byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # one read decodes the whole file, so exc.object is all of its bytes
        raw, at = exc.object, exc.start
        raise ParseError(raw.count(b"\n", 0, at) + 1, at - raw.rfind(b"\n", 0, at),
                         f"not UTF-8 text: {exc.reason}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse(text, tol)
    return parse_text(text, name=os.path.splitext(os.path.basename(str(path)))[0])
