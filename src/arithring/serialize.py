"""Exact JSON / CSV round-tripping of arithmetic functions.

JSON carries the domain tag:

    {"domain": "Q" | "Z", "bound": N, "values": ["1", "-3", "5/2", ...]}

Rationals are reduced strings "p/q" with the "/q" part omitted when the
denominator is 1.  "bound" may be left out; when present it must be a JSON
integer equal to the number of values.  CSV is the bare value table, one
"index,value" line per index 1..N; it carries no domain tag, so loaders take
the domain as an argument (the CLI passes its --domain flag).  Text is the
CSV table with a space for the comma.  ``render`` picks the writer of each
format for the CLI and for ``dump_path``; ``dump_path`` and ``load_path``
take the format from the file's suffix, .json or .csv, and nothing else.

Each output is built by one %-formatting pass over the store F: with L = 1
the ints of F go in by ``%d`` and no per-value string is made, otherwise the
coefficient strings go in by ``%s``.  A coefficient string holds only
digits, "-" and "/", so JSON needs no escaping and ``dumps`` writes its
fixed frame without the json module.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from .core import Domain, ParseError, _quoted
from .ring import ArithFunc, make


def coefficient_strings(f: ArithFunc) -> list[str]:
    """str of f(1), ..., f(N), "p" or "p/q" in lowest terms, formatted from
    the store F / L: F(n) when L = 1 or F holds the Fractions, else F(n) / L
    reduced by one gcd, with no Fraction built."""
    ints, den = f._num[1:].tolist(), f._den
    if den in (None, 1):
        return list(map(str, ints))
    out = []
    for v in ints:
        g = math.gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out


def _cells(f: ArithFunc) -> tuple[list, str]:
    """f(1), ..., f(N) as format arguments with their conversion: the ints
    of F by %d when L = 1, else coefficient_strings by %s."""
    if f._den == 1:
        return f._num[1:].tolist(), "%d"
    return coefficient_strings(f), "%s"


def to_lines(f: ArithFunc, sep: str) -> str:
    """One "n<sep>f(n)" line per index 1..N, in one formatting pass."""
    values, conv = _cells(f)
    n = len(values)
    cells = [0] * (2 * n)
    cells[::2] = range(1, n + 1)
    cells[1::2] = values
    del values  # both lists are freed before the text is built
    cells = tuple(cells)
    return f"%d{sep}{conv}\n" * n % cells


def to_json_obj(f: ArithFunc) -> dict:
    return {
        "domain": f.domain.value,
        "bound": f.bound,
        "values": coefficient_strings(f),
    }


def from_json_obj(obj) -> ArithFunc:
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        domain = Domain(obj["domain"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"missing or unknown domain tag: {_quoted(obj.get('domain'))}") from exc
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        raise ParseError("'values' must be a nonempty list")
    if "bound" in obj:
        bound = obj["bound"]
        if type(bound) is not int:  # bool is an int subclass; 2.0 and "2" are not ints
            raise ParseError(f"bound must be a JSON integer, got {_quoted(bound)}")
        if bound != len(values):
            raise ParseError(f"bound {bound} disagrees with {len(values)} values")
    if bool in map(type, values):  # make would take true and false as 1 and 0
        at = next(i for i, v in enumerate(values, 1) if type(v) is bool)
        raise ParseError(f"value {at} is a JSON boolean, not a coefficient")
    try:
        return make(values, domain)
    except Exception as exc:
        raise ParseError(f"bad coefficient: {exc}") from exc


def dumps(f: ArithFunc) -> str:
    """The compact JSON of to_json_obj(f), in one formatting pass."""
    values, conv = _cells(f)
    slots = ",".join([f'"{conv}"'] * len(values))
    frame = f'{{"domain":"{f.domain.value}","bound":{f.bound},"values":[{slots}]}}'
    return frame % tuple(values)


def loads(text: str) -> ArithFunc:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    return from_json_obj(obj)


def to_csv(f: ArithFunc) -> str:
    return to_lines(f, ",")


def from_csv(text: str, domain: Domain = Domain.Q) -> ArithFunc:
    entries: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == "index,value":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'index,value', got {_quoted(raw)}")
        try:
            idx = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad index {_quoted(parts[0])}") from exc
        if idx < 1:
            raise ParseError(f"line {lineno}: index {idx} is below 1")
        if idx in entries:
            raise ParseError(f"line {lineno}: duplicate index {idx}")
        entries[idx] = parts[1].strip()
    if not entries:
        raise ParseError("line 1: no data rows")
    n = len(entries)
    missing = [i for i in range(1, n + 1) if i not in entries]
    if missing:
        raise ParseError(f"indices must cover 1..{n}; missing {missing[0]}")
    try:
        return make([entries[i] for i in range(1, n + 1)], domain)
    except Exception as exc:
        raise ParseError(f"bad coefficient: {exc}") from exc


def render(f: ArithFunc, fmt: str) -> str:
    """The text of f in the format fmt: "json", "csv", else "text"."""
    if fmt == "json":
        return dumps(f) + "\n"
    if fmt == "csv":
        return to_csv(f)
    return to_lines(f, " ")


def dump_path(f: ArithFunc, path: Union[str, Path]) -> None:
    """Write f in the format its suffix names, .json or .csv."""
    path = Path(path)
    path.write_text(render(f, _infer_format(path)))


def load_path(path: Union[str, Path], domain: Domain = Domain.Q) -> ArithFunc:
    """Load a .json or .csv function file; JSON keeps its own domain tag,
    CSV uses `domain`."""
    path = Path(path)
    fmt = _infer_format(path)
    text = path.read_text()
    return loads(text) if fmt == "json" else from_csv(text, domain)


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("json", "csv"):
        return suffix
    raise ValueError(
        f"cannot infer format from {_quoted(path.name)}: expected a .json or .csv file"
    )
