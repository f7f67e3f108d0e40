"""Exact JSON / CSV round-tripping of arithmetic functions.

JSON carries the domain tag:

    {"domain": "Q" | "Z", "bound": N, "values": ["1", "-3", "5/2", ...]}

Rationals are reduced strings "p/q" with the "/q" part omitted when the
denominator is 1.  CSV is the bare value table, one "index,value" line per
index 1..N; it carries no domain tag, so loaders take the domain as an
argument (the CLI passes its --domain flag).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .ring import ArithFunc, Coefficient, Domain, make


class ParseError(Exception):
    """Malformed function file; message carries the offending location."""


def coefficient_to_str(v: Coefficient) -> str:
    if isinstance(v, Fraction):
        if v.denominator != 1:
            return f"{v.numerator}/{v.denominator}"
        return str(v.numerator)
    return str(v)


def coefficient_strings(f: ArithFunc) -> list[str]:
    """coefficient_to_str of f(1), ..., f(N), formatted from the store F / L:
    F(n) when L = 1, else F(n) / L reduced by one gcd, with no Fraction built."""
    ints, den = f._num[1:].tolist(), f._den
    if den is None:  # the Fraction store
        return [coefficient_to_str(v) for v in ints]
    if den == 1:
        return list(map(str, ints))
    out = []
    for v in ints:
        g = math.gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out


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
        raise ParseError(f"missing or unknown domain tag: {obj.get('domain')!r}") from exc
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        raise ParseError("'values' must be a nonempty list")
    bound = obj.get("bound")
    if bound is not None and bound != len(values):
        raise ParseError(f"bound {bound} disagrees with {len(values)} values")
    try:
        return make(values, domain)
    except Exception as exc:
        raise ParseError(f"bad coefficient: {exc}") from exc


def dumps(f: ArithFunc) -> str:
    return json.dumps(to_json_obj(f), separators=(",", ":"))


def loads(text: str) -> ArithFunc:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    return from_json_obj(obj)


def to_csv(f: ArithFunc) -> str:
    lines = [f"{i},{v}" for i, v in enumerate(coefficient_strings(f), 1)]
    return "\n".join(lines) + "\n"


def from_csv(text: str, domain: Domain = Domain.Q) -> ArithFunc:
    entries: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == "index,value":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'index,value', got {raw!r}")
        try:
            idx = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad index {parts[0]!r}") from exc
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


def dump_path(f: ArithFunc, path: Union[str, Path], fmt: Optional[str] = None) -> None:
    path = Path(path)
    fmt = fmt or _infer_format(path)
    if fmt == "json":
        path.write_text(dumps(f) + "\n")
    elif fmt == "csv":
        path.write_text(to_csv(f))
    else:
        raise ValueError(f"unsupported function format {fmt!r}")


def load_path(
    path: Union[str, Path],
    domain: Domain = Domain.Q,
    fmt: Optional[str] = None,
) -> ArithFunc:
    """Load a function file; JSON keeps its own domain tag, CSV uses `domain`."""
    path = Path(path)
    fmt = fmt or _infer_format(path)
    text = path.read_text()
    if fmt == "json":
        return loads(text)
    if fmt == "csv":
        return from_csv(text, domain)
    raise ValueError(f"unsupported function format {fmt!r}")


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("json", "csv"):
        return suffix
    raise ValueError(f"cannot infer format from {path.name!r}: expected a .json or .csv file")
