"""Command-line front end.

Every subcommand is a thin adapter over one library operation; no ring or
lattice logic lives here (``prime-check`` reads its all-pairs question off
the divisors of p).  Function arguments take a reference string: a built-in
name from :mod:`arithring.classical` (``mobius``, ``sigma_2``, ...), an
indicator ``nu_<r>``, or a path to a JSON/CSV function file.

Exit codes: 0 success, 1 domain/verdict failure (not divisible, not a unit,
failed identity, ...), 2 usage or file-parse error, an input too large to
compute in memory, or a factor that cannot be proven prime (at or above
psi_12, where the Miller-Rabin test proves nothing).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional

from . import classical, factorization, lattice, numutil, serialize
from .ring import (
    ArithFunc,
    Domain,
    RingError,
    add,
    are_associates,
    convolve,
    divide,
    inverse,
    is_unit,
    nu,
    rank,
)

_NU = re.compile(r"^nu_(\d+)$")

DEFAULT_BOUND = 1000
DEFAULT_DOMAIN = "Q"


def _resolve(spec: str, bound: int, domain: Domain) -> ArithFunc:
    if classical.is_known_name(spec):
        return classical.build(spec, bound, domain)
    m = _NU.match(spec)
    if m:
        return nu(int(m.group(1)), bound, domain)
    if Path(spec).exists():
        return serialize.load_path(spec, domain=domain)
    raise ValueError(
        f"unknown function {spec!r}: not a built-in name, nu_<r>, or existing file"
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_function(f: ArithFunc, fmt: str) -> str:
    if fmt == "json":
        return serialize.dumps(f) + "\n"
    if fmt == "csv":
        return serialize.to_csv(f)
    if fmt == "text":
        return "".join(f"{i} {v}\n" for i, v in enumerate(serialize.coefficient_strings(f), 1))
    raise ValueError(f"format {fmt!r} not valid for function output")


def _render_obj(obj, fmt: str, text_lines) -> str:
    if fmt == "json":
        return json.dumps(obj, separators=(",", ":")) + "\n"
    if fmt == "text":
        return "".join(line + "\n" for line in text_lines)
    raise ValueError(f"format {fmt!r} not valid for report output")


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_fn_build(args) -> int:
    f = _resolve(args.name, args.bound, args.domain)
    _emit(_render_function(f, args.format or "json"), args.out)
    return 0


def _cmd_fn_eval(args) -> int:
    path = args.file or args.in_file
    if not path:
        raise ValueError("fn-eval needs a function file (positional or --in)")
    f = serialize.load_path(path, domain=args.domain)
    _emit(_render_function(f, args.format or "text"), args.out)
    return 0


def _binary(args, op) -> int:
    lhs = _resolve(args.lhs, args.bound, args.domain)
    rhs = _resolve(args.rhs, args.bound, args.domain)
    _emit(_render_function(op(lhs, rhs), args.format or "text"), args.out)
    return 0


def _cmd_add(args) -> int:
    return _binary(args, add)


def _cmd_conv(args) -> int:
    return _binary(args, convolve)


def _cmd_inv(args) -> int:
    f = _resolve(args.fn, args.bound, args.domain)
    _emit(_render_function(inverse(f), args.format or "text"), args.out)
    return 0


def _cmd_div(args) -> int:
    num = _resolve(args.num, args.bound, args.domain)
    den = _resolve(args.den, args.bound, args.domain)
    result = divide(num, den)
    if result.divisible:
        _emit(_render_function(result.quotient, args.format or "text"), args.out)
        return 0
    obj = {"divisible": False, "witness": result.witness}
    text = [f"not divisible at bound; first failing index {result.witness}"]
    _emit(_render_obj(obj, args.format or "text", text), args.out)
    return 1


def _cmd_rank(args) -> int:
    r = rank(_resolve(args.fn, args.bound, args.domain))
    if r.visible:
        obj = {
            "visible": True,
            "index": r.index,
            "leading": serialize.coefficient_to_str(r.leading),
        }
        text = [f"rank {r.index}, leading {serialize.coefficient_to_str(r.leading)}"]
    else:
        obj = {"visible": False}
        text = ["not visible at bound"]
    _emit(_render_obj(obj, args.format or "text", text), args.out)
    return 0


def _cmd_unit(args) -> int:
    verdict = is_unit(_resolve(args.fn, args.bound, args.domain))
    _emit("true\n" if verdict else "false\n", args.out)
    return 0 if verdict else 1


def _cmd_associates(args) -> int:
    lhs = _resolve(args.lhs, args.bound, args.domain)
    rhs = _resolve(args.rhs, args.bound, args.domain)
    verdict = are_associates(lhs, rhs)
    _emit("true\n" if verdict else "false\n", args.out)
    return 0 if verdict else 1


def _cmd_certify(args) -> int:
    cert = factorization.certify(_resolve(args.fn, args.bound, args.domain))
    obj = cert.to_json_obj()
    if cert.reason is not None:
        text = [f"{cert.verdict.value} ({cert.reason.kind} {cert.reason.value})"]
    else:
        text = [cert.verdict.value]
    _emit(_render_obj(obj, args.format or "text", text), args.out)
    return 0


def _cmd_verify_fact(args) -> int:
    target = _resolve(args.target, args.bound, args.domain)
    unit_part = _resolve(args.unit, target.bound, args.domain)
    factors = tuple(_resolve(s, target.bound, args.domain) for s in args.factor or [])
    claim = factorization.FactorizationClaim(unit_part, factors)
    report = factorization.verify_factorization(target, claim)
    text = [
        f"unit part: {'ok' if report.unit_ok else 'NOT A UNIT'}",
    ]
    for i, cert in enumerate(report.certificates):
        label = cert.verdict.value
        if cert.reason is not None:
            label += f" ({cert.reason.kind} {cert.reason.value})"
        flag = "" if i not in report.unverified else "  [unverified]"
        text.append(f"factor {i}: {label}{flag}")
    if report.product_ok:
        text.append("product: ok")
    else:
        text.append(f"product: mismatch at index {report.first_mismatch}")
    _emit(_render_obj(report.to_json_obj(), args.format or "text", text), args.out)
    return 0 if report.ok else 1


def _cmd_identity_suite(args) -> int:
    report = classical.identity_suite(args.bound, args.domain)
    text = []
    for c in report.checks:
        status = "pass" if c.ok else f"FAIL at index {c.first_mismatch}"
        text.append(f"{c.name}: {status}")
    _emit(_render_obj(report.to_json_obj(), args.format or "text", text), args.out)
    return 0 if report.ok else 1


def _cmd_lattice_report(args) -> int:
    report = lattice.lattice_report(args.a)
    text = [
        f"divisors of {report['a']}: {len(report['elements'])} elements",
        f"atoms: {' '.join(str(x) for x in report['atoms'])}",
        f"width: {report['width']}",
        f"chains: {'; '.join(' '.join(str(x) for x in c) for c in report['chains'])}",
        f"distributive: {str(report['distributive']).lower()}",
        f"complemented: {str(report['complemented']).lower()}",
        f"boolean: {str(report['boolean']).lower()}",
    ]
    _emit(_render_obj(report, args.format or "json", text), args.out)
    return 0


def _cmd_lattice_chains(args) -> int:
    cover = lattice.chain_cover(lattice.co_ideal(args.a))
    obj = {
        "a": args.a,
        "width": cover.width,
        "chains": [list(c) for c in cover.chains],
        "antichain": list(cover.antichain),
    }
    text = [" ".join(str(x) for x in chain) for chain in cover.chains]
    text.append("antichain: " + " ".join(str(x) for x in cover.antichain))
    _emit(_render_obj(obj, args.format or "text", text), args.out)
    return 0


def _cmd_lattice_dot(args) -> int:
    poset = lattice.co_ideal(args.a)
    chains = lattice.chain_cover(poset).chains if args.color_chains else None
    _emit(lattice.to_dot(poset, chains), args.out)
    return 0


def _cmd_euclid(args) -> int:
    factors = lattice.euclid_factorization(args.n)
    obj = {"n": args.n, "factors": factors}
    text = [" ".join(str(p) for p in factors)]
    _emit(_render_obj(obj, args.format or "text", text), args.out)
    return 0


def _prime_property_upto(p: int, m: int) -> bool:
    """True when no a, b in [1, m] have p | ab, p ∤ a and p ∤ b.

    Such a pair exists exactly when p = g * (p / g) with 1 < g < p and g,
    p / g <= m: (g, p / g) is one, and for any witness (a, b), g = gcd(a, p)
    is a proper divisor of p with g <= a, and p / g, coprime to a / g,
    divides b.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if p > m * m:
        return True
    return not any(1 < g < p and g <= m and p // g <= m for g in numutil.divisors(p))


def _cmd_prime_check(args) -> int:
    ok = _prime_property_upto(args.p, args.max_ab)
    _emit("true\n" if ok else "false\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bound", type=int, default=DEFAULT_BOUND, metavar="N",
                        help="truncation bound for built functions (default 1000)")
    common.add_argument("--domain", type=Domain, choices=list(Domain),
                        default=Domain(DEFAULT_DOMAIN), metavar="Q|Z",
                        help="coefficient domain (default Q)")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write output here instead of stdout")
    common.add_argument("--format", choices=("json", "csv", "dot", "text"),
                        default=None, help="output format")

    parser = argparse.ArgumentParser(
        prog="arithring",
        description="Exact truncated Dirichlet-convolution rings and divisor lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = cmd("fn-build", _cmd_fn_build, "construct a built-in function")
    p.add_argument("name", help="built-in name, e.g. mobius, sigma_2, nu_6")

    p = cmd("fn-eval", _cmd_fn_eval, "print a function file's exact values")
    p.add_argument("file", nargs="?", default=None, help="function file (or use --in)")
    p.add_argument("--in", dest="in_file", default=None, metavar="FILE",
                   help="input function file")

    for name, handler, help_text in (
        ("add", _cmd_add, "pointwise sum of two functions"),
        ("conv", _cmd_conv, "Dirichlet convolution of two functions"),
    ):
        p = cmd(name, handler, help_text)
        p.add_argument("--lhs", required=True, help="left operand (name, nu_<r>, or file)")
        p.add_argument("--rhs", required=True, help="right operand (name, nu_<r>, or file)")

    p = cmd("inv", _cmd_inv, "convolution inverse of a unit")
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("div", _cmd_div, "exact division at bound (exit 1 if not divisible)")
    p.add_argument("--num", required=True, help="numerator (name, nu_<r>, or file)")
    p.add_argument("--den", required=True, help="denominator (name, nu_<r>, or file)")

    p = cmd("rank", _cmd_rank, "least index with a nonzero value")
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("unit", _cmd_unit, "test invertibility (exit 1 if not a unit)")
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("associates", _cmd_associates, "mutual divisibility test")
    p.add_argument("lhs", help="left function (name, nu_<r>, or file)")
    p.add_argument("rhs", help="right function (name, nu_<r>, or file)")

    p = cmd("certify", _cmd_certify, "irreducibility certificate")
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("verify-fact", _cmd_verify_fact, "check a claimed factorization")
    p.add_argument("target", help="function being factored (name, nu_<r>, or file)")
    p.add_argument("--unit", default="epsilon", help="unit part (default epsilon)")
    p.add_argument("--factor", action="append", help="irreducible factor (repeatable)")

    cmd("identity-suite", _cmd_identity_suite, "classical convolution identities")

    p = cmd("lattice-report", _cmd_lattice_report, "divisor lattice summary")
    p.add_argument("a", type=int)

    p = cmd("lattice-chains", _cmd_lattice_chains, "minimum chain partition + antichain")
    p.add_argument("a", type=int)

    p = cmd("lattice-dot", _cmd_lattice_dot, "Hasse diagram in DOT")
    p.add_argument("a", type=int)
    p.add_argument("--color-chains", action="store_true",
                   help="color nodes by minimum chain partition")

    p = cmd("euclid", _cmd_euclid, "factor an integer by divisor-chain descent")
    p.add_argument("n", type=int)

    p = cmd("prime-check", _cmd_prime_check, "p | ab implies p | a or p | b, for all a, b <= M")
    p.add_argument("p", type=int)
    p.add_argument("--max-ab", type=int, default=200, metavar="M",
                   help="check all pairs 1 <= a, b <= M (default 200)")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (serialize.ParseError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except RingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:  # pragma: no cover - installed script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
