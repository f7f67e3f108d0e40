"""Command-line front end.

Every subcommand is a thin adapter over one library operation; no ring or
lattice logic lives here (``prime-check`` reads its all-pairs question off
the divisors of p).  A subcommand takes only the options it reads, and
``--format`` only the formats it renders; handlers return their result and
:func:`main` renders it.  Function arguments take a reference string: a
built-in name from :mod:`arithring.classical` (``mobius``, ``sigma_2``, ...),
an indicator ``nu_<r>``, or a path to a JSON/CSV function file.  A handler
imports the function layer only when it runs, so ``euclid``, ``prime-check``
and the ``lattice-*`` commands never load numpy.

Exit codes: 0 success, 1 domain/verdict failure (not divisible, not a unit,
failed identity, ...), 2 usage or file-parse error, an input too large to
compute in memory, or a factor that cannot be proven prime (at or above
psi_12, where the Miller-Rabin test proves nothing).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional

from . import lattice, numutil
from .core import Domain, ParseError, RingError, _quoted

_NU = re.compile(r"^nu_(\d+)$")

DEFAULT_BOUND = 1000
DEFAULT_DOMAIN = "Q"


def _resolve(spec: str, bound: int, domain: Domain):
    from . import classical, serialize
    from .ring import nu

    if classical.is_known_name(spec):
        return classical.build(spec, bound, domain)
    m = _NU.match(spec)
    if m:
        return nu(int(m.group(1)), bound, domain)
    if os.path.exists(spec):  # False, not OSError, for a name too long to be a path
        return serialize.load_path(spec, domain=domain)
    raise ValueError(
        f"unknown function {_quoted(spec)}: not a built-in name, nu_<r>, or existing file"
    )


def _render(result, fmt: Optional[str]) -> tuple[str, int]:
    """Text and exit code of a handler's result: DOT text (exit 0), a report
    ``(json_obj, text_lines, code)``, a verdict (``true``/``false``, exit
    0/1) or else an ArithFunc (exit 0).  A report prints its text lines in
    any format but json."""
    if isinstance(result, str):
        return result, 0
    if isinstance(result, tuple):
        obj, lines, code = result
        if fmt == "json":
            return json.dumps(obj, separators=(",", ":")) + "\n", code
        return "".join(line + "\n" for line in lines), code
    if isinstance(result, bool):
        return ("true\n", 0) if result else ("false\n", 1)
    from .serialize import render

    return render(result, fmt), 0


# ---------------------------------------------------------------------------
# handlers: each returns a result for _render.  Those that compute on
# functions import the function layer (and with it numpy) when they run.
# ---------------------------------------------------------------------------


def _cmd_fn_build(args):
    return _resolve(args.name, args.bound, args.domain)


def _cmd_fn_eval(args):
    from .serialize import load_path

    path = args.file or args.in_file
    if not path:
        raise ValueError("fn-eval needs a function file (positional or --in)")
    return load_path(path, domain=args.domain)


def _operands(args, *specs):
    return [_resolve(spec, args.bound, args.domain) for spec in specs]


def _cmd_add(args):
    from .ring import add

    return add(*_operands(args, args.lhs, args.rhs))


def _cmd_conv(args):
    from .ring import convolve

    return convolve(*_operands(args, args.lhs, args.rhs))


def _cmd_inv(args):
    from .ring import inverse

    return inverse(_resolve(args.fn, args.bound, args.domain))


def _cmd_div(args):
    from .ring import divide

    result = divide(*_operands(args, args.num, args.den))
    if result.divisible:
        return result.quotient
    obj = {"divisible": False, "witness": result.witness}
    return obj, [f"not divisible at bound; first failing index {result.witness}"], 1


def _cmd_rank(args):
    from .ring import rank

    r = rank(_resolve(args.fn, args.bound, args.domain))
    if not r.visible:
        return {"visible": False}, ["not visible at bound"], 0
    leading = str(r.leading)
    obj = {"visible": True, "index": r.index, "leading": leading}
    return obj, [f"rank {r.index}, leading {leading}"], 0


def _cmd_unit(args):
    from .ring import is_unit

    return is_unit(_resolve(args.fn, args.bound, args.domain))


def _cmd_associates(args):
    from .ring import are_associates

    return are_associates(*_operands(args, args.lhs, args.rhs))


def _certificate_label(cert) -> str:
    if cert.reason is None:
        return cert.verdict.value
    return f"{cert.verdict.value} ({cert.reason.kind} {cert.reason.value})"


def _cmd_certify(args):
    from .factorization import certify

    cert = certify(_resolve(args.fn, args.bound, args.domain))
    return cert.to_json_obj(), [_certificate_label(cert)], 0


def _cmd_verify_fact(args):
    from . import factorization

    target = _resolve(args.target, args.bound, args.domain)
    unit_part = _resolve(args.unit, target.bound, args.domain)
    factors = tuple(_resolve(s, target.bound, args.domain) for s in args.factor or [])
    claim = factorization.FactorizationClaim(unit_part, factors)
    report = factorization.verify_factorization(target, claim)
    text = [f"unit part: {'ok' if report.unit_ok else 'NOT A UNIT'}"]
    for i, cert in enumerate(report.certificates):
        flag = "" if i not in report.unverified else "  [unverified]"
        text.append(f"factor {i}: {_certificate_label(cert)}{flag}")
    if report.product_ok:
        text.append("product: ok")
    else:
        text.append(f"product: mismatch at index {report.first_mismatch}")
    return report.to_json_obj(), text, 0 if report.ok else 1


def _cmd_identity_suite(args):
    from .classical import identity_suite

    report = identity_suite(args.bound, args.domain)
    text = [f"{c.name}: {'pass' if c.ok else f'FAIL at index {c.first_mismatch}'}"
            for c in report.checks]
    return report.to_json_obj(), text, 0 if report.ok else 1


def _cmd_lattice_report(args):
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
    return report, text, 0


def _cmd_lattice_chains(args):
    cover = lattice.chain_cover(lattice.co_ideal(args.a))
    obj = {
        "a": args.a,
        "width": cover.width,
        "chains": [list(c) for c in cover.chains],
        "antichain": list(cover.antichain),
    }
    text = [" ".join(str(x) for x in chain) for chain in cover.chains]
    text.append("antichain: " + " ".join(str(x) for x in cover.antichain))
    return obj, text, 0


def _cmd_lattice_dot(args):
    poset = lattice.co_ideal(args.a)
    chains = lattice.chain_cover(poset).chains if args.color_chains else None
    return lattice.to_dot(poset, chains)


def _cmd_euclid(args):
    factors = lattice.euclid_factorization(args.n)
    return {"n": args.n, "factors": factors}, [" ".join(str(p) for p in factors)], 0


def _prime_property_upto(p: int, m: int) -> bool:
    """True when no a, b in [1, m] have p | ab, p ∤ a and p ∤ b.

    Such a pair exists exactly when p = g * (p / g) with 1 < g < p and g,
    p / g <= m: (g, p / g) is one, and for any witness (a, b), g = gcd(a, p)
    is a proper divisor of p with g <= a, and p / g, coprime to a / g,
    divides b.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if m < 1:
        raise ValueError(f"need M >= 1, got {m}")
    if p > m * m:
        return True
    return not any(1 < g < p and g <= m and p // g <= m for g in numutil.divisors(p))


def _cmd_prime_check(args):
    return _prime_property_upto(args.p, args.max_ab)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  A subcommand takes only the
    options its handler reads, and --format only the formats it renders."""
    parser = argparse.ArgumentParser(
        prog="arithring",
        description="Exact truncated Dirichlet-convolution rings and divisor lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "bound": dict(type=int, default=DEFAULT_BOUND, metavar="N",
                      help="truncation bound for built functions (default 1000)"),
        "domain": dict(type=Domain, choices=list(Domain), default=Domain(DEFAULT_DOMAIN),
                       metavar="Q|Z", help="coefficient domain (default Q)"),
    }
    ring, function, report = ("bound", "domain"), ("text", "json", "csv"), ("text", "json")

    def cmd(name, handler, help_text, *option_names, formats=(), default="text"):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for option in option_names:
            p.add_argument(f"--{option}", **options[option])
        if formats:
            p.add_argument("--format", choices=formats, default=default,
                           help=f"output format (default {default})")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write output here instead of stdout")
        return p

    p = cmd("fn-build", _cmd_fn_build, "construct a built-in function", *ring,
            formats=function, default="json")
    p.add_argument("name", help="built-in name, e.g. mobius, sigma_2, nu_6")

    p = cmd("fn-eval", _cmd_fn_eval, "print a function file's exact values", "domain",
            formats=function)
    source = p.add_mutually_exclusive_group()
    source.add_argument("file", nargs="?", default=None, help="function file (or use --in)")
    source.add_argument("--in", dest="in_file", default=None, metavar="FILE",
                        help="input function file")

    for name, handler, help_text in (
        ("add", _cmd_add, "pointwise sum of two functions"),
        ("conv", _cmd_conv, "Dirichlet convolution of two functions"),
    ):
        p = cmd(name, handler, help_text, *ring, formats=function)
        p.add_argument("--lhs", required=True, help="left operand (name, nu_<r>, or file)")
        p.add_argument("--rhs", required=True, help="right operand (name, nu_<r>, or file)")

    p = cmd("inv", _cmd_inv, "convolution inverse of a unit", *ring, formats=function)
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("div", _cmd_div, "exact division at bound (exit 1 if not divisible)", *ring,
            formats=function)
    p.add_argument("--num", required=True, help="numerator (name, nu_<r>, or file)")
    p.add_argument("--den", required=True, help="denominator (name, nu_<r>, or file)")

    p = cmd("rank", _cmd_rank, "least index with a nonzero value", *ring, formats=report)
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("unit", _cmd_unit, "test invertibility (exit 1 if not a unit)", *ring)
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("associates", _cmd_associates, "mutual divisibility test", *ring)
    p.add_argument("lhs", help="left function (name, nu_<r>, or file)")
    p.add_argument("rhs", help="right function (name, nu_<r>, or file)")

    p = cmd("certify", _cmd_certify, "irreducibility certificate", *ring, formats=report)
    p.add_argument("fn", help="function (name, nu_<r>, or file)")

    p = cmd("verify-fact", _cmd_verify_fact, "check a claimed factorization", *ring,
            formats=report)
    p.add_argument("target", help="function being factored (name, nu_<r>, or file)")
    p.add_argument("--unit", default="epsilon", help="unit part (default epsilon)")
    p.add_argument("--factor", action="append", help="irreducible factor (repeatable)")

    cmd("identity-suite", _cmd_identity_suite, "classical convolution identities", *ring,
        formats=report)

    p = cmd("lattice-report", _cmd_lattice_report, "divisor lattice summary",
            formats=report, default="json")
    p.add_argument("a", type=int)

    p = cmd("lattice-chains", _cmd_lattice_chains, "minimum chain partition + antichain",
            formats=report)
    p.add_argument("a", type=int)

    p = cmd("lattice-dot", _cmd_lattice_dot, "Hasse diagram in DOT")
    p.add_argument("a", type=int)
    p.add_argument("--color-chains", action="store_true",
                   help="color nodes by minimum chain partition")

    p = cmd("euclid", _cmd_euclid, "factor an integer by divisor-chain descent", formats=report)
    p.add_argument("n", type=int)

    p = cmd("prime-check", _cmd_prime_check, "p | ab implies p | a or p | b, for all a, b <= M")
    p.add_argument("p", type=int)
    p.add_argument("--max-ab", type=int, default=200, metavar="M",
                   help="check all pairs 1 <= a, b <= M (default 200)")

    return parser


def _message(exc: Exception) -> str:
    """str(exc), with the file names of an OSError cut short by _quoted."""
    if not isinstance(exc, OSError) or exc.filename is None:
        return str(exc) or type(exc).__name__
    text = f"[Errno {exc.errno}] {exc.strerror}: {_quoted(exc.filename)}"
    return text if exc.filename2 is None else f"{text} -> {_quoted(exc.filename2)}"


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = _render(args.handler(args), getattr(args, "format", None))
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except (ParseError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    except RingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:  # pragma: no cover - installed script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
