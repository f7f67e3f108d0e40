"""arithring: exact truncated Dirichlet-convolution rings and divisor lattices.

Arithmetic functions with exact rational (Q) or integer (Z) values on
1..N, convolution/inverse/division with triangular solves, sieve-built
classical functions, irreducibility certificates, and finite divisor-poset
analysis (minimum chain partitions, complements, distributivity).

``import arithring`` loads no submodule.  A public name or submodule is
imported on first access (PEP 562) and then kept in this module's
namespace, with the other public names of its home module.  The function
layer (``ring``, ``kernels``, ``classical``, ``factorization``,
``serialize``) loads numpy; ``lattice``, ``numutil``, ``core`` and the
CLI's integer commands run on the standard library alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "classical": ("IdentityReport", "build", "identity_suite"),
    "core": ("Domain", "ParseError", "RingError"),
    "factorization": (
        "Certificate", "FactorizationClaim", "FactorizationReport", "RankSplit", "Verdict",
        "certify", "rank_screen", "verify_factorization", "witness_reducible",
    ),
    "kernels": ("active_backend",),
    "lattice": (
        "ChainCover", "DivisorPoset", "chain_cover", "co_ideal", "complements_of",
        "euclid_factorization", "gcd_lcm_identity_check", "is_boolean", "is_complemented",
        "is_distributive", "is_uniquely_complemented", "join", "lattice_report", "meet",
        "prime_property_check", "to_dot", "width",
    ),
    "ring": (
        "ArithFunc", "Coefficient", "DivisionResult", "DomainMismatch", "NoVisibleRank",
        "NotAUnit", "NotInDomain", "Rank", "add", "are_associates", "convolve", "divide",
        "epsilon", "inverse", "is_unit", "make", "monic", "nu", "omega", "rank", "restrict",
        "scale", "with_domain",
    ),
    "serialize": ("dump_path", "from_csv", "load_path", "to_csv", "to_json_obj"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "classical", "cli", "core", "factorization", "kernels", "lattice", "numutil", "ring",
    "serialize",
)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home of `name` and bind its public names here together,
    as a ``from .home import ...`` line would."""
    if name in _HOME:
        home = import_module(f".{_HOME[name]}", __name__)
        globals().update((export, getattr(home, export)) for export in _EXPORTS[_HOME[name]])
    elif name in _SUBMODULES:
        globals()[name] = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
