"""JSON/CSV round-trips and parse failure reporting."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from arithring import Domain, make
from arithring.serialize import (
    ParseError,
    coefficient_to_str,
    dump_path,
    dumps,
    from_csv,
    from_json_obj,
    load_path,
    loads,
    to_csv,
    to_json_obj,
)

from conftest import arith_funcs

Q, Z = Domain.Q, Domain.Z


def test_coefficient_strings():
    assert coefficient_to_str(Fraction(3, 2)) == "3/2"
    assert coefficient_to_str(Fraction(-3)) == "-3"
    assert coefficient_to_str(7) == "7"
    assert coefficient_to_str(Fraction(4, 2)) == "2"


def test_json_shape():
    f = make([1, "1/2", -3], Q)
    obj = to_json_obj(f)
    assert obj == {"domain": "Q", "bound": 3, "values": ["1", "1/2", "-3"]}


@given(arith_funcs(Q, max_bound=20))
@settings(max_examples=25)
def test_json_round_trip_q(f):
    assert loads(dumps(f)) == f


@given(arith_funcs(Z, max_bound=20))
@settings(max_examples=25)
def test_json_round_trip_z(f):
    assert loads(dumps(f)) == f


def test_json_round_trip_big_values():
    f = make([10**40, -(10**41), 1], Z)
    assert loads(dumps(f)) == f


@given(arith_funcs(Q, max_bound=20))
@settings(max_examples=25)
def test_csv_round_trip(f):
    assert from_csv(to_csv(f), Q) == f


def test_csv_round_trip_z_domain():
    f = make([3, -1, 0, 12], Z)
    assert from_csv(to_csv(f), Z) == f


def test_csv_accepts_header_and_shuffled_rows():
    text = "index,value\n2,5\n1,-1/3\n"
    f = from_csv(text, Q)
    assert f.values == (Fraction(-1, 3), Fraction(5))


def test_csv_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        from_csv("1,1\nnot-a-row\n", Q)
    with pytest.raises(ParseError, match="line 3"):
        from_csv("1,1\n2,2\n2,9\n", Q)
    with pytest.raises(ParseError, match="missing 2"):
        from_csv("1,1\n3,3\n", Q)
    with pytest.raises(ParseError):
        from_csv("", Q)


def test_csv_rejects_out_of_domain_value():
    with pytest.raises(ParseError):
        from_csv("1,1/2\n", Z)


def test_json_rejects_malformed():
    with pytest.raises(ParseError, match="line 1"):
        loads("{not json")
    with pytest.raises(ParseError):
        from_json_obj({"domain": "R", "values": ["1"]})
    with pytest.raises(ParseError):
        from_json_obj({"domain": "Q", "values": []})
    with pytest.raises(ParseError):
        from_json_obj({"domain": "Q", "bound": 5, "values": ["1"]})
    with pytest.raises(ParseError):
        from_json_obj(["1"])
    with pytest.raises(ParseError):
        from_json_obj({"domain": "Z", "values": ["1/2"]})


def test_path_round_trip_infers_format(tmp_path):
    f = make(["1/2", 0, -5], Q)
    json_file = tmp_path / "f.json"
    csv_file = tmp_path / "f.csv"
    dump_path(f, json_file)
    dump_path(f, csv_file)
    assert load_path(json_file) == f
    assert load_path(csv_file, domain=Q) == f
    with pytest.raises(ValueError):
        dump_path(f, tmp_path / "f.dat")
    with pytest.raises(ValueError):
        load_path(tmp_path / "f.json", fmt="xml")


# ---------------------------------------------------------------------------
# output formatted from the store (F, L), byte for byte as from the Fractions
# ---------------------------------------------------------------------------


def _stores():
    """Functions with L = 1 over Z and Q, L = 6, and a wide L that stores Fractions."""
    wide = (1000003, 1000033, 1000037, 1000039, 1000081)
    return {
        "Z": make([3, -1, 0, 1 << 70, -(1 << 63), 7], Z),
        "L=1": make([3, -1, 0, 1 << 70, Fraction(10, 5), 7], Q),
        "L=6": make([Fraction(1, 6), Fraction(-4, 6), 0, Fraction(5, 2), Fraction(-9, 3)], Q),
        "wide": make([1, 0] + [Fraction(-k, wide[k % 5]) for k in range(2, 9)], Q),
    }


@pytest.mark.parametrize("name", sorted(_stores()))
def test_output_from_the_store_matches_fraction_formatting(name, tmp_path, capsys):
    from arithring.cli import main

    f = _stores()[name]
    assert (f._den is None) == (name == "wide") and (f._den == 6) == (name == "L=6")
    want = [coefficient_to_str(v) for v in f.values]
    assert want[:3] != ["0", "0", "0"]
    assert to_json_obj(f)["values"] == want
    csv = "".join(f"{i},{s}\n" for i, s in enumerate(want, 1))
    assert to_csv(f) == csv
    path = tmp_path / "f.json"
    dump_path(f, path)
    for fmt, out in (("text", csv.replace(",", " ")), ("csv", csv), ("json", dumps(f) + "\n")):
        assert main(["fn-eval", str(path), "--format", fmt]) == 0
        assert capsys.readouterr().out == out
    assert loads(dumps(f)) == f
