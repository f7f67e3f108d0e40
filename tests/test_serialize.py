"""JSON/CSV round-trips and parse failure reporting."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithring import Domain, make
from arithring.cli import _render
from arithring.serialize import (
    ParseError,
    coefficient_strings,
    dump_path,
    dumps,
    from_csv,
    from_json_obj,
    load_path,
    loads,
    to_csv,
    to_json_obj,
)

from conftest import WIDE, arith_funcs, oracle_csv, oracle_json, oracle_text, widen

Q, Z = Domain.Q, Domain.Z


def test_coefficient_strings():
    """str of each value, on the int64, object, L > 1 and Fraction stores."""
    f = make([Fraction(3, 2), Fraction(-3), 7, Fraction(4, 2)], Q)
    assert coefficient_strings(f) == ["3/2", "-3", "7", "2"]
    stores = [make([3, -1, 0, 7], Z), *_stores().values()]
    assert [(g._num.dtype, g._den) for g in stores[:2]] == [(np.int64, 1), (object, 1)]
    assert [g._den for g in stores] == [1, 1, 1, 6, None]
    for g in stores:
        assert coefficient_strings(g) == [str(v) for v in g.values]


def test_deep_json_is_a_parse_error():
    deep = "[" * 100_000 + "]" * 100_000
    for text in (deep, '{"domain": "Q", "values": %s}' % deep):
        with pytest.raises(ParseError, match="^JSON nested too deeply$"):
            loads(text)


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
    with pytest.raises(ParseError, match="^line 2: bad index '1.5'$"):
        from_csv("1,1\n1.5,2\n", Q)
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


@pytest.mark.parametrize("bound", ["2", True, 2.0, None, [2]])
def test_json_bound_must_be_an_integer(bound):
    obj = {"domain": "Q", "bound": bound, "values": ["1", "2"]}
    with pytest.raises(ParseError, match=r"^bound must be a JSON integer, got "):
        from_json_obj(obj)
    with pytest.raises(ParseError, match=r"^bound must be a JSON integer, got "):
        loads(json.dumps(obj))


def test_json_bound_may_be_left_out_or_match():
    assert from_json_obj({"domain": "Z", "values": ["1", "2"]}) == make([1, 2], Z)
    assert loads('{"domain": "Z", "bound": 2, "values": ["1", "2"]}') == make([1, 2], Z)


@pytest.mark.parametrize("index", ["0", "-1", "-7"])
def test_csv_index_below_one_names_its_line(index):
    with pytest.raises(ParseError, match=rf"^line 2: index {index} is below 1$"):
        from_csv(f"1,1\n{index},5\n2,3\n", Q)


def test_path_round_trip_infers_format(tmp_path):
    f = make(["1/2", 0, -5], Q)
    json_file = tmp_path / "f.json"
    csv_file = tmp_path / "f.csv"
    dump_path(f, json_file)
    dump_path(f, csv_file)
    assert load_path(json_file) == f
    assert load_path(csv_file, domain=Q) == f
    with pytest.raises(ValueError, match="^cannot infer format from 'f.dat'"):
        dump_path(f, tmp_path / "f.dat")
    assert not (tmp_path / "f.dat").exists()
    # the suffix is read first: a missing file would raise FileNotFoundError
    with pytest.raises(ValueError, match="^cannot infer format from 'f.xml'"):
        load_path(tmp_path / "f.xml")


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
    want = [str(v) for v in f.values]
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


@pytest.mark.parametrize("name", ["int64", *sorted(_stores())])
def test_dump_path_writes_the_bytes_the_cli_writes(name, tmp_path):
    from arithring.cli import main

    f = make([3, -1, 0, 1 << 40, -(1 << 62), 7], Z) if name == "int64" else _stores()[name]
    assert (f._num.dtype == np.int64) == (name in ("int64", "L=6"))
    source = tmp_path / "source.json"
    dump_path(f, source)
    g = load_path(source)
    assert g == f and g._num.dtype == f._num.dtype and g._den == f._den
    for fmt in ("json", "csv"):
        path, out = tmp_path / f"f.{fmt}", tmp_path / f"cli.{fmt}"
        dump_path(f, path)
        assert main(["fn-eval", str(source), "--format", fmt, "--out", str(out)]) == 0
        assert path.read_bytes() == out.read_bytes(), fmt


# ---------------------------------------------------------------------------
# every output, rendered in one pass, byte for byte as by one string per value
# ---------------------------------------------------------------------------

# distinct primes near 10^6: the least L of values over four of them passes
# 64 bits, so such a function stores its Fractions
PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081)


@st.composite
def fraction_stores(draw):
    drawn = draw(st.lists(st.fractions(-9, 9, max_denominator=6), max_size=12))
    wide = [Fraction(draw(st.integers(-9, 9).filter(bool)), p) for p in PRIMES]
    f = make(draw(st.permutations(drawn + wide)), Q)
    assert f._den is None
    return f


def stores():
    """int64 and object stores over Z, over Q with any L, and Fraction stores."""
    return st.one_of(
        arith_funcs(Z, max_bound=20),
        arith_funcs(Z, max_bound=20).map(widen),
        arith_funcs(Q, max_bound=20),
        arith_funcs(Q, max_bound=20).map(widen),
        fraction_stores(),
    )


def _assert_outputs_match_the_oracle(f):
    text, csv, json_text = oracle_text(f), oracle_csv(f), oracle_json(f)
    assert _render(f, "text") == (text, 0)
    assert _render(f, "csv") == (csv, 0) and to_csv(f) == csv
    assert _render(f, "json") == (json_text + "\n", 0) and dumps(f) == json_text
    assert loads(dumps(f)) == f


@given(stores())
@settings(max_examples=150)
def test_outputs_match_the_per_value_oracle(f):
    _assert_outputs_match_the_oracle(f)


ONE_VALUE = {
    "int64": (make([-7], Z), np.int64, 1),
    "object": (make([-(1 << 70)], Z), object, 1),
    "L=3": (make(["-1/3"], Q), np.int64, 3),
    "Fraction": (make([Fraction(-1, WIDE)], Q), object, None),
}


@pytest.mark.parametrize("name", sorted(ONE_VALUE))
def test_outputs_at_bound_one_match_the_oracle(name):
    f, dtype, den = ONE_VALUE[name]
    assert f.bound == 1 and f._num.dtype == dtype and f._den == den
    _assert_outputs_match_the_oracle(f)


@pytest.mark.parametrize("values", [
    [3, -1, 0, 7],
    [3, -1, 0, 1 << 70],
    ["1/6", "-2/3", 0, "5/2"],
], ids=["int64", "object", "L=6"])
def test_rendering_builds_no_value_tuple_or_fraction(values, monkeypatch):
    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    for fmt in ("text", "csv", "json"):
        f = make(values, Q)
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", no_fraction)
            _render(f, fmt)
            to_csv(f)
            dumps(f)
        assert "values" not in f.__dict__, fmt
