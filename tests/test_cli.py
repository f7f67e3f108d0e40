"""CLI behaviour: adapters, exit codes, round trips, byte stability."""

from __future__ import annotations

import json

from arithring import Domain, build, epsilon, load_path, make, nu
from arithring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFunctionCommands:
    def test_fn_build_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "mobius.json"
        code, _, _ = run(capsys, "fn-build", "mobius", "--bound", "50",
                         "--domain", "Z", "--out", str(out_file))
        assert code == 0
        assert load_path(out_file) == build("mobius", 50)
        code, out, _ = run(capsys, "fn-eval", str(out_file), "--format", "json")
        assert code == 0
        assert json.loads(out)["values"][:4] == ["1", "-1", "-1", "0"]

    def test_fn_eval_via_in_flag(self, capsys, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("1,1/2\n2,3\n")
        code, out, _ = run(capsys, "fn-eval", "--in", str(f), "--domain", "Q")
        assert code == 0
        assert out == "1 1/2\n2 3\n"

    def test_in_is_an_fn_eval_option_only(self, capsys, tmp_path):
        code, out, err = run(capsys, "conv", "--lhs", "one", "--rhs", "one", "--bound", "4",
                             "--in", str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --in" in err

    def test_fn_eval_names_the_accepted_suffixes(self, capsys, tmp_path):
        code, out, err = run(capsys, "fn-eval", str(tmp_path))
        assert code == 2 and out == ""
        assert ".json" in err and ".csv" in err and "fmt=" not in err

    def test_fn_eval_without_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fn-eval")
        assert code == 2
        assert "fn-eval needs a function file" in err

    def test_conv_mobius_one_is_epsilon(self, capsys):
        code, out, _ = run(capsys, "conv", "--lhs", "mobius", "--rhs", "one",
                           "--bound", "200", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["values"][0] == "1"
        assert set(obj["values"][1:]) == {"0"}

    def test_add(self, capsys):
        code, out, _ = run(capsys, "add", "--lhs", "nu_2", "--rhs", "nu_3",
                           "--bound", "4")
        assert code == 0
        assert out == "1 0\n2 1\n3 1\n4 0\n"

    def test_inv_of_one_is_mobius(self, capsys):
        code, out, _ = run(capsys, "inv", "one", "--bound", "30", "--format", "csv")
        assert code == 0
        mob = build("mobius", 30, Domain.Q)
        assert out.splitlines()[5] == f"6,{mob[6]}"

    def test_inv_nonunit_exits_one(self, capsys):
        code, _, err = run(capsys, "inv", "nu_2", "--bound", "8")
        assert code == 1
        assert "not invertible" in err

    def test_div_quotient(self, capsys):
        code, out, _ = run(capsys, "div", "--num", "nu_6", "--den", "nu_2",
                           "--bound", "12")
        assert code == 0
        assert out.splitlines()[2] == "3 1"

    def test_div_rank_mismatch_exits_one(self, capsys):
        code, out, _ = run(capsys, "div", "--num", "nu_6", "--den", "nu_4",
                           "--bound", "12")
        assert code == 1
        assert "first failing index 6" in out

    def test_div_failure_exits_one(self, capsys, tmp_path):
        from arithring import add as ring_add
        from arithring.serialize import dump_path

        target = tmp_path / "sum.json"
        dump_path(ring_add(nu(2, 12, Domain.Q), nu(3, 12, Domain.Q)), target)
        code, out, _ = run(capsys, "div", "--num", str(target), "--den", "nu_2",
                           "--format", "json")
        assert code == 1
        assert json.loads(out) == {"divisible": False, "witness": 3}

    def test_rank_and_unit(self, capsys):
        code, out, _ = run(capsys, "rank", "nu_6", "--bound", "10")
        assert code == 0 and out == "rank 6, leading 1\n"
        code, out, _ = run(capsys, "rank", "mobius")
        assert code == 0 and out == "rank 1, leading 1\n"
        code, out, _ = run(capsys, "unit", "mobius")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "unit", "prime_char")
        assert code == 1 and out == "false\n"

    def test_associates(self, capsys):
        code, out, _ = run(capsys, "associates", "nu_2", "nu_2", "--bound", "8")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "associates", "nu_2", "nu_3", "--bound", "8")
        assert code == 1 and out == "false\n"


class TestVerdictCommands:
    def test_certify_text_and_json(self, capsys):
        code, out, _ = run(capsys, "certify", "prime_char", "--bound", "50")
        assert code == 0
        assert out == "irreducible (prime_support 2)\n"
        code, out, _ = run(capsys, "certify", "prime_char", "--bound", "50",
                           "--format", "json")
        assert json.loads(out)["reason"] == {"kind": "prime_support", "value": 2}

    def test_verify_fact(self, capsys):
        code, out, _ = run(capsys, "verify-fact", "nu_4", "--factor", "nu_2",
                           "--factor", "nu_2", "--bound", "16")
        assert code == 0
        assert "product: ok" in out
        code, out, _ = run(capsys, "verify-fact", "nu_6", "--factor", "nu_2",
                           "--factor", "nu_5", "--bound", "12")
        assert code == 1
        assert "mismatch at index 6" in out

    def test_identity_suite(self, capsys):
        code, out, _ = run(capsys, "identity-suite", "--bound", "300", "--domain", "Z")
        assert code == 0
        assert out.count(": pass") == 4


class TestLatticeCommands:
    def test_report_json_and_byte_stability(self, capsys):
        code, first, _ = run(capsys, "lattice-report", "30")
        assert code == 0
        obj = json.loads(first)
        assert obj["width"] == 3 and obj["boolean"] is True
        code, second, _ = run(capsys, "lattice-report", "30")
        assert first == second

    def test_report_text(self, capsys):
        code, out, _ = run(capsys, "lattice-report", "12", "--format", "text")
        assert code == 0
        assert "width: 2" in out and "boolean: false" in out

    def test_chains(self, capsys):
        code, out, _ = run(capsys, "lattice-chains", "30", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["width"] == 3 and len(obj["antichain"]) == 3

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "lattice-dot", "12")
        assert code == 0
        assert out.startswith("digraph") and '"6" -> "12";' in out
        code, colored, _ = run(capsys, "lattice-dot", "12", "--color-chains")
        assert "color=" in colored

    def test_euclid(self, capsys):
        code, out, _ = run(capsys, "euclid", "360")
        assert code == 0 and out == "2 2 2 3 3 5\n"
        code, out, _ = run(capsys, "euclid", "360", "--format", "json")
        assert json.loads(out) == {"n": 360, "factors": [2, 2, 2, 3, 3, 5]}

    def test_euclid_power_of_two_sieves_no_further(self, capsys):
        # sqrt(2^100) = 2^50: a sieve that far cannot be allocated
        code, out, _ = run(capsys, "euclid", str(2**100))
        assert code == 0 and out == " ".join(["2"] * 100) + "\n"

    def test_euclid_rejects_small(self, capsys):
        code, _, err = run(capsys, "euclid", "1")
        assert code == 2 and "need n >= 2" in err

    def test_prime_check(self, capsys):
        code, out, _ = run(capsys, "prime-check", "7", "--max-ab", "60")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "prime-check", "6", "--max-ab", "12")
        assert code == 1 and out == "false\n"


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_function_spec(self, capsys):
        code, _, err = run(capsys, "rank", "no_such_fn")
        assert code == 2
        assert "unknown function" in err

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,1\nwhoops\n")
        code, _, err = run(capsys, "fn-eval", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_domain_mismatch_is_verdict_failure(self, capsys, tmp_path):
        from arithring.serialize import dump_path

        zfile = tmp_path / "z.json"
        dump_path(make([1, 2], Domain.Z), zfile)
        code, _, err = run(capsys, "conv", "--lhs", str(zfile), "--rhs", "one",
                           "--domain", "Q")
        assert code == 1
        assert "Z vs Q" in err or "Q vs Z" in err

    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        from arithring import numutil

        def too_large(n):
            raise MemoryError("Unable to allocate 128. TiB for the sieve")

        monkeypatch.setattr(numutil, "smallest_prime_factor", too_large)
        code, out, err = run(capsys, "euclid", str(2**100 + 277))
        assert code == 2 and out == ""
        assert err == "error: Unable to allocate 128. TiB for the sieve\n"

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_dot_format_invalid_for_functions(self, capsys):
        code, _, err = run(capsys, "fn-build", "one", "--format", "dot")
        assert code == 2
        assert "not valid" in err


def test_epsilon_equivalents(capsys):
    code, out, _ = run(capsys, "fn-build", "epsilon", "--bound", "4",
                       "--domain", "Q", "--format", "json")
    assert code == 0
    assert json.loads(out) == json.loads(
        '{"domain":"Q","bound":4,"values":["1","0","0","0"]}'
    )
    assert make(json.loads(out)["values"], Domain.Q) == epsilon(4, Domain.Q)
