"""CLI behaviour: adapters, exit codes, round trips, byte stability."""

from __future__ import annotations

import json
import time

import pytest

from arithring import Domain, build, epsilon, load_path, make, nu, numutil
from arithring.cli import _prime_property_upto, main

from conftest import pair_scan, pairs_upto


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

    def test_conv_files_read_back_at_a_million_values(self, capsys, tmp_path):
        """conv's json and csv files of 10^6 values, read back by fn-eval,
        print the text that conv prints."""
        argv = ["conv", "--lhs", "mobius", "--rhs", "id", "--bound", "1000000", "--domain", "Z"]
        code, text, _ = run(capsys, *argv)
        assert code == 0 and text.count("\n") == 1_000_000
        for fmt in ("json", "csv"):
            path = tmp_path / f"phi.{fmt}"
            assert run(capsys, *argv, "--format", fmt, "--out", str(path)) == (0, "", "")
            assert run(capsys, "fn-eval", str(path), "--domain", "Z") == (0, text, "")

    def test_in_is_an_fn_eval_option_only(self, capsys, tmp_path):
        code, out, err = run(capsys, "conv", "--lhs", "one", "--rhs", "one", "--bound", "4",
                             "--in", str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --in" in err

    def test_fn_eval_names_the_accepted_suffixes(self, capsys, tmp_path):
        code, out, err = run(capsys, "fn-eval", str(tmp_path))
        assert code == 2 and out == ""
        assert ".json" in err and ".csv" in err and "fmt=" not in err

    def test_fn_eval_takes_one_file(self, capsys, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("1,1\n")
        code, out, err = run(capsys, "fn-eval", str(f), "--in", str(f))
        assert code == 2 and out == ""
        assert "argument --in: not allowed with argument file" in err

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

    def test_rank_of_a_fraction(self, capsys, tmp_path):
        half = tmp_path / "half.json"
        half.write_text('{"domain": "Q", "values": ["0", "1/2", "-3"]}')
        code, out, _ = run(capsys, "rank", str(half))
        assert code == 0 and out == "rank 2, leading 1/2\n"

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

    def test_certify_of_a_psi_12_lead_is_unknown(self, capsys, tmp_path):
        # psi_12 = 399165290221 * 798330580441 passes the Miller-Rabin test
        path = tmp_path / "psi12.json"
        path.write_text(json.dumps({"domain": "Z", "values": [str(numutil.MR_PROOF_LIMIT), "0"]}))
        assert run(capsys, "certify", str(path), "--domain", "Z") == (0, "unknown\n", "")

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

    def test_report_at_the_root_limit(self, capsys):
        code, out, _ = run(capsys, "lattice-report", str(10**18))
        assert code == 0 and len(json.loads(out)["elements"]) == 19 * 19
        code, out, err = run(capsys, "lattice-report", str(10**18 + 1))
        assert code == 2 and out == ""
        assert err == f"error: {10**18 + 1} exceeds the root limit {10**18}\n"

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
        code, _, err = run(capsys, "prime-check", "1")
        assert code == 2 and err == "error: need p >= 2, got 1\n"
        for m in ("0", "-3"):  # no pair to check: "true" would be vacuous
            code, out, err = run(capsys, "prime-check", "97", "--max-ab", m)
            assert code == 2 and out == "" and err == f"error: need M >= 1, got {m}\n"

    def test_prime_check_matches_the_pair_scan(self):
        for p in range(2, 301):
            for m in range(1, 41):
                assert _prime_property_upto(p, m) is pair_scan(p, pairs_upto(m)), (p, m)

    def test_prime_check_near_the_square_of_the_bound(self):
        for m in range(2, 60):
            for p in (m * m - 1, m * m, m * m + 1, m * (m - 1), m * (m + 1), (m - 1) ** 2):
                if p >= 2:
                    assert _prime_property_upto(p, m) is pair_scan(p, pairs_upto(m)), (p, m)


@pytest.mark.usefixtures("no_large_sieve")
class TestBoundedTime:
    """Inputs the defaults accept finish well inside a wall budget, and no
    prime list is built past the primes below 2^10."""

    BUDGET_S = 2.0

    def timed(self, capsys, *argv):
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < self.BUDGET_S, argv
        return result

    def test_euclid_of_a_semiprime_near_1e16(self, capsys):
        p, q = 10**8 + 7, 10**8 + 37
        code, out, _ = self.timed(capsys, "euclid", str(p * q))
        assert code == 0 and out == f"{p} {q}\n"

    def test_prime_check_of_a_large_bound(self, capsys):
        code, out, _ = self.timed(capsys, "prime-check", "999983", "--max-ab", "100000")
        assert code == 0 and out == "true\n"

    def test_euclid_refuses_an_unprovable_prime(self, capsys):
        psi12 = "318665857834031151167461"
        code, out, err = self.timed(capsys, "euclid", psi12)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot prove ") and psi12 in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_euclid_refuses_past_the_rho_step_cap(self, capsys, monkeypatch):
        # a balanced 60-bit semiprime takes about 5 * 10^4 rho steps
        monkeypatch.setattr(numutil, "_RHO_MAX_STEPS", 10**4)
        n = str(1073741789 * 1073741827)
        code, out, err = self.timed(capsys, "euclid", n)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot split {n}: ") and "10000 steps" in err
        assert err.count("\n") == 1 and "Traceback" not in err


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

    @pytest.mark.parametrize("values", [False, True])
    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path, values):
        deep = tmp_path / "deep.json"
        text = "[" * 100_000 + "]" * 100_000
        deep.write_text('{"domain": "Q", "values": %s}' % text if values else text)
        code, out, err = run(capsys, "fn-eval", str(deep))
        assert code == 2 and out == ""
        assert err == "error: JSON nested too deeply\n"

    def test_id_k_past_the_array_size_limit_is_usage_error(self, capsys):
        # about 10^29 values: numpy refuses the array at once
        code, out, err = run(capsys, "fn-build", "id_2", "--bound", str(10**29))
        assert code == 2 and out == ""
        assert err == "error: Maximum allowed size exceeded\n"

    def test_long_coefficient_is_quoted_short(self, capsys, tmp_path):
        # 5000 digits pass Python's int string limit (4300 by default)
        big = tmp_path / "big.csv"
        big.write_text("1," + "7" * 5000 + "\n2,3\n")
        code, out, err = run(capsys, "fn-eval", str(big))
        assert code == 2 and out == ""
        assert len(err.encode()) < 200, err
        assert "(5000 characters)" in err and "int string limit" in err

    LONG = "9" * 10_000

    @pytest.mark.parametrize("name, contents", [
        ("f.json", json.dumps({"domain": LONG, "values": ["1"]})),
        ("f.json", json.dumps({"domain": "Q", "bound": LONG, "values": ["1"]})),
        ("f.csv", f"1,1\n2,{LONG},3\n"),
        ("f.csv", f"1,1\n{LONG}x,3\n"),
        (None, LONG),
    ], ids=["json-domain", "json-bound", "csv-line", "csv-index", "function-spec"])
    def test_long_input_is_quoted_short(self, capsys, tmp_path, name, contents):
        spec = contents
        if name is not None:
            spec = str(tmp_path / name)
            (tmp_path / name).write_text(contents)
        code, out, err = run(capsys, "fn-eval" if name else "rank", spec)
        assert code == 2 and out == ""
        assert len(err) < 200 and "characters)" in err, err

    @pytest.mark.parametrize("argv", [
        ("fn-eval", "{}.json"),
        ("fn-eval", "{}"),
        ("fn-build", "one", "--bound", "3", "--out", "{}.json"),
    ], ids=["read", "no-suffix", "write"])
    def test_long_path_is_quoted_short(self, capsys, tmp_path, argv):
        path = str(tmp_path / ("p" * 10_000))
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert code == 2 and out == ""
        assert len(err) < 200 and "characters)" in err, err

    def test_short_path_error_is_os_text(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "fn-eval", "missing.json")
        assert code == 2 and out == ""
        assert err == "error: [Errno 2] No such file or directory: 'missing.json'\n"

    @pytest.mark.parametrize("size", [3, 10_000])
    def test_second_file_name_is_quoted_too(self, capsys, monkeypatch, size):
        from arithring import serialize

        exc = OSError(18, "Invalid cross-device link", "a" * size, None, "b" * size)

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(serialize, "load_path", fail)
        code, out, err = run(capsys, "fn-eval", "f.json")
        assert code == 2 and out == ""
        if size == 3:
            assert err == f"error: {exc}\n"
        else:
            assert len(err) < 200 and err.count("(10000 characters)") == 2, err

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

        monkeypatch.setattr(numutil, "prime_factors", too_large)
        code, out, err = run(capsys, "euclid", str(2**100 + 277))
        assert code == 2 and out == ""
        assert err == "error: Unable to allocate 128. TiB for the sieve\n"

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_dot_format_invalid_for_functions(self, capsys):
        code, out, err = run(capsys, "fn-build", "one", "--format", "dot")
        assert code == 2 and out == ""
        assert "argument --format: invalid choice: 'dot'" in err


def test_epsilon_equivalents(capsys):
    code, out, _ = run(capsys, "fn-build", "epsilon", "--bound", "4",
                       "--domain", "Q", "--format", "json")
    assert code == 0
    assert json.loads(out) == json.loads(
        '{"domain":"Q","bound":4,"values":["1","0","0","0"]}'
    )
    assert make(json.loads(out)["values"], Domain.Q) == epsilon(4, Domain.Q)
