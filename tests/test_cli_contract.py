"""The CLI's option contract: frozen output, per-command options, one parser.

``FROZEN`` maps every invocation in ``INVOCATIONS`` to its exit code and the
first 16 hex digits of the sha256 of its stdout (of the ``--out`` file when
one is given).  It was made by running :func:`record` against the CLI at
commit 656ec5c, where every subcommand still took ``--bound --domain --out
--format``; ``fn-eval {qjson} --in {zcsv}``, which read the positional file
there and is a usage error since, was recorded after::

    PYTHONPATH=<checkout of 656ec5c>/src:tests python -c "import test_cli_contract as t
    for k, v in t.record().items(): print(f'    {k!r}: {v!r},')"

Each subcommand appears with every format it accepts and with its default.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithring import cli
from arithring.cli import main

# placeholder -> (file name, contents) of the function files the invocations read
FILES = {
    "qjson": ("q.json", '{"domain": "Q", "bound": 6,'
                        ' "values": ["1", "1/2", "-3", "0", "5/2", "2"]}\n'),
    "zcsv": ("z.csv", "1,1\n2,-1\n3,2\n4,0\n5,3\n6,1\n"),
    "zero": ("zero.csv", "1,0\n2,0\n3,0\n"),
}

INVOCATIONS = [
    "fn-build mobius --bound 12",
    "fn-build mobius --bound 12 --format text",
    "fn-build mobius --bound 12 --format json",
    "fn-build mobius --bound 12 --format csv",
    "fn-build sigma_2 --bound 10 --domain Z --format csv",
    "fn-build nu_3 --bound 9 --domain Q --format text",
    "fn-build no_such_fn",
    "fn-eval {qjson}",
    "fn-eval {qjson} --format text",
    "fn-eval {qjson} --format json",
    "fn-eval {qjson} --format csv",
    "fn-eval --in {zcsv} --domain Z",
    "fn-eval {zcsv} --format json",
    "fn-eval {qjson} --in {zcsv}",
    "add --lhs nu_2 --rhs nu_3 --bound 8",
    "add --lhs nu_2 --rhs nu_3 --bound 8 --format text",
    "add --lhs nu_2 --rhs nu_3 --bound 8 --format json",
    "add --lhs nu_2 --rhs nu_3 --bound 8 --format csv",
    "add --lhs {qjson} --rhs one --bound 6",
    "conv --lhs mobius --rhs one --bound 12",
    "conv --lhs mobius --rhs one --bound 12 --format text",
    "conv --lhs mobius --rhs one --bound 12 --format json",
    "conv --lhs mobius --rhs one --bound 12 --format csv",
    "conv --lhs tau --rhs euler_phi --bound 20 --domain Z --format csv",
    "inv one --bound 12",
    "inv one --bound 12 --format text",
    "inv one --bound 12 --format json",
    "inv one --bound 12 --format csv",
    "inv {qjson} --format json",
    "inv nu_2 --bound 8",
    "div --num nu_6 --den nu_2 --bound 12",
    "div --num nu_6 --den nu_2 --bound 12 --format text",
    "div --num nu_6 --den nu_2 --bound 12 --format json",
    "div --num nu_6 --den nu_2 --bound 12 --format csv",
    "div --num sigma --den id --bound 30 --domain Z --format json",
    "div --num nu_6 --den nu_4 --bound 12",
    "div --num nu_6 --den nu_4 --bound 12 --format text",
    "div --num nu_6 --den nu_4 --bound 12 --format json",
    "rank nu_6 --bound 10",
    "rank nu_6 --bound 10 --format text",
    "rank nu_6 --bound 10 --format json",
    "rank nu_20 --bound 10 --format json",
    "rank {qjson} --format json",
    "rank {zero}",
    "rank {zero} --format json",
    "rank mobius",
    "unit mobius",
    "unit prime_char",
    "unit sigma --domain Z --bound 5",
    "associates nu_2 nu_2 --bound 8",
    "associates nu_2 nu_3 --bound 8",
    "certify prime_char --bound 50",
    "certify prime_char --bound 50 --format text",
    "certify prime_char --bound 50 --format json",
    "certify nu_4 --bound 16 --format json",
    "verify-fact nu_4 --factor nu_2 --factor nu_2 --bound 16",
    "verify-fact nu_4 --factor nu_2 --factor nu_2 --bound 16 --format text",
    "verify-fact nu_4 --factor nu_2 --factor nu_2 --bound 16 --format json",
    "verify-fact nu_6 --factor nu_2 --factor nu_5 --bound 12",
    "verify-fact nu_6 --factor nu_2 --factor nu_5 --bound 12 --format json",
    "identity-suite --bound 60",
    "identity-suite --bound 60 --format text",
    "identity-suite --bound 60 --format json",
    "identity-suite --bound 60 --domain Z",
    "lattice-report 30",
    "lattice-report 30 --format text",
    "lattice-report 30 --format json",
    "lattice-report 12 --format text",
    "lattice-chains 30",
    "lattice-chains 30 --format text",
    "lattice-chains 30 --format json",
    "lattice-chains 360",
    "lattice-dot 12",
    "lattice-dot 12 --color-chains",
    "lattice-dot 30",
    "euclid 360",
    "euclid 360 --format text",
    "euclid 360 --format json",
    "euclid 1",
    "prime-check 7 --max-ab 60",
    "prime-check 6 --max-ab 12",
    "prime-check 13",
    "fn-build mobius --bound 12 --out {out}",
    "div --num nu_6 --den nu_4 --bound 12 --format json --out {out}",
    "identity-suite --bound 60 --out {out}",
    "unit prime_char --out {out}",
    "lattice-dot 12 --out {out}",
    "euclid 360 --format json --out {out}",
]


def output(invocation: str, tmp: Path) -> tuple[int, str]:
    """Exit code and stdout of one invocation, or the text of its --out file."""
    paths = {"out": tmp / "out.txt"}
    for key, (name, text) in FILES.items():
        paths[key] = tmp / name
        paths[key].write_text(text)
    paths["out"].unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([arg.format(**paths) for arg in invocation.split()])
    if "{out}" not in invocation:
        return code, stdout.getvalue()
    assert stdout.getvalue() == ""
    return code, paths["out"].read_text()


def record() -> dict:
    """``{invocation: (exit code, digest of its output)}`` for the CLI on the path."""
    with tempfile.TemporaryDirectory() as tmp:
        return {inv: _digest(*output(inv, Path(tmp))) for inv in INVOCATIONS}


def _digest(code: int, text: str) -> tuple[int, str]:
    return code, hashlib.sha256(text.encode()).hexdigest()[:16]


FROZEN = {
    'fn-build mobius --bound 12': (0, '175d7a80cabd3617'),
    'fn-build mobius --bound 12 --format text': (0, '7e803922605822be'),
    'fn-build mobius --bound 12 --format json': (0, '175d7a80cabd3617'),
    'fn-build mobius --bound 12 --format csv': (0, '0b85d98aba232979'),
    'fn-build sigma_2 --bound 10 --domain Z --format csv': (0, '9c06aa2dac2186d7'),
    'fn-build nu_3 --bound 9 --domain Q --format text': (0, '19375f9785c83b0d'),
    'fn-build no_such_fn': (2, 'e3b0c44298fc1c14'),
    'fn-eval {qjson}': (0, '8f93d2299fd32aa2'),
    'fn-eval {qjson} --format text': (0, '8f93d2299fd32aa2'),
    'fn-eval {qjson} --format json': (0, '60840b4557fff21c'),
    'fn-eval {qjson} --format csv': (0, '72f6ab7fdef31c1a'),
    'fn-eval --in {zcsv} --domain Z': (0, 'e7c2d4cd9e881c1b'),
    'fn-eval {zcsv} --format json': (0, '68f3f404d9ffb736'),
    'fn-eval {qjson} --in {zcsv}': (2, 'e3b0c44298fc1c14'),
    'add --lhs nu_2 --rhs nu_3 --bound 8': (0, '877e015d67c6e8ee'),
    'add --lhs nu_2 --rhs nu_3 --bound 8 --format text': (0, '877e015d67c6e8ee'),
    'add --lhs nu_2 --rhs nu_3 --bound 8 --format json': (0, 'a369a13951b6af31'),
    'add --lhs nu_2 --rhs nu_3 --bound 8 --format csv': (0, 'e039f1b13ebb8da2'),
    'add --lhs {qjson} --rhs one --bound 6': (0, 'cdacbe461e0e74c5'),
    'conv --lhs mobius --rhs one --bound 12': (0, 'f23e2abf0f7bf929'),
    'conv --lhs mobius --rhs one --bound 12 --format text': (0, 'f23e2abf0f7bf929'),
    'conv --lhs mobius --rhs one --bound 12 --format json': (0, 'c1c2d242646a4891'),
    'conv --lhs mobius --rhs one --bound 12 --format csv': (0, '0c4b9eabcd0d23e5'),
    'conv --lhs tau --rhs euler_phi --bound 20 --domain Z --format csv': (0, '8bb12566db869bc2'),
    'inv one --bound 12': (0, '7e803922605822be'),
    'inv one --bound 12 --format text': (0, '7e803922605822be'),
    'inv one --bound 12 --format json': (0, '175d7a80cabd3617'),
    'inv one --bound 12 --format csv': (0, '0b85d98aba232979'),
    'inv {qjson} --format json': (0, '108c43d535b59cf9'),
    'inv nu_2 --bound 8': (1, 'e3b0c44298fc1c14'),
    'div --num nu_6 --den nu_2 --bound 12': (0, 'c747fcaa61a7acbc'),
    'div --num nu_6 --den nu_2 --bound 12 --format text': (0, 'c747fcaa61a7acbc'),
    'div --num nu_6 --den nu_2 --bound 12 --format json': (0, '7e1ea369235879a4'),
    'div --num nu_6 --den nu_2 --bound 12 --format csv': (0, 'ec878ea2c78fcac0'),
    'div --num sigma --den id --bound 30 --domain Z --format json': (0, '0d10c8bbea708af4'),
    'div --num nu_6 --den nu_4 --bound 12': (1, 'ee73e839d6f62de5'),
    'div --num nu_6 --den nu_4 --bound 12 --format text': (1, 'ee73e839d6f62de5'),
    'div --num nu_6 --den nu_4 --bound 12 --format json': (1, 'd6eea9a1d2e41d5f'),
    'rank nu_6 --bound 10': (0, 'fccc2365bb5305ea'),
    'rank nu_6 --bound 10 --format text': (0, 'fccc2365bb5305ea'),
    'rank nu_6 --bound 10 --format json': (0, '27bf296ca487a836'),
    'rank nu_20 --bound 10 --format json': (2, 'e3b0c44298fc1c14'),
    'rank {qjson} --format json': (0, 'ce3fd6d9dd3b7b35'),
    'rank {zero}': (0, '4434e0b11622ec6b'),
    'rank {zero} --format json': (0, '283a1acfd2acb22f'),
    'rank mobius': (0, '9c4bdc0a75cc96da'),
    'unit mobius': (0, 'a17fcf0a2f50e2d4'),
    'unit prime_char': (1, '2ed27c1421e6928d'),
    'unit sigma --domain Z --bound 5': (0, 'a17fcf0a2f50e2d4'),
    'associates nu_2 nu_2 --bound 8': (0, 'a17fcf0a2f50e2d4'),
    'associates nu_2 nu_3 --bound 8': (1, '2ed27c1421e6928d'),
    'certify prime_char --bound 50': (0, '6bd17723f0b9cb2a'),
    'certify prime_char --bound 50 --format text': (0, '6bd17723f0b9cb2a'),
    'certify prime_char --bound 50 --format json': (0, 'cbfca1158faa492e'),
    'certify nu_4 --bound 16 --format json': (0, '7e12ae9af231f880'),
    'verify-fact nu_4 --factor nu_2 --factor nu_2 --bound 16': (0, 'df478f878f994f06'),
    'verify-fact nu_4 --factor nu_2 --factor nu_2 --bound 16 --format text': (0, 'df478f878f994f06'),
    'verify-fact nu_4 --factor nu_2 --factor nu_2 --bound 16 --format json': (0, '999778b973760e91'),
    'verify-fact nu_6 --factor nu_2 --factor nu_5 --bound 12': (1, '487ce8f59f29a970'),
    'verify-fact nu_6 --factor nu_2 --factor nu_5 --bound 12 --format json': (1, 'e1179ddc517792e0'),
    'identity-suite --bound 60': (0, 'b28b1551fa999532'),
    'identity-suite --bound 60 --format text': (0, 'b28b1551fa999532'),
    'identity-suite --bound 60 --format json': (0, '66e0fadce990f4af'),
    'identity-suite --bound 60 --domain Z': (0, 'b28b1551fa999532'),
    'lattice-report 30': (0, '89207b81db5e27ca'),
    'lattice-report 30 --format text': (0, 'b338dae0a300b61e'),
    'lattice-report 30 --format json': (0, '89207b81db5e27ca'),
    'lattice-report 12 --format text': (0, 'a71415b9e367ddbe'),
    'lattice-chains 30': (0, '4f3209e830b12331'),
    'lattice-chains 30 --format text': (0, '4f3209e830b12331'),
    'lattice-chains 30 --format json': (0, '6bc4cb717cd70f4d'),
    'lattice-chains 360': (0, '77187f9695549b15'),
    'lattice-dot 12': (0, 'c63889aa35db0579'),
    'lattice-dot 12 --color-chains': (0, 'bfbb27bc9cabeb17'),
    'lattice-dot 30': (0, '65fe303c149e84b0'),
    'euclid 360': (0, '82592f31aae140cc'),
    'euclid 360 --format text': (0, '82592f31aae140cc'),
    'euclid 360 --format json': (0, '8b113523446d0438'),
    'euclid 1': (2, 'e3b0c44298fc1c14'),
    'prime-check 7 --max-ab 60': (0, 'a17fcf0a2f50e2d4'),
    'prime-check 6 --max-ab 12': (1, '2ed27c1421e6928d'),
    'prime-check 13': (0, 'a17fcf0a2f50e2d4'),
    'fn-build mobius --bound 12 --out {out}': (0, '175d7a80cabd3617'),
    'div --num nu_6 --den nu_4 --bound 12 --format json --out {out}': (1, 'd6eea9a1d2e41d5f'),
    'identity-suite --bound 60 --out {out}': (0, 'b28b1551fa999532'),
    'unit prime_char --out {out}': (1, '2ed27c1421e6928d'),
    'lattice-dot 12 --out {out}': (0, 'c63889aa35db0579'),
    'euclid 360 --format json --out {out}': (0, '8b113523446d0438'),
}


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_output_is_frozen(invocation, tmp_path):
    assert _digest(*output(invocation, tmp_path)) == FROZEN[invocation]


def test_frozen_outputs_read_as_expected(tmp_path):
    assert output("euclid 360", tmp_path) == (0, "2 2 2 3 3 5\n")
    assert output("rank {zero}", tmp_path) == (0, "not visible at bound\n")
    assert output("prime-check 6 --max-ab 12", tmp_path) == (1, "false\n")
    assert output("add --lhs nu_2 --rhs nu_3 --bound 4 --format csv", tmp_path) == (
        0, "1,0\n2,1\n3,1\n4,0\n")


# the fifteen (command, option) pairs that the shared option set accepted and ignored
IGNORED = [
    ("fn-eval {qjson}", "--bound 5"),
    ("unit mobius", "--format json"),
    ("associates nu_2 nu_2", "--format text"),
    *[(f"{cmd} 12", opt) for cmd in ("lattice-report", "lattice-chains", "euclid")
      for opt in ("--bound 5", "--domain Z")],
    *[(f"{cmd} 12", opt) for cmd in ("lattice-dot", "prime-check")
      for opt in ("--bound 5", "--domain Z", "--format json")],
]


@pytest.mark.parametrize("invocation, option", IGNORED)
def test_an_option_the_command_does_not_read_is_refused(invocation, option, tmp_path, capsys):
    assert output(f"{invocation} {option}", tmp_path) == (2, "")
    assert f"error: unrecognized arguments: {option}\n" in capsys.readouterr().err


@pytest.mark.parametrize("invocation, fmt", [
    *[(inv, "dot") for inv in ("fn-build one", "fn-eval {qjson}", "conv --lhs one --rhs one",
                               "div --num one --den one")],
    *[(inv, fmt) for inv in ("rank one", "certify one", "identity-suite", "lattice-report 12",
                             "euclid 12") for fmt in ("dot", "csv")],
])
def test_a_format_the_command_does_not_render_is_refused(invocation, fmt, tmp_path, capsys):
    assert output(f"{invocation} --format {fmt}", tmp_path) == (2, "")
    assert f"argument --format: invalid choice: '{fmt}'" in capsys.readouterr().err


def test_div_csv_with_a_witness_prints_the_text_line(tmp_path):
    text = output("div --num nu_6 --den nu_4 --bound 12 --format text", tmp_path)
    assert text == (1, "not divisible at bound; first failing index 6\n")
    assert output("div --num nu_6 --den nu_4 --bound 12 --format csv", tmp_path) == text


def test_two_calls_build_one_parser(tmp_path):
    cli.build_parser.cache_clear()
    output("euclid 360", tmp_path)
    output("rank mobius --bound 8", tmp_path)
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("contents, message", [
    *[(f'{{"domain": "Q", "bound": {b}, "values": ["1", "2"]}}',
       f"bound must be a JSON integer, got {shown}")
      for b, shown in (('"2"', "'2'"), ("true", "True"), ("2.0", "2.0"))],
    ("1,1\n0,1\n2,2\n", "line 2: index 0 is below 1"),
    ('{"domain": "Z", "values": [3, true, false]}', "value 2 is a JSON boolean, not a coefficient"),
])
def test_function_file_checks_reach_the_cli(contents, message, tmp_path, capsys):
    path = tmp_path / ("f.json" if contents.startswith("{") else "f.csv")
    path.write_text(contents)
    assert main(["fn-eval", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# fuzz: argv drawn from the subcommands, their options and junk tokens
# ---------------------------------------------------------------------------

RING, FORMAT = ["--bound", "--domain"], ["--format"]
# subcommand -> (operands, with "fn", "file" or "int" for a drawn value; the options it reads)
COMMANDS = {
    "fn-build": (["fn"], RING + FORMAT),
    "fn-eval": (["file"], ["--domain", "--format", "--in"]),
    "add": (["--lhs", "fn", "--rhs", "fn"], RING + FORMAT),
    "conv": (["--lhs", "fn", "--rhs", "fn"], RING + FORMAT),
    "inv": (["fn"], RING + FORMAT),
    "div": (["--num", "fn", "--den", "fn"], RING + FORMAT),
    "rank": (["fn"], RING + FORMAT),
    "unit": (["fn"], RING),
    "associates": (["fn", "fn"], RING),
    "certify": (["fn"], RING + FORMAT),
    "verify-fact": (["fn", "--factor", "fn"], RING + FORMAT + ["--unit", "--factor"]),
    "identity-suite": ([], RING + FORMAT),
    "lattice-report": (["int"], FORMAT),
    "lattice-chains": (["int"], FORMAT),
    "lattice-dot": (["int"], ["--color-chains"]),
    "euclid": (["int"], FORMAT),
    "prime-check": (["int"], ["--max-ab"]),
}
JUNK_FILES = {
    "bad.json": "{not json",
    "list.json": '["1", "2"]',
    "bound_str.json": '{"domain": "Q", "bound": "2", "values": ["1", "2"]}',
    "bound_bool.json": '{"domain": "Z", "bound": true, "values": ["1"]}',
    "value_bool.json": '{"domain": "Z", "values": [true, false, 3]}',
    "float.json": '{"domain": "Q", "values": [1.5, "x"]}',
    "z_half.json": '{"domain": "Z", "values": ["1/2"]}',
    "zero_index.csv": "0,1\n1,2\n",
    "bad_row.csv": "1,1\nwhoops\n",
    "gap.csv": "1,1\n3,3\n",
    "empty.csv": "",
    "plain.txt": "1,1\n",
    "good.json": '{"domain": "Q", "bound": 12, "values": ["1", "-1/2", "0", "3", "0", "0",'
                 ' "0", "0", "0", "0", "0", "2"]}',
    "good.csv": "1,2\n2,0\n3,-1\n4,1\n",
}
FILE_TOKENS = {*JUNK_FILES, "missing.json", "missing.csv", "."}
# integers stay at 200 or below: a huge --bound allocates
INTS = ["1", "2", "7", "12", "30", "60", "200"]
FNS = ["mobius", "one", "epsilon", "id", "sigma_2", "prime_char", "nu_1", "nu_2", "nu_3",
       "good.json", "good.csv"]
# operand kind or option -> the values it is meant to take
GOOD = {
    "fn": FNS, "file": ["good.json", "good.csv"], "int": INTS,
    "--bound": INTS, "--max-ab": INTS, "--domain": ["Q", "Z"], "--format": ["text", "json", "csv"],
    "--in": ["good.json", "good.csv"],
    **dict.fromkeys(["--lhs", "--rhs", "--num", "--den", "--unit", "--factor"], FNS),
}
JUNK = ["nu_0", "nu_-1", "nu_x", "0", "-3", "2.5", "abc", "", "R", "dot", "-h", "--frobnicate",
        *sorted(FILE_TOKENS - {"good.json", "good.csv"})]
ALL_OPTIONS = sorted({o for _, opts in COMMANDS.values() for o in opts} | {"--lhs", "--num"})


@pytest.fixture(scope="module")
def junk_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("junk")
    for name, text in JUNK_FILES.items():
        (root / name).write_text(text)
    return root


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_0_1_or_2(junk_dir, data):
    """One drawn token in ten is junk, and one option in ten is one the command does not read."""
    def token(kind: str) -> str:
        pool = GOOD[kind] if data.draw(st.integers(0, 9)) else JUNK + FNS + INTS
        value = data.draw(st.sampled_from(pool))
        return str(junk_dir / value) if value in FILE_TOKENS else value

    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    operands, options = COMMANDS[command]
    argv = [command] + [t if t.startswith("--") else token(t) for t in operands]
    for _ in range(data.draw(st.integers(0, 3))):
        option = data.draw(st.sampled_from(options if options and data.draw(st.integers(0, 9))
                                           else ALL_OPTIONS))
        argv += [option] if option == "--color-chains" else [option, token(option)]
    if not data.draw(st.integers(0, 3)):  # --out only ever into the scratch directory
        out = data.draw(st.sampled_from(["out.txt", "out.txt", "out.txt", "no/out.txt", "."]))
        argv += ["--out", str(junk_dir / out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
