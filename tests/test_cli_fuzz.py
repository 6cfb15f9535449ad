"""Derandomized argv fuzzing of `quadrep.cli.main`.

Every argv, however malformed, must end in a documented exit code (0
success, 1 computation error, 2 usage error, 3 verification failure) and
print either strict JSON on stdout (NaN and Infinity rejected) or nothing
on stdout and exactly one line on stderr.  A traceback fails the test.
The two exceptions are asked for by name: `--output csv|plain` prints
its own format, and `-h`/`--help` prints the usage text.

Integers come from extremes (0, +-1, past int64, 10^40) and from the
small values a valid run needs; valid requests in between, such as
`series --B 10**9`, are left out because they would allocate gigabytes.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadrep.cli import main

SUBCOMMANDS = ("repnum", "gauss", "sigma", "series", "genus", "ideal", "verify")
REQUIRED = {
    "repnum": ("--disc", "--m", "--b"),
    "gauss": ("--disc", "--a", "--b"),
    "sigma": ("--disc", "--m", "--s"),
    "series": ("--disc", "--m", "--s"),
    "genus": ("--disc",),
    "ideal": ("--disc", "--op"),
    "verify": (),
}
OPTIONAL = {
    "repnum": ("--ideal", "--method"),
    "gauss": ("--ideal", "--classical"),
    "sigma": ("--ideal", "--form"),
    "series": ("--ideal", "--B", "--verify", "--oracle"),
    "genus": ("--ideal",),
    "ideal": ("--ideal", "--other", "--p"),
    "verify": ("--suite",),
}
COMMON = ("--output", "--meta", "--config", "-h")
SWITCHES = ("--classical", "--verify", "--oracle", "--meta", "-h")

INTS = (
    "0", "1", "-1", "2", "3", "4", "5", "7", "12", "13", "21", "27", "105", "1365",
    "9973", "10001", "-21", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "1000000000000000", "10" + "0" * 40, "-" + "9" * 40,
)
FLOATS = ("2.5", "3", "4", "-2.5", "0", "1e308", "-1e308", "1e-320", "400", "nan", "inf", "-inf")
IDEALS = (
    "ok", "prim:5,1", "prim:9", "prim:3,3", "frac:2/3:5,1", "frac:1/0:1,1", "frac:-1/2:1,1",
    "prime:3,1", "prime:5,2", "prime:2,1", "prime:4,1", "prime:0,0", "prime:7,9", "prim:0,1",
)
JUNK = ("", " ", "-", "--", "x", "1e3", "0x10", "1_000", "--b=5", "é", "a\nb", "None")
DISCS = ("5", "13", "17", "21", "33", "105", "1365") + INTS
POOLS = {
    "--disc": DISCS, "--m": INTS, "--b": INTS, "--a": INTS, "--B": INTS, "--p": INTS,
    "--s": FLOATS,
    "--ideal": IDEALS, "--other": IDEALS,
    "--method": ("brute", "formula", "gauss-dft", "all"),
    "--form": ("def", "decomp", "euler", "all"),
    "--op": ("norm", "mul", "inverse", "primes-above"),
    "--suite": ("oracle", "gauss", "sigma", "theorem", "all"),
    "--output": ("json", "csv", "plain"),
    "--config": ("missing.conf", "."),
}
ANY_TOKEN = st.one_of(
    st.sampled_from(INTS + FLOATS + IDEALS + JUNK + SUBCOMMANDS + tuple(POOLS) + SWITCHES),
    st.text(max_size=6),
)


def _one_in(n: int, rare, common):
    """`rare` with probability 1/n, else `common`."""
    return st.integers(1, n).flatmap(lambda k: rare if k == 1 else common)


def _value(flag: str):
    return _one_in(8, ANY_TOKEN, st.sampled_from(POOLS[flag]))


def _with_value(flag: str):
    return st.just((flag,)) if flag in SWITCHES else _value(flag).map(lambda v: (flag, v))


def _extra(command: str):
    """Mostly an option of `command`, sometimes another one's or a stray token."""
    own = OPTIONAL.get(command, ()) + COMMON
    flag = _one_in(6, st.sampled_from(tuple(POOLS) + SWITCHES), st.sampled_from(own))
    return _one_in(6, ANY_TOKEN.map(lambda t: (t,)), flag.flatmap(_with_value))


@st.composite
def argvs(draw):
    """A subcommand (rarely junk), mostly-present required flags, a few extras."""
    command = draw(_one_in(8, ANY_TOKEN, st.sampled_from(SUBCOMMANDS)))
    argv = [command]
    for flag in REQUIRED.get(command, ()):
        if draw(st.integers(0, 7)):
            argv += list(draw(_with_value(flag)))
    for extra in draw(st.lists(_extra(command), max_size=3)):
        argv += list(extra)
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=refuse)


def _wants_help(argv: list[str]) -> bool:
    # argparse also reads an unambiguous prefix such as --he as --help
    return any(t == "-h" or (len(t) > 2 and "--help".startswith(t)) for t in argv)


def _wants_table(argv: list[str]) -> bool:
    return any(a == "--output" and b in ("csv", "plain") for a, b in zip(argv, argv[1:]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=argvs())
# each of these once printed a multi-line usage block or a traceback
@example(argv=["0"])
@example(argv=["genus", "--disc", "5", "a\nb"])
@example(argv=["repnum", "--disc", "x", "--m", "1", "--b", "2"])
@example(argv=["series", "--disc", "5", "--m", "1", "--s", "3", "--B", "1000000000000000"])
@example(argv=["repnum", "--disc", "5", "--m", "1" + "0" * 30, "--b", "9", "--method", "all"])
def test_cli_argv_fuzz(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err, (argv, err)
    if not out:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (
            argv, err)
        assert code in (1, 2), (argv, code)
        return
    assert err == "", (argv, err)
    if _wants_help(argv) and out.startswith("usage: "):
        assert code == 0
        return
    if _wants_table(argv):
        cells = out.replace(",", " ").replace("=", " ").split()
        assert not {"nan", "inf", "-inf"} & set(cells), (argv, out)
        return
    _strict_json(out)
    assert code in (0, 3), (argv, code)
