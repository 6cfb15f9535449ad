"""Golden CLI corpus: every subcommand's output pinned against a stored run.

Each case of cli_corpus.json is run in-process through `main`.  Exit codes,
ints, strings and bools must match exactly; floats must agree to 1e-12 of
max(1, |expected|), because numpy's SIMD power and sum may differ in the
last ulp between machines.  CSV cells and plain `key = value` values are
compared the same way after reading each one as JSON where it parses.

To regenerate the expected outputs after an intended change, run
`PYTHONPATH=src python tests/test_cli_corpus.py --write`; it keeps the
argvs and rewrites code, stdout and stderr.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

from quadrep.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")
FLOAT_TOL = 1e-12


def run_argv(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cell(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_stdout(argv: list[str], text: str):
    """The output as JSON values, whatever --output format produced it."""
    if not text:
        return text
    fmt = argv[argv.index("--output") + 1] if "--output" in argv else "json"
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return [[k, _cell(v)] for k, _, v in (line.partition(" = ") for line in text.splitlines())]


def assert_matches(got, want, where: str = "$") -> None:
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (where, got, want)
        return
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), (where, list(got), list(want))
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


def _load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


CASES = _load()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_corpus(case):
    got = run_argv(case["argv"])
    assert got["code"] == case["code"]
    assert got["stderr"] == case["stderr"]
    assert_matches(
        parse_stdout(case["argv"], got["stdout"]),
        parse_stdout(case["argv"], case["stdout"]),
    )


def test_corpus_covers_every_subcommand():
    seen = {c["argv"][0] for c in CASES}
    assert seen == {"repnum", "gauss", "sigma", "series", "genus", "ideal", "verify"}
    flags = {flag for c in CASES for flag in c["argv"]}
    assert {"--verify", "--oracle", "csv", "plain"} <= flags
    # exit 3 needs a defect in the code under test: test_cli.py patches one in
    assert {c["code"] for c in CASES} == {0, 1, 2}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_corpus.py --write")
    cases = [run_argv(c["argv"]) for c in _load()]
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
