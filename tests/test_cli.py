import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quadrep.cli import IDEAL_GRAMMAR, emit, jsonable, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repnum_all_pinned(capsys):
    code, out, _ = run(
        capsys,
        ["repnum", "--disc", "5", "--ideal", "ok", "--m", "1", "--b", "4",
         "--method", "all"],
    )
    assert code == 0
    assert out == '{"N": 6, "agree": true}\n'


@pytest.mark.parametrize("m", [10**30, -(2**63) - 1])
def test_repnum_all_past_int64(capsys, m):
    argv = ["repnum", "--disc", "5", "--m", str(m), "--b", "9"]
    code, out, err = run(capsys, argv + ["--method", "all"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["agree"] is True
    _, formula, _ = run(capsys, argv + ["--method", "formula"])
    assert json.loads(formula) == {"N": payload["N"]}


def test_sigma_all_pinned(capsys):
    code, out, _ = run(
        capsys,
        ["sigma", "--disc", "21", "--ideal", "ok", "--m", "1", "--s", "0",
         "--form", "all"],
    )
    assert code == 0
    assert out == '{"def": 4.0, "decomp": 4.0, "euler": 4.0}\n'


def test_repnum_single_methods(capsys):
    for method in ("formula", "brute", "gauss-dft"):
        code, out, _ = run(
            capsys,
            ["repnum", "--disc", "21", "--m", "1", "--b", "3", "--method", method],
        )
        assert code == 0
        assert json.loads(out) == {"N": 6}


def test_series_verify_passes(capsys):
    code, out, _ = run(
        capsys,
        ["series", "--disc", "5", "--m", "1", "--s", "4", "--B", "2000",
         "--verify", "--oracle"],
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["lhs", "rhs", "budget", "mismatch", "pass"]
    assert payload["pass"] is True and payload["mismatch"] is None
    assert payload["lhs"]["truncation"] == 2000
    assert abs(payload["lhs"]["value"] - payload["rhs"]) <= payload["budget"]


def test_series_verify_at_short_b_passes(capsys):
    # the sides are 0.28 apart at B = 10, inside the certified budget of 2.71
    argv = ["series", "--disc", "5", "--m", "1", "--s", "3", "--B", "10", "--verify"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and 2.70 < payload["budget"] < 2.72


def test_series_verify_failure_exits_3(capsys, monkeypatch):
    # a count off by one at 11^2: exit 3, the mismatch named with both sides
    import quadrep.dirichlet as dirichlet
    from quadrep.repnum import unramified_count

    def bumped(chi, p, beta, nu):
        return unramified_count(chi, p, beta, nu) + (beta == 2 and p == 11)

    monkeypatch.setattr(dirichlet, "unramified_count", bumped)
    argv = ["series", "--disc", "5", "--m", "1", "--s", "4", "--B", "2000", "--verify"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["mismatch"]["n"] == 121 and payload["mismatch"]["rhs"] == 242


def test_series_verify_uncertified_exits_1(capsys):
    # m = 0: D B^(1-s) >= (s-2)/(s-1) leaves L(s-1, chi_D) without a bound
    argv = ["series", "--disc", "5", "--m", "0", "--s", "2.1", "--B", "10", "--verify"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "not certified" in err and err.count("\n") == 1


def test_oracle_is_one_check_after_the_series(capsys, monkeypatch):
    # --oracle calls check_coefficients once, after the series call of
    # either path; --verify --oracle sums no separate lhs
    import quadrep.cli as cli

    monkeypatch.delenv("QUADREP_MAX_B", raising=False)
    calls = []

    def recorder(name, fn):
        def wrapped(*args):
            calls.append((name, args[1:]))
            return fn(*args)
        return wrapped

    for name in ("series_lhs", "verify_theorem", "check_coefficients"):
        monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
    argv = ["series", "--disc", "5", "--m", "1", "--s", "4", "--B", "200", "--oracle"]
    assert run(capsys, argv)[0] == 0
    assert calls == [("series_lhs", (1, 4.0, 200)), ("check_coefficients", (1, 200, 10_000))]
    calls.clear()
    assert run(capsys, argv + ["--verify"])[0] == 0
    assert calls == [
        ("verify_theorem", (1, 4.0, 200)),
        ("check_coefficients", (1, 200, 10_000)),
    ]


def test_oracle_past_the_bound_exits_2_before_the_series(capsys, monkeypatch):
    # check_coefficients needs brute force at min(B, 60)*D: 60*173 > 10,000
    import quadrep.cli as cli

    monkeypatch.delenv("QUADREP_MAX_B", raising=False)
    calls = []
    for name in ("series_lhs", "verify_theorem"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    argv = ["series", "--disc", "173", "--m", "1", "--s", "3", "--B", "100", "--oracle"]
    for extra in ([], ["--verify"]):
        code, out, err = run(capsys, argv + extra)
        assert code == 2 and out == ""
        assert err == (
            "error: --oracle needs brute force at modulus 60*173 = 10380, past the "
            "enumeration bound 10000 (QUADREP_MAX_B overrides)\n"
        )
    assert calls == []


def test_oracle_within_the_bound(capsys, monkeypatch):
    monkeypatch.delenv("QUADREP_MAX_B", raising=False)
    argv = ["series", "--m", "1", "--s", "3", "--B", "100", "--oracle", "--disc"]
    assert run(capsys, argv + ["165"])[0] == 0
    monkeypatch.setenv("QUADREP_MAX_B", "20000")
    code, out, err = run(capsys, argv + ["173"])
    assert code == 0, err
    assert set(json.loads(out)) == {"lhs", "rhs", "residue_at_2"}


@pytest.mark.parametrize("b", [20000, 3**9])
def test_gauss_dft_needs_no_enumeration_bound(capsys, monkeypatch, b):
    monkeypatch.delenv("QUADREP_MAX_B", raising=False)
    argv = ["repnum", "--disc", "21", "--m", "7", "--b", str(b), "--method"]
    code, out, err = run(capsys, argv + ["gauss-dft"])
    assert code == 0, err
    _, formula, _ = run(capsys, argv + ["formula"])
    assert out == formula
    code, out, err = run(capsys, argv + ["brute"])
    assert code == 1 and out == ""
    assert err == (
        f"error: modulus {b} exceeds enumeration bound 10000 (QUADREP_MAX_B overrides)\n"
    )


def test_series_payload_keys(capsys):
    code, out, _ = run(
        capsys,
        ["series", "--disc", "5", "--m", "1", "--s", "4", "--B", "500"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"lhs", "rhs", "residue_at_2"}
    assert set(payload["lhs"]) == {"value", "truncation", "tail_bound"}
    assert abs(payload["lhs"]["value"] - payload["rhs"]) < 1e-2


def test_bad_ideal_exits_2(capsys):
    code, _, err = run(
        capsys, ["repnum", "--disc", "5", "--ideal", "prim:9", "--m", "1", "--b", "2"]
    )
    assert code == 2
    assert IDEAL_GRAMMAR in err


def test_bad_disc_exits_2(capsys):
    code, _, err = run(capsys, ["genus", "--disc", "8"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ideal", "--disc", "5", "--op", "norm", "--ideal", "frac:1/0:1,1"],
        ["ideal", "--disc", "5", "--op", "primes-above", "--p", "4"],
        ["series", "--disc", "5", "--m", "1", "--s", "nan"],
        ["series", "--disc", "5", "--m", "1", "--s", "4", "--B", "0"],
        ["sigma", "--disc", "5", "--m", "1", "--s", "inf"],
    ],
)
def test_bad_input_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_float_overflow_exits_1(capsys):
    # sigma(6, 1000) is about 6^500.5, past the largest double
    code, out, err = run(
        capsys, ["sigma", "--disc", "5", "--m", "6", "--s", "1000", "--form", "all"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sigma_large_s_matches_exact_value(capsys):
    # sigma(6, s) = 6^((1-s)/2) * 2 (1 - 2^s - 3^s + 6^s) at D = 5, and
    # sigma(6, -s) = sigma(6, s); at s = 400 it is about 1e156 although 6^400
    # is past the largest double
    for s in (400, -400):
        code, out, _ = run(
            capsys, ["sigma", "--disc", "5", "--m", "6", "--s", str(s), "--form", "all"]
        )
        assert code == 0
        n = abs(s)
        exact = float(Fraction(2 * (1 - 2**n - 3**n + 6**n), 6 ** (n // 2))) * 6**0.5
        for form, value in json.loads(out).items():
            assert abs(value - exact) <= 1e-12 * exact, (s, form, value)


def test_non_finite_result_exits_1(capsys, monkeypatch):
    import quadrep.cli as cli

    monkeypatch.setattr(cli, "series_rhs", lambda *args: float("nan"))
    code, out, err = run(capsys, ["series", "--disc", "5", "--m", "1", "--s", "4"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    with pytest.raises(ValueError):
        emit({"x": float("inf")}, "json", False, io.StringIO())


def test_series_b_cap(capsys, monkeypatch):
    # both edges of --B; the stubs record the B they are asked for, so
    # nothing of that size is allocated
    import quadrep.cli as cli
    from quadrep.dirichlet import SeriesEval

    seen = []

    def lhs(ideal, m, s, B):
        seen.append(B)
        return SeriesEval(1.0, B, 0.0)

    def rhs(fp, m, s, B):
        seen.append(B)
        return 1.0

    monkeypatch.setattr(cli, "series_lhs", lhs)
    monkeypatch.setattr(cli, "series_rhs", rhs)
    monkeypatch.setattr(cli, "residue_at_2", lambda fp, m: 0.0)
    argv = ["series", "--disc", "5", "--m", "1", "--s", "3"]
    for B in (cli.MAX_SERIES_B, cli.MAX_SERIES_B + 1):
        seen.clear()
        code, out, err = run(capsys, argv + ["--B", str(B)])
        if B == cli.MAX_SERIES_B:
            assert code == 0, err
            assert json.loads(out)["lhs"]["truncation"] == B
            assert seen == [B, B]
        else:
            assert (code, out, seen) == (2, "", [])
            assert err == f"error: --B must be at most {cli.MAX_SERIES_B}, got {B}\n"


def test_series_default_truncation(capsys):
    code, out, err = run(capsys, ["series", "--disc", "5", "--m", "1", "--s", "4"])
    assert code == 0, err
    assert json.loads(out)["lhs"]["truncation"] == 5000


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_enum_bound_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("QUADREP_MAX_B", "50")
    code, _, err = run(
        capsys,
        ["repnum", "--disc", "5", "--m", "1", "--b", "100", "--method", "brute"],
    )
    assert code == 1
    assert "QUADREP_MAX_B" in err


def test_genus_payload(capsys):
    code, out, _ = run(capsys, ["genus", "--disc", "21"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    first = payload["representatives"][0]
    assert first["ideal"] == "ok" and first["norm"] == 1
    assert first["fingerprint"] == {"3": 1, "7": 1}


def test_genus_answers_seven_ramified_primes(capsys):
    # 64 genera, more than the split primes below 2000 reach
    code, out, _ = run(capsys, ["genus", "--disc", "4849845"])
    assert code == 0
    assert json.loads(out)["count"] == 64


def test_genus_single_ideal(capsys):
    code, out, _ = run(capsys, ["genus", "--disc", "21", "--ideal", "prime:5,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "ideal": "prim:5,1",
        "norm": 5,
        "fingerprint": {"3": -1, "7": -1},
    }


def test_output_byte_stability(capsys):
    _, first, _ = run(capsys, ["genus", "--disc", "105"])
    _, second, _ = run(capsys, ["genus", "--disc", "105"])
    assert first == second


def test_plain_output(capsys):
    code, out, _ = run(
        capsys,
        ["sigma", "--disc", "21", "--m", "1", "--s", "0", "--form", "all",
         "--output", "plain"],
    )
    assert code == 0
    assert out.splitlines() == ["def = 4.0", "decomp = 4.0", "euler = 4.0"]


def test_csv_output(capsys):
    code, out, _ = run(
        capsys,
        ["sigma", "--disc", "21", "--m", "1", "--s", "0", "--form", "all",
         "--output", "csv"],
    )
    assert code == 0
    assert out == "def,decomp,euler\n4.0,4.0,4.0\n"


def test_meta_wrapper(capsys):
    code, out, _ = run(
        capsys, ["ideal", "--disc", "21", "--op", "norm", "--meta"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"data", "meta"}
    assert payload["meta"]["tool"] == "quadrep"
    assert payload["data"] == {"ideal": "ok", "norm": 1}


def test_ideal_operations(capsys):
    code, out, _ = run(
        capsys,
        ["ideal", "--disc", "21", "--op", "inverse", "--ideal", "prim:5,1"],
    )
    assert code == 0
    assert json.loads(out) == {"ideal": "frac:1/5:5,9", "norm": "1/5"}
    code, out, _ = run(
        capsys,
        ["ideal", "--disc", "21", "--op", "mul", "--ideal", "prim:5,1",
         "--other", "prime:5,2"],
    )
    assert code == 0
    assert json.loads(out)["norm"] == 25
    code, out, _ = run(
        capsys, ["ideal", "--disc", "21", "--op", "primes-above", "--p", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "ramified"
    assert payload["primes"] == [{"ideal": "prim:3,3", "e": 2}]


def test_ideal_mul_requires_other(capsys):
    code, _, err = run(capsys, ["ideal", "--disc", "21", "--op", "mul"])
    assert code == 2
    assert "--other" in err


def test_gauss_ideal_paths(capsys):
    code, out, _ = run(capsys, ["gauss", "--disc", "5", "--a", "1", "--b", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is not None
    assert payload["abs_diff"] < 1e-9
    code, out, _ = run(capsys, ["gauss", "--disc", "5", "--a", "1", "--b", "6"])
    assert json.loads(out)["closed"] is None


def test_gauss_classical(capsys):
    code, out, _ = run(capsys, ["gauss", "--classical", "--a", "1", "--b", "5"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["closed"]["re"] - 5**0.5) < 1e-12
    assert payload["abs_diff"] < 1e-9
    code, _, err = run(capsys, ["gauss", "--a", "1", "--b", "5"])
    assert code == 2
    assert "--disc" in err


def test_verify_suite_green(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "sigma"])
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["checks"] > 100


@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_enum_bound_from_the_environment(capsys, monkeypatch, value):
    # a bad QUADREP_MAX_B is a usage error naming the variable, also for a
    # command that enumerates nothing; a bound set for one in-process call
    # does not outlive it, and the CLI never writes the environment
    argv = ["repnum", "--disc", "5", "--m", "1", "--b", "100", "--method", "brute"]
    monkeypatch.setenv("QUADREP_MAX_B", value)
    for command in (argv, ["ideal", "--disc", "5", "--op", "norm"]):
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert err.startswith("error: QUADREP_MAX_B") and err.count("\n") == 1
    monkeypatch.setenv("QUADREP_MAX_B", "50")
    environ = dict(os.environ)
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "exceeds enumeration bound 50" in err
    assert dict(os.environ) == environ
    monkeypatch.delenv("QUADREP_MAX_B")
    environ = dict(os.environ)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"N": 300}
    assert dict(os.environ) == environ


def test_classical_gauss_respects_enum_bound(capsys, monkeypatch):
    monkeypatch.delenv("QUADREP_MAX_B", raising=False)
    argv = ["gauss", "--classical", "--a", "1", "--b", "10001"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "exceeds enumeration bound 10000" in err and err.count("\n") == 1
    monkeypatch.setenv("QUADREP_MAX_B", "20000")
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 10001
    assert payload["abs_diff"] < 1e-6


def test_jsonable_conversions():
    assert jsonable(2**53) == str(2**53)
    assert jsonable(-(2**53)) == str(-(2**53))
    assert jsonable(2**53 - 1) == 2**53 - 1
    assert jsonable(Fraction(1, 2)) == "1/2"
    assert jsonable(Fraction(6, 3)) == 2
    assert jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}
    assert jsonable(True) is True
    assert jsonable(None) is None
    assert jsonable({"x": [Fraction(1, 3), 2**60]}) == {"x": ["1/3", str(2**60)]}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quadrep.cli", "sigma", "--disc", "21", "--m", "1",
         "--s", "0", "--form", "all"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"def": 4.0, "decomp": 4.0, "euler": 4.0}\n'
