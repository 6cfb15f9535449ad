"""Command-line front end.

Subcommands dispatch to the library modules and emit deterministic JSON
(default), CSV, or plain key=value output.  Exit codes: 0 success, 1
computation error, 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .arith import factorize
from .divisor import sigma_decomp, sigma_def, sigma_euler
from .dirichlet import (
    CHECK_B,
    check_coefficients,
    residue_at_2,
    series_lhs,
    series_rhs,
    verify_theorem,
)
from .errors import ConsistencyError, EnumerationBoundError, QuadrepError
from .gauss import classical_gauss, eval_complex, gauss_closed, gauss_direct
from .ideals import (
    DEFAULT_MAX_ENUM_B,
    FracIdeal,
    format_ideal,
    genus_fingerprint,
    genus_representatives,
    parse_ideal,
    prime_above,
    unit_ideal,
)
from .quadfield import Discriminant
from .repnum import rep_count, rep_count_bruteforce, rep_from_gauss_dft

JSON_INT_LIMIT = 2**53

# The largest series truncation point --B accepts: a series run holds
# about 24 bytes per term, so 10^7 terms stay near 240 MB.
MAX_SERIES_B = 10**7

IDEAL_GRAMMAR = "ideal grammar: ok | prim:a,b | frac:num/den:a,b | prime:p,k"

# appended to every enumeration-bound error: the CLI's setting of the bound
_BOUND_HINT = " (QUADREP_MAX_B overrides)"


class UsageError(Exception):
    """Bad invocation; printed with the grammar and exit code 2."""


def _error_line(message: str) -> str:
    """The stderr line for an error, its line breaks escaped."""
    return "error: " + "\\n".join(message.splitlines()) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line usage error in place of the usage block."""

    def error(self, message: str):
        self.exit(2, _error_line(f"{self.prog}: {message}"))


def _enum_bound() -> int:
    """The enumeration bound `limit` that every handler passes on:
    QUADREP_MAX_B, else 10,000.  The one place that reads the environment."""
    env = os.environ.get("QUADREP_MAX_B")
    if not env:
        return DEFAULT_MAX_ENUM_B
    try:
        limit = int(env)
        if limit > 0:
            return limit
    except ValueError:
        pass
    raise UsageError(f"QUADREP_MAX_B must be a positive integer, got {env!r}")


def jsonable(x):
    """Map values onto JSON types: big integers and rationals as strings,

    complex numbers as {re, im} pairs.  Integers stay native below 2^53 so
    every emitted number round-trips losslessly.
    """
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return x if abs(x) < JSON_INT_LIMIT else str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return jsonable(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if x is None:
        return None
    return str(x)


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}{k}." if prefix else f"{k}.", out)
        return
    key = prefix[:-1]
    if isinstance(value, list):
        out[key] = json.dumps(value)
    else:
        out[key] = value


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def emit(payload, output: str, meta: bool, stream=None) -> None:
    stream = stream or sys.stdout
    data = jsonable(payload)
    if meta:
        stamp = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "tool": "quadrep",
        }
    if output == "json":
        obj = {"data": data, "meta": stamp} if meta else data
        print(json.dumps(obj, allow_nan=False), file=stream)
        return
    flat: dict = {}
    _flatten(data, "", flat)
    if meta:
        flat["meta.generated_at"] = stamp["generated_at"]
        flat["meta.tool"] = stamp["tool"]
    if output == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow([_cell(v) for v in flat.values()])
        stream.write(buf.getvalue())
        return
    for k, v in flat.items():
        print(f"{k} = {_cell(v)}", file=stream)


def _disc(value: int) -> Discriminant:
    try:
        return Discriminant(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad discriminant: {exc}") from exc


def _ideal(disc: Discriminant, text: str) -> FracIdeal:
    try:
        return parse_ideal(disc, text)
    except ValueError as exc:
        raise UsageError(f"{exc}; {IDEAL_GRAMMAR}") from exc


def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be a positive integer, got {value}")
    return value


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value}")
    return value


def _fingerprint_payload(fp) -> dict:
    return {str(p): fp.sign(p) for p in fp.disc.primes}


def _dft_count(ideal: FracIdeal, m: int, b: int) -> int:
    total = 1
    for p, e in factorize(b):
        total *= rep_from_gauss_dft(ideal, m, p, e)
    return total


def _cmd_repnum(args, limit: int):
    disc = _disc(args.disc)
    ideal = _ideal(disc, args.ideal)
    b = _positive(args.b, "--b")
    if args.method == "all":
        n = rep_count(ideal, args.m, b)
        brute = rep_count_bruteforce(ideal, args.m, b, limit)
        dft = _dft_count(ideal, args.m, b)
        return {"N": n, "agree": n == brute == dft}, 0
    if args.method == "brute":
        n = rep_count_bruteforce(ideal, args.m, b, limit)
    elif args.method == "gauss-dft":
        n = _dft_count(ideal, args.m, b)
    else:
        n = rep_count(ideal, args.m, b)
    return {"N": n}, 0


def _cmd_gauss(args, limit: int):
    b = _positive(args.b, "--b")
    if args.classical:
        closed, vec = classical_gauss(args.a, b, limit)
        c = closed.as_complex()
        d = eval_complex(vec)
        return {"a": args.a, "c": b, "closed": c, "direct": d, "abs_diff": abs(c - d)}, 0
    if args.disc is None:
        raise UsageError("--disc is required without --classical")
    disc = _disc(args.disc)
    ideal = _ideal(disc, args.ideal)
    d = eval_complex(gauss_direct(ideal, args.a, b, limit))
    payload = {"a": args.a, "b": b, "direct": d}
    fac = factorize(b) if b > 1 else []
    if len(fac) == 1:
        ((p, beta),) = fac
        c = gauss_closed(ideal, args.a, p, beta).as_complex()
        payload["closed"] = c
        payload["abs_diff"] = abs(c - d)
    else:
        payload["closed"] = None
    return payload, 0


def _cmd_sigma(args, limit: int):
    disc = _disc(args.disc)
    ideal = _ideal(disc, args.ideal)
    s = _finite(args.s, "--s")
    fp = genus_fingerprint(ideal)
    if args.form == "all":
        return {
            "def": sigma_def(fp, args.m, s),
            "decomp": sigma_decomp(fp, args.m, s),
            "euler": sigma_euler(fp, args.m, s),
        }, 0
    fn = {"def": sigma_def, "decomp": sigma_decomp, "euler": sigma_euler}[args.form]
    return {"sigma": fn(fp, args.m, s)}, 0


def _series_eval_payload(ev) -> dict:
    return {"value": ev.value, "truncation": ev.truncation, "tail_bound": ev.tail_bound}


def _cmd_series(args, limit: int):
    disc = _disc(args.disc)
    ideal = _ideal(disc, args.ideal)
    B = _positive(args.B, "--B")
    if B > MAX_SERIES_B:
        raise UsageError(f"--B must be at most {MAX_SERIES_B}, got {B}")
    s = _finite(args.s, "--s")
    k = min(B, CHECK_B)
    if args.oracle and k * disc.D > limit:
        raise UsageError(
            f"--oracle needs brute force at modulus {k}*{disc.D} = {k * disc.D}, "
            f"past the enumeration bound {limit}{_BOUND_HINT}"
        )
    if args.verify:
        report = verify_theorem(ideal, args.m, s, B)
        bad = report.mismatch
        payload = {
            "lhs": _series_eval_payload(report.lhs),
            "rhs": report.rhs,
            "budget": report.budget,
            "mismatch": None if bad is None else dict(zip(("n", "lhs", "rhs"), bad)),
            "pass": report.passed,
        }
    else:
        fp = genus_fingerprint(ideal)
        payload = {
            "lhs": _series_eval_payload(series_lhs(ideal, args.m, s, B)),
            "rhs": series_rhs(fp, args.m, s, B),
            "residue_at_2": residue_at_2(fp, args.m),
        }
    if args.oracle:
        check_coefficients(ideal, args.m, B, limit)
    return payload, 0 if payload.get("pass", True) else 3


def _cmd_genus(args, limit: int):
    disc = _disc(args.disc)
    if args.ideal is not None:
        ideal = _ideal(disc, args.ideal)
        fp = genus_fingerprint(ideal)
        return {
            "ideal": format_ideal(ideal),
            "norm": ideal.norm(),
            "fingerprint": _fingerprint_payload(fp),
        }, 0
    reps = genus_representatives(disc)
    payload = {
        "count": len(reps),
        "representatives": [
            {
                "ideal": format_ideal(r),
                "norm": r.norm(),
                "fingerprint": _fingerprint_payload(genus_fingerprint(r)),
            }
            for r in reps
        ],
    }
    return payload, 0


def _cmd_ideal(args, limit: int):
    disc = _disc(args.disc)
    ideal = _ideal(disc, args.ideal)
    if args.op == "norm":
        return {"ideal": format_ideal(ideal), "norm": ideal.norm()}, 0
    if args.op == "inverse":
        inv = ideal.inverse()
        return {"ideal": format_ideal(inv), "norm": inv.norm()}, 0
    if args.op == "mul":
        if args.other is None:
            raise UsageError("--op mul needs --other")
        prod = ideal * _ideal(disc, args.other)
        return {"ideal": format_ideal(prod), "norm": prod.norm()}, 0
    if args.p is None:
        raise UsageError("--op primes-above needs --p")
    try:
        primes = prime_above(disc, args.p)
    except ValueError as exc:
        raise UsageError(f"--p: {exc}") from exc
    return {
        "p": args.p,
        "kind": primes[0].kind,
        "primes": [
            {"ideal": format_ideal(P.ideal), "e": P.ramification_index()}
            for P in primes
        ],
    }, 0


def _reps(*Ds: int):
    """(D, name, ideal) for each genus representative of each D."""
    for D in Ds:
        for rep in genus_representatives(Discriminant(D)):
            yield D, format_ideal(rep), rep


def _suite_oracle(limit: int):
    for D, name, rep in _reps(5, 13, 21):
        for b in range(1, 13):
            for m in range(-6, 7):
                n = rep_count(rep, m, b)
                ok = n == rep_count_bruteforce(rep, m, b, limit) == _dft_count(rep, m, b)
                yield f"repnum D={D} ideal={name} b={b} m={m}", ok
    for m in (1, 2):
        try:
            check_coefficients(unit_ideal(Discriminant(5)), m, 40, limit)
        except ConsistencyError as exc:
            yield f"series oracle m={m}: {exc}", False
        else:
            yield f"series oracle m={m}", True


def _suite_gauss(limit: int):
    for D, name, rep in _reps(5, 21):
        for p, beta in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)):
            b = p**beta
            for a in (-2, 1, 3):
                closed = gauss_closed(rep, a, p, beta).as_complex()
                direct = eval_complex(gauss_direct(rep, a, b, limit))
                ok = abs(closed - direct) <= 1e-9 * max(1.0, abs(closed))
                yield f"gauss D={D} ideal={name} a={a} b={b}", ok
    for c in range(3, 26, 2):
        for a in (1, 2):
            if math.gcd(a, c) == 1:
                closed, vec = classical_gauss(a, c, limit)
                ok = abs(closed.as_complex() - eval_complex(vec)) <= 1e-9
                yield f"classical a={a} c={c}", ok


def _suite_sigma(limit: int):
    for D, name, rep in _reps(5, 21, 33):
        fp = genus_fingerprint(rep)
        for m in range(-10, 11):
            if m == 0:
                continue
            for s in (-2.0, 0.0, 1.0, 2.0):
                v = sigma_def(fp, m, s)
                alt = sigma_decomp(fp, m, s), sigma_euler(fp, m, s), sigma_def(fp, m, -s)
                ok = all(abs(v - w) <= 1e-11 * max(1.0, abs(v)) for w in alt)
                yield f"sigma D={D} ideal={name} m={m} s={s}", ok


def _suite_theorem(limit: int):
    for D, name, rep in _reps(5, 21):
        for m in (0, 1, 2, 3, 4):
            report = verify_theorem(rep, m, 4.0, 2000)
            label = f"theorem D={D} ideal={name} m={m} err={report.abs_err:.3e}"
            yield label, report.passed


_SUITES = {
    "oracle": _suite_oracle,
    "gauss": _suite_gauss,
    "sigma": _suite_sigma,
    "theorem": _suite_theorem,
}


def _cmd_verify(args, limit: int):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        checks = list(_SUITES[name](limit))
        failed = [label for label, ok in checks if not ok]
        results.append({"suite": name, "checks": len(checks), "failures": failed})
    checks = sum(r["checks"] for r in results)
    failures = sum(len(r["failures"]) for r in results)
    payload = {"suites": results, "checks": checks, "failures": failures}
    return payload, 3 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("json", "csv", "plain"), default="json",
        help="output format (default json)",
    )
    common.add_argument(
        "--meta", action="store_true",
        help="attach a timestamped meta block to the output",
    )

    parser = _Parser(
        prog="quadrep",
        description="Representation numbers of ideals in real quadratic fields "
        "of odd squarefree discriminant, with Gauss sums, generalized divisor "
        "sums, and the Dirichlet series identity tying them together.",
        epilog=IDEAL_GRAMMAR + "; QUADREP_MAX_B caps brute-force enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repnum", parents=[common], help="norm residue counts")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--ideal", default="ok")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True, help="modulus")
    p.add_argument(
        "--method", choices=("brute", "formula", "gauss-dft", "all"),
        default="formula",
    )
    p.set_defaults(handler=_cmd_repnum)

    p = sub.add_parser("gauss", parents=[common], help="quadratic Gauss sums")
    p.add_argument("--disc", type=int)
    p.add_argument("--ideal", default="ok")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True, help="modulus (or c with --classical)")
    p.add_argument(
        "--classical", action="store_true",
        help="classical sum over x mod c of e(a x^2 / c) instead of the ideal sum",
    )
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("sigma", parents=[common], help="generalized divisor sums")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--ideal", default="ok")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--form", choices=("def", "decomp", "euler", "all"), default="def")
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("series", parents=[common], help="Dirichlet series identity")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--ideal", default="ok")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument(
        "--B", type=int, default=5000,
        help=f"truncation point, at most {MAX_SERIES_B} (default 5000)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="check the identity exactly at every prime and prime power up to B "
        "and |lhs - rhs| within its certified budget (exit 3 if not); m = 0 "
        "needs D B^(1-s) < (s-2)/(s-1), else exit 1",
    )
    p.add_argument(
        "--oracle", action="store_true",
        help="check the coefficients g(b), b <= 60, against brute force "
        "(dirichlet.check_coefficients); needs min(B, 60)*D within the "
        "enumeration bound, else exit 2",
    )
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("genus", parents=[common], help="genus fingerprints")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--ideal", default=None)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("ideal", parents=[common], help="fractional ideal arithmetic")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--op", choices=("norm", "mul", "inverse", "primes-above"),
                   required=True)
    p.add_argument("--ideal", default="ok")
    p.add_argument("--other", default=None, help="second ideal for --op mul")
    p.add_argument("--p", type=int, default=None, help="prime for --op primes-above")
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("verify", parents=[common], help="built-in verification suites")
    p.add_argument(
        "--suite", choices=("oracle", "gauss", "sigma", "theorem", "all"),
        default="all",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args, _enum_bound())
        # a non-finite result is a computation error: strict JSON refuses it
        emit(payload, args.output, args.meta)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 2
    except EnumerationBoundError as exc:
        sys.stderr.write(_error_line(f"{exc}{_BOUND_HINT}"))
        return 1
    except (QuadrepError, ValueError) as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 1
    except OverflowError as exc:
        sys.stderr.write(_error_line(f"floating-point overflow: {exc}"))
        return 1
    except MemoryError as exc:
        sys.stderr.write(_error_line(f"out of memory: {exc}"))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
