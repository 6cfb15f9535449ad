"""Seeded workloads for the quadrep benchmark.

Each workload turns a seed into a list of plain, JSON-able op specs
(`make_specs`) and then into runnable ops (`build`).  Generating the specs
uses the library only to choose admissible inputs (rejection through
`Discriminant`, genus representatives, sigma vanishing, coprimality); the
ops then call the library through module attributes, so that a tracer
patching those attributes sees every call.

Every op returns its raw result and is checked by an independent route:
closed = brute = DFT for representation numbers, |closed - direct| for
Gauss sums, |lhs - rhs| against certified truncation bounds for the
series, `passed` for theorem reports, and strict JSON plus agreement
fields plus the in-process answer for CLI runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import quadrep.arith as arith
import quadrep.cli as cli
import quadrep.dirichlet as dirichlet
import quadrep.divisor as divisor
import quadrep.gauss as gauss
import quadrep.ideals as ideals
import quadrep.quadfield as quadfield
import quadrep.repnum as repnum
from quadrep.errors import RepresentativeSearchError

# verify_theorem's default tolerance; verify ops only get inputs whose
# certified error budget is below a quarter of it, because outside that
# range exit 3 ("not verified") is the documented answer.
VERIFY_TOL = 1e-3

# The op slots of a series workload: a verify_theorem op and a plain series
# evaluation for each class in its pattern, where "zero" means m = 0,
# "vanish" an m whose divisor sum vanishes (series_lhs then takes its zero
# short-cut) and "plain" any other small m.  Slots, discriminants,
# truncation points and the m of the plain slots are fixed, so the cost of
# an op list hardly moves between seeds (the per-integer cost of series_lhs
# depends on D and m, that of chi_table on D); the seed draws the ideal, s,
# the m of the vanishing slots and the order of the ops.
SERIES = {
    # small D, long truncations: the per-integer loop of series_lhs; one op
    # per D, the D evenly spaced through the admissible D of the range
    "series_deep_B": dict(pattern=("plain", "zero", "plain", "vanish", "plain"),
                          d_lo=5, d_hi=1365, d_spacing="linear", b_lo=18_000, b_hi=26_000,
                          ops_per_d=1),
    # large D, short truncations: the O(D) chi_table rebuilds; each D, one
    # per geometric stratum of the range, is queried by a verify and an
    # evaluation op, as a user exploring one field
    "series_wide_D": dict(pattern=("plain", "zero", "vanish"),
                          d_lo=10_000, d_hi=40_000, d_spacing="geometric", b_lo=2_000,
                          b_hi=4_000, ops_per_d=2),
}
# the m of the plain slots: slot i tries them in turn from position i, and
# takes the first whose divisor sum does not vanish for the drawn ideal
PLAIN_M = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7)

# enum_moduli: a fixed ladder of moduli, one composite and one prime power
# (alternately a prime and a p^e with e >= 2) per narrow geometric stratum
# of [300, 4096], each paired with a seeded ideal and queried with five m
# at fixed fractions of the modulus; plus one Gauss-sum pair at a prime
# power per stratum of a coarser ladder.  Fixed moduli and m keep the cost
# of the enumerations and of the queries alike across seeds.  Four cache
# hits per enumeration put the median op among the cheap hits: with two,
# it fell where the cost of a hit climbs with the prime-power modulus.
ENUM_B = (300, 4096)
ENUM_STRATA = 15
ENUM_M_FRACTIONS = (0.137, -0.419, 0.771, -0.883, 0.302)
ENUM_GAUSS_STRATA = 10
SMALL_D = (5, 200)

# The benchmark's workloads, each a sequence of parts that a pass runs one
# after another.  Two workloads of 60 s runs rather than four of 30 s: the
# machine's speed shifts for spells of half a minute to a minute, and a run
# must be long enough to hold some time outside them (see NOTES.md).  The
# series parts exercise dirichlet and bypass the profile enumeration; the
# enum_cli parts exercise the enumeration and the CLI and bypass long
# series.
WORKLOADS = {
    "series": ("series_deep_B", "series_wide_D"),
    "enum_cli": ("enum_moduli", "cli_cold"),
}


@dataclass
class Op:
    """One benchmark operation: `run` does the timed work, `check` judges it.

    `check` returns None when the result is correct, else a short reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------- helpers


def _admissible(D: int) -> bool:
    try:
        quadfield.Discriminant(D)
    except ValueError:
        return False
    return True


def _draw_disc(rng: random.Random, lo: int, hi: int) -> int:
    """An admissible D in [lo, hi], by rejection through Discriminant."""
    for _ in range(10_000):
        D = rng.randrange(lo, hi + 1)
        if _admissible(D):
            return D
    raise RuntimeError(f"no admissible discriminant found in [{lo}, {hi}]")


def _reps(D: int) -> list:
    return ideals.genus_representatives(quadfield.Discriminant(D))


def factor_small(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, kept apart from the library's."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_power(n: int) -> bool:
    return n > 1 and len(factor_small(n)) == 1


def _zeta_bounds(sigma: float, n: int = 2000) -> tuple[float, float]:
    """Lower and upper bounds for zeta(sigma), sigma > 1."""
    lo = math.fsum(k ** -sigma for k in range(1, n + 1))
    return lo, lo + n ** (1 - sigma) / (sigma - 1)


def lhs_tail(omega: int, s: float, B: int) -> float:
    """The tail bound series_lhs certifies for its truncation at B."""
    return 4 * 2**omega * float(B) ** (2 - s) * (1 + math.log(B)) / (s - 2)


def rhs_rel_bound(D: int, m: int, s: float, B: int) -> float:
    """Certified relative error of series_rhs truncated at B.

    series_rhs = c * Z * X / L with Z the zeta(s-1) estimate (error at most
    B^(1-s), Z >= 1), L = L(s, chi_D) and, for m = 0, X = L(s-1, chi_D),
    both summed to B with the Abel bound D * B^(-sigma).  |L(sigma, chi)|
    is at least zeta(2 sigma) / zeta(sigma).  Returns inf when the bound
    cannot be certified.
    """
    a = float(B) ** (1 - s)
    lo2, _ = _zeta_bounds(2 * s)
    _, hi1 = _zeta_bounds(s)
    c = D * float(B) ** -s / (lo2 / hi1)
    b = 0.0
    if m == 0:
        lo2x, _ = _zeta_bounds(2 * s - 2)
        _, hi1x = _zeta_bounds(s - 1)
        delta = D * float(B) ** (1 - s)
        floor = lo2x / hi1x - delta
        if floor <= 0:
            return math.inf
        b = delta / floor
    if c >= 1:
        return math.inf
    return (1 + a) * (1 + b) * (1 + c) - 1


def series_gap_error(lhs_value, tail, rhs, rel) -> str | None:
    """None when |lhs - rhs| is within the certified budget of both sides."""
    if not (math.isfinite(lhs_value) and math.isfinite(rhs)):
        return f"non-finite series value lhs={lhs_value} rhs={rhs}"
    budget = tail + rel * abs(rhs) + 1e-12 * max(1.0, abs(rhs))
    gap = abs(lhs_value - rhs)
    if gap > budget:
        return f"|lhs - rhs| = {gap:.3e} exceeds certified budget {budget:.3e}"
    return None


def _geometric_strata(lo: float, hi: float, n: int) -> list[tuple[int, int]]:
    edges = [lo * (hi / lo) ** (i / n) for i in range(n + 1)]
    return [(math.ceil(edges[i]), math.floor(edges[i + 1])) for i in range(n)]


# ----------------------------------------------------------------- series


def _series_specs(name: str, rng: random.Random) -> list[dict]:
    cfg = SERIES[name]
    slots = [(c, k) for c in cfg["pattern"] for k in ("verify", "eval")]
    n = len(slots)
    bs = [round(cfg["b_lo"] * (cfg["b_hi"] / cfg["b_lo"]) ** (i / (n - 1))) for i in range(n)]
    per_d = cfg["ops_per_d"]
    specs = []
    for j, D in enumerate(_disc_ladder(cfg, n // per_d)):
        for i in range(j * per_d, (j + 1) * per_d):
            mclass, kind = slots[i]
            k = i % len(PLAIN_M)
            spec = _series_op(rng, D, mclass, kind, bs[i], PLAIN_M[k:] + PLAIN_M[:k])
            if spec is None:
                raise RuntimeError(f"could not fill series slot {slots[i]} at D = {D}")
            specs.append(spec)
    rng.shuffle(specs)
    return specs


def _disc_ladder(cfg: dict, n: int) -> list[int]:
    """n fixed admissible D in [d_lo, d_hi]: evenly spaced through the
    admissible D ("linear"), or the one nearest the middle of each of n
    geometric strata ("geometric")."""
    lo, hi = cfg["d_lo"], cfg["d_hi"]
    if cfg["d_spacing"] == "linear":
        discs = [D for D in range(lo, hi + 1) if _admissible(D)]
        return [discs[i * (len(discs) - 1) // (n - 1)] for i in range(n)]
    out = []
    for a, b in _geometric_strata(lo, hi, n):
        mid = math.sqrt(a * b)
        out.append(min((D for D in range(a, b + 1) if _admissible(D)),
                       key=lambda D: (abs(D - mid), D)))
    return out


def _series_op(rng, D, mclass, kind, B, plain_ms) -> dict | None:
    reps = _reps(D)
    rng.shuffle(reps)
    fps = [ideals.genus_fingerprint(ideal) for ideal in reps]
    omega = quadfield.Discriminant(D).omega
    if mclass == "zero":
        candidates = [(ideal, 0) for ideal in reps]
    elif mclass == "plain":
        # the slot's m comes first, so that it is the same for every seed
        candidates = [(ideal, m) for m in plain_ms for ideal, fp in zip(reps, fps)
                      if not divisor.sigma_vanishes(fp, m)]
    else:
        candidates = []
        for ideal, fp in zip(reps, fps):
            ms = [m for m in range(-12, 13) if m and divisor.sigma_vanishes(fp, m)]
            if ms:
                candidates.append((ideal, rng.choice(ms)))
    for ideal, m in candidates:
        drawn = _draw_s(rng, D, omega, m, B, kind == "verify")
        if drawn is not None:
            s, rel = drawn
            return {"kind": kind, "D": D, "ideal": ideals.format_ideal(ideal),
                    "m": m, "s": s, "B": B, "rel": rel, "vanish": mclass == "vanish"}
    return None


def _draw_s(rng, D, omega, m, B, verify) -> tuple[float, float] | None:
    """An s in [2.5, 6] whose rhs error is certified, with that relative
    bound; for verify ops, one whose whole certified budget is below a
    quarter of VERIFY_TOL."""
    for _ in range(200):
        s = round(rng.uniform(2.5, 6.0), 3)
        rel = rhs_rel_bound(D, m, s, B)
        if verify:
            if lhs_tail(omega, s, B) < VERIFY_TOL / 4 and rel < VERIFY_TOL / 4:
                return s, rel
        elif rel < 1:
            return s, rel
    return None


def _series_ops(specs: list[dict]) -> list[Op]:
    ops = []
    for i, sp in enumerate(specs):
        ideal = ideals.parse_ideal(quadfield.Discriminant(sp["D"]), sp["ideal"])
        fp = ideals.genus_fingerprint(ideal)
        label = f"{i}:{sp['kind']} D={sp['D']} m={sp['m']} s={sp['s']} B={sp['B']}"
        if sp["kind"] == "verify":
            ops.append(Op(label, _verify_run(ideal, sp), _verify_check(sp["rel"])))
        else:
            ops.append(Op(label, _eval_run(ideal, fp, sp), _eval_check(sp, sp["rel"])))
    return ops


def _verify_run(ideal, sp):
    return lambda: dirichlet.verify_theorem(ideal, sp["m"], sp["s"], sp["B"])


def _verify_check(rel):
    def check(report):
        if not report.passed:
            return f"verify_theorem did not pass (abs_err {report.abs_err:.3e})"
        return series_gap_error(report.lhs.value, report.lhs.tail_bound, report.rhs, rel)
    return check


def _eval_run(ideal, fp, sp):
    m, s, B = sp["m"], sp["s"], sp["B"]

    def run():
        lhs = dirichlet.series_lhs(ideal, m, s, B)
        rhs = dirichlet.series_rhs(fp, m, s, B)
        return lhs, rhs, dirichlet.residue_at_2(fp, m)
    return run


def _eval_check(sp, rel):
    def check(result):
        lhs, rhs, res = result
        err = series_gap_error(lhs.value, lhs.tail_bound, rhs, rel)
        if err:
            return err
        if not math.isfinite(res):
            return f"non-finite residue {res}"
        if sp["m"] == 0 and res <= 0:
            return f"residue {res} at m = 0 is not positive"
        if sp["vanish"] and res != 0:
            return f"residue {res} where the divisor sum vanishes"
        return None
    return check


# ------------------------------------------------------------ enum_moduli


def _ladder_modulus(lo: int, hi: int, kind: str) -> int:
    """The modulus of a kind nearest the stratum's geometric middle.

    kind is "composite" (two or more prime-power parts, none above sqrt(b),
    so that the Gauss DFT's own enumerations stay small next to b^2),
    "power" (p^e with e >= 2, a prime when the stratum has none) or "prime".
    """
    fac = {n: factor_small(n) for n in range(lo, hi + 1)}
    if kind == "composite":
        pool = [n for n, f in fac.items() if len(f) > 1 and max(p**e for p, e in f) ** 2 <= n]
    else:
        powers = [n for n, f in fac.items() if len(f) == 1 and f[0][1] > 1]
        pool = powers if kind == "power" and powers else [n for n, f in fac.items() if f == [(n, 1)]]
    mid = math.sqrt(lo * hi)
    return min(pool, key=lambda n: (abs(n - mid), n))


def _random_ideal(rng) -> tuple[int, str]:
    while True:
        D = _draw_disc(rng, *SMALL_D)
        try:
            reps = _reps(D)
        except RepresentativeSearchError:
            continue
        return D, ideals.format_ideal(rng.choice(reps))


def _enum_specs(rng: random.Random) -> list[dict]:
    specs = []
    for i, (lo, hi) in enumerate(_geometric_strata(*ENUM_B, ENUM_STRATA)):
        prime_power = _ladder_modulus(lo, hi, "power" if i % 2 else "prime")
        for b in (_ladder_modulus(lo, hi, "composite"), prime_power):
            D, ideal = _random_ideal(rng)
            for m in (round(f * b) for f in ENUM_M_FRACTIONS):
                specs.append({"kind": "repnum", "D": D, "ideal": ideal, "m": m, "b": b})
    for i, (lo, hi) in enumerate(_geometric_strata(*ENUM_B, ENUM_GAUSS_STRATA)):
        q = _ladder_modulus(lo, hi, "power" if i % 2 else "prime")
        (p, e), = factor_small(q)
        D, text = _random_ideal(rng)
        ideal = ideals.parse_ideal(quadfield.Discriminant(D), text)
        if D % p == 0 and not ideals.coprime_to(ideal, p):
            text = "ok"  # the ramified closed form needs an ideal coprime to p
        a = rng.randrange(1, q)
        if e > 1 and rng.random() < 1 / 3:
            a = p * rng.randrange(1, q // p)
        specs.append({"kind": "gauss", "D": D, "ideal": text, "a": a, "p": p, "e": e})
    # a fixed order, largest moduli first, keeps the sequence of array sizes,
    # and with it the allocator's resident peak, alike across seeds
    specs.sort(key=lambda sp: -(sp["b"] if sp["kind"] == "repnum" else sp["p"] ** sp["e"]))
    return specs


def _enum_ops(specs: list[dict]) -> list[Op]:
    ops = []
    for i, sp in enumerate(specs):
        ideal = ideals.parse_ideal(quadfield.Discriminant(sp["D"]), sp["ideal"])
        if sp["kind"] == "repnum":
            label = f"{i}:repnum D={sp['D']} {sp['ideal']} m={sp['m']} b={sp['b']}"
            ops.append(Op(label, _repnum_run(ideal, sp["m"], sp["b"]), _repnum_check))
        else:
            label = f"{i}:gauss D={sp['D']} {sp['ideal']} a={sp['a']} q={sp['p']}^{sp['e']}"
            ops.append(Op(label, _gauss_run(ideal, sp), _gauss_check))
    return ops


def _repnum_run(ideal, m, b):
    """`repnum --method all` through the library: closed, brute, Gauss DFT."""
    def run():
        closed = repnum.rep_count(ideal, m, b)
        brute = repnum.rep_count_bruteforce(ideal, m, b)
        dft = 1
        for p, e in arith.factorize(b):
            dft *= repnum.rep_from_gauss_dft(ideal, m, p, e)
        return closed, brute, dft
    return run


def _repnum_check(result):
    closed, brute, dft = result
    if not closed == brute == dft:
        return f"closed {closed}, brute {brute}, dft {dft} disagree"
    return None


def _gauss_run(ideal, sp):
    a, p, e = sp["a"], sp["p"], sp["e"]

    def run():
        direct = gauss.eval_complex(gauss.gauss_direct(ideal, a, p**e))
        closed = gauss.gauss_closed(ideal, a, p, e).as_complex()
        return closed, direct
    return run


def _gauss_check(result):
    closed, direct = result
    if abs(closed - direct) > 1e-9 * max(1.0, abs(closed)):
        return f"|closed - direct| = {abs(closed - direct):.3e}"
    return None


# --------------------------------------------------------------- cli_cold


def _cli_specs(rng: random.Random) -> list[dict]:
    """Eight desk-scale invocations, one per subcommand and series both with
    and without --verify, so that a run repeats every invocation many
    times.  The seed picks the ideal operation; genus lists the
    representatives of D = 1365 and gauss is the classical sum, whatever the
    seed, so that every seed calls genus_representatives and classical_gauss
    (the Gauss sums of ideals are enum_moduli's) and the peak resident set
    of the children does not hang on the seed."""
    specs = []

    def add(kind, argv, **params):
        specs.append({"kind": kind, "argv": [str(x) for x in argv], **params})

    D, ideal = _random_ideal(rng)
    m, b = rng.randint(-20, 20), rng.randint(20, 400)
    add("repnum", ["repnum", "--disc", D, "--ideal", ideal, "--m", m, "--b", b,
                   "--method", "all"], D=D, ideal=ideal, m=m, b=b)
    D, ideal = _random_ideal(rng)
    m, s = rng.choice([k for k in range(-60, 61) if k]), round(rng.uniform(-3, 3), 3)
    add("sigma", ["sigma", "--disc", D, "--ideal", ideal, "--m", m, "--s", s,
                  "--form", "all"], D=D, ideal=ideal, m=m, s=s)
    for verify in (False, True):
        D, ideal = _random_ideal(rng)
        m, B = rng.randint(-6, 6), rng.randint(2000, 5000)
        s, rel = _draw_s(rng, D, quadfield.Discriminant(D).omega, m, B, verify)
        argv = ["series", "--disc", D, "--ideal", ideal, "--m", m, "--s", s, "--B", B]
        add("series", argv + (["--verify"] if verify else []),
            D=D, ideal=ideal, m=m, s=s, B=B, rel=rel, verify=verify)
    add("genus", ["genus", "--disc", 1365], D=1365, ideal=None)
    small = [p for p in range(2, 100) if arith.is_prime(p)]
    op = rng.choice(("mul", "inverse", "norm", "primes-above"))
    D = _draw_disc(rng, *SMALL_D)
    p1, p2 = rng.sample(small, 2)
    argv, params = ["ideal", "--disc", D, "--op", op], {"D": D, "op": op}
    if op == "primes-above":
        argv += ["--p", p1]
        params["p"] = p1
    else:
        argv += ["--ideal", f"prime:{p1},1"]
        params["ideal"] = f"prime:{p1},1"
    if op == "mul":
        argv += ["--other", f"prime:{p2},1"]
        params["other"] = f"prime:{p2},1"
    add("ideal", argv, **params)
    c = rng.randrange(3, 1000, 2)
    a = rng.randint(1, c - 1)
    while math.gcd(a, c) != 1:
        a = rng.randint(1, c - 1)
    add("gauss", ["gauss", "--classical", "--a", a, "--b", c])
    add("verify", ["verify", "--suite", "all"])
    rng.shuffle(specs)
    return specs


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _cli_expected(sp):
    """What a CLI op's output is compared with: the in-process library's
    answer, or for a plain series run the certified rhs error."""
    kind = sp["kind"]
    if kind not in ("repnum", "genus", "ideal", "sigma", "series"):
        return None
    disc = quadfield.Discriminant(sp["D"])
    if kind == "repnum":
        return repnum.rep_count(ideals.parse_ideal(disc, sp["ideal"]), sp["m"], sp["b"])
    if kind == "sigma":
        fp = ideals.genus_fingerprint(ideals.parse_ideal(disc, sp["ideal"]))
        return divisor.sigma_def(fp, sp["m"], sp["s"])
    if kind == "series":
        return sp["rel"]
    if kind == "genus":
        reps = ([ideals.parse_ideal(disc, sp["ideal"])] if sp["ideal"]
                else ideals.genus_representatives(disc))
        return [(ideals.format_ideal(r), r.norm(),
                 {str(p): s for p, s in ideals.genus_fingerprint(r).as_dict().items()})
                for r in reps]
    if sp["op"] == "primes-above":
        return [ideals.format_ideal(P.ideal) for P in ideals.prime_above(disc, sp["p"])]
    out = ideals.parse_ideal(disc, sp["ideal"])
    if sp["op"] == "mul":
        out = out * ideals.parse_ideal(disc, sp["other"])
    elif sp["op"] == "inverse":
        out = out.inverse()
    return ideals.format_ideal(out), out.norm()


def _cli_judge(sp, expected, code, out) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(out, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"output is not strict JSON: {exc}"
    kind = sp["kind"]
    if kind == "repnum":
        if data["agree"] is not True or data["N"] != expected:
            return f"repnum {data} != library {expected}"
    elif kind == "sigma":
        v = data["def"]
        if v != expected or any(
            abs(data[k] - v) > 1e-9 * max(1.0, abs(v)) for k in ("decomp", "euler")
        ):
            return f"sigma forms {data} disagree (library def {expected})"
    elif kind == "series":
        if sp["verify"]:
            if data["pass"] is not True:
                return "series --verify did not pass"
        else:
            lhs = data["lhs"]
            err = series_gap_error(lhs["value"], lhs["tail_bound"], data["rhs"], expected)
            if err or not math.isfinite(data["residue_at_2"]):
                return err or "non-finite residue"
    elif kind == "genus":
        rows = data["representatives"] if sp["ideal"] is None else [data]
        got = [(r["ideal"], Fraction(str(r["norm"])), r["fingerprint"]) for r in rows]
        if got != expected or (sp["ideal"] is None and data["count"] != len(expected)):
            return f"genus {got} != library {expected}"
    elif kind == "ideal":
        if sp["op"] == "primes-above":
            got = [P["ideal"] for P in data["primes"]]
        else:
            got = (data["ideal"], Fraction(str(data["norm"])))
        if got != expected:
            return f"ideal {got} != library {expected}"
    elif kind == "gauss":
        closed, direct = data["closed"], data["direct"]
        if closed is None:
            return "gauss closed form missing at a prime-power modulus"
        c = complex(closed["re"], closed["im"])
        if abs(c - complex(direct["re"], direct["im"])) > 1e-9 * max(1.0, abs(c)):
            return f"gauss |closed - direct| = {data['abs_diff']:.3e}"
    elif kind == "verify":
        if data["failures"] != 0 or data["checks"] < 1:
            return f"verify reported {data['failures']} failures"
    return None


def _cli_subprocess_run(argv, env: dict):
    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "quadrep.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout
    return run


def _cli_inprocess_run(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    return run


def _cli_ops(specs: list[dict], env: dict | None) -> list[Op]:
    """CLI ops: one fresh interpreter each with `env`, or in-process without."""
    ops = []
    for i, sp in enumerate(specs):
        run = _cli_subprocess_run(sp["argv"], env) if env else _cli_inprocess_run(sp["argv"])
        memo: list = []

        def check(result, sp=sp, memo=memo):
            if not memo:  # the library's answer, computed once and untimed
                memo.append(_cli_expected(sp))
            code, out = result
            return _cli_judge(sp, memo[0], code, out)
        ops.append(Op(f"{i}:" + " ".join(sp["argv"]), run, check))
    return ops


# ------------------------------------------------------------------- API


def make_specs(name: str, seed: int) -> list[dict]:
    """The workload's op list for this seed; equal seeds give equal lists.

    Each spec names its part; the parts follow one another in WORKLOADS'
    order, each drawn from its own seeded generator.
    """
    specs = []
    for part in WORKLOADS[name]:
        rng = random.Random(f"{part}:{seed}")
        if part in SERIES:
            part_specs = _series_specs(part, rng)
        elif part == "enum_moduli":
            part_specs = _enum_specs(rng)
        else:
            part_specs = _cli_specs(rng)
        specs += [dict(sp, part=part) for sp in part_specs]
    return specs


def build(name: str, specs: list[dict], cli_env: dict | None = None) -> list[Op]:
    """Runnable ops; CLI ops run one subprocess each with cli_env, if given,
    and in-process through quadrep.cli.main otherwise."""
    ops = []
    for part in WORKLOADS[name]:
        part_specs = [sp for sp in specs if sp["part"] == part]
        if part in SERIES:
            ops += _series_ops(part_specs)
        elif part == "enum_moduli":
            ops += _enum_ops(part_specs)
        else:
            ops += _cli_ops(part_specs, cli_env)
    return ops


def properties(name: str, specs: list[dict]) -> dict:
    """Per part, the repeat properties the library's caches exploit, as
    shares of the part's op list."""
    return {part: _part_properties(part, [sp for sp in specs if sp["part"] == part])
            for part in WORKLOADS[name]}


def _part_properties(part: str, specs: list[dict]) -> dict:
    if part in SERIES:
        seen, repeats = set(), 0
        for sp in specs:
            repeats += sp["D"] in seen
            seen.add(sp["D"])
        return {"ops_repeating_D_share": repeats / len(specs),
                "vanishing_share": sum(sp.get("vanish", False) for sp in specs) / len(specs)}
    if part == "enum_moduli":
        rep = [sp for sp in specs if sp["kind"] == "repnum"]
        seen, repeats = set(), 0
        for sp in rep:
            key = (sp["D"], sp["ideal"], sp["b"])
            repeats += key in seen
            seen.add(key)
        moduli = {(sp["D"], sp["ideal"], sp["b"]) for sp in rep}
        return {"repeated_ideal_b_share": repeats / len(rep),
                "prime_power_moduli_share":
                    sum(is_prime_power(k[2]) for k in moduli) / len(moduli)}
    return {"subcommands": sorted({sp["argv"][0] for sp in specs})}


def clear_caches() -> None:
    """Empty the library's profile and fingerprint caches."""
    for cache in _caches():
        cache.clear()


def caches_empty() -> bool:
    return all(len(cache) == 0 for cache in _caches())


def _caches() -> list[dict]:
    caches = [getattr(ideals, name, None) for name in ("_PROFILE_CACHE", "_FINGERPRINT_CACHE")]
    if not all(isinstance(c, dict) for c in caches):
        raise RuntimeError("quadrep.ideals no longer keeps its caches in the dicts "
                           "_PROFILE_CACHE and _FINGERPRINT_CACHE; the benchmark cannot "
                           "start its passes from empty caches")
    return caches
