"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each quadrep layer from outside
the program.  For every wrapped function it replaces the name in the
defining module and in every quadrep module that imported it with
`from .x import y`, and `uninstall` puts the originals back.  Spans
(name, start, end, parent, op id) are kept in memory; hot helpers get call
counters only.  Only traced runs import this module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

from workloads import factor_small, is_prime_power

# layer functions recorded as spans, by defining module
SPANNED = {
    "quadrep.arith": ("factorize",),
    "quadrep.quadfield": ("Discriminant.__init__",),
    "quadrep.ideals": (
        "residue_norm_profile", "genus_fingerprint", "genus_representatives", "parse_ideal",
    ),
    "quadrep.gauss": ("gauss_direct", "gauss_closed", "eval_complex", "classical_gauss"),
    "quadrep.repnum": ("rep_count", "rep_count_bruteforce", "rep_from_gauss_dft"),
    "quadrep.divisor": ("sigma_def", "sigma_euler", "sigma_decomp"),
    "quadrep.dirichlet": (
        "series_lhs", "series_rhs", "residue_at_2", "verify_theorem",
        "l_truncated", "chi_table", "zeta_truncated",
    ),
    "quadrep.cli": ("main",),
}
# hot helpers: a call counter each, no span (their time stays in the caller)
COUNTED = {
    "quadrep.arith": ("kronecker", "is_prime"),
    "quadrep.repnum": ("rep_count_prime_power",),
}
# functions whose cache misses are observed: module attribute holding the cache
CACHED = {
    "ideals.residue_norm_profile": "_PROFILE_CACHE",
    "ideals.genus_fingerprint": "_FINGERPRINT_CACHE",
}
# arguments kept on a span, for the metrics derived from call arguments
KEPT_ARGS = {
    "dirichlet.series_lhs": ("B",),
    "dirichlet.l_truncated": ("B",),
    "dirichlet.chi_table": ("disc",),
    "ideals.residue_norm_profile": ("b",),
}

NAME, START, END, PARENT, OP, INFO = range(6)

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = (
    ("dirichlet.series_lhs.calls", "count"),
    ("dirichlet.series_lhs.self_s", "s"),
    ("dirichlet.series_lhs.terms", "count"),
    ("dirichlet.series_lhs.zero_share", "ratio"),
    ("repnum.rep_count_prime_power.calls", "count"),
    ("arith.is_prime.calls", "count"),
    ("dirichlet.zeta_truncated.self_s", "s"),
    ("dirichlet.chi_table.calls", "count"),
    ("dirichlet.chi_table.self_s", "s"),
    ("dirichlet.chi_table.entries", "count"),
    ("dirichlet.chi_table.repeat_share", "ratio"),
    ("dirichlet.chi_table.used_share", "ratio"),
    ("arith.kronecker.calls", "count"),
    ("dirichlet.l_truncated.self_s", "s"),
    ("dirichlet.series_rhs.self_s", "s"),
    ("dirichlet.residue_at_2.self_s", "s"),
    ("dirichlet.verify_theorem.self_s", "s"),
    ("ideals.residue_norm_profile.calls", "count"),
    ("ideals.residue_norm_profile.self_s", "s"),
    ("ideals.residue_norm_profile.hit_ratio", "ratio"),
    ("ideals.residue_norm_profile.pairs_enumerated", "count"),
    ("ideals.residue_norm_profile.crt_pairs", "count"),
    ("ideals.residue_norm_profile.prime_power_share", "ratio"),
    ("repnum.rep_count.self_s", "s"),
    ("repnum.rep_count_bruteforce.self_s", "s"),
    ("repnum.rep_from_gauss_dft.self_s", "s"),
    ("gauss.gauss_direct.self_s", "s"),
    ("gauss.gauss_closed.self_s", "s"),
    ("gauss.eval_complex.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.numpy_import_s", "s"),
    ("cli.main.self_s", "s"),
    ("divisor.sigma_def.self_s", "s"),
    ("divisor.sigma_euler.self_s", "s"),
    ("divisor.sigma_decomp.self_s", "s"),
    ("gauss.classical_gauss.self_s", "s"),
    ("ideals.genus_representatives.self_s", "s"),
    ("ideals.genus_fingerprint.self_s", "s"),
    ("ideals.parse_ideal.self_s", "s"),
    ("ideals.genus_fingerprint.hit_ratio", "ratio"),
    ("arith.factorize.calls", "count"),
    ("arith.factorize.self_s", "s"),
    ("quadfield.Discriminant.self_s", "s"),
    ("bench.op.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _short(modname: str, attr: str) -> str:
    return modname.rsplit(".", 1)[-1] + "." + attr.replace(".__init__", "")


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording

    def _span_wrapper(self, name, fn, keep=(), misses=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if keep else None

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            before = misses() if misses else None
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            info = {}
            if keep:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = {k: bound.arguments[k] for k in keep}
                if "disc" in info:
                    info = {"D": info.pop("disc").D}
            if misses:
                info["miss"] = misses() > before
            if name == "dirichlet.series_lhs":
                info["zero"] = result.tail_bound == 0.0
            rec[INFO] = info or None
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of its own, e.g. one benchmark op."""
        return self._span_wrapper(name, fn)(*args)

    # ---- patching

    def install(self) -> None:
        """Wrap every listed function wherever a quadrep module holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replace: dict[int, tuple[object, object]] = {}
        for modname, names in SPANNED.items():
            module = importlib.import_module(modname)
            for attr in names:
                name = _short(modname, attr)
                if "." in attr:  # a method, e.g. Discriminant.__init__
                    owner_name, meth = attr.split(".")
                    owner = getattr(module, owner_name)
                    orig = owner.__dict__[meth]
                    self._set(owner, meth, self._span_wrapper(name, orig))
                    continue
                orig = getattr(module, attr)
                # a miss adds an entry, so the cache's length counts misses
                misses = getattr(module, CACHED[name]).__len__ if name in CACHED else None
                wrapper = self._span_wrapper(name, orig, KEPT_ARGS.get(name, ()), misses)
                replace[id(orig)] = (orig, wrapper)
        for modname, names in COUNTED.items():
            module = importlib.import_module(modname)
            for attr in names:
                orig = getattr(module, attr)
                name = _short(modname, attr) + ".calls"
                replace[id(orig)] = (orig, self._count_wrapper(name, orig))
        for modname, module in list(sys.modules.items()):
            if modname != "quadrep" and not modname.startswith("quadrep."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every original the tracer replaced."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # ---- output

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "info"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counts: Counter, extra: dict) -> dict:
    """Per-layer metrics (name -> value) from spans, counters and `extra`.

    `extra` carries what the spans cannot show, such as the cli start-up
    probes and the tracing overhead.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        calls[rec[NAME]] += 1
        self_s[rec[NAME]] += selfs[i]
        by_name[rec[NAME]].append(rec)

    out = {}
    for name, unit in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif stat == "calls":
            out[name] = counts.get(name, 0) or calls.get(layer, 0)

    # spans of calls that raised carry no info and are left out below
    info = {k: [r for r in v if r[INFO] is not None] for k, v in by_name.items()}
    lhs = info.get("dirichlet.series_lhs", [])
    zero = [r for r in lhs if r[INFO]["zero"]]
    out["dirichlet.series_lhs.terms"] = sum(r[INFO]["B"] for r in lhs if not r[INFO]["zero"])
    out["dirichlet.series_lhs.zero_share"] = _ratio(len(zero), len(lhs))

    chi = info.get("dirichlet.chi_table", [])
    seen, repeats, used = set(), 0, 0
    for r in chi:
        D = r[INFO]["D"]
        repeats += D in seen
        seen.add(D)
        parent = spans[r[PARENT]] if r[PARENT] >= 0 else None
        if parent is not None and parent[NAME] == "dirichlet.l_truncated" and parent[INFO]:
            used += min(D, parent[INFO]["B"] + 1)
        else:
            used += D
    entries = sum(r[INFO]["D"] for r in chi)
    out["dirichlet.chi_table.entries"] = entries
    out["dirichlet.chi_table.repeat_share"] = _ratio(repeats, len(chi))
    out["dirichlet.chi_table.used_share"] = _ratio(used, entries)

    prof = info.get("ideals.residue_norm_profile", [])
    missed = [r[INFO]["b"] for r in prof if r[INFO].get("miss", True)]
    out["ideals.residue_norm_profile.hit_ratio"] = _ratio(len(prof) - len(missed), len(prof))
    out["ideals.residue_norm_profile.pairs_enumerated"] = sum(b * b for b in missed)
    out["ideals.residue_norm_profile.crt_pairs"] = sum(
        (p**e) ** 2 for b in missed for p, e in factor_small(b)
    )
    out["ideals.residue_norm_profile.prime_power_share"] = _ratio(
        sum(is_prime_power(b) for b in missed), len(missed)
    )

    fps = by_name["ideals.genus_fingerprint"]
    fp_hits = sum(not (r[INFO] or {}).get("miss", True) for r in fps)
    out["ideals.genus_fingerprint.hit_ratio"] = _ratio(fp_hits, len(fps))

    out.update(extra)
    return out


def layer_shares(spans: list[list], wall: float, skip_op=None, top: int = 8) -> list:
    """The layers with the most self time, as shares of `wall`.

    Spans whose op id is `skip_op` (such as the traced set-up) are left out.
    """
    totals: defaultdict = defaultdict(float)
    for rec, st in zip(spans, self_times(spans)):
        if rec[OP] != skip_op:
            totals[rec[NAME]] += st
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return [(name, round(_ratio(t, wall), 4)) for name, t in ranked]
