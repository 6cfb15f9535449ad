"""Tests of the benchmark itself: `python -m pytest perfbench -q` from the root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import END, NAME, OP, PARENT, START  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_the_op_list(name):
    first = workloads.make_specs(name, 7)
    assert workloads.make_specs(name, 7) == first
    assert workloads.make_specs(name, 8) != first
    json.dumps(first)  # plain data, as the program receives it


def _span(name, start, end, parent):
    rec = [None] * 6
    rec[NAME], rec[START], rec[END], rec[PARENT], rec[OP] = name, start, end, parent, 0
    return rec


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the covered part counts once
        _span("a.child", 2.0, 3.0, 1),
        _span("c", 8.0, 11.0, 0),  # runs past its parent: clipped to it
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 3.0])


def _snapshot():
    import quadrep.quadfield as quadfield

    state = {
        (mod, attr): id(value)
        for mod, module in sys.modules.items()
        if mod == "quadrep" or mod.startswith("quadrep.")
        for attr, value in vars(module).items()
    }
    state[("Discriminant", "__init__")] = id(quadfield.Discriminant.__dict__["__init__"])
    return state


def test_tracer_restores_every_patched_attribute():
    import quadrep.cli as cli
    import quadrep.dirichlet as dirichlet
    import quadrep.quadfield as quadfield

    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        changed = {key for key, ident in _snapshot().items() if before.get(key) != ident}
        # the defining module and every `from .x import y` copy are wrapped
        assert ("quadrep.dirichlet", "series_lhs") in changed
        assert ("quadrep.cli", "series_lhs") in changed
        assert ("quadrep", "series_lhs") in changed
        assert ("quadrep.dirichlet", "kronecker") in changed
        assert ("Discriminant", "__init__") in changed
        ideal = cli.unit_ideal(quadfield.Discriminant(21))
        dirichlet.series_lhs(ideal, 1, 4.0, 200)
    finally:
        t.uninstall()
    assert _snapshot() == before
    names = {rec[NAME] for rec in t.spans}
    assert {"quadfield.Discriminant", "dirichlet.series_lhs", "ideals.genus_fingerprint"} <= names
    assert t.counts["arith.kronecker.calls"] > 0


def test_untraced_run_imports_no_tracing_wrapper():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import run; "
        "sys.path.insert(0, str(run.SRC)); "
        "import workloads; specs = workloads.make_specs('enum_cli', 1); "
        "_, ops = run.setup('enum_cli', specs, None); "
        "tally = run.Tally(); run.measure(ops[:6], 0.0, tally); "
        "print(tally.attempted, tally.failed, 'tracer' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert out == ["6", "0", "False"]


def test_checks_reject_wrong_answers():
    assert workloads._repnum_check((4, 4, 4)) is None
    assert workloads._repnum_check((4, 4, 5))
    assert workloads._gauss_check((3 + 0j, 3 + 1e-12j)) is None
    assert workloads._gauss_check((3 + 0j, 3.001 + 0j))
    assert workloads.series_gap_error(1.0, 1e-6, 1.0 + 5e-7, 0.0) is None
    assert workloads.series_gap_error(1.0, 1e-6, 1.0 + 5e-6, 0.0)
    sp = {"kind": "verify", "argv": ["verify"]}
    assert workloads._cli_judge(sp, None, 0, '{"checks": 3, "failures": 0}') is None
    assert workloads._cli_judge(sp, None, 3, '{"checks": 3, "failures": 1}')
    assert workloads._cli_judge(sp, None, 0, '{"checks": NaN, "failures": 0}')


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
