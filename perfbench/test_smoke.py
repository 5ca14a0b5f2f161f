"""The benchmark's own test: tiny inputs, every workload, traced and untraced.

    python -m pytest perfbench/test_smoke.py

Each run uses ``--smoke`` sizes and one second of ops. The test checks that
every end-to-end metric prints with its unit, that no op fails, and that a
traced run records spans for every listed function on the workloads whose
ops call it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 3

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import tracer  # noqa: E402

SCAN, CHECK = WORKLOADS  # evolve + spectral ops; verify + continuum ops
# listed function -> the workloads whose ops call it
CALLED_ON = {
    "cli.cmd_evolve": [SCAN],
    "cli.cmd_verify": [CHECK],
    "cli.cmd_spectral": [SCAN],
    "cli.cmd_continuum": [CHECK],
    "evolution.evolve": [SCAN],
    "evolution.step_forward": [SCAN],
    "evolution.step_backward": [SCAN],
    "linalg.positive_sqrt": [SCAN],
    "linalg.matrix_rank": [CHECK],
    "linalg.poly_roots": [SCAN],
    "linalg.cmatrix": WORKLOADS,
    "io.save_json": WORKLOADS,
    "io.load_json": WORKLOADS,
    "io.chain_to_document": [SCAN],
    "io.document_to_chain": WORKLOADS,
    "io.write_csv": WORKLOADS,
    "model.from_braam_austin": WORKLOADS,
    "model.to_braam_austin": [SCAN],  # the reproduction op reads a DN chain
    "model.dn_residuals": [CHECK],
    "model.ba_residuals": [CHECK],
    "model.reality_residual": [CHECK],
    "lax.commutator_residual": [CHECK],
    "lax.m_factorization_residual": [CHECK],
    "lax.ward_plus": [CHECK],
    "lax.ward_minus": [CHECK],
    "lax.basis_sections": [CHECK],
    "spectral.char_surface": [SCAN],
    "spectral.curve_samples": [SCAN],
    "spectral.smoothness_report": [SCAN],
    "spectral.antidiagonal_clearance": [SCAN],
    "continuum.residual_scaling": [CHECK],
    "continuum.integrate_nahm": [CHECK],
    "continuum.embed": [CHECK],
    "continuum.embedded_residuals": [CHECK],
    "fixtures.random_reality_seed": [SCAN],
    "fixtures.random_skew_triple": [CHECK],
    "fixtures.boundary_rank_check": [CHECK],
}


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, done.stderr
    return done.stdout, last


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    stdout, last = run(workload, 0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in last["metrics"].values())
    # the report lists all seven, fail_ratio included, each with its unit
    for name, unit in [*expected.items(), ("fail_ratio", "1")]:
        assert re.search(rf"^\s+{name}\s+\S+\s+{re.escape(unit)}\s", stdout, re.M), name
    assert re.search(r"^\s+fail_ratio\s+0\s", stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_records_every_listed_function(workload):
    stdout, last = run(workload, 1)
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    result = json.loads((ROOT / ".perfbench" / "results"
                         / f"{workload}-seed{SEED}-trace1.json").read_text())
    functions = result["trace"]["functions"]
    missing = [fn for fn, where in CALLED_ON.items()
               if workload in where and functions[fn]["calls"] == 0]
    assert not missing
    assert "trace.overhead_ratio" in stdout and "predicted dominant layers" in stdout


def test_every_listed_function_has_a_calling_workload():
    listed = {f"{layer}.{fn}" for layer, fns in tracer.LAYERS.items() for fn in fns}
    assert set(CALLED_ON) == listed


def test_wrappers_bind_in_every_namespace_and_come_off():
    import dnahm.model

    original = dnahm.model.cmatrix
    t = tracer.Tracer()
    t.install()
    try:
        # linalg, the package, and the five modules that import it by name
        assert t.bindings_seen["linalg.cmatrix"] == 7
        assert t.bindings_seen["linalg.matrix_rank"] == 3  # linalg, package, fixtures
        assert dnahm.model.cmatrix is not original
    finally:
        t.uninstall()
    assert dnahm.model.cmatrix is original


def test_missing_function_reports_absent():
    import dnahm.linalg

    t = tracer.Tracer({"linalg": ["cmatrix", "no_such_function"], "no_such_layer": ["f"]})
    t.install()
    try:
        t.run_op(0, lambda: dnahm.linalg.cmatrix([[1.0]]))
    finally:
        t.uninstall()
    summary = t.summary(1, 1.0)
    assert summary["functions"]["linalg.no_such_function"] == "absent"
    assert summary["functions"]["no_such_layer.f"] == "absent"
    assert summary["functions"]["linalg.cmatrix"]["calls"] == 1
