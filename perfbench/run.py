"""dnahm benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload evolve_scan --seed 1 --seconds 45 --trace 0

Run from anywhere; the benchmark uses the dnahm sources in ``src/`` of the
checkout that holds this file. It builds the workload's inputs from
``--seed`` (before any timing), measures set-up time in fresh processes,
then starts one worker process that runs the workload's ops back to back,
one client, each op an in-process ``dnahm.cli.main`` call, until the ops
have taken ``--seconds``. Every op's output is checked between ops.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a run whose odd cycles are traced. Both print a
report, a provenance line and, as the last line of stdout, one JSON object
with keys correct, attempted, failed and metrics. Full results (and the
spans of a traced run) are written under ``.perfbench/results/``.

``--smoke`` shrinks every input so a run takes a few seconds; it is for the
benchmark's own test, not for measurement.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# fresh processes timed for setup_s, before and after the worker, which is
# timed too: spreading them over the run evens out bursts of host contention
SETUP_BEFORE = SETUP_AFTER = 4
DEADLINE_S = 170.0  # a run ends within 180 s
ACCURACY_FLOOR = 1e-16  # correctness values below double rounding read as 16 digits

# layers whose self time is predicted to dominate each workload's ops
PREDICTED = {
    "evolve_scan": ["evolution", "linalg", "io", "spectral"],
    "verify_continuum": ["lax", "continuum"],
}
# counters in the last line of a traced run; lax.basis_bytes stays in the
# report only, because basis_sections is due to be deleted and every metric
# of the last line must exist at every commit
PER_LAYER_COUNTERS = [
    ("evolution.steps", "count/op"),
    ("evolution.breakdowns", "count/op"),
    ("io.bytes_written", "B/op"),
    ("io.bytes_read", "B/op"),
    ("spectral.det_evals", "count/op"),
    ("spectral.degenerate_slices", "count/op"),
    ("continuum.rk4_steps", "count/op"),
]


def percentile_with_tail(values, q=0.9, tail=10):
    """The q-th percentile, lowered until at least `tail` values lie above it.

    Returns (value, percentile). Uses the nearest rank; with 100 or more
    values this is the plain q-th percentile, and it never drops below the
    median.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(math.ceil(n / 2), min(math.ceil(q * n), n - tail))
    return ordered[rank - 1], 100.0 * rank / n


def openblas_threads():
    """(library path, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return path, int(fn())
        return path, None
    return None, None


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas_path, blas_threads = openblas_threads()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "dnahm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": blas_path,
        "blas_threads": blas_threads,
        "load": "1 worker process, 1 client, ops back to back",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_child(argv, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark ran out of time")
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=remaining, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout


def end_to_end(result, setups) -> tuple[dict, list[str]]:
    ops = result["ops"]
    times = [op["seconds"] for op in ops]
    p90, pct = percentile_with_tail(times)
    checked = result["checked"]
    failed = sum(not c["ok"] for c in checked)
    # the worst correctness value of each cycle, medianed over cycles: every
    # cycle runs every op kind once, so a kind that is always off shows, while
    # the tail of one random input does not move the run's figure
    per_cycle = {}
    for c in checked:
        if c["ok"] and c["value"] is not None and c["cycle"] >= 0:
            per_cycle[c["cycle"]] = max(per_cycle.get(c["cycle"], 0.0), c["value"])
    typical = statistics.median(per_cycle.values()) if per_cycle else None
    worst = max(per_cycle.values()) if per_cycle else None
    digits = -math.log10(max(typical, ACCURACY_FLOOR)) if typical is not None else 0.0
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (p90, "s"),
        "sites_per_s": (sum(op["sites"] for op in ops) / sum(times), "sites/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "fail_ratio": (failed / len(checked), "1"),
        "accuracy_digits": (digits, "digits"),
    }
    notes = {
        "op_p50_s": f"median of {len(times)} ops",
        "op_p90_s": f"p{pct:.1f} of {len(times)} ops",
        "setup_s": f"median of {len(setups)} fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "fail_ratio": f"{failed} of {len(checked)} checked ops",
        "accuracy_digits": (f"median over {len(per_cycle)} cycles of the cycle's worst "
                            f"correctness value {typical:.3e}; worst in the run {worst:.3e}")
                           if per_cycle else "no correctness value",
    }
    lines = [f"  {name:<16} {value:<14.6g} {unit:<8} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    return metrics, lines


def per_layer(result, workload) -> tuple[dict, list[str]]:
    trace = result["trace"]
    ops = result["ops"]
    traced = [op["seconds"] for op in ops if op["traced"]]
    plain = [op["seconds"] for op in ops if not op["traced"]]
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = {}
    lines = [f"  traced ops {len(traced)}, untraced ops {len(plain)}; "
             f"trace.overhead_ratio {overhead:.4f} (traced / untraced op_p50_s)",
             f"  {'layer / function':<40} {'calls/op':>10} {'self_s/op':>12} {'share':>8}"]
    for layer, figures in trace["layers"].items():
        metrics[f"{layer}.self_share"] = (figures["share"], "1")
        lines.append(f"  {layer:<40} {'':>10} {figures['self_s']:>12.6f} "
                     f"{figures['share']:>8.4f}")
        for qualified, fn in trace["functions"].items():
            if qualified.split(".")[0] != layer:
                continue
            if fn == "absent":
                lines.append(f"    {qualified:<38} {'absent':>10}")
            else:
                lines.append(f"    {qualified:<38} {fn['calls']:>10.2f} {fn['self_s']:>12.6f}")
    for name, unit in PER_LAYER_COUNTERS:
        if trace["counters"][name] != "absent":  # the report says absent; never 0
            metrics[name] = (trace["counters"][name], unit)
    metrics["trace.overhead_ratio"] = (overhead, "1")
    lines.append("  counters per traced op: " + ", ".join(
        f"{name} {value if value == 'absent' else round(value, 3)}"
        for name, value in trace["counters"].items()))
    steps = trace["counters"]["evolution.steps"]
    if steps:
        advance = 1.0 - trace["counters"]["evolution.breakdowns"] / steps
        lines.append(f"  evolution.advance_ratio {advance:.4f} (advanced / attempted steps)")
    else:
        lines.append("  evolution.advance_ratio n/a (no steps attempted)")
    shares = {layer: f["share"] for layer, f in trace["layers"].items() if layer != "other"}
    top = max(shares, key=shares.get)
    predicted = PREDICTED[workload]
    combined = sum(shares[layer] for layer in predicted)
    verdict = "confirmed" if top in predicted and combined >= 0.5 else "differs"
    lines.append(f"  predicted dominant layers {'+'.join(predicted)}: {combined:.1%} of op time;"
                 f" largest layer {top} {shares[top]:.1%} -> {verdict}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "dnahm" / "__init__.py").is_file():
        print(f"dnahm sources not found at {SRC}; run from a dnahm checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind: subprocess.run kills the running child and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import dnahm

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        data = WORKLOADS[args.workload].prepare(
            dnahm, work, args.seed, args.smoke, args.seconds)
        plan = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "src": str(SRC), "work": str(work), "data": data,
            "result": str(work / "result.json"),
            "spans": str(results / f"{args.workload}-spans.json"),  # the last traced run
        }
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        worker = [str(HERE / "worker.py"), "--plan", str(plan_path)]

        def setup_sample():
            return json.loads(run_child(worker + ["--setup-only"], deadline))["setup_s"]

        setups = [setup_sample() for _ in range(SETUP_BEFORE)]
        run_child(worker, deadline)
        result = json.loads((work / "result.json").read_text())
        setups += [result["setup_s"]] + [setup_sample() for _ in range(SETUP_AFTER)]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(args)
    checked = result["checked"]
    failed = sum(not c["ok"] for c in checked)
    print(f"dnahm benchmark: workload {args.workload}, seed {args.seed}, "
          f"{result['cycles']} cycles, {len(result['ops'])} timed ops, "
          f"{failed} of {len(checked)} checked ops failed")
    if args.trace:
        metrics, lines = per_layer(result, args.workload)
    else:
        metrics, lines = end_to_end(result, setups)
    print("\n".join(lines))
    for message in result["failures"][:5]:
        print(f"FAILED {message}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    (results / f"{tag}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "setups": setups, "failures": result["failures"],
         "trace": result.get("trace"), "ops": result["ops"]}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        # fail_ratio is 0 on a correct program; "failed" / "attempted" carry it
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name != "fail_ratio"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
