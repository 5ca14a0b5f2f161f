"""The workload's process: import dnahm, run one warm-up op, then the closed loop.

Started by run.py with a plan file that names the workload and its prepared
inputs. Everything before ``import dnahm`` is standard library only, so the
set-up time measured here (import plus one warm-up op) is what a fresh
process pays. With ``--setup-only`` it prints that time and exits; otherwise
it runs whole cycles of ops back to back until the ops have taken the plan's
``seconds``, checks each op's outputs between ops (outside the timed
region), and writes the per-op record as JSON.

In a traced run, odd cycles run with the span tracer installed and even
cycles without, so the tracing overhead is measured on the same inputs in
the same process.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def call(cli, argv):
    """One op: cli.main(argv) with stdout/stderr captured and exceptions caught."""
    out, err = io.StringIO(), io.StringIO()
    code, tb = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        except Exception:
            tb = traceback.format_exc()
    return code, err.getvalue(), tb


def judge(workloads, workload, dnahm, plan, work, index, outcome):
    """Check one op; returns (ok, sites, correctness value or None, message)."""
    code, stderr, tb = outcome
    if tb is not None:
        return False, 0, None, f"op {index} raised:\n{tb}"
    if "Traceback" in stderr:
        return False, 0, None, f"op {index} printed a traceback:\n{stderr}"
    try:
        sites, value = workload.check(dnahm, plan, work, index, code, stderr)
    except workloads.CheckFailed as exc:
        return False, 0, None, f"op {index}: {exc}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return False, 0, None, f"op {index}: malformed output ({exc!r})"
    return True, sites, value, ""


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    VmHWM restarts at exec; ru_maxrss on Linux also counts the parent's
    peak before the exec, so it serves only where /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    sys.path.insert(0, plan["src"])
    work = plan["work"]

    start = time.perf_counter()
    import dnahm
    from dnahm import cli
    import_s = time.perf_counter() - start

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    import tracer as tracing

    workload = workloads.WORKLOADS[plan["workload"]]
    data = plan["data"]
    warm_argv = workload.op(data, work, 0)
    start = time.perf_counter()
    warm = call(cli, warm_argv)
    setup_s = import_s + time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    ok, sites, value, message = judge(workloads, workload, dnahm, data, work, 0, warm)
    checked = [{"ok": ok, "value": value, "cycle": -1}]
    failures = [message] if not ok else []
    ops = []
    tracer = tracing.Tracer() if plan["trace"] else None
    length = workload.cycle_length(data)
    index, cycle, op_seconds = 0, 0, 0.0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        for _ in range(length):
            argv_i = workload.op(data, work, index)
            # each op starts from a collected heap, as a fresh CLI process does
            gc.collect()
            if traced:
                tracer.install()
                outcome, seconds = tracer.run_op(index, lambda: call(cli, argv_i))
                tracer.uninstall()
            else:
                begin = time.perf_counter()
                outcome = call(cli, argv_i)
                seconds = time.perf_counter() - begin
            ok, sites, value, message = judge(workloads, workload, dnahm, data, work, index,
                                              outcome)
            if not ok:
                failures.append(message)
            checked.append({"ok": ok, "value": value, "cycle": cycle})
            ops.append({"seconds": seconds, "traced": traced, "sites": sites,
                        "position": index % length})
            op_seconds += seconds
            index += 1
        cycle += 1
        if op_seconds >= plan["seconds"] and (tracer is None or cycle % 2 == 0):
            break

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb(),
        "cycles": cycle,
        "ops": ops,
        "checked": checked,
        "failures": failures,
    }
    if tracer is not None:
        traced_ops = [op for op in ops if op["traced"]]
        result["trace"] = tracer.summary(len(traced_ops), sum(op["seconds"] for op in traced_ops))
        result["trace"]["bindings"] = tracer.bindings_seen
        tracer.write_spans(plan["spans"])
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
