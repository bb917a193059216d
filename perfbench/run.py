"""Campaign benchmark: end-to-end host time and a traced per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py                         # all four workloads
    python3 perfbench/run.py --workload lanes50_warm --seed 2010 \\
        --seconds 12 --trace 0

For one workload the command

1. scrubs every caller ``REPRO_*`` variable and gives the program private
   kernel, trace, store, bytecode and temp directories under
   ``.perfbench/`` in the checkout;
2. runs the workload's untimed preparation in its own process;
3. times set-up: fresh interpreters that import the workload's modules and
   build the lane kernel into an empty kernel cache (median of
   :data:`SETUP_SAMPLES`, untraced runs only);
4. runs the timed operation repeatedly for ``--seconds`` in one measuring
   process and checks every iteration's outputs against the pinned digest
   (seed 2010) or the run's first iteration (any other seed).

With ``--trace 1`` the measuring process alternates untraced and traced
iterations; the traced ones wrap the program's layer entry points (see
``tracer.py``) and report the per-layer split instead of the end-to-end
metrics.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: The seed the digests in ``digests.json`` are pinned for.
PINNED_SEED = 2010
#: Fresh-interpreter set-up timings per run (their median is ``setup_s``).
SETUP_SAMPLES = 3
#: Each measuring process runs at least this many iterations (traced
#: runs alternate traced and untraced ones, so need two of each).
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 4
#: Wall-clock budget of one workload's whole run, children included.
RUN_DEADLINE_S = 170.0
#: Host-probe time on the reference host (see :func:`host_probe`): gated
#: times are wall-clock seconds rescaled to a host this fast.
REFERENCE_PROBE_S = 0.060

END_TO_END_UNITS = {
    "campaign_s": "s",
    "campaign_wall_s": "s",
    "host_probe_s": "s",
    "sim_kips": "kinstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "fig8_penalty_err_pp": "pp",
}
#: End-to-end metrics in the final JSON line (the ones every workload
#: reports and that are never zero; the rest are printed above it).
GATED_END_TO_END = ("campaign_s", "setup_s", "peak_rss_mb")


sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


# --------------------------------------------------------------------------
# child roles
# --------------------------------------------------------------------------

def role_prep(args) -> int:
    """Untimed: warm the run's bytecode and kernel caches (so every set-up
    sample and the measuring process start alike), then the workload's
    own preparation."""
    from repro.cpu import lane_kernel

    lane_kernel.load()
    workload = WORKLOADS[args.workload]
    if workload.prep is not None:
        workload.prep(Path(args.work), args.seed)
    return 0


def role_setup(args) -> int:
    import importlib

    for module in WORKLOADS[args.workload].modules:
        importlib.import_module(module)
    from repro.cpu import lane_kernel

    lane_kernel.load()  # availability is judged by the measuring process
    return 0


def _environment(kernel_available: bool) -> dict:
    import numpy

    try:
        gcc = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        gcc = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": gcc,
        "c_kernel": kernel_available,
    }


def host_probe() -> float:
    """Seconds taken by a fixed, program-independent mix of interpreter
    work, small NumPy calls and array passes — the kinds of work the
    campaigns do.  Shared hosts drift in speed by tens of percent over
    minutes; probe time tracks that drift, so times divided by it compare
    across runs made at different moments."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(250_000):
        acc += (i * i) % 7
        table[i & 1023] = acc
    small = np.arange(256, dtype=np.int64)
    for _ in range(5000):
        np.add(small, 1, out=small)
        small.any()
    # In place and small, so the probe never sets the process's peak RSS.
    big = np.ones(1_000_000, dtype=np.int64)
    for _ in range(24):
        np.add(big, 1, out=big)
    return time.perf_counter() - t0


def _iteration(workload, work: Path, index: int, seed: int, tracer) -> tuple:
    """One operation in a fresh iteration directory: ``(record, outcome)``,
    with the outcome ``None`` when the operation raised."""
    iteration_dir = work / f"iteration-{index}"
    iteration_dir.mkdir()
    if workload.before is not None:
        workload.before(work, iteration_dir, seed)
    record = {"traced": tracer is not None, "failed": False, "reason": None}
    gc.collect()
    record["probe_s"] = host_probe()
    outcome = None
    try:
        if tracer is not None:
            tracer.install(index)
        try:
            t0 = time.perf_counter()
            outcome = workload.op(work, iteration_dir, seed)
            record["campaign_s"] = time.perf_counter() - t0
            record["probe_s"] = (record["probe_s"] + host_probe()) / 2
        finally:
            if tracer is not None:
                tracer.remove()
                # Keep the recorded spans out of later collections so they
                # do not slow the untraced iterations.
                gc.collect()
                gc.freeze()
        record["digest"] = outcome.digest()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        record.update(failed=True, reason="raised")
        outcome = None
    shutil.rmtree(iteration_dir, ignore_errors=True)
    return record, outcome


def role_measure(args) -> int:
    """Run the timed operation repeatedly; print one JSON record."""
    import importlib

    from repro.cpu import lane_kernel
    from tracer import COUNT_METRICS, Tracer

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    reference = pinned.get(workload.name) if args.seed == PINNED_SEED else None
    for module in workload.modules:
        importlib.import_module(module)
    kernel_available = lane_kernel.load() is not None
    tracer = Tracer() if args.trace else None

    iterations = []
    layer_runs = []
    self_test = []
    minimum = MIN_TRACED_ITERATIONS if tracer is not None else MIN_ITERATIONS
    start = time.perf_counter()
    # One untimed warm-up so that first-call costs and allocator growth,
    # which no later iteration pays, stay out of every timed iteration.
    _iteration(workload, work, -1, args.seed, None)
    longest = time.perf_counter() - start
    while True:
        i = len(iterations)
        began = time.perf_counter()
        if i >= minimum and began - start + longest > args.seconds:
            break
        traced = tracer is not None and i % 2 == 0
        record, outcome = _iteration(
            workload, work, i, args.seed, tracer if traced else None
        )
        if outcome is not None:
            if reference is None:
                reference = record["digest"]
            if record["digest"] != reference:
                record.update(failed=True, reason="digest mismatch")
            elif outcome.quarantined:
                record.update(failed=True, reason="quarantined tasks")
            elif not kernel_available:
                record.update(failed=True, reason="lane kernel unavailable")
            record["instructions"] = outcome.instructions
            record["fig8_penalty_err_pp"] = outcome.fig8_penalty_err_pp()
            if traced:
                layers = tracer.layer_metrics(i, kernel_available)
                layer_runs.append(layers)
                for metric, want in workload.expect.items():
                    value = layers[metric]
                    if (want == "zero") != (value == 0):
                        self_test.append(f"{metric}={value} (designed: {want})")
                        record.update(failed=True, reason="layer self-test")
        iterations.append(record)
        longest = max(longest, time.perf_counter() - began)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(kernel_available),
        "self_test": self_test,
    }
    if tracer is not None:
        if len(layer_runs) >= 2 and any(
            run[m] != layer_runs[0][m] for run in layer_runs[1:] for m in COUNT_METRICS
        ):
            self_test.append("per-layer counts differ between traced runs")
        result["layers"] = {
            name: statistics.median(run[name] for run in layer_runs)
            for name in (layer_runs[0] if layer_runs else {})
        }
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{workload.name}.json"
        spans_path.write_text(
            json.dumps({"workload": workload.name, "seed": args.seed,
                        "layers": layer_runs, "spans": tracer.span_records()})
        )
        result["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def _child_env(work: Path, kernel_cache: Path) -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(work / "pycache"),
        TMPDIR=str(work / "tmp"),
        REPRO_KERNEL_CACHE=str(kernel_cache),
    )
    return env


def _child(role: str, args, work: Path, deadline: float, kernel_cache: Path) -> str:
    """Run this script in ``role``; return its stdout.  The child runs in
    its own process group, killed (with anything it started) at the
    deadline."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(work, kernel_cache),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{role} exceeded the run deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"{role} exited with status {proc.returncode}")
    return out


def run_workload(args) -> dict:
    """Prep, set-up samples and the measuring process for one workload;
    returns the measuring record plus ``setup_s`` samples."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = RESULTS / f"run-{os.getpid()}-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        kernel_cache = work / "kernel"
        _child("prep", args, work, deadline, kernel_cache)
        setup = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                t0 = time.perf_counter()
                _child("setup", args, work, deadline, work / f"setup-kernel-{i}")
                setup.append(time.perf_counter() - t0)
        out = _child("measure", args, work, deadline, kernel_cache)
        record = json.loads(out.strip().splitlines()[-1])
        record["setup_samples"] = setup
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _reference_seconds(iterations: list) -> list:
    """Each iteration's wall-clock rescaled to the reference host speed
    by the host probe taken around it (see :func:`host_probe`)."""
    return [it["campaign_s"] * REFERENCE_PROBE_S / it["probe_s"] for it in iterations]


def summarize(record: dict) -> dict:
    """The final JSON object for one workload's record."""
    iterations = record["iterations"]
    attempted = len(iterations)
    failed = sum(1 for it in iterations if it["failed"])
    timed = [it for it in iterations if "campaign_s" in it]
    untraced = [it for it in timed if not it["traced"]]
    traced = [it for it in timed if it["traced"]]
    values: dict = {}
    if untraced:
        values["campaign_s"] = statistics.median(_reference_seconds(untraced))
        values["campaign_wall_s"] = statistics.median(it["campaign_s"] for it in untraced)
        values["host_probe_s"] = statistics.median(it["probe_s"] for it in untraced)
        instr = statistics.median(it.get("instructions", 0) for it in untraced)
        if instr:
            values["sim_kips"] = instr / values["campaign_wall_s"] / 1000.0
    if record["setup_samples"]:
        values["setup_s"] = statistics.median(record["setup_samples"])
    values["peak_rss_mb"] = record["peak_rss_mb"]
    values["failed_frac"] = failed / attempted if attempted else 1.0
    errs = [it["fig8_penalty_err_pp"] for it in iterations
            if it.get("fig8_penalty_err_pp") is not None]
    if errs:
        values["fig8_penalty_err_pp"] = errs[0]

    if record["trace"]:
        from tracer import LAYER_METRICS

        layers = record.get("layers") or {}
        metrics = {
            name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        overhead = (
            statistics.median(_reference_seconds(traced))
            / statistics.median(_reference_seconds(untraced)) - 1.0
            if traced and untraced else 0.0
        )
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
            for name in GATED_END_TO_END if name in values
        }
    correct = (
        attempted > 0 and failed == 0 and not record["self_test"]
        and all(name in metrics for name in (() if record["trace"] else GATED_END_TO_END))
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_values": values,
        "_untraced": untraced,
    }


def report(record: dict, summary: dict) -> None:
    """Human-readable lines for one workload (above the JSON line)."""
    name = record["workload"]
    env = record["environment"]
    print(f"== {name}  seed={record['seed']}  trace={record['trace']}  "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"gcc={env['gcc']!r} c_kernel={env['c_kernel']}")
    samples = [it["campaign_s"] for it in summary["_untraced"]]
    for metric, unit in END_TO_END_UNITS.items():
        if metric not in summary["_values"]:
            continue
        note = ""
        if metric == "campaign_s":
            note = f"  (median of {len(samples)} iterations, at reference host speed)"
        elif metric == "campaign_wall_s":
            note = f"  (min {min(samples):.4f} max {max(samples):.4f})"
        elif metric == "setup_s":
            note = f"  (median of {len(record['setup_samples'])} fresh interpreters)"
        print(f"  {metric:<22} {summary['_values'][metric]:>12.4f} {unit}{note}")
    if record["trace"]:
        for metric, entry in summary["metrics"].items():
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  spans written to {record.get('spans')}")
    for problem in record["self_test"]:
        print(f"  SELF-TEST FAILED: {problem}")
    for i, it in enumerate(record["iterations"]):
        if it["failed"]:
            print(f"  iteration {i} FAILED: {it['reason']}")


def pin_digests(record: dict) -> None:
    digests = {it.get("digest") for it in record["iterations"]}
    if record["seed"] != PINNED_SEED or len(digests) != 1 or None in digests:
        raise SystemExit("--pin needs seed 2010 and identical iteration digests")
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned[record["workload"]] = digests.pop()
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests as the seed-2010 pins")
    parser.add_argument("--role", choices=("prep", "setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.role:
        sys.path.insert(0, str(SRC))
        return {"prep": role_prep, "setup": role_setup,
                "measure": role_measure}[args.role](args)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        args.workload = name
        try:
            record = run_workload(args)
        except (ChildFailed, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        summary = summarize(record)
        report(record, summary)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"record": record, "summary": summary}, indent=1)
        )
        if args.pin:
            pin_digests(record)
        summaries[name] = summary
    if len(names) == 1:
        final = {k: v for k, v in summaries[names[0]].items() if not k.startswith("_")}
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, s in summaries.items()
                for metric, entry in s["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
