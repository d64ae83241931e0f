"""nessolve benchmark: seeded pipeline workloads through ``run_experiment``.

    python3 benchmarks/run.py --workload heat --seed 7 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 11 --trace 1 \\
        --out benchmarks/results/seed11.json

A run of one workload is a closed loop with one caller.  Set-up-only
children first time set-up; then one fresh child (``worker.py``) makes a
warm-up call and timed ``run_experiment`` calls, one after another, for
``--seconds``.  The BLAS thread variables are set before a child imports
numpy.  After each timed call the child runs a fixed reference kernel
(``calibrate.py``), and the median wall time is also reported as a
multiple of the kernel's mean time in the same run (``wall_rel``), which
cancels the drift in the speed of a shared host.  Every call is checked: its metrics
must pass ``check_thresholds`` and be bit-identical to the warm-up call's.

With ``--trace 1`` the same child makes one more call with wrappers around
every layer (``spans.py``) and reports per-layer self times and counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
numbers for people, plus the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# one BLAS thread: on a shared 2-core machine two threads made heat slower
# and its run-to-run spread wider
BLAS_THREADS = 1
# set-up-only children, plus the timed child's own set-up
SETUP_PROBES = 4
# a run of one workload must end within 180 s
RUN_BUDGET_S = 170.0

COUNT_SUFFIXES = ("_calls", ".calls", ".steps", ".iterations")


def _unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith(("_frac", "_rel")):
        return "1"
    if name.endswith("_mb"):
        return "MB"
    return "s"


def _spawn(worker_args, env, deadline):
    """Run one worker; returns (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + worker_args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(worker_args)} exited with "
                           f"code {code}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# where each workload's traced time is predicted to go:
# (claim, test(layer metrics, inclusive times by span name))
PREDICTIONS = {
    "elliptic1d": ("LS solve plus assembly take most of the run",
                   lambda m, inc: (m["gauss_newton.ls_solve_s"] +
                                   m["kernels.assemble_s"]) /
                   m["trace.wall_s"] > 0.5),
    "semilinear2d": ("assembly takes the largest self time",
                     lambda m, inc: _largest(m) == "kernels.assemble_s"),
    "heat": ("noise takes the largest self time",
             lambda m, inc: _largest(m) == "noise.busy_s"),
    "allen_cahn": ("the reference, with the DSTs it calls, takes most of "
                   "the run",
                   lambda m, inc: inc["reference.busy"] /
                   m["trace.wall_s"] > 0.5),
}


def _largest(layers: dict) -> str:
    times = {k: v for k, v in layers.items()
             if k.endswith("_s") and not k.startswith("trace.")}
    return max(times, key=times.get)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spans_out: str = None) -> dict:
    """Set-up probes, then one child that makes a warm-up call, timed calls
    for ``seconds`` and, when traced, one traced call.  Returns the
    summary."""
    deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    base = ["--workload", name, "--seed", str(seed)]

    setups = [_spawn(base + ["--setup-only"], env, deadline)[0]
              for _ in range(SETUP_PROBES)]
    extra = ["--seconds", repr(seconds), "--trace", str(trace)]
    if trace and spans_out:
        extra += ["--spans-out", spans_out]
    setup, child = _spawn(base + extra, env, deadline)
    setups.append(setup)

    # every call must pass its thresholds and repeat the bits of the
    # warm-up call
    first = child["warmup"]["metrics"]
    checked = [child["warmup"]] + child["calls"]
    if trace:
        checked.append(child["traced"])
    errors, failed = [], 0
    for rec in checked:
        problems = list(rec["problems"])
        if rec["metrics"] is None or rec["metrics"] != first:
            problems.append("metrics differ from the warm-up call")
        failed += bool(problems)
        errors.extend(problems)
    attempted = len(checked)

    calls, kernels = child["calls"], child["kernel_s"]
    walls = [rec["wall_s"] for rec in calls]
    q1, med, q3 = _quartiles(walls)
    # the kernel's mean over the run stands for the host's mean speed
    # during it; its median lets a few of the short runs sway it more
    kernel = statistics.fmean(kernels)
    summary = {
        "workload": name, "seed": seed, "seconds": seconds,
        "attempted": attempted, "failed": failed, "errors": errors,
        "wall_s": {"median": med, "q1": q1, "q3": q3, "n": len(walls),
                   "samples": walls,
                   "warmup": child["warmup"]["wall_s"]},
        "wall_rel": {"median": med / kernel, "q1": q1 / kernel,
                     "q3": q3 / kernel, "n": len(walls)},
        "kernel_s": {"mean": kernel, "samples": kernels},
        "setup_s": {"median": statistics.median(setups), "samples": setups},
        "peak_rss_mb": child["peak_rss_mb"],
        "solution_error": child["warmup"].get("solution_error"),
        "failed_frac": failed / attempted,
        "env": child["env"],
    }
    correct = failed == 0
    if trace:
        traced = child["traced"]
        wall = traced["wall_s"]
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = wall - med
        sum_ok = abs(traced["self_time_sum_s"] - wall) <= 1e-3 * wall
        correct = correct and sum_ok
        claim, test = PREDICTIONS[name]
        summary.update({
            "layers": layers, "inclusive_s": traced["inclusive_s"],
            "self_time_sum_s": traced["self_time_sum_s"],
            "self_time_sum_ok": sum_ok,
            "prediction": {"claim": claim,
                           "holds": bool(test(layers,
                                              traced["inclusive_s"]))},
        })
    summary["correct"] = correct
    return summary


def _print_summary(s: dict):
    env = s["env"]
    blas = ", ".join(f"{b['package']} {b.get('config', b['library'])} "
                     f"threads={b.get('threads', '?')}"
                     for b in env["openblas"])
    w = s["wall_s"]
    print(f"== {s['workload']} seed={s['seed']} seconds={s['seconds']}")
    print(f"   python {env['python']}  numpy {env['numpy']}  scipy "
          f"{env['scipy']}  nproc {env['nproc']}  {blas}")
    r = s["wall_rel"]
    print(f"   wall_s          median {w['median']:.4f} s  q1 {w['q1']:.4f}"
          f"  q3 {w['q3']:.4f}  n={w['n']}  (warm-up {w['warmup']:.4f})")
    print(f"   wall_rel        median {r['median']:.4f}  q1 {r['q1']:.4f}"
          f"  q3 {r['q3']:.4f}  n={r['n']}  (reference kernel mean "
          f"{s['kernel_s']['mean']:.4f} s, n={len(s['kernel_s']['samples'])})")
    print(f"   setup_s         median {s['setup_s']['median']:.4f} s  "
          f"n={len(s['setup_s']['samples'])}")
    print(f"   peak_rss_mb     {s['peak_rss_mb']:.1f} MB")
    print(f"   solution_error  {s['solution_error']!r} (1)")
    print(f"   failed_frac     {s['failed_frac']:g} (1)  "
          f"[{s['failed']}/{s['attempted']}]")
    for err in s["errors"]:
        print(f"   FAILED: {err}")
    if "layers" in s:
        wall = s["layers"]["trace.wall_s"]
        print(f"   traced wall {wall:.4f} s, overhead "
              f"{s['layers']['trace.overhead_s']:+.4f} s, self times sum "
              f"to {s['self_time_sum_s']:.4f} s "
              f"({'ok' if s['self_time_sum_ok'] else 'MISMATCH'})")
        for k, v in sorted(s["layers"].items()):
            share = f"  {100 * v / wall:5.1f}%" if _unit(k) == "s" else ""
            print(f"   {k:30s} {v:14.6g} {_unit(k):5s}{share}")
        p = s["prediction"]
        print(f"   prediction: {p['claim']}: "
              f"{'holds' if p['holds'] else 'MISMATCH'}")


def _metrics(s: dict, trace: int, prefix: str = "") -> dict:
    if trace:
        values = s["layers"]
    else:
        values = {"wall_rel": s["wall_rel"]["median"],
                  "setup_s": s["setup_s"]["median"],
                  "peak_rss_mb": s["peak_rss_mb"]}
    return {prefix + k: {"value": v, "unit": _unit(k)}
            for k, v in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every sample and the environment "
                                 "here as JSON")
    p.add_argument("--spans-dir", help="write each traced run's spans here, "
                                       "one JSON object a line")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nessolve",
                                       "__init__.py")):
        print(f"no nessolve sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        spans_out = None
        if args.trace and args.spans_dir:
            os.makedirs(args.spans_dir, exist_ok=True)
            spans_out = os.path.join(args.spans_dir,
                                     f"{name}-seed{args.seed}.jsonl")
        s = run_workload(name, args.seed, args.seconds, args.trace,
                         spans_out)
        _print_summary(s)
        summaries.append(s)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": summaries}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")

    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        metrics.update(_metrics(s, args.trace, prefix))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
