"""One benchmark child process: import nessolve, then make the run's calls.

Started by ``run.py`` with the BLAS thread variables already set, so they
take effect when numpy loads.  It prints ``READY`` as soon as nessolve,
numpy and scipy are imported and the ``ExperimentConfig`` is resolved (the
parent times set-up up to that line); with ``--setup-only`` it stops there.

Otherwise it makes one warm-up call, then timed calls for ``--seconds``,
each followed by ``KERNEL_RUNS`` runs of the reference kernel
(``calibrate.py``; as many run before the first timed call, after one
untimed run that touches the kernel's arrays).  It starts no call that would end
past ``--seconds``, judged by the mean call so far, but always makes
``MIN_TIMED_CALLS``.  With ``--trace 1`` one traced call follows.  It prints
one JSON line with every call.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from nessolve.experiments import ExperimentConfig, check_thresholds, \
    run_experiment  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

MIN_TIMED_CALLS = 3
# reference-kernel runs after each timed call: a run of the kernel is short
# and noisy, so the run's median takes several samples per call
KERNEL_RUNS = 2


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    return p.parse_args(argv)


def openblas_info() -> list:
    """Version and effective thread count of each OpenBLAS that numpy and
    scipy loaded (they bundle separate copies)."""
    import ctypes
    import glob

    out = []
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir,
                                                  "libscipy_openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__,
                     "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                threads = getattr(lib, "scipy_openblas_get_num_threads"
                                  + suffix, None)
                config = getattr(lib, "scipy_openblas_get_config" + suffix,
                                 None)
                if threads is None or config is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                entry["threads"] = threads()
                entry["config"] = config().decode()
                break
            out.append(entry)
    return out


def _call(cfg, error_metric: str, tracer=None) -> dict:
    """One run_experiment call, inside a root span when traced, and its
    threshold check."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            report = run_experiment(cfg)
        else:
            with tracer.span("experiments"):
                report = run_experiment(cfg)
    except Exception as exc:    # a raised run is a failed run, not a crash
        return {"wall_s": time.perf_counter() - t0, "metrics": None,
                "problems": [f"{type(exc).__name__}: {exc}"]}
    wall = time.perf_counter() - t0
    m = report["metrics"]
    return {"wall_s": wall,
            # json writes floats with repr, which keeps every bit
            "metrics": json.dumps(m, sort_keys=True),
            "solution_error": m[error_metric],
            "problems": check_thresholds(cfg.experiment, m, cfg.full_scale)}


def _timed_calls(cfg, error_metric: str, seconds: float):
    """Timed calls, each followed by runs of the reference kernel, until the
    next call would end past ``seconds``; returns (calls, kernel times)."""
    from calibrate import reference_kernel

    reference_kernel()          # first touch of its arrays, untimed
    t0 = time.perf_counter()
    kernels = [reference_kernel() for _ in range(KERNEL_RUNS)]
    calls = []
    while True:
        calls.append(_call(cfg, error_metric))
        kernels += [reference_kernel() for _ in range(KERNEL_RUNS)]
        elapsed = time.perf_counter() - t0
        step = elapsed / len(calls)
        if len(calls) >= MIN_TIMED_CALLS and elapsed + step > seconds:
            return calls, kernels


def main(argv=None) -> int:
    args = _parse(argv)
    spec = WORKLOADS[args.workload]
    cfg = ExperimentConfig(spec["experiment"], args.seed,
                           params=dict(spec["params"]))
    cfg.resolved()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    warmup = _call(cfg, spec["error_metric"])
    # the peak of one cold call, as one nes-solve command sees it, before
    # the reference kernel's arrays exist
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls, kernels = _timed_calls(cfg, spec["error_metric"], args.seconds)
    record = {"warmup": warmup, "calls": calls, "kernel_s": kernels,
              "peak_rss_mb": peak_rss_mb}

    if args.trace:
        import spans
        tracer = spans.Tracer(run_id=args.seed)
        with spans.instrumented(tracer, spans.nessolve_targets(tracer)):
            traced = _call(cfg, spec["error_metric"], tracer)
        traced["layers"] = spans.layer_metrics(tracer)
        traced["self_time_sum_s"] = sum(tracer.self_times().values())
        traced["inclusive_s"] = {name: spans.inclusive_time(tracer, name)
                                 for name in spans.LAYER_SPANS}
        if args.spans_out:
            tracer.dump(args.spans_out)
        record["traced"] = traced
    record["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
