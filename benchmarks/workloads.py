"""The benchmark's workloads: which experiment, which parameter overrides,
and which metric in ``results["metrics"]`` is the headline accuracy.

Why each one was chosen is in README.md next to this file.
"""

WORKLOADS = {
    "elliptic1d": {
        "experiment": "elliptic1d",
        "params": {},
        "error_metric": "rel_l2_error",
    },
    "semilinear2d": {
        "experiment": "semilinear2d",
        # the default 32 per dimension takes about 90 s a solve.  Seeds 1-10
        # plateau after 5 to 7 iterations at this size; the cap of 3 gives
        # every seed the same work, so wall time follows the code, not the
        # seed, and keeps a call near 6 s so a run holds several
        "params": {"n_per_dim": 20, "max_iterations": 3},
        "error_metric": "rel_l2_error",
    },
    "heat": {
        "experiment": "heat",
        # one noise path of the default three: about 1.2 s a call, so a run
        # holds enough calls for a steady median
        "params": {"n_seeds": 1},
        "error_metric": "mean_space_time_l2_error",
    },
    "allen_cahn": {
        "experiment": "allen_cahn",
        # one noise path over a sixteenth of the default time span: under
        # 1 s a call instead of 45 s, so a run holds about twenty calls,
        # each close in time to the reference kernels around it
        "params": {"n_seeds": 1, "t_final": 0.0625},
        "error_metric": "mean_space_time_l2_error",
    },
}
