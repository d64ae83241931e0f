"""The reduced problem sizes of every experiment, shared by the pipeline
tests and the acceptance harness's rerun check, so a size is changed in
one place only."""

REDUCED = {
    "elliptic1d": {"n_modes": 128, "truncation": 1024},
    "semilinear2d": {"n_per_dim": 8, "truncation": 64, "max_iterations": 4},
    "norm_study": {"n_per_dim": 8, "truncation": 56, "measurement_grid": 33,
                   "s_values": [1.0, 2.0]},
    "heat": {"n_fem": 16, "dt": 2.0 ** -6, "refine": 2, "truncation": 64,
             "n_seeds": 1},
    "allen_cahn": {"n_fem": 16, "dt": 2.0 ** -6, "refine": 2,
                   "truncation": 64, "n_seeds": 1},
    "rate_study": {"n_modes": 32},
}
