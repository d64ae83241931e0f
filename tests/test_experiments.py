"""Tests for the experiment pipelines, their artifacts, and the CLI.

These use deliberately reduced problem sizes; the full benchmark-scale
runs live in test_acceptance.py.
"""

import csv
import json
import tracemalloc

import numpy as np
import pytest
import yaml

from nessolve import noise, reference
from nessolve.cli import build_parser, main
from nessolve.errors import ConfigError, StageError
from nessolve.experiments import DEFAULTS, EXPERIMENTS, ExperimentConfig, \
    _sine_series_at_nodes, _spde_initial, _spde_paths, check_thresholds, \
    run_experiment
from nessolve.spaces import build_test_space, default_n_quad
from nessolve.spde import tent_sine_cross_gram

SMALL = {
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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("poisson3d", 0)
    with pytest.raises(ValueError):
        ExperimentConfig("elliptic1d", None)
    with pytest.raises(ValueError):
        ExperimentConfig("elliptic1d", 0, params={"n_modez": 4})
    cfg = ExperimentConfig("elliptic1d", 3, params={"n_modes": 16})
    p = cfg.resolved()
    assert p["n_modes"] == 16 and p["seed"] == 3
    assert p["truncation"] == DEFAULTS["elliptic1d"]["truncation"]
    # every default, given as an override, meets its parameter's rule
    for experiment, defaults in DEFAULTS.items():
        ExperimentConfig(experiment, 0, params=dict(defaults))


@pytest.mark.parametrize("experiment, key, value", [
    ("semilinear2d", "max_iterations", 0),
    ("norm_study", "s_values", []),
    ("heat", "n_seeds", 0),
    ("heat", "refine", 0),
    ("elliptic1d", "n_modes", 1.5),
])
def test_out_of_range_parameter_is_refused_before_any_stage(
        experiment, key, value):
    # each of these once failed inside or outside a stage with an untyped
    # error (or wrote a NaN): the config now refuses it, naming the key,
    # the value and the rule, before run_experiment can start a stage
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(experiment, 7, params={key: value})
    err = info.value
    assert (err.key, err.value) == (key, value)
    assert err.rule and all(part in str(err)
                            for part in (key, repr(value), err.rule))


def test_elliptic_small_run_and_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig("elliptic1d", 7, out_dir=str(out),
                           params=SMALL["elliptic1d"])
    report = run_experiment(cfg)
    m = report["metrics"]
    assert m["rel_l2_error"] < 0.05
    assert m["error_ratio_pointwise_over_weak"] > 1.0
    assert report["config"]["n_modes"] == 128
    assert "numpy" in report["versions"]

    with open(out / "results.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["metrics"]["rel_l2_error"] == m["rel_l2_error"]
    with open(out / "errors.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter", "value", "metric", "error"]
    assert len(rows) >= 3
    assert float(rows[1][3]) == m["rel_l2_error"]
    with open(out / "elliptic1d_fields.csv") as fh:
        frows = list(csv.reader(fh))
    assert frows[0] == ["x", "truth", "estimate", "error"]
    data = np.array([[float(v) for v in r] for r in frows[1:]])
    assert np.allclose(data[:, 3], data[:, 2] - data[:, 1], atol=1e-12)


def _dense_sine_sum(coeffs, n, chunk=2048):
    """sum_k c_k sqrt(2) sin(pi k x_j) at x_j = j/(n+1), term by term."""
    x = np.arange(1, n + 1) / (n + 1.0)
    out = np.zeros(n)
    for lo in range(0, coeffs.shape[0], chunk):
        k = np.arange(lo + 1, min(lo + chunk, coeffs.shape[0]) + 1)
        out += np.sqrt(2.0) * np.sin(np.pi * x[:, None] * k[None, :]) \
            @ coeffs[lo:lo + k.shape[0]]
    return out


@pytest.mark.parametrize("n, n_coeffs, tol", [(1024, 2 ** 14, 1e-11),
                                              (64, 64, 1e-13),
                                              (64, 40, 1e-13)])
def test_folded_forcing_matches_dense_sine_sum(n, n_coeffs, tol):
    c = np.random.default_rng(5).standard_normal(n_coeffs)
    got = _sine_series_at_nodes(c, build_test_space("sine1d", n))
    want = _dense_sine_sum(c, n)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def test_folded_forcing_aliasing_rules():
    n = 64
    period = 2 * (n + 1)
    space = build_test_space("sine1d", n)
    c = np.zeros(5 * period)
    # sin(pi k x_j) vanishes at every node for k = 0 or n+1 (mod period)
    c[period - 1::period] = 1.0
    c[n::period] = 1.0
    assert np.max(np.abs(_sine_series_at_nodes(c, space))) <= 1e-12
    # k = period - 1 aliases to minus mode 1
    c = np.zeros(period - 1)
    c[-1] = 1.0
    mode1 = np.sqrt(2.0) * np.sin(np.pi * np.arange(1, n + 1) / (n + 1.0))
    assert np.max(np.abs(_sine_series_at_nodes(c, space) + mode1)) <= 1e-13


def test_stop_reason_reaches_the_metrics():
    m = run_experiment(ExperimentConfig(
        "semilinear2d", 3,
        params=dict(SMALL["semilinear2d"], max_iterations=1)))["metrics"]
    assert m["stop_reason"] == "max_iterations"
    m = run_experiment(ExperimentConfig(
        "elliptic1d", 3, params=SMALL["elliptic1d"]))["metrics"]
    assert m["stop_reason"] == "linear"
    m = run_experiment(ExperimentConfig(
        "norm_study", 3, params=SMALL["norm_study"]))["metrics"]
    assert m["stop_reasons"] == {"1.0": "loss_plateau",
                                 "2.0": "loss_plateau"}


def test_rerun_is_byte_identical(tmp_path):
    names = ["results.json", "errors.csv", "heat_fields.csv"]
    contents = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_experiment(ExperimentConfig("heat", 5, out_dir=str(out),
                                        params=SMALL["heat"]))
        contents.append([open(out / n, "rb").read() for n in names])
    assert contents[0] == contents[1]


def test_stage_error_reporting():
    cfg = ExperimentConfig("heat", 0, params=dict(
        SMALL["heat"], dt=0.3, t_final=1.0))
    with pytest.raises(RuntimeError, match="stage"):
        run_experiment(cfg)


def test_stage_error_keeps_the_cause():
    # n_fem**2 * dt = 8 breaks the heat stepper's CFL bound of 5
    cfg = ExperimentConfig("heat", 0, params=dict(
        SMALL["heat"], dt=2.0 ** -5, t_final=2.0 ** -4))
    with pytest.raises(StageError) as info:
        run_experiment(cfg)
    err = info.value
    assert err.stage == "kernel_integration"
    assert type(err.cause) is ValueError and "CFL" in str(err.cause)
    assert err.__cause__ is err.cause
    assert "kernel_integration" in str(err)


def test_check_thresholds():
    good = {"rel_l2_error": 5e-4, "error_ratio_pointwise_over_weak": 100.0}
    assert check_thresholds("elliptic1d", good) == []
    bad = {"rel_l2_error": 5e-3, "error_ratio_pointwise_over_weak": 10.0}
    assert len(check_thresholds("elliptic1d", bad)) == 2
    assert check_thresholds("elliptic1d", good, full_scale=True) == []
    assert len(check_thresholds(
        "elliptic1d", dict(good, rel_l2_error=8e-4), full_scale=True)) == 1
    assert check_thresholds("norm_study", {
        "argmin_s": 1.1, "errors_by_s": {"1.1": 0.1, "2.0": 0.2}}) == []
    assert len(check_thresholds("norm_study", {
        "argmin_s": 2.0, "errors_by_s": {"1.1": 0.3, "2.0": 0.2}})) == 2
    assert check_thresholds("rate_study",
                            {"slope": 2.0, "r_squared": 0.99}) == []


def test_cli_parser():
    p = build_parser()
    args = p.parse_args(["elliptic1d", "--seed", "3", "--check"])
    assert args.experiment == "elliptic1d"
    assert args.seed == 3 and args.check
    with pytest.raises(SystemExit):
        p.parse_args(["unknown_experiment"])


def test_cli_requires_seed(capsys):
    assert main(["rate_study"]) == 1
    assert "seed" in capsys.readouterr().err


def test_cli_rejects_non_mapping_config(tmp_path, capsys):
    f = tmp_path / "cfg.yaml"
    f.write_text("- a\n- b\n")
    assert main(["rate_study", "--config", str(f)]) == 1


def test_cli_run_with_config(tmp_path, capsys):
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump(dict(SMALL["rate_study"], seed=7,
                        out=str(tmp_path / "out")), f.open("w"))
    code = main(["rate_study", "--config", str(f), "--check"])
    out = capsys.readouterr().out
    metrics = json.loads(out)
    assert code == 0
    assert 1.7 <= metrics["slope"] <= 2.3
    assert (tmp_path / "out" / "results.json").exists()


def test_cli_flags_win_over_the_same_keys_in_the_config(tmp_path, capsys):
    # seed, out and full_scale set in the file and by a flag: the flags win
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump(dict(SMALL["rate_study"], seed=3, full_scale=False,
                        out=str(tmp_path / "file_out")), f.open("w"))
    out = tmp_path / "flag_out"
    code = main(["rate_study", "--config", str(f), "--seed", "7",
                 "--out", str(out), "--full-scale"])
    capsys.readouterr()
    assert code == 0
    config = json.loads((out / "results.json").read_text())["config"]
    assert config["seed"] == 7 and config["full_scale"] is True
    assert not (tmp_path / "file_out").exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_cli_rejects_a_full_scale_that_is_not_a_boolean(tmp_path, value):
    # a quoted "false" used to mean true, through bool()
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump(dict(SMALL["rate_study"], seed=7, full_scale=value),
                   f.open("w"))
    with pytest.raises(ValueError, match=f"full_scale.*{value!r}"):
        main(["rate_study", "--config", str(f)])


def test_cli_check_flags_violations(tmp_path, capsys):
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump({"n_modes": 64, "truncation": 256, "gamma": 1e-2},
                   f.open("w"))
    code = main(["elliptic1d", "--config", str(f), "--seed", "0", "--check"])
    assert code == 2
    assert "THRESHOLD VIOLATION" in capsys.readouterr().err


def test_all_experiments_have_defaults():
    assert set(EXPERIMENTS) == set(DEFAULTS)
    assert set(SMALL) == set(EXPERIMENTS)


@pytest.mark.parametrize("family", ["heat", "allen_cahn"])
def test_streamed_spde_paths_match_the_materialized_path(family):
    # the one-pass stream gives the coarse increments and reference values
    # of the full fine path bit for bit
    p = ExperimentConfig(family, 5, params=SMALL[family]).resolved()
    p["refine"] = 4
    dt, refine, trunc = p["dt"], p["refine"], p["truncation"]
    n_steps = int(round(p["t_final"] / dt))
    n_quad = default_n_quad(build_test_space("fem1d", p["n_fem"]))
    _, init = _spde_initial(n_quad, trunc)
    coarse, ref = _spde_paths(p, family, 5, init, n_quad)

    fine = noise.build_path(5, dt / refine, n_steps * refine, trunc)
    want, _ = reference.spectral_galerkin_spde(
        family, p["nu"], p["sigma"], dt / refine, trunc, p["t_final"],
        [fine.records], initial=init, store_every=refine, n_grid=n_quad)
    # the kernel run's increments are the coarse sums measured on tents
    cross = tent_sine_cross_gram(coarse.space, trunc)
    assert np.array_equal(
        coarse.records,
        noise.aggregate_increments(fine, refine).records @ cross.T)
    assert coarse.space.kind == "fem1d" and coarse.space.size == p["n_fem"]
    assert coarse.dt == dt and coarse.n_steps == n_steps
    assert np.array_equal(ref.values, want.values)


def test_heat_pipeline_never_holds_the_fine_path():
    params = {"t_final": 0.25, "n_seeds": 1}
    p = ExperimentConfig("heat", 7, params=params).resolved()
    fine_bytes = 8 * int(round(p["t_final"] / p["dt"])) * p["refine"] * \
        p["truncation"]
    assert fine_bytes >= 32 * 2 ** 20
    tracemalloc.start()
    try:
        run_experiment(ExperimentConfig("heat", 7, params=params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fine_bytes / 2, f"peak {peak / 2 ** 20:.1f} MiB"


def test_heat_coarse_path_is_measured_on_the_tents_as_it_streams():
    # at default heat size the coarse path in sine modes would be a 16 MiB
    # (n_steps, L) array; it is measured on the tents a few rows at a time
    # instead, with the bits of the one product over the whole path
    p = ExperimentConfig("heat", 7).resolved()
    dt, refine, trunc = p["dt"], p["refine"], p["truncation"]
    n_steps = int(round(p["t_final"] / dt))
    n_quad = default_n_quad(build_test_space("fem1d", p["n_fem"]))
    _, init = _spde_initial(n_quad, trunc)
    tracemalloc.start()
    try:
        coarse, _ = _spde_paths(p, "heat", 7, init, n_quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_steps * trunc, f"peak {peak / 2 ** 20:.1f} MiB"
    sums = noise.aggregate_increments(
        noise.build_path(7, dt / refine, n_steps * refine, trunc), refine)
    cross = tent_sine_cross_gram(coarse.space, trunc)
    assert np.array_equal(coarse.records, sums.records @ cross.T)


def test_spde_seeds_do_not_hold_each_others_data():
    # each seed's reference, trajectory and noise path are dropped before
    # the next seed's are built, so the peak does not grow with seeds
    peaks = []
    for n_seeds in (1, 3):
        params = dict(SMALL["heat"], truncation=512, n_seeds=n_seeds)
        tracemalloc.start()
        try:
            run_experiment(ExperimentConfig("heat", 7, params=params))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], \
        f"peaks {[f'{b / 2 ** 20:.2f} MiB' for b in peaks]}"
