"""Tests for the experiment pipelines, their artifacts, and the CLI.

These use deliberately reduced problem sizes; the full benchmark-scale
runs live in test_acceptance.py.
"""

import csv
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nessolve import experiments, noise, reference
from nessolve.cli import build_parser, main
from nessolve.errors import ConfigError, StageError
from nessolve.experiments import DEFAULTS, EXPERIMENTS, ExperimentConfig, \
    _sine_series_at_nodes, _spde_initial, _spde_paths, check_thresholds, \
    run_experiment
from nessolve.spaces import build_test_space, default_n_quad
from nessolve.spde import tent_sine_cross_gram

from reduced_sizes import REDUCED


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
    ("norm_study", "s_values", [1.0, 1.1, 2.0, 1.1]),
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


# every parameter by the kind of value its rule allows; a key of DEFAULTS
# missing here fails test_every_parameter_is_checked_before_any_stage
_COUNTS = {"n_modes", "n_modes_full", "n_per_dim", "n_per_dim_full",
           "truncation", "max_iterations", "n_fem", "refine", "n_seeds"}
_POSITIVE = {"nu", "gamma", "gamma_pointwise", "gamma_reference",
             "length_scale", "dt", "t_final"}
_NONNEGATIVE = {"eps", "sigma", "s", "forcing_decay"}
_NOT_A_NUMBER = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(1, 9), max_size=2))
_GOOD_REALS = st.floats(1e-3, 1e3)
_NOT_A_REAL = st.one_of(st.booleans(), st.text(max_size=3), st.none(),
                        st.sampled_from([math.nan, math.inf, -math.inf]))


def _bad_values(key):
    """Values that break the rule of ``key``: of the wrong type, non-finite,
    a float where an integer is required, or out of range."""
    if key in _COUNTS:
        return st.one_of(_NOT_A_NUMBER, st.integers(max_value=0),
                         st.floats(allow_nan=False))
    if key == "measurement_grid":
        return st.one_of(_NOT_A_NUMBER, st.integers(max_value=-1),
                         st.floats(allow_nan=False))
    if key in _POSITIVE:
        return st.one_of(_NOT_A_NUMBER, st.integers(max_value=0),
                         st.floats(max_value=0.0))
    if key in _NONNEGATIVE:
        return st.one_of(_NOT_A_NUMBER, st.integers(max_value=-1),
                         st.floats(max_value=-1e-300))
    if key == "s_values":
        # a negative exponent is refused by its solve stage, not here
        return st.one_of(
            st.just([]), st.booleans(), st.text(max_size=3), _GOOD_REALS,
            st.builds(lambda good, bad, at: good[:at] + [bad] + good[at:],
                      st.lists(_GOOD_REALS, max_size=4), _NOT_A_REAL,
                      st.integers(0, 4)))
    if key == "gamma_values":
        return st.one_of(
            st.lists(_GOOD_REALS, max_size=2), st.booleans(),
            st.text(max_size=3), _GOOD_REALS,
            st.builds(lambda good, bad, at: good[:at] + [bad] + good[at:],
                      st.lists(_GOOD_REALS, min_size=2, max_size=4),
                      st.one_of(_NOT_A_REAL, st.floats(max_value=0.0)),
                      st.integers(0, 4)))
    raise KeyError(key)


_ALL_KEYS = sorted({key for d in DEFAULTS.values() for key in d})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_parameter_is_checked_before_any_stage(data):
    # each key of every experiment, with a value that breaks its rule,
    # raises ConfigError naming the key and the value; no stage is entered
    key = data.draw(st.sampled_from(_ALL_KEYS), label="key")
    experiment = data.draw(st.sampled_from(
        [e for e in EXPERIMENTS if key in DEFAULTS[e]]), label="experiment")
    value = data.draw(_bad_values(key), label="value")

    def no_stage(name):
        raise AssertionError(f"stage {name!r} entered with {key} = {value!r}")

    with mock.patch.object(experiments, "_stage", no_stage):
        with pytest.raises(ConfigError) as info:
            run_experiment(ExperimentConfig(experiment, 7,
                                            params={key: value}))
    assert info.value.key == key
    assert info.value.value is value


@pytest.mark.parametrize("experiment, seed, n_seeds", [
    ("rate_study", 1.5, None), ("rate_study", True, None),
    ("rate_study", "7", None), ("rate_study", -1, None),
    ("elliptic1d", 2 ** 64, None), ("heat", 2 ** 64 - 2, None),
    ("allen_cahn", 2 ** 64 - 5, 6), ("semilinear2d", np.float64(7.0), None),
])
def test_seed_outside_the_key_range_is_refused(experiment, seed, n_seeds):
    # 1.5 and True ran as seed 1; -1 and 2^64 failed only in a stage; the
    # SPDE runs also draw from seed + 1 .. seed + n_seeds - 1
    params = {} if n_seeds is None else {"n_seeds": n_seeds}
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(experiment, seed, params=params)
    assert (info.value.key, info.value.value) == ("seed", seed)
    # the largest seeds whose streams all exist are taken
    ExperimentConfig("rate_study", 2 ** 64 - 1)
    ExperimentConfig("heat", 2 ** 64 - 3)
    ExperimentConfig("allen_cahn", 2 ** 64 - 6, params={"n_seeds": 6})
    ExperimentConfig("heat", 0)


def _refused_by_main(capsys, argv, key):
    """main(argv) returns 1 with one line on stderr that names ``key``."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("nes-solve: ") and err.count("\n") == 1, err
    assert key in err, err


def test_cli_refuses_a_seed_that_is_not_an_integer(tmp_path, capsys):
    # the CLI took int() of the config file's seed, so 1.5 ran as 1
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump(dict(REDUCED["rate_study"], seed=1.5), f.open("w"))
    _refused_by_main(capsys, ["rate_study", "--config", str(f)], "'seed'")


@pytest.mark.parametrize("experiment", ["norm_study", "heat", "allen_cahn",
                                        "rate_study"])
def test_full_scale_is_refused_without_full_scale_sizes(tmp_path, capsys,
                                                        experiment):
    # these ran their default sizes while writing "full_scale": true
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(experiment, 7, full_scale=True)
    assert info.value.key == "full_scale"
    _refused_by_main(capsys, [experiment, "--seed", "7", "--full-scale"],
                     "'full_scale'")
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump({"seed": 7, "full_scale": True}, f.open("w"))
    _refused_by_main(capsys, [experiment, "--config", str(f)],
                     "'full_scale'")
    ExperimentConfig(experiment, 7, full_scale=False)
    with pytest.raises(ConfigError, match="full_scale"):
        ExperimentConfig("elliptic1d", 7, full_scale="false")


def test_elliptic_small_run_and_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig("elliptic1d", 7, out_dir=str(out),
                           params=REDUCED["elliptic1d"])
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
        params=dict(REDUCED["semilinear2d"], max_iterations=1)))["metrics"]
    assert m["stop_reason"] == "max_iterations"
    m = run_experiment(ExperimentConfig(
        "elliptic1d", 3, params=REDUCED["elliptic1d"]))["metrics"]
    assert m["stop_reason"] == "linear"
    m = run_experiment(ExperimentConfig(
        "norm_study", 3, params=REDUCED["norm_study"]))["metrics"]
    assert m["stop_reasons"] == {"1.0": "converged", "2.0": "converged"}


def test_rerun_is_byte_identical(tmp_path):
    names = ["results.json", "errors.csv", "heat_fields.csv"]
    contents = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_experiment(ExperimentConfig("heat", 5, out_dir=str(out),
                                        params=REDUCED["heat"]))
        contents.append([open(out / n, "rb").read() for n in names])
    assert contents[0] == contents[1]


def test_stage_error_reporting():
    cfg = ExperimentConfig("heat", 0, params=dict(
        REDUCED["heat"], dt=0.3, t_final=1.0))
    with pytest.raises(RuntimeError, match="stage"):
        run_experiment(cfg)


def test_stage_error_keeps_the_cause():
    # n_fem**2 * dt = 8 breaks the heat stepper's CFL bound of 5
    cfg = ExperimentConfig("heat", 0, params=dict(
        REDUCED["heat"], dt=2.0 ** -5, t_final=2.0 ** -4))
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
    # an exponent the run did not solve is a failure, not a KeyError
    assert check_thresholds("norm_study", {
        "argmin_s": 1.1, "errors_by_s": {"1.0": 0.2, "1.1": 0.1}}) == \
        ["no error at s = 2.0"]
    assert len(check_thresholds("norm_study", {
        "argmin_s": 2.0, "errors_by_s": {"2.0": 0.2}})) == 2
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
    yaml.safe_dump(dict(REDUCED["rate_study"], seed=7,
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
    yaml.safe_dump(dict(REDUCED["elliptic1d"], n_modes_full=256, seed=3,
                        full_scale=False, out=str(tmp_path / "file_out")),
                   f.open("w"))
    out = tmp_path / "flag_out"
    code = main(["elliptic1d", "--config", str(f), "--seed", "7",
                 "--out", str(out), "--full-scale"])
    capsys.readouterr()
    assert code == 0
    config = json.loads((out / "results.json").read_text())["config"]
    assert config["seed"] == 7 and config["full_scale"] is True
    assert not (tmp_path / "file_out").exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_cli_rejects_a_full_scale_that_is_not_a_boolean(tmp_path, capsys,
                                                        value):
    # a quoted "false" used to mean true, through bool()
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump(dict(REDUCED["rate_study"], seed=7, full_scale=value),
                   f.open("w"))
    _refused_by_main(capsys, ["rate_study", "--config", str(f)],
                     f"'full_scale' = {value!r}")


@pytest.mark.parametrize("params, key", [
    ({"n_modes": 0}, "'n_modes' = 0"),
    ({"n_modez": 4}, "n_modez"),
    ({"s_values": [1.0, 1.1, 2.0, 1.1]}, "'s_values'"),
], ids=["out_of_range", "unknown_key", "repeated_exponent"])
def test_cli_reports_a_bad_setting_on_one_line(tmp_path, capsys, params,
                                               key):
    # an out-of-range value, an unknown key or a repeated exponent is
    # reported on stderr with exit code 1, not as a traceback; an error
    # inside the run still propagates
    experiment = "norm_study" if "s_values" in params else "rate_study"
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump(dict(params, seed=7), f.open("w"))
    _refused_by_main(capsys, [experiment, "--config", str(f)], key)
    with mock.patch("nessolve.cli.run_experiment",
                    side_effect=ValueError("inside the run")):
        with pytest.raises(ValueError, match="inside the run"):
            main(["rate_study", "--seed", "7"])


def test_norm_study_keys_its_results_by_float_exponents(tmp_path, capsys):
    # integer exponents from YAML were keyed "1" and "2", and --check then
    # raised KeyError: '2.0'
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump(dict(REDUCED["norm_study"], s_values=[1, 1.1, 2], seed=7,
                        out=str(tmp_path / "out")), f.open("w"))
    code = main(["norm_study", "--config", str(f), "--check"])
    capsys.readouterr()
    assert code in (0, 2)
    m = json.loads((tmp_path / "out" / "results.json").read_text())["metrics"]
    assert list(m["errors_by_s"]) == list(m["stop_reasons"]) == \
        ["1.0", "1.1", "2.0"]
    assert m["argmin_s"] in (1.0, 1.1, 2.0)
    rows = list(csv.reader((tmp_path / "out" / "errors.csv").open()))
    assert [r[1] for r in rows[1:]] == ["1.0", "1.1", "2.0"]


def test_cli_check_flags_violations(tmp_path, capsys):
    f = tmp_path / "cfg.yaml"
    yaml.safe_dump({"n_modes": 64, "truncation": 256, "gamma": 1e-2},
                   f.open("w"))
    code = main(["elliptic1d", "--config", str(f), "--seed", "0", "--check"])
    assert code == 2
    assert "THRESHOLD VIOLATION" in capsys.readouterr().err


# one valid change of every key from its value in REDUCED or DEFAULTS; the
# *_full keys set the sizes of a full-scale run only, which REDUCED is not
_SCALE_ONLY = {"n_modes_full", "n_per_dim_full"}
_CHANGED = {
    "elliptic1d": {"nu": 0.02, "n_modes": 64, "truncation": 2048,
                   "gamma": 1e-10, "gamma_pointwise": 1e-6,
                   "length_scale": 0.3},
    "semilinear2d": {"nu": 0.2, "eps": 0.3, "n_per_dim": 6,
                     "truncation": 32, "gamma": 1e-6, "length_scale": 0.3,
                     "max_iterations": 1, "measurement_grid": 33},
    "norm_study": {"nu": 0.2, "eps": 0.15, "n_per_dim": 6, "truncation": 40,
                   "gamma": 1e-3, "length_scale": 0.3, "max_iterations": 2,
                   "s_values": [1.0, 1.5], "measurement_grid": 65},
    # n_fem 20 would break the CFL bound at dt = 2^-6
    "heat": {"nu": 0.05, "sigma": 0.2, "t_final": 0.5, "dt": 2.0 ** -7,
             "n_fem": 12, "refine": 3, "truncation": 128, "gamma": 1e-8,
             "length_scale": 0.1, "n_seeds": 2},
    "allen_cahn": {"nu": 1e-3, "sigma": 0.02, "t_final": 0.5,
                   "dt": 2.0 ** -7, "n_fem": 12, "refine": 3,
                   "truncation": 128, "gamma": 1e-8, "length_scale": 0.1,
                   "n_seeds": 2},
    "rate_study": {"nu": 2.0, "n_modes": 16,
                   "gamma_values": [1e-2, 1e-3, 1e-4, 1e-5],
                   "gamma_reference": 1e-11, "length_scale": 0.3, "s": 0.5,
                   "forcing_decay": 1.5},
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_key_changes_the_metrics(experiment):
    # no setting is silently ignored: at the REDUCED sizes, changing any one
    # key of DEFAULTS changes the metrics, or the key is scale-only
    assert set(_CHANGED[experiment]) | (_SCALE_ONLY & set(
        DEFAULTS[experiment])) == set(DEFAULTS[experiment])

    def metrics(**change):
        params = dict(REDUCED[experiment], **change)
        return run_experiment(ExperimentConfig(experiment, 7,
                                               params=params))["metrics"]

    base = metrics()
    for key, value in _CHANGED[experiment].items():
        assert value != REDUCED[experiment].get(key, DEFAULTS[experiment][key])
        assert metrics(**{key: value}) != base, key


def test_all_experiments_have_defaults():
    assert set(EXPERIMENTS) == set(DEFAULTS)
    assert set(REDUCED) == set(EXPERIMENTS)


@pytest.mark.parametrize("family", ["heat", "allen_cahn"])
def test_streamed_spde_paths_match_the_materialized_path(family):
    # the one-pass stream gives the coarse increments and reference values
    # of the full fine path bit for bit
    p = ExperimentConfig(family, 5, params=REDUCED[family]).resolved()
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
        params = dict(REDUCED["heat"], truncation=512, n_seeds=n_seeds)
        tracemalloc.start()
        try:
            run_experiment(ExperimentConfig("heat", 7, params=params))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], \
        f"peaks {[f'{b / 2 ** 20:.2f} MiB' for b in peaks]}"
