"""Tests for the constrained Gauss-Newton step and outer solve loop."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hypothesis import assume, example, given, settings, strategies as st

from nessolve import operators
from nessolve.errors import DegenerateFeaturesError, DivergenceError
from nessolve.gauss_newton import KKTSystem, Representer, SolverConfig, \
    constrained_ls_solve, evaluate, solve
from nessolve.kernels import FeatureSet, GramBlocks, KernelSpec, \
    assemble_features
from nessolve.operators import OperatorSpec
from nessolve.seminorm import SeminormContext
from nessolve.spaces import GridFunction, MeasurementVector, \
    build_test_space, default_n_quad, grid_points, stiffness_matrix

KER = KernelSpec("matern52", 0.2)
BP = np.array([0.0, 1.0])


def _tiny_problem(n=3, gamma=1e-3, seed=0):
    sp = build_test_space("sine1d", n)
    fs = FeatureSet(sp, np.ones(4 * n + 1), 0.05, BP, 4 * n + 1)
    blocks = assemble_features(KER, fs)
    ctx = SeminormContext.build(sp, 1.0)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n)
    g = np.array([0.1, -0.2])
    return ctx, blocks, r, g, gamma


def _null_space_oracle(ctx, blocks, r, g, gamma):
    """Dense reduced-space solve of the step QP, independent of the solver."""
    b = blocks.k_chi_phi
    c_mat = blocks.k_x_phi
    a_inv = np.linalg.inv(stiffness_matrix(ctx.space, ctx.s))
    q = 2.0 * (b.T @ a_inv @ b + gamma * blocks.k_phi_phi)
    b_lin = -2.0 * b.T @ a_inv @ r
    c_p = np.linalg.lstsq(c_mat, g, rcond=None)[0]
    z = scipy.linalg.null_space(c_mat)
    y = np.linalg.solve(z.T @ q @ z, -z.T @ (q @ c_p + b_lin))
    return c_p + z @ y, q, b_lin, z


def test_step_matches_null_space_oracle():
    ctx, blocks, r, g, gamma = _tiny_problem()
    oracle, q, b_lin, z = _null_space_oracle(ctx, blocks, r, g, gamma)
    coeffs = constrained_ls_solve(ctx, blocks, r, g, gamma)
    scale = max(1.0, np.abs(oracle).max())
    assert np.max(np.abs(coeffs - oracle)) <= 1e-8 * scale
    # stationarity: the gradient has no component along the constraint's
    # null space
    assert np.max(np.abs(z.T @ (q @ coeffs + b_lin))) \
        <= 1e-8 * max(1.0, np.abs(b_lin).max())
    # the factored KKT path agrees with the least-squares path
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs2 = kkt.solve(r, g)
    assert np.max(np.abs(coeffs2 - oracle)) <= 1e-8 * scale


def test_step_constraint_exactness():
    ctx, blocks, r, g, gamma = _tiny_problem(seed=4)
    coeffs = constrained_ls_solve(ctx, blocks, r, g, gamma)
    assert np.max(np.abs(blocks.k_x_phi @ coeffs - g)) <= 1e-8


def test_step_beats_feasible_baseline():
    ctx, blocks, r, g, gamma = _tiny_problem(seed=7)
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs = constrained_ls_solve(ctx, blocks, r, g, gamma)
    baseline = np.linalg.lstsq(blocks.k_x_phi, g, rcond=None)[0]
    assert sum(kkt.loss_terms(coeffs, r)) <= \
        sum(kkt.loss_terms(baseline, r)) + 1e-12


def test_large_gamma_shrinks_coefficients():
    ctx, blocks, r, _, _ = _tiny_problem()
    g0 = np.zeros(2)
    small = constrained_ls_solve(ctx, blocks, r, g0, 1e-8)
    big = constrained_ls_solve(ctx, blocks, r, g0, 1e6)
    assert np.linalg.norm(big) <= 1e-4 * np.linalg.norm(small)


def test_loss_terms_match_their_definitions():
    # misfit (Bc - r)^T A^{-1} (Bc - r) by a dense solve, penalty
    # gamma c^T G c on the unregularized Gram matrix
    ctx, blocks, r, g, gamma = _tiny_problem()
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs = kkt.solve(r, g)
    misfit, penalty = kkt.loss_terms(coeffs, r)
    resid = blocks.k_chi_phi @ coeffs - r
    a = stiffness_matrix(ctx.space, ctx.s)
    assert misfit == pytest.approx(resid @ np.linalg.solve(a, resid),
                                   rel=1e-10)
    gram = blocks.k_phi_phi
    assert penalty == pytest.approx(gamma * coeffs @ gram @ coeffs,
                                    rel=1e-10)
    assert misfit > 0 and penalty > 0


def test_degenerate_gram_raises():
    n, m = 2, 1
    bad = GramBlocks(-np.eye(n + m), n)
    ctx = SeminormContext.build(build_test_space("sine1d", n), 1.0)
    with pytest.raises(DegenerateFeaturesError):
        constrained_ls_solve(ctx, bad, np.zeros(n), np.zeros(m), 1e-6)


def test_factored_system_reused_across_right_hand_sides():
    ctx, blocks, _, _, gamma = _tiny_problem()
    kkt = KKTSystem(ctx, blocks, gamma)
    rng = np.random.default_rng(3)
    for _ in range(3):
        r = rng.standard_normal(ctx.space.size)
        g = rng.standard_normal(2)
        coeffs = kkt.solve(r, g)
        fresh_coeffs = constrained_ls_solve(ctx, blocks, r, g, gamma)
        assert np.max(np.abs(coeffs - fresh_coeffs)) <= \
            1e-12 * max(1.0, np.abs(fresh_coeffs).max())


def test_rank_deficient_constraints_raise():
    ctx, blocks, _, _, gamma = _tiny_problem()
    # both boundary rows are the first boundary feature
    n = blocks.n_features
    idx = np.r_[np.arange(n + 1), n]
    bad = GramBlocks(blocks.k_phi_phi[np.ix_(idx, idx)], n)
    with pytest.raises(DegenerateFeaturesError) as info:
        KKTSystem(ctx, bad, gamma)
    assert info.value.block == "k_x_phi"


def test_near_duplicate_boundary_features_raise():
    # a boundary feature scaled by 1 + 1e-8 next to the original, and two
    # boundary points 1e-12 apart, whose kernel rows agree to rounding
    ctx, blocks, _, _, gamma = _tiny_problem()
    n = blocks.n_features
    idx = np.r_[np.arange(n + 1), n]
    scaled = blocks.k_phi_phi[np.ix_(idx, idx)]
    scaled[-1] *= 1.0 + 1e-8
    scaled[:, -1] *= 1.0 + 1e-8
    fs = FeatureSet(ctx.space, np.ones(13), 0.05,
                    np.array([0.0, 1.0, 1.0 - 1e-12]), 13)
    for bad in (GramBlocks(scaled, n), assemble_features(KER, fs)):
        with pytest.raises(DegenerateFeaturesError) as info:
            KKTSystem(ctx, bad, gamma)
        assert info.value.block == "k_x_phi"


@pytest.mark.parametrize("entry", [(0, 1), (0, 3), (3, 4)])
def test_non_finite_gram_raises(entry):
    # a NaN in the operator block, the cross block or the boundary block
    ctx, blocks, _, _, gamma = _tiny_problem()
    g = blocks.k_phi_phi.copy()
    g[entry] = g[entry[::-1]] = np.nan
    with pytest.raises(ValueError):
        KKTSystem(ctx, GramBlocks(g, blocks.n_features), gamma)


def _mp_step(ctx, blocks, r, g, gamma):
    """The step QP's coefficients in mpmath at 50 digits, from the float64
    Gram, unregularized: its KKT system

        [2 (B^T A^{-1} B + gamma G)  C^T] [c ]   [2 B^T A^{-1} r]
        [C                           0  ] [mu] = [g             ]

    by one LU, for one right-hand side, or a list of them for the columns
    of matrices r and g."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        gram = mp.matrix(blocks.k_phi_phi.tolist())
        n, n_primal, m = r.shape[0], gram.rows, g.shape[0]
        b = gram[:n, :]
        a = stiffness_matrix(ctx.space, ctx.s)
        a_inv_b = mp.inverse(mp.matrix(a.tolist())) * b
        h = 2 * (b.T * a_inv_b)
        r_cols, g_cols = np.reshape(r, (n, -1)), np.reshape(g, (m, -1))
        a_inv_b_r = 2 * (a_inv_b.T * mp.matrix(r_cols.tolist()))
        kkt = mp.zeros(n_primal + m)
        for i in range(n_primal):
            for j in range(n_primal):
                kkt[i, j] = h[i, j] + 2 * gamma * gram[i, j]
            for j in range(m):
                kkt[i, n_primal + j] = kkt[n_primal + j, i] = gram[n + j, i]
        lu, perm = mp.mp.LU_decomp(kkt)
        cols = []
        for k in range(r_cols.shape[1]):
            rhs = mp.matrix([a_inv_b_r[i, k] for i in range(n_primal)] +
                            [mp.mpf(v) for v in g_cols[:, k]])
            sol = mp.mp.U_solve(lu, mp.mp.L_solve(lu, rhs, perm))
            cols.append([sol[i] for i in range(n_primal)])
        return cols[0] if r.ndim == 1 else cols


@pytest.mark.parametrize("kind,n", [("sine1d", 8), ("sine1d", 16),
                                    ("sine1d", 32), ("sine1d", 64),
                                    ("fem1d", 16)])
def test_step_matches_50_digit_oracle(kind, n):
    # only the factorization's rounding is measured: the oracle starts from
    # the same float64 Gram and solves the primal QP with no nugget, which
    # the dual Cholesky solves too.  Max grid-value error over max |u|: the
    # null-space QR that preceded both solvers read 1.3e-15, 3.7e-15,
    # 7.8e-14, 3.2e-13 (sine1d, n = 8 to 64) and 4.1e-15 (fem1d); the
    # bound is ten times the largest of them
    gamma = 1e-12
    sp = build_test_space(kind, n)
    q = default_n_quad(sp)
    fs = FeatureSet(sp, np.ones(q), 0.01, BP, q)
    blocks = assemble_features(KER, fs)
    ctx = SeminormContext.build(sp, 1.0)
    r = np.random.default_rng(n).standard_normal(n)
    g = np.array([0.1, -0.2])
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs = kkt.solve(r, g)
    oracle = _mp_step(ctx, blocks, r, g, gamma)
    # the difference taken at 50 digits, then rounded
    err = np.array([float(c - o) for c, o in zip(coeffs.tolist(), oracle)])
    e = blocks.quad_eval
    u = e @ np.array([float(o) for o in oracle])
    assert np.max(np.abs(e @ err)) <= 3.2e-12 * np.max(np.abs(u))


def test_build_peak_memory():
    # besides the Gram a build holds one (N+M) x (N+M) array, the factor
    # of the dual system, formed in place over its copy of the Gram
    n = 1024
    sp = build_test_space("sine1d", n)
    fs = FeatureSet(sp, np.ones(1), 0.01, BP, 4 * n + 1)
    blocks = assemble_features(KER, fs)
    ctx = SeminormContext.build(sp, 1.0)
    tracemalloc.start()
    try:
        KKTSystem(ctx, blocks, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = 8 * n * n
    assert peak <= 1.5 * unit, f"peak {peak / unit:.2f} N x N arrays"


def test_elliptic1d_weak_system_factors_at_rung_0():
    # the dual system of the closed-form sine1d Gram factors as it is, with
    # nothing added to its diagonal (CI checks n = 4096); it raises
    # DegenerateFeaturesError otherwise.  test_build_peak_memory builds
    # n = 1024
    sp = build_test_space("sine1d", 2048)
    fs = FeatureSet(sp, np.ones(1), 0.01, BP, default_n_quad(sp))
    KKTSystem(SeminormContext.build(sp, 1.0), assemble_features(KER, fs),
              1e-12)


def test_elliptic1d_grid_values_round_below_1e8():
    # the float64 on_grid of the n = 1024 elliptic1d solution against the
    # same coefficients evaluated in np.longdouble: the closed form with
    # pi in long double, sines of exactly reduced arguments and the
    # boundary kernel columns.  Measured 2.0e-9 of max |u|; the grid
    # quadrature it replaced read 1.2e-7
    from nessolve import kernels, noise
    n = 1024
    xi = noise.sample_white_noise_spectral(2 ** 14, 7)
    sp = build_test_space("sine1d", n)
    cfg = SolverConfig(sp, KER, BP, gamma=1e-12, s=1.0, max_iterations=2)
    rep, report = solve(OperatorSpec("linear_elliptic", 0.01),
                        MeasurementVector(xi.entries[:n], sp), cfg)
    coeffs = rep.coefficients
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    a = np.sqrt(ld(5)) / ld(KER.length_scale)
    j = np.arange(1, n + 1)
    omega = pi * j.astype(ld)
    s_hat, _, layer_coeffs = kernels._sine1d_terms(a, omega)
    beta = coeffs[:n].astype(ld) * (1 + ld(0.01) * omega ** 2)
    q = cfg.n_quad
    k = np.arange(q)
    x = k.astype(ld) / (q - 1)
    phi = np.sqrt(ld(2)) * np.sin(
        pi * ((j[:, None] * k[None, :]) % (2 * (q - 1))) / (q - 1))
    u = (s_hat * beta) @ phi + (beta @ layer_coeffs) @ kernels._layers(a, x)
    for b, xb in zip(coeffs[n:], BP):
        r = a * np.abs(x - ld(xb))
        u += ld(b) * (1 + r + r * r / 3) * np.exp(-r)
    err = np.max(np.abs(report.final_grid.values - u)) / np.max(np.abs(u))
    assert err <= 1e-8


def _longdouble_cholesky_solve(k, rhs):
    """k^{-1} rhs in np.longdouble: a left-looking Cholesky of k and the
    two triangular solves, every product accumulated in 80 bits."""
    ld = np.longdouble
    a = np.asarray(k, dtype=ld)
    n = a.shape[0]
    low = np.zeros((n, n), dtype=ld)
    for j in range(n):
        col = a[j:, j] - low[j:, :j] @ low[j, :j]
        low[j:, j] = col / np.sqrt(col[0])
    y = np.array(rhs, dtype=ld)
    for i in range(n):
        y[i] = (y[i] - low[i, :i] @ y[:i]) / low[i, i]
    for i in reversed(range(n)):
        y[i] = (y[i] - low[i + 1:, i] @ y[i + 1:]) / low[i, i]
    return y


def test_sine1d_weak_solve_is_stable_under_refinement():
    # the n = 512 weak solve of elliptic1d's forcing (nu = 0.01, gamma =
    # 1e-12) against a long-double Cholesky of the same dual system K = G +
    # gamma blockdiag(A, 0).  K's condition number grows about 16-fold per
    # doubling of n (5.9e13 at n = 512), yet the float64 Cholesky's grid
    # values stay within 4.3e-10 of max |u| (4.2e-9 at n = 1024)
    from nessolve import noise
    n, gamma = 512, 1e-12
    sp = build_test_space("sine1d", n)
    fs = FeatureSet(sp, np.ones(1), 0.01, BP, default_n_quad(sp))
    blocks = assemble_features(KER, fs)
    ctx = SeminormContext.build(sp, 1.0)
    r = noise.sample_white_noise_spectral(2 ** 14, 7).entries[:n]
    coeffs = KKTSystem(ctx, blocks, gamma).solve(r, np.zeros(2))
    k = blocks.k_phi_phi.astype(np.longdouble)
    k[np.diag_indices(n)] += np.longdouble(gamma) * ctx.diag
    exact = _longdouble_cholesky_solve(k, np.r_[r, 0.0, 0.0])
    u = blocks.on_grid(exact.astype(float))
    err = blocks.on_grid((coeffs - exact).astype(float))
    assert np.max(np.abs(err)) <= 1e-8 * np.max(np.abs(u))


@pytest.mark.parametrize("n", [3, 24])
def test_identity_solves_match_padded_identity_formation(n):
    # solving for the unit right-hand sides, columns ordered (r, g), gives
    # the coefficient map of the 50-digit solve of the same QP, column by
    # column.  The dense null-space solve forms B^T A^{-1} B and is itself
    # 6.0e-12 of max |map| off at n = 24, so it cannot stand as the oracle
    # at this bound; the dual Cholesky is 1.1e-14 off
    ctx, blocks, _, _, gamma = _tiny_problem(n=n)
    eye = np.eye(n + 2)
    coeff_map = np.array(_mp_step(ctx, blocks, eye[:n], eye[n:], gamma),
                         dtype=float).T
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs = kkt.solve(eye[:n], eye[n:])
    assert np.max(np.abs(coeffs - coeff_map)) <= \
        1e-12 * np.max(np.abs(coeff_map))


@pytest.mark.parametrize("kind", ["sine1d", "fem1d"])
def test_matrix_of_right_hand_sides_matches_column_solves(kind):
    # fem spaces whiten through the Cholesky factor of the energy Gram
    sp = build_test_space(kind, 8)
    q = default_n_quad(sp)
    fs = FeatureSet(sp, np.ones(q), 0.05, BP, q)
    ctx = SeminormContext.build(sp, 1.0)
    kkt = KKTSystem(ctx, assemble_features(KER, fs), 1e-6)
    rng = np.random.default_rng(11)
    r = rng.standard_normal((sp.size, 4))
    g = rng.standard_normal((2, 4))
    coeffs = kkt.solve(r, g)
    assert coeffs.shape == (kkt.n_primal, 4)
    for j in range(4):
        want_coeffs = kkt.solve(r[:, j], g[:, j])
        assert np.max(np.abs(coeffs[:, j] - want_coeffs)) <= \
            1e-12 * max(1.0, np.abs(want_coeffs).max())
    # a shared boundary vector is the same as repeating it in each column
    shared = kkt.solve(r, g[:, 0])
    repeated = kkt.solve(r, np.repeat(g[:, :1], 4, axis=1))
    assert np.max(np.abs(shared - repeated)) <= \
        1e-12 * max(1.0, np.abs(repeated).max())


def test_indefinite_step_system_raises():
    # duplicate operator feature 0 and shift the Gram matrix down by 5e-10
    # of its mean diagonal: along the difference of the two copies G then
    # reads -5e-10 of the mean diagonal, and gamma = 1e-16 times the test
    # energy does not lift it, so K is not positive definite and no
    # regularization is added in its place
    blocks = _tiny_problem()[1]
    idx = np.r_[0, np.arange(blocks.k_phi_phi.shape[0])]
    g_dup = blocks.k_phi_phi[np.ix_(idx, idx)]
    g_dup = g_dup - 5e-10 * np.trace(g_dup) / g_dup.shape[0] \
        * np.eye(g_dup.shape[0])
    n = blocks.n_features + 1
    ctx = SeminormContext.build(build_test_space("sine1d", n), 1.0)
    with pytest.raises(DegenerateFeaturesError) as info:
        KKTSystem(ctx, GramBlocks(g_dup, n), 1e-16)
    assert info.value.block == "k_phi_phi"


def test_solver_config_validation():
    sp = build_test_space("sine1d", 4)
    with pytest.raises(ValueError):
        SolverConfig(sp, KER, BP, gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(sp, KER, BP, max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(sp, KER, BP, g_boundary=np.zeros(3))
    cfg = SolverConfig(sp, KER, BP)
    assert cfg.n_quad == 17
    assert np.allclose(cfg.g_boundary, 0.0)


def _single_mode_setup(n=64, gamma=1e-10):
    nu = 0.01
    sp = build_test_space("sine1d", n)
    xi = MeasurementVector(np.eye(n)[0], sp)
    op = OperatorSpec("linear_elliptic", nu)
    cfg = SolverConfig(sp, KER, BP, gamma=gamma)
    return op, xi, cfg, nu


def test_solve_single_mode_closed_form():
    op, xi, cfg, nu = _single_mode_setup()
    rep, report = solve(op, xi, cfg)
    x = grid_points(257)
    exact = np.sqrt(2) * np.sin(np.pi * x) / (nu * np.pi ** 2 + 1.0)
    got = evaluate(rep, x)
    assert np.max(np.abs(got - exact)) <= 1e-3


def test_solve_linear_one_step_exactness():
    # a linear solve stops after its one step; a second step, from the
    # first one's grid values, lands on the same loss
    op, xi, cfg, _ = _single_mode_setup()
    _, report = solve(op, xi, cfg)
    assert report.reason == "linear"
    assert report.iterations == 1
    _, again = solve(op, xi, cfg, report.final_grid)
    first, second = report.loss_history[0], again.loss_history[0]
    assert abs(second - first) <= 1e-10 * max(abs(first), 1.0)


def test_solve_boundary_exactness():
    op, xi, cfg, _ = _single_mode_setup()
    g = np.array([0.3, -0.2])
    cfg = SolverConfig(cfg.space, cfg.kernel, BP, gamma=cfg.gamma,
                       g_boundary=g)
    rep, _ = solve(op, xi, cfg)
    got = evaluate(rep, BP)
    assert np.max(np.abs(got - g)) <= 1e-8 * max(1.0, np.abs(g).max())


def test_solve_grid_agrees_with_direct_evaluation():
    op, xi, cfg, _ = _single_mode_setup(n=32)
    rep, report = solve(op, xi, cfg)
    x = grid_points(cfg.n_quad)
    direct = evaluate(rep, x)
    assert np.max(np.abs(direct - report.final_grid.values)) <= \
        1e-8 * max(1.0, np.abs(direct).max())


def test_representer_shape_validation():
    sp = build_test_space("sine1d", 3)
    fs = FeatureSet(sp, np.ones(17), 0.1, BP, 17)
    with pytest.raises(ValueError):
        Representer(np.zeros(4), features=fs)


def test_solve_peak_memory():
    # a rebuild first frees the previous iterate, the chord's first build
    # included; the weight rows are formed in place, paired a quarter of
    # the rows at a time, and each iterate is evaluated on the grid
    # matrix-free, so a nonlinear solve holds about one N x G array at a
    # time
    sp = build_test_space("sine2d", n_per_dim=16)
    t = np.linspace(0.0, 1.0, 9)
    bp = np.vstack([np.column_stack([t, np.zeros_like(t)]),
                    np.column_stack([t, np.ones_like(t)]),
                    np.column_stack([np.zeros(7), t[1:-1]]),
                    np.column_stack([np.ones(7), t[1:-1]])])
    rng = np.random.default_rng(7)
    xi = MeasurementVector(rng.standard_normal(sp.size) / sp.eigenvalues
                           ** 0.25, sp)
    cfg = SolverConfig(sp, KER, bp, gamma=1e-8, max_iterations=3,
                       tolerance=0.0)
    unit = 8 * sp.size * cfg.n_quad ** 2
    tracemalloc.start()
    try:
        _, report = solve(OperatorSpec("semilinear_sine", 0.1), xi, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == 3
    assert peak <= 2.5 * unit, f"peak {peak / unit:.2f} N x G arrays"


def _semilinear_problem(amplitude, nu, p=8):
    """A reduced semilinear sine2d solve: forcing coefficients of decay
    lambda^-1/2 times ``amplitude``, 12 boundary points."""
    sp = build_test_space("sine2d", n_per_dim=p)
    t = np.linspace(0.0, 1.0, 5)
    bp = np.vstack([np.column_stack([t, np.zeros_like(t)]),
                    np.column_stack([t, np.ones_like(t)]),
                    np.column_stack([np.zeros(3), t[1:-1]]),
                    np.column_stack([np.ones(3), t[1:-1]])])
    shape = np.random.default_rng(7).standard_normal(sp.size) / \
        np.sqrt(sp.eigenvalues)
    xi = MeasurementVector(amplitude * shape, sp)
    cfg = SolverConfig(sp, KER, bp, gamma=1e-8, max_iterations=60,
                       tolerance=1e-10)
    return OperatorSpec("semilinear_sine", nu), xi, cfg


def _plain_gauss_newton(op, xi, cfg, iterations=40):
    """Grid iterates of plain Gauss-Newton from 0, a fresh linearization,
    Gram and factorization every step and no stopping rule ("GN-40"),
    built here from the public pieces, independently of ``solve``; and the
    last step's Representer."""
    ctx = SeminormContext.build(cfg.space, cfg.s)
    shape = (cfg.n_quad,) * cfg.space.dim
    u = np.zeros(shape)
    iterates = []
    for _ in range(iterations):
        lin = operators.linearize(op, GridFunction(u))
        fs = FeatureSet(cfg.space, lin.c_field.values, lin.nu_diff,
                        cfg.boundary_points, cfg.n_quad)
        blocks = assemble_features(cfg.kernel, fs)
        coeffs = KKTSystem(ctx, blocks, cfg.gamma).solve(
            xi.entries + fs.measure(lin.shift.values), cfg.g_boundary)
        u = blocks.on_grid(coeffs).reshape(shape)
        iterates.append(u)
    return iterates, Representer(coeffs, fs, cfg.kernel)


def _converged(iterates):
    last, before = iterates[-1], iterates[-2]
    return np.max(np.abs(last - before)) <= 1e-9 * np.max(np.abs(last))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(amplitude=st.floats(0.5, 12.0))
@example(amplitude=10.5)
def test_solve_reaches_plain_gauss_newton_or_diverges(amplitude):
    # at nu = 0.005 the chord map on the first build stops contracting at
    # some amplitudes (10.0 and 10.5 of a 0.25 grid then converge,
    # test_chord_fallback_converges), and plain Gauss-Newton itself does
    # not settle at others (20 of the grid's 47, 2.5 and 12.0 among them):
    # a case where GN-40 has not converged has no reference and is not
    # counted.  Otherwise the solve, allowed 60 builds, ends within 1e-8
    # of GN-40's limit (1.8e-10 the largest over the grid's other 27, at
    # one BLAS thread) or raises DivergenceError with the build it reached
    op, xi, cfg = _semilinear_problem(amplitude, 0.005)
    iterates, _ = _plain_gauss_newton(op, xi, cfg)
    assume(_converged(iterates))
    try:
        _, report = solve(op, xi, cfg)
    except DivergenceError as exc:
        assert exc.iteration is not None
        return
    assert report.reason == "converged"
    want = iterates[-1]
    err = np.max(np.abs(report.final_grid.values - want))
    assert err <= 1e-8 * np.max(np.abs(want)), (amplitude, err)


def test_chord_fallback_converges():
    # at amplitude 10.5 and nu = 0.005 the chord map stops contracting;
    # the solve then takes plain Gauss-Newton's path from the chord's first
    # image, its own first step, and reaches GN-40's limit (in 22 builds at
    # one and at two BLAS threads; at amplitude 10.0 that path needs 38
    # builds at one thread and more than 40 at two)
    op, xi, cfg = _semilinear_problem(10.5, 0.005)
    _, report = solve(op, xi, cfg)
    assert report.chord_fell_back
    assert report.reason == "converged"
    want = _plain_gauss_newton(op, xi, cfg)[0][-1]
    err = np.max(np.abs(report.final_grid.values - want))
    assert err <= 1e-8 * np.max(np.abs(want))


def test_chord_prediction_takes_two_builds_and_reports_each():
    # at the semilinear2d diffusion the chord converges on the constant-c
    # first build, and one Gauss-Newton build from its iterate reaches the
    # default tolerance; every per-build diagnostic has one entry a build
    op, xi, cfg = _semilinear_problem(2.0, 0.1)
    cfg = SolverConfig(cfg.space, KER, cfg.boundary_points, gamma=1e-8)
    _, report = solve(op, xi, cfg)
    assert report.iterations == 2 and report.reason == "converged"
    assert 1 < report.chord_steps < 20 and not report.chord_fell_back
    for history in (report.misfit_history, report.step_history,
                    report.error_estimates, report.residual_history):
        assert len(history) == report.iterations
    assert report.step_history[0] <= 1e-9
    assert report.error_estimates[0] == np.inf
    assert report.error_estimates[1] <= cfg.tolerance
    assert all(np.isfinite(report.residual_history))
    want = _plain_gauss_newton(op, xi, cfg)[0][-1]
    err = np.max(np.abs(report.final_grid.values - want))
    assert err <= 1e-8 * np.max(np.abs(want))


def test_one_build_ends_on_the_chord_iterate():
    # max_iterations counts Gram builds: with one, the solve returns the
    # chord's iterate on the constant-c build, which is not the MAP
    op, xi, cfg = _semilinear_problem(2.0, 0.1)
    cfg = SolverConfig(cfg.space, KER, cfg.boundary_points, gamma=1e-8,
                       max_iterations=1)
    rep, report = solve(op, xi, cfg)
    assert report.iterations == 1 and report.reason == "max_iterations"
    assert np.all(rep.features.c_field == 1.0 + np.pi)
    assert report.step_history[0] <= 1e-9
