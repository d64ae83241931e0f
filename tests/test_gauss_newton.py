"""Tests for the constrained Gauss-Newton step and outer solve loop."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from nessolve.errors import DegenerateFeaturesError
from nessolve.gauss_newton import KKTSystem, Representer, SolverConfig, \
    constrained_ls_solve, evaluate, solve
from nessolve.kernels import FeatureSet, GramBlocks, KernelSpec, \
    assemble_features
from nessolve.operators import OperatorSpec
from nessolve.seminorm import SeminormContext
from nessolve.spaces import MeasurementVector, build_test_space, \
    default_n_quad, grid_points, stiffness_matrix

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
    # gamma c^T G c on the Gram matrix as the KKT system regularized it
    ctx, blocks, r, g, gamma = _tiny_problem()
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs = kkt.solve(r, g)
    misfit, penalty = kkt.loss_terms(coeffs, r)
    resid = blocks.k_chi_phi @ coeffs - r
    a = stiffness_matrix(ctx.space, ctx.s)
    assert misfit == pytest.approx(resid @ np.linalg.solve(a, resid),
                                   rel=1e-10)
    gram = blocks.k_phi_phi + kkt._reg * np.eye(len(coeffs))
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


def _mp_step(ctx, blocks, r, g, gamma, rho):
    """The step QP's coefficients in mpmath at 50 digits, from the float64
    Gram and regularization: its KKT system

        [2 (B^T A^{-1} B + gamma (G + rho I))  C^T] [c ]   [2 B^T A^{-1} r]
        [C                                     0  ] [mu] = [g             ]

    by LU."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        gram = mp.matrix(blocks.k_phi_phi.tolist())
        n, n_primal, m = r.shape[0], gram.rows, g.shape[0]
        b = gram[:n, :]
        a = stiffness_matrix(ctx.space, ctx.s)
        a_inv_b = mp.inverse(mp.matrix(a.tolist())) * b
        h = 2 * (b.T * a_inv_b)
        a_inv_b_r = 2 * (a_inv_b.T * mp.matrix(r.tolist()))
        kkt = mp.zeros(n_primal + m)
        rhs = mp.zeros(n_primal + m, 1)
        for i in range(n_primal):
            for j in range(n_primal):
                kkt[i, j] = h[i, j] + 2 * gamma * (gram[i, j] + rho * (i == j))
            for j in range(m):
                kkt[i, n_primal + j] = kkt[n_primal + j, i] = gram[n + j, i]
            rhs[i] = a_inv_b_r[i]
        for j in range(m):
            rhs[n_primal + j] = g[j]
        sol = mp.lu_solve(kkt, rhs)
        return [sol[i] for i in range(n_primal)]


@pytest.mark.parametrize("kind,n", [("sine1d", 8), ("sine1d", 16),
                                    ("sine1d", 32), ("sine1d", 64),
                                    ("fem1d", 16)])
def test_step_matches_50_digit_oracle(kind, n):
    # only the factorization's rounding is measured: the oracle starts from
    # the same float64 Gram and the KKT system's own rho.  Max grid-value
    # error over max |u|: the null-space QR this solver replaced read
    # 1.3e-15, 3.7e-15, 7.8e-14, 3.2e-13 (sine1d, n = 8 to 64) and 4.1e-15
    # (fem1d); the bound is ten times the largest of them
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
    oracle = _mp_step(ctx, blocks, r, g, gamma, kkt._reg)
    # the difference taken at 50 digits, then rounded
    err = np.array([float(c - o) for c, o in zip(coeffs.tolist(), oracle)])
    e = blocks.quad_eval
    u = e @ np.array([float(o) for o in oracle])
    assert np.max(np.abs(e @ err)) <= 3.2e-12 * np.max(np.abs(u))


def test_build_peak_memory():
    # besides the Gram a build holds two N x N arrays, R and the reflectors
    # of the QR, formed in place over the penalty factor and W S11
    n = 1024
    sp = build_test_space("sine1d", n)
    fs = FeatureSet(sp, np.ones(1), 0.01, BP, 4 * n + 1)
    blocks = assemble_features(KER, fs)
    ctx = SeminormContext.build(sp, 1.0)
    tracemalloc.start()
    try:
        kkt = KKTSystem(ctx, blocks, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kkt.jitter == 1e-10
    unit = 8 * n * n
    assert peak <= 2.5 * unit, f"peak {peak / unit:.2f} N x N arrays"


def test_elliptic1d_weak_system_factors_at_rung_0():
    # the closed-form sine1d Gram leaves the Schur complement S11 positive
    # definite, so the penalty factors with the nugget alone (the grid
    # quadrature it replaced needed the 1e-9 rung at n = 4096, which CI
    # checks); test_build_peak_memory asserts the same at n = 1024
    sp = build_test_space("sine1d", 2048)
    fs = FeatureSet(sp, np.ones(1), 0.01, BP, default_n_quad(sp))
    kkt = KKTSystem(SeminormContext.build(sp, 1.0),
                    assemble_features(KER, fs), 1e-12)
    assert kkt.jitter == 1e-10


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


def _apply_q(h, tau, c, side, trans="N"):
    """Q c, Q^T c (side "L") or c Q (side "R") for Q held as Householder
    reflectors (``scipy.linalg.qr(..., mode="raw")``), in place when ``c``
    is Fortran-ordered."""
    cq, _, info = scipy.linalg.lapack.dormqr(
        side, trans, h, tau, c, max(1, 64 * max(c.shape)), overwrite_c=1)
    assert info == 0, f"dormqr failed (info={info})"
    return cq


def _padded_identity_map(ctx, blocks, gamma):
    """The coefficient map formed by applying the reflectors of the QR of
    S Z to the zero-padded identity of the right-hand sides (the
    dormqr-only formation, written out independently of ``KKTSystem``)."""
    b, c = blocks.k_chi_phi, blocks.k_x_phi
    n, n_primal = b.shape
    m = c.shape[0]
    (h, tau), r1 = scipy.linalg.qr(c.T, mode="raw")
    g = blocks.k_phi_phi
    nugget = 1e-10 * np.trace(g) / n_primal
    chol = scipy.linalg.cholesky(g + nugget * np.eye(n_primal), lower=True)
    sq = np.asfortranarray(np.vstack([ctx.whiten(b),
                                      np.sqrt(gamma) * chol.T]))
    sq = _apply_q(h, tau, sq, "R")
    sq1 = sq[:, :m].copy()
    (hz, tauz), t = scipy.linalg.qr(sq[:, m:], mode="raw")
    y1 = scipy.linalg.solve_triangular(r1, np.eye(m), trans="T")
    rhs = np.zeros((n + n_primal, n + m), order="F")
    rhs[:n, :n] = ctx.whiten(np.eye(n))
    rhs[:, n:] = -sq1 @ y1
    rhs = _apply_q(hz, tauz, rhs, "L", "T")[:n_primal - m]
    y = np.zeros((n_primal, n + m), order="F")
    y[:m, n:] = y1
    y[m:] = scipy.linalg.solve_triangular(t, rhs)
    return _apply_q(h, tau, y, "L")


@pytest.mark.parametrize("n", [3, 24])
def test_identity_solves_match_padded_identity_formation(n):
    # solving for the unit right-hand sides, columns ordered (r, g), gives
    # the coefficient map of the padded-identity formation
    ctx, blocks, _, _, gamma = _tiny_problem(n=n)
    coeff_map = _padded_identity_map(ctx, blocks, gamma)
    kkt = KKTSystem(ctx, blocks, gamma)
    eye = np.eye(n + 2)
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


def test_gram_jitter_is_reported():
    # the nugget, 1e-10 of the mean diagonal, is all a regular Gram needs
    ctx, blocks, r, g, gamma = _tiny_problem()
    kkt = KKTSystem(ctx, blocks, gamma)
    assert kkt.jitter == 1e-10
    coeffs = kkt.solve(r, g)
    mean_diag = np.trace(blocks.k_phi_phi) / blocks.k_phi_phi.shape[0]
    penalty = gamma * (coeffs @ blocks.k_phi_phi @ coeffs +
                       1e-10 * mean_diag * coeffs @ coeffs)
    assert kkt.loss_terms(coeffs, r)[1] == pytest.approx(penalty, rel=1e-12)
    # duplicate operator feature 0 and shift the Gram matrix down by 5e-10
    # of its mean diagonal: it is then indefinite, the nugget is not enough
    # and the ladder's 1e-9 rung is, which the jitter reports on top
    n = blocks.n_features + 1
    idx = np.r_[0, np.arange(blocks.k_phi_phi.shape[0])]
    g_dup = blocks.k_phi_phi[np.ix_(idx, idx)]
    g_dup = g_dup - 5e-10 * np.trace(g_dup) / g_dup.shape[0] \
        * np.eye(g_dup.shape[0])
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cholesky(g_dup + 1e-10 * np.trace(g_dup) /
                              g_dup.shape[0] * np.eye(g_dup.shape[0]))
    dup_ctx = SeminormContext.build(build_test_space("sine1d", n), 1.0)
    kkt = KKTSystem(dup_ctx, GramBlocks(g_dup, n), gamma)
    assert kkt.jitter == 1e-10 + 1e-9
    coeffs = kkt.solve(np.r_[r[0], r], g)
    assert np.max(np.abs(kkt.blocks.k_x_phi @ coeffs - g)) <= 1e-8
    # a linear solve reports the nugget alone
    op, xi, cfg, _ = _single_mode_setup(n=16)
    assert solve(op, xi, cfg)[1].jitter == 1e-10


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
    # a rebuild first frees the previous iterate; the weight rows are formed
    # in place, paired a quarter of the rows at a time, and each iterate is
    # evaluated on the grid matrix-free, so a nonlinear solve holds about
    # one N x G array at a time
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
