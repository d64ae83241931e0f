"""Tests for the Matern-5/2 kernel, derivatives, and Gram-block assembly.

The quadrature oracles below rebuild the kernel and its derivatives from
the closed form independently of the library code, then integrate the
strong-form operator against fine trapezoid grids.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import nessolve.kernels as kernels
from nessolve.errors import ResolutionTooCoarseError
from nessolve.kernels import FeatureSet, KernelSpec, assemble_collocation, \
    assemble_features, evaluate_collocation, evaluate_features, \
    kernel_matrix
from nessolve.spaces import basis_values, build_test_space, \
    default_n_quad, filon_weights, grid_points, trapezoid_weights

ELL = 0.3
SPEC = KernelSpec("matern52", ELL)
A = np.sqrt(5.0) / ELL


def _k(t):
    at = A * np.abs(t)
    return (1.0 + at + at ** 2 / 3.0) * np.exp(-at)


def _k2(t):
    # second derivative of t -> k(t)
    at = A * np.abs(t)
    return -(A ** 2 / 3.0) * (1.0 + at - at ** 2) * np.exp(-at)


def _k4(t):
    at = A * np.abs(t)
    return (A ** 4 / 3.0) * (3.0 - 5.0 * at + at ** 2) * np.exp(-at)


def _matern52_d2(spec, t):
    """Second derivative d^2/dx^2 K(x, y), 1D (equals -d^2/dxdy K)."""
    a = np.sqrt(5.0) / spec.length_scale
    at = a * np.abs(t)
    return -((a ** 2 / 3.0) * (1.0 + at - at ** 2) * np.exp(-at))


def _matern52_d4(spec, t):
    """Fourth derivative d^2/dx^2 d^2/dy^2 K(x, y), 1D.

    Matern-5/2 is exactly C^4 at the diagonal (the first odd term in its
    Taylor expansion is r^5), so this mixed derivative is continuous."""
    a = np.sqrt(5.0) / spec.length_scale
    at = a * np.abs(t)
    return (a ** 4 / 3.0) * (3.0 - 5.0 * at + at ** 2) * np.exp(-at)


def _kernel_at(x, y):
    return kernel_matrix(SPEC, np.atleast_2d(x), np.atleast_2d(y))[0, 0]


def test_kernel_values_and_symmetry():
    assert _kernel_at(0.3, 0.3) == pytest.approx(1.0)
    r = 0.17
    ar = A * r
    assert _kernel_at(0.0, r) == \
        pytest.approx((1 + ar + ar ** 2 / 3) * np.exp(-ar), rel=1e-14)
    assert _kernel_at(0.1, 0.6) == _kernel_at(0.6, 0.1)
    # 2D radial
    p = np.array([0.1, 0.2])
    q = np.array([0.4, 0.6])
    assert _kernel_at(p, q) == \
        pytest.approx(_kernel_at(0.0, np.linalg.norm(p - q)), rel=1e-14)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", 0.2)
    with pytest.raises(ValueError):
        KernelSpec("matern52", 0.0)


def test_second_derivative_ladder():
    # diagonal values from the Taylor expansion of the closed form
    assert float(_matern52_d2(SPEC, np.asarray(0.0))) == \
        pytest.approx(-A ** 2 / 3.0, rel=1e-13)
    assert float(_matern52_d4(SPEC, np.asarray(0.0))) == \
        pytest.approx(A ** 4, rel=1e-13)
    # d2 matches a central difference of the kernel itself
    h = 1e-5
    for t in (0.0, 0.04, -0.3, 0.77):
        fd = (_k(t + h) - 2 * _k(t) + _k(t - h)) / h ** 2
        assert float(_matern52_d2(SPEC, np.asarray(t))) == \
            pytest.approx(fd, rel=1e-4, abs=1e-4)
    # d4 matches a central difference of d2; at the origin the kernel is
    # only C^4 (the |t|^5 Taylor term), so the difference quotient carries
    # an O(h) error there and the tolerance is looser
    h = 1e-4
    for t in (0.05, -0.2, 0.6):
        fd = (_k2(t + h) - 2 * _k2(t) + _k2(t - h)) / h ** 2
        assert float(_matern52_d4(SPEC, np.asarray(t))) == \
            pytest.approx(fd, rel=1e-5)
    fd0 = (_k2(h) - 2 * _k2(0.0) + _k2(-h)) / h ** 2
    assert float(_matern52_d4(SPEC, np.asarray(0.0))) == \
        pytest.approx(fd0, rel=2e-3)


def test_kernel_matrix_symmetric_psd():
    x = np.linspace(0, 1, 17)
    k = kernel_matrix(SPEC, x)
    assert np.allclose(k, k.T)
    assert np.linalg.eigvalsh(k).min() > -1e-10


def _strong_feature_rows(space, c_field, nu, targets, q):
    """chi_i(K(., y)) via trapezoid quadrature of the strong form."""
    x = grid_points(q)
    w = trapezoid_weights(q)
    import nessolve.spaces as spaces_mod
    phi = spaces_mod.basis_values(space, x)
    c = np.broadcast_to(np.asarray(c_field, float), x.shape)
    t = x[:, None] - np.asarray(targets, float)[None, :]
    integrand = -nu * _k2(t) + c[:, None] * _k(np.abs(t))
    return phi @ (w[:, None] * integrand)


def _sine_boundary_correction(n, nu, targets):
    """The sine features move the Laplacian onto the test function by its
    eigenvalue, which differs from the strong form by the boundary term
    -nu * [phi_i'(x) K(x, y)] at x = 0, 1 (it vanishes on the Dirichlet
    constraint set where the features are actually used)."""
    j = np.arange(1, n + 1)
    dp0 = np.sqrt(2) * np.pi * j
    dp1 = np.sqrt(2) * np.pi * j * np.cos(np.pi * j)
    y = np.asarray(targets, float)
    return -nu * (dp1[:, None] * _k(np.abs(1.0 - y))[None, :] -
                  dp0[:, None] * _k(np.abs(y))[None, :])


def test_weak_assembly_matches_strong_form_sine():
    # operator-vs-boundary block against the strong-form quadrature oracle
    # plus the eigenvalue-transfer boundary term
    n, q = 4, 4097
    sp = build_test_space("sine1d", n)
    bp = np.array([0.0, 1.0])
    fs = FeatureSet(sp, np.full(q, 0.8), 0.05, bp, q)
    blocks = assemble_features(SPEC, fs)
    oracle = _strong_feature_rows(sp, 0.8, 0.05, bp, q) + \
        _sine_boundary_correction(n, 0.05, bp)
    got = blocks.k_chi_phi[:, n:]
    assert np.max(np.abs(got - oracle)) <= 1e-6 * max(1.0,
                                                      np.abs(oracle).max())


def test_fem_integration_by_parts_identity():
    # the fem features are the strong form integrated by parts once (the
    # stencil evaluates nu int phi_i' K' exactly); with exact quadrature
    # the two forms agree to 1e-8 (tents vanish at the endpoints)
    from scipy.integrate import quad
    sp = build_test_space("fem1d", 4)
    h = sp.h
    nu, cc = 0.1, 1.0
    for i in range(4):
        node = (i + 1) * h
        lo, hi = i * h, (i + 2) * h
        for y in (0.0, 1.0):
            def tent(x):
                return max(0.0, 1.0 - abs(x - node) / h)

            def dtent(x):
                return (1.0 / h) if x < node else (-1.0 / h)

            strong, _ = quad(lambda x: tent(x) *
                             (-nu * _k2(x - y) + cc * _k(abs(x - y))),
                             lo, hi, points=[node], limit=200)
            # d/dx K(x, y) from the radial derivative of the closed form
            at = lambda x: A * abs(x - y)

            def kdx(x):
                t = x - y
                return -(A ** 2 / 3.0) * t * (1.0 + A * abs(t)) * \
                    np.exp(-A * abs(t))

            ibp, _ = quad(lambda x: tent(x) * cc * _k(abs(x - y)) +
                          nu * dtent(x) * kdx(x), lo, hi,
                          points=[node], limit=200)
            assert strong == pytest.approx(ibp, abs=1e-8)


def _fem_exact_features(sp, nu, cc, spec, bp):
    """chi_i(K(., y)) for fem tents by adaptive quadrature of the strong
    form over each tent's two cells, with the kernel rebuilt here."""
    a = np.sqrt(5.0) / spec.length_scale

    def k(t):
        at = a * abs(t)
        return (1.0 + at + at ** 2 / 3.0) * np.exp(-at)

    def k2(t):
        at = a * abs(t)
        return -(a ** 2 / 3.0) * (1.0 + at - at ** 2) * np.exp(-at)

    from scipy.integrate import quad
    h = sp.h
    exact = np.empty((sp.size, bp.shape[0]))
    for i in range(sp.size):
        node = (i + 1) * h
        for j, y in enumerate(bp):
            exact[i, j], _ = quad(
                lambda x: max(0.0, 1.0 - abs(x - node) / h) *
                (-nu * k2(x - y) + cc * k(x - y)),
                i * h, (i + 2) * h, points=[node], limit=200,
                epsabs=1e-14, epsrel=1e-13)
    return exact


def _fem_feature_error(spec, n, q, nu, cc=1.0):
    sp = build_test_space("fem1d", n)
    bp = np.array([0.0, 1.0])
    exact = _fem_exact_features(sp, nu, cc, spec, bp)
    fs = FeatureSet(sp, np.full(q, cc), nu, bp, q)
    got = assemble_features(spec, fs).k_chi_phi[:, n:]
    return np.max(np.abs(got - exact)), np.max(np.abs(exact))


def test_fem_assembly_second_order_convergence():
    # the assembled fem boundary features against the exact strong-form
    # values: the diffusion part is exact by the tent stencil, so what is
    # left is the trapezoid rule on the value part, second order in the
    # quadrature spacing on grids that hold the tent nodes.  Measured
    # maximum errors: 6.4e-8 at q=1026 and 4.0e-9 at q=4096, ratio 16
    # (3.1e-7 and 2.0e-8 at q=1025 and 4097, whose nodes miss the kinks,
    # which the bounds were set from; 5.4e-4 and 1.3e-4 by the trapezoid
    # rule on the tent derivatives)
    e1, _ = _fem_feature_error(SPEC, 4, 1026, 0.1)
    e2, _ = _fem_feature_error(SPEC, 4, 4096, 0.1)
    assert e1 <= 6.4e-7
    assert e2 <= 4e-8
    assert e1 / e2 >= 3.5


def test_fem_features_at_heat_size():
    # the SPDE stepper's size: 64 tents on 261 grid points, whose nodes
    # include the tent nodes k/65.  Measured 9.9e-6 of the largest feature
    # (2.2e-4 on 257 points, whose spacing 1/256 misses the tent nodes;
    # 0.81 by the trapezoid rule on the tent derivatives)
    err, scale = _fem_feature_error(KernelSpec(), 64, 261, 0.1)
    assert err <= 2e-5 * scale


def test_feature_gram_double_strong_oracle():
    # K(chi_i, chi_j) by applying the strong operator (plus the
    # eigenvalue-transfer boundary terms) in each argument on fine grids,
    # independent of the assembly path
    n = 3
    sp = build_test_space("sine1d", n)
    nu, cc = 0.05, 1.0
    fs = FeatureSet(sp, np.full(4097, cc), nu, np.array([0.0, 1.0]), 4097)
    blocks = assemble_features(SPEC, fs)
    k_cc_block = blocks.k_chi_phi[:, :n]

    import nessolve.spaces as spaces_mod
    nf = 4001
    x = grid_points(nf)
    w = trapezoid_weights(nf)
    phi = spaces_mod.basis_values(sp, x)
    j = np.arange(1, n + 1)
    dp0 = np.sqrt(2) * np.pi * j
    dp1 = np.sqrt(2) * np.pi * j * np.cos(np.pi * j)
    t = x[:, None] - x[None, :]
    # g_i(y) = chi_i(K(., y)) and its second y-derivative
    g = (phi * w) @ (-nu * _k2(t) + cc * _k(np.abs(t))) - \
        nu * (dp1[:, None] * _k(np.abs(1.0 - x))[None, :] -
              dp0[:, None] * _k(np.abs(x))[None, :])
    g_yy = (phi * w) @ (-nu * _k4(t) + cc * _k2(t)) - \
        nu * (dp1[:, None] * _k2(1.0 - x)[None, :] -
              dp0[:, None] * _k2(-x)[None, :])
    oracle = (-nu * g_yy + cc * g) @ (w[:, None] * phi.T) + \
        nu * (g[:, 0][:, None] * dp0[None, :] -
              g[:, -1][:, None] * dp1[None, :])
    assert np.max(np.abs(k_cc_block - oracle)) <= 2e-6 * np.abs(oracle).max()


def test_gram_blocks_symmetric_psd_and_consistent():
    sp = build_test_space("sine1d", 4)
    fs = FeatureSet(sp, np.ones(33), 0.1, np.array([0.0, 1.0]), 33)
    blocks = assemble_features(SPEC, fs)
    k = blocks.k_phi_phi
    assert np.array_equal(k, k.T)
    assert np.linalg.eigvalsh(k).min() >= -1e-8 * np.trace(k)
    # k_chi_phi / k_x_phi are the first/last rows of the one Gram array,
    # which carries no nugget
    assert blocks.n_features == 4
    for rows, want in ((blocks.k_chi_phi, k[:4]), (blocks.k_x_phi, k[4:])):
        assert np.shares_memory(rows, k)
        assert np.array_equal(rows, want)


def test_zero_operator_features():
    sp = build_test_space("sine1d", 3)
    fs = FeatureSet(sp, np.zeros(17), 0.0, np.array([0.0, 1.0]), 17)
    blocks = assemble_features(SPEC, fs)
    assert np.allclose(blocks.k_chi_phi, 0.0, atol=1e-14)
    assert np.allclose(blocks.k_x_phi[:, 3:],
                       kernel_matrix(SPEC, np.array([0.0, 1.0])))


def test_quadrature_doubling_invariance():
    # sine1d blocks are in closed form: doubling the grid, which now only
    # sets where representers are evaluated, leaves every bit in place,
    # and the grid values agree on the shared nodes
    sp = build_test_space("sine1d", 2)
    bp = np.array([0.0, 1.0])
    c = np.array([0.3, -1.1, 0.7, 2.0])

    def blocks_at(q):
        fs = FeatureSet(sp, np.ones(q), 1.0, bp, q)
        return assemble_features(SPEC, fs)

    b1, b2, b3 = blocks_at(4097), blocks_at(8193), blocks_at(16385)
    assert np.array_equal(b1.k_phi_phi, b2.k_phi_phi)
    assert np.array_equal(b1.k_phi_phi, b3.k_phi_phi)
    u1, u3 = b1.on_grid(c), b3.on_grid(c)
    assert np.max(np.abs(u3[::4] - u1)) <= 1e-14 * np.abs(u1).max()


def _varying_c(x):
    """A smooth c that varies over the 2D grid points ``x``, so a sine2d
    build takes the grid-product path."""
    return 1.0 + 0.5 * np.cos(3 * np.pi * x[:, 0]) * \
        np.cos(2 * np.pi * x[:, 1])


def _grid_cases():
    """Small feature sets of every kind integrated on a grid: sine values
    in 2D, and fem with nu_diff != 0 so its stencil weights count (fem
    features take a constant c only)."""
    rng = np.random.default_rng(3)
    bp1 = np.array([0.0, 1.0])
    bp2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                    [0.5, 0.0], [0.0, 0.5]])
    return [
        FeatureSet(build_test_space("sine2d", n_per_dim=4),
                   1.0 + rng.random(17 ** 2), 0.1, bp2, 17),
        FeatureSet(build_test_space("fem1d", 8), np.full(73, 1.7),
                   0.3, bp1, 73),
    ]


def _fem_lattice_weights(fs):
    """The N x G fem weight rows from the lattice definition: 1 - |l|/r at
    grid node (i + 1) r + l, |l| <= r, times c/(q - 1), plus the diffusion
    stencil nu/h (2, -1, -1) at the tent nodes (i + 1) r, i r, (i + 2) r,
    with r = (q - 1)/(N + 1) grid cells to a tent cell."""
    n, q = fs.n_features, fs.n_quad
    r = (q - 1) // (n + 1)
    d = fs.nu_diff / fs.space.h
    w = np.zeros((n, q))
    for i in range(n):
        for offset in range(-r, r + 1):
            w[i, (i + 1) * r + offset] = \
                (1.0 - abs(offset) / r) * (fs.c_field[0] / (q - 1))
        w[i, (i + 1) * r] += 2.0 * d
        w[i, i * r] -= d
        w[i, (i + 2) * r] -= d
    return w


def _dense_blocks(fs):
    """The operator block, the operator-boundary block and the G x (N+M)
    grid evaluation matrix from the weight rows W of every kind (fem's
    from the lattice definition, sine2d's from ``value_rows``) and dense
    pairwise kernel matrices."""
    grid, bp = fs.quad_points, fs.boundary_points
    w = _fem_lattice_weights(fs) if fs.space.kind == "fem1d" else \
        fs.value_rows(slice(None))
    t_val = w @ kernels._pairwise(SPEC, grid, grid)
    k_cb = w @ kernels._pairwise(SPEC, grid, bp)
    k_cc = t_val @ w.T
    k_cc = 0.5 * (k_cc + k_cc.T)
    quad_eval = np.vstack([t_val, kernels._pairwise(SPEC, bp, grid)]).T
    return k_cc, k_cb, quad_eval


@pytest.mark.parametrize("nu", [0.025, 1e-4], ids=["heat", "allen_cahn"])
def test_fem_blocks_match_the_dense_lattice_oracle_at_heat_size(nu):
    # the stepper's features (64 tents, 261 points, diffusion dt nu, c = 1)
    # against W K W^T and W K(grid, bp) with W from the lattice definition:
    # the same trapezoid sums in another order, so within a few roundings
    # of the largest entry (k_cc 6.8e-16 and 3.5e-16 measured, k_cb 1.2e-16)
    spec = KernelSpec("matern52", 0.05)
    fs = FeatureSet(build_test_space("fem1d", 64), np.ones(1),
                    2.0 ** -10 * nu, np.array([0.0, 1.0]), 261)
    w = _fem_lattice_weights(fs)
    k_cc = w @ kernels._pairwise(spec, fs.quad_points, fs.quad_points) @ w.T
    k_cb = w @ kernels._pairwise(spec, fs.quad_points, fs.boundary_points)
    blocks = assemble_features(spec, fs)
    assert _rel(blocks.k_chi_phi[:, :64], k_cc) <= 1e-14
    assert _rel(blocks.k_chi_phi[:, 64:], k_cb) <= 1e-14


def test_grid_products_match_dense_pairwise():
    # the FFT grid products against the dense pairwise matrices on the grid
    for fs in _grid_cases():
        k_cc, k_cb, quad_eval = _dense_blocks(fs)
        blocks = assemble_features(SPEC, fs)
        n = fs.n_features
        for got, want in [(blocks.k_chi_phi[:, :n], k_cc),
                          (blocks.k_chi_phi[:, n:], k_cb),
                          (blocks.k_x_phi[:, :n], k_cb.T),
                          (blocks.quad_eval, quad_eval)]:
            assert np.max(np.abs(got - want)) <= \
                1e-12 * np.abs(want).max()


def _edge_rows(rng, n_rows, n_grid):
    # random weight rows that do not vanish on the grid edges, unlike
    # every feature row, so no circulant length can lean on zero ends
    w = rng.standard_normal((n_rows, n_grid))
    assert np.all(w[:, [0, -1]] != 0.0)
    return w


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("q", [9, 10, 17])
def test_grid_product_2d_period_matches_dense(monkeypatch, q):
    # the period-2(q-1) circulant is exact for the even value kernel:
    # the only offsets it folds together are +-(q-1), one kernel value
    rng = np.random.default_rng(q)
    grid = grid_points(q, 2)
    w = _edge_rows(rng, 7, q * q)
    got = kernels._grid_product(SPEC, w, q)
    assert _rel(got, w @ kernels._pairwise(SPEC, grid, grid)) <= 1e-12
    # one row per FFT block gives the same product
    monkeypatch.setattr(kernels, "_FFT_BLOCK_ELEMENTS", 1)
    assert _rel(kernels._grid_product(SPEC, w, q), got) <= 1e-14


def test_assembly_forms_no_grid_by_grid_matrix(monkeypatch):
    dense = kernels._pairwise

    def guarded(spec, x, y):
        n_x = kernels._as_points(x).shape[0]
        n_y = kernels._as_points(y).shape[0]
        if n_x == n_y == grid_size:
            raise AssertionError("grid x grid pairwise matrix formed")
        return dense(spec, x, y)

    monkeypatch.setattr(kernels, "_pairwise", guarded)
    for fs in _grid_cases():
        grid_size = fs.quad_points.shape[0]
        assemble_features(SPEC, fs)


def test_evaluate_features_consistency():
    sp = build_test_space("sine1d", 3)
    bp = np.array([0.0, 1.0])
    fs = FeatureSet(sp, np.ones(129), 0.3, bp, 129)
    blocks = assemble_features(SPEC, fs)
    e_bp = evaluate_features(SPEC, fs, bp)
    assert np.allclose(e_bp, blocks.k_x_phi, atol=1e-12)
    e_grid = evaluate_features(SPEC, fs, fs.quad_points)
    assert np.allclose(e_grid, blocks.quad_eval, atol=1e-12)
    # the vector path of on_grid, a sine synthesis, against the dense
    # closed form with its sines from the reduced arguments
    c = np.random.default_rng(2).standard_normal(5)
    assert np.allclose(blocks.on_grid(c), e_grid @ c, atol=1e-12)


def test_feature_guards():
    sp = build_test_space("sine1d", 8)
    with pytest.raises(ResolutionTooCoarseError):
        FeatureSet(sp, np.ones(9), 1.0, np.array([0.0, 1.0]), 9)
    with pytest.raises(ValueError):
        FeatureSet(sp, np.ones(33), 1.0, np.array([0.0, 0.0]), 33)


def test_sine1d_features_reject_a_varying_c():
    # the closed form holds for a constant c only: random values are
    # refused, and so is a c off by one part in 2^40 at one node; the
    # long-double oracle test below refuses a smooth profile
    bp = np.array([0.0, 1.0])
    q = 25
    one_off = np.ones(q)
    one_off[-1] += 2.0 ** -40
    for c in (1.0 + np.random.default_rng(3).random(q), one_off):
        with pytest.raises(ValueError, match="constant c"):
            FeatureSet(build_test_space("sine1d", 6), c, 0.01, bp, q)


def test_fem_features_reject_a_varying_c():
    # every tent shares one stencil, which holds for a constant c only:
    # random values are refused, and so is a c off by one part in 2^40 at
    # one node
    bp = np.array([0.0, 1.0])
    q = 73
    one_off = np.full(q, 1.7)
    one_off[36] += 2.0 ** -40
    for c in (1.0 + np.random.default_rng(3).random(q), one_off):
        with pytest.raises(ValueError, match="fem1d features need a "
                                             "constant c"):
            FeatureSet(build_test_space("fem1d", 8), c, 0.3, bp, q)
    FeatureSet(build_test_space("fem1d", 8), np.full(q, 1.7), 0.3, bp, q)


def test_collocation_blocks_against_derivative_oracle():
    x = np.array([0.2, 0.45, 0.8])
    c = np.array([1.0, 2.0, 0.5])
    nu = 0.05
    bp = np.array([0.0, 1.0])
    blocks = assemble_collocation(SPEC, x, c, nu, bp)
    n = 3
    # operator-boundary block: P_x K(x_i, b_j)
    tb = x[:, None] - bp[None, :]
    oracle_cb = -nu * _k2(tb) + c[:, None] * _k(np.abs(tb))
    assert np.allclose(blocks.k_chi_phi[:, n:], oracle_cb, rtol=1e-12)
    # operator-operator block: P_x P_y K(x_i, x_j)
    t = x[:, None] - x[None, :]
    oracle_cc = nu ** 2 * _k4(t) - nu * (c[:, None] + c[None, :]) * _k2(t) \
        + c[:, None] * c[None, :] * _k(np.abs(t))
    assert np.allclose(blocks.k_chi_phi[:, :n], oracle_cc, rtol=1e-12)
    ev = evaluate_collocation(SPEC, x, c, nu, bp, bp)
    assert np.allclose(ev[:, n:], kernel_matrix(SPEC, bp), atol=1e-13)
    assert np.allclose(ev[:, :n], oracle_cb.T, atol=1e-13)
    eig = np.linalg.eigvalsh(blocks.k_phi_phi)
    assert eig.min() >= -1e-8 * np.trace(blocks.k_phi_phi)


def test_collocation_rejects_2d():
    with pytest.raises(ValueError):
        assemble_collocation(SPEC, np.array([0.5]), 1.0, 0.1,
                             np.array([[0.0, 0.0], [1.0, 1.0]]))



@pytest.mark.parametrize("c_kind", ["varying", "constant"])
def test_one_exponential_collocation_matches_derivative_ladder(c_kind):
    # the collocation blocks share one exp(-A|t|) per entry; the ladder
    # evaluates the d4, d2 and value kernels separately
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(0.0, 1.0, 97))
    c_field = rng.uniform(0.5, 2.0, x.shape[0]) if c_kind == "varying" \
        else 1.0
    c = np.broadcast_to(c_field, x.shape)
    nu = 0.02
    bp = np.array([0.0, 1.0])
    y = grid_points(389)
    t = x[:, None] - x[None, :]
    tb = x[:, None] - bp[None, :]
    ty = y[:, None] - x[None, :]
    cc = nu ** 2 * _matern52_d4(SPEC, t) \
        - nu * (c[:, None] + c[None, :]) * _matern52_d2(SPEC, t) \
        + c[:, None] * c[None, :] * kernels._matern52(SPEC, np.abs(t))
    cb = -nu * _matern52_d2(SPEC, tb) \
        + c[:, None] * kernels._matern52(SPEC, np.abs(tb))
    ev = -nu * _matern52_d2(SPEC, ty) \
        + c[None, :] * kernels._matern52(SPEC, np.abs(ty))

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    n = x.shape[0]
    blocks = assemble_collocation(SPEC, x, c_field, nu, bp)
    assert rel(blocks.k_chi_phi[:, :n], cc) <= 1e-13
    assert rel(blocks.k_chi_phi[:, n:], cb) <= 1e-13
    assert rel(blocks.k_x_phi[:, :n], cb.T) <= 1e-13
    e = evaluate_collocation(SPEC, x, c_field, nu, bp, y)
    assert rel(e[:, :n], ev) <= 1e-13
    assert rel(e[:, n:], kernel_matrix(SPEC, y, bp)) <= 1e-13


def test_collocation_peak_memory():
    # a constant c_field stays a scalar, so assembly holds the Gram array
    # and the offsets t, with no n x n weight array broadcast from c; the
    # Gram and evaluation matrices keep the bits of the per-point form
    n = 1024
    x = np.arange(1, n + 1) / (n + 1.0)
    bp = np.array([0.0, 1.0])
    unit = 8 * (n + 2) ** 2
    tracemalloc.start()
    try:
        blocks = assemble_collocation(SPEC, x, 1.0, 0.01, bp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * unit, f"peak {peak / unit:.2f} (n+2)^2 arrays"
    per_point = assemble_collocation(SPEC, x, np.ones(n), 0.01, bp)
    assert np.array_equal(blocks.k_phi_phi, per_point.k_phi_phi)
    y = grid_points(65)
    assert np.array_equal(
        evaluate_collocation(SPEC, x, 1.0, 0.01, bp, y),
        evaluate_collocation(SPEC, x, np.ones(n), 0.01, bp, y))


@pytest.mark.parametrize("kind, size, n_quad", [("sine1d", 256, 1025),
                                                ("sine2d", 256, 65)])
def test_feature_assembly_peak_memory(monkeypatch, kind, size, n_quad):
    # the weight rows are formed in place and the grid products are written
    # straight into quad_eval, so FeatureSet and assembly together hold at
    # most two N x G arrays at a time, plus the N x N Gram blocks; the FFT
    # work buffers are capped separately, and cut to one row here so that
    # only N x G arrays count.  sine2d takes a varying c, so that its
    # grid-product path is the one measured
    monkeypatch.setattr(kernels, "_FFT_BLOCK_ELEMENTS", 1)
    sp = build_test_space(kind, size)
    bp = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) \
        if kind == "sine2d" else np.array([0.0, 1.0])
    n_grid = n_quad ** sp.dim
    unit = 8 * sp.size * n_grid
    c = _varying_c(grid_points(n_quad, 2)) if kind == "sine2d" else \
        np.ones(n_grid)
    tracemalloc.start()
    try:
        fs = FeatureSet(sp, c, 0.1, bp, n_quad)
        blocks = assemble_features(SPEC, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks.quad_eval.shape == (n_grid, sp.size + bp.shape[0])
    assert peak <= 3.0 * unit, f"peak {peak / unit:.2f} N x G arrays"


def test_symmetrize_extra_memory_does_not_grow_with_n():
    # _symmetrize sums one pair of square blocks of at most
    # _SYMMETRIZE_BLOCK_ELEMENTS at a time: its extra memory is the same at
    # n = 512 and 2048 (0.66 MB measured at both), where blocks of a
    # quarter of the rows took 0.40 and 4.3 MB; the bits are those of the
    # whole sum
    peaks = []
    for n in (512, 2048):
        a = np.random.default_rng(n).standard_normal((n, n))
        want = 0.5 * (a + a.T)
        tracemalloc.start()
        try:
            kernels._symmetrize(a)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(a, want)
    bound = 4 * 8 * kernels._SYMMETRIZE_BLOCK_ELEMENTS
    assert max(peaks) <= bound, f"peaks {peaks} bytes above {bound}"
    assert peaks[1] <= 1.1 * peaks[0], f"peaks {peaks} grow with n"


def test_on_grid_matches_dense_evaluation():
    # the matrix-free grid evaluation against the dense matrix it replaces
    rng = np.random.default_rng(5)
    for fs in _grid_cases():
        blocks = assemble_features(SPEC, fs)
        quad_eval = _dense_blocks(fs)[2]
        c = rng.standard_normal(fs.n_features + fs.n_boundary)
        want = quad_eval @ c
        assert np.max(np.abs(blocks.on_grid(c) - want)) <= \
            1e-12 * np.abs(want).max()
        # a matrix of coefficient columns gives the columns' values; its
        # GEMMs and stacked transforms round apart from the vector path's
        # by a few ulps (2.6e-16 of the largest value on these cases)
        cols = rng.standard_normal((fs.n_features + fs.n_boundary, 3))
        got = blocks.on_grid(cols)
        want = np.column_stack([blocks.on_grid(cols[:, j])
                                for j in range(3)])
        assert got.shape == want.shape
        assert _rel(got, want) <= 1e-14
        # on a grid nested in the quadrature grid at half or a third of
        # its spacing: the combined weight row with zeros between the
        # quadrature nodes, one fine grid product, against the dense
        # evaluation at the fine nodes
        for stride in (2, 3):
            n_fine = stride * (fs.n_quad - 1) + 1
            want = evaluate_features(
                SPEC, fs, grid_points(n_fine, fs.space.dim)) @ c
            got = kernels.grid_values(SPEC, fs, c, n_fine)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()
        with pytest.raises(ValueError, match="nest"):
            kernels.grid_values(SPEC, fs, c, 2 * fs.n_quad)
    # sine1d: one sine synthesis and the six layers at the fine nodes
    fs = FeatureSet(build_test_space("sine1d", 8), np.ones(33), 0.1,
                    np.array([0.0, 1.0]), 33)
    c = rng.standard_normal(10)
    want = evaluate_features(SPEC, fs, grid_points(65)) @ c
    got = kernels.grid_values(SPEC, fs, c, 65)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["sine2d", "fem1d"])
def test_weights_formed_in_place_keep_their_bits(monkeypatch, kind):
    # sine2d: one row per in-place block gives the weights of the
    # whole-array formula, bit for bit.  fem: every tent's row of the
    # lattice definition is the one stencil on that tent's nodes, bit for
    # bit, and the operator block, which depends only on i - j, is the
    # Toeplitz matrix of its first row, bit for bit
    monkeypatch.setattr(kernels, "_WEIGHT_BLOCK_ELEMENTS", 1)
    fs = {f.space.kind: f for f in _grid_cases()}[kind]
    sp, nu = fs.space, fs.nu_diff
    if kind == "fem1d":
        nodes, s = kernels._fem_stencil(fs)
        w = _fem_lattice_weights(fs)
        r = (fs.n_quad - 1) // (sp.size + 1)
        for i in range(sp.size):
            support = slice(i * r, (i + 2) * r + 1)
            assert np.array_equal(s, w[i, support])
            assert np.array_equal(nodes[i], fs.quad_points[support])
            assert not w[i, :i * r].any() and not w[i, (i + 2) * r + 1:].any()
        k_cc = assemble_features(SPEC, fs).k_chi_phi[:, :sp.size]
        assert np.array_equal(k_cc, scipy.linalg.toeplitz(k_cc[0]))
        return
    # row (i, j) is 2 F_i (x) F_j (c + nu lambda_ij), F the Filon weights
    f = filon_weights(sp.n_per_dim, fs.n_quad)
    want = np.stack([2.0 * np.kron(fi, fj) for fi in f for fj in f]) \
        * (fs.c_field + (nu * sp.eigenvalues)[:, None])
    assert np.array_equal(fs.value_rows(slice(None)), want)


def _k_cc_long_double(spec, fs):
    """The sine2d operator block W K W^T in np.longdouble: rows
    2 F_i (x) F_j (c + nu lambda_ij) from the float64 Filon weights F,
    taken as given (their entries have a 30-digit test of their own), and
    the Matern kernel at the exact offsets between grid nodes, (k - l) /
    (q-1) per axis."""
    ld = np.longdouble
    q = fs.n_quad
    m = fs.space.n_per_dim
    pi = 4 * np.arctan(ld(1))
    j = np.arange(1, m + 1)[:, None]
    k = np.arange(q)
    f = filon_weights(m, q).astype(ld)
    lam = (pi * j) ** 2
    offset = np.abs(k[:, None] - k[None, :]).astype(ld)
    g = q * q
    f = 2 * (f[:, None, :, None] * f[None, :, None, :]).reshape(m * m, g)
    lam = (lam + lam.T).reshape(m * m, 1)
    offset = np.sqrt(offset[:, None, :, None] ** 2 +
                     offset[None, :, None, :] ** 2).reshape(g, g)
    weights = f * (fs.c_field.astype(ld) + ld(fs.nu_diff) * lam)
    ar = np.sqrt(ld(5)) / ld(spec.length_scale) * offset / (q - 1)
    kernel = (1 + ar + ar ** 2 / 3) * np.exp(-ar)
    return weights @ kernel @ weights.T


def _sine1d_gram_long_double(spec, fs):
    """The sine1d operator block in np.longdouble from the formulas as
    stated, not from the rational forms and recurrence of the library:
    d_i d_j (s_i delta_ij + 4 sum_m Im J_m(i) c_m(j)) on entries of equal
    parity, with I_k = Im k!/(a - i pi j)^(k+1) and J_m written out."""
    ld = np.longdouble
    n = fs.n_features
    a = np.sqrt(ld(5)) / ld(spec.length_scale)
    j = np.arange(1, n + 1)
    w = 4 * np.arctan(ld(1)) * j
    s = 16 * a ** 5 / (3 * (a * a + w * w) ** 3)
    lam = np.empty(n, dtype=np.clongdouble)
    lam.real, lam.imag = a, -w
    i0, i1, i2 = ((f / lam ** (k + 1)).imag for k, f in enumerate((1, 1, 2)))
    c = np.stack([i0 + a * i1 + a * a * i2 / 3, a * i0 + 2 * a * a * i1 / 3,
                  a * a * i0 / 3], axis=1)
    z = -lam
    ez = np.exp(z)
    im_j = np.stack([(ez - 1) / z, ez / z - (ez - 1) / z ** 2,
                     ez / z - 2 * ez / z ** 2 + 2 * (ez - 1) / z ** 3],
                    axis=1).imag
    same = (j[:, None] + j[None, :]) % 2 == 0
    d = ld(fs.c_field[0]) + ld(fs.nu_diff) * w * w
    return d[:, None] * (4 * same * (im_j @ c.T) + np.diag(s)) * d[None, :]


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("c_kind", ["constant", "varying"])
def test_dst_pairing_against_long_double_oracle(n, c_kind):
    # the sine1d operator block, once a DST-I pairing of grid products, is
    # now in closed form: with a constant c the assembled block is within a
    # few float64 roundings of a long-double evaluation of the same
    # integrals, relative to sqrt(G_ii G_jj); a varying c, which the
    # closed form cannot take, is refused
    spec = KernelSpec("matern52", 0.2)
    q = 4 * n + 1
    x = grid_points(q)
    c = np.ones(q) if c_kind == "constant" else \
        1.0 + 0.5 * np.cos(3 * np.pi * x)
    args = (build_test_space("sine1d", n), c, 0.01, np.array([0.0, 1.0]), q)
    if c_kind == "varying":
        with pytest.raises(ValueError, match="constant c"):
            FeatureSet(*args)
        return
    fs = FeatureSet(*args)
    oracle = _sine1d_gram_long_double(spec, fs)
    got = assemble_features(spec, fs).k_phi_phi[:n, :n]
    diag = np.sqrt(np.diag(oracle))
    err = np.abs(got - oracle) / (diag[:, None] * diag[None, :])
    assert float(err.max()) <= 4e-15, float(err.max())


def test_sine1d_assembly_holds_no_weight_array():
    # sine1d features keep no N x G weights and assembly holds no N x N
    # temporary: the GEMM of the closed form writes straight into the Gram
    # array, which is then symmetrized a block pair at a time
    n, q = 1024, 4097
    unit = 8 * (n + 2) ** 2
    tracemalloc.start()
    try:
        fs = FeatureSet(build_test_space("sine1d", n), np.ones(q), 0.1,
                        np.array([0.0, 1.0]), q)
        assemble_features(SPEC, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * unit, f"peak {peak / unit:.2f} Gram arrays"


@pytest.mark.parametrize("p", [4, 8])
@pytest.mark.parametrize("c_kind", ["constant", "varying"])
def test_separable_pairing_against_long_double_oracle(p, c_kind):
    # the sine2d operator block, with the Filon weights on the default
    # grid, is as close to an extended-precision oracle of the same sums as
    # the GEMM of the weight rows with their FFT grid products: with a
    # varying c the block is the separable pairing of those grid products,
    # with a constant c the lattice-offset contraction in the circulant's
    # Fourier basis, which takes no grid product
    spec = KernelSpec("matern52", 0.2)
    sp = build_test_space("sine2d", n_per_dim=p)
    q = default_n_quad(sp)
    x = grid_points(q, 2)
    c = np.ones(q * q) if c_kind == "constant" else _varying_c(x)
    fs = FeatureSet(sp, c, 0.01, np.array([[0.0, 0.0], [1.0, 1.0]]), q)
    n = fs.n_features
    oracle = _k_cc_long_double(spec, fs)
    scale = np.max(np.abs(oracle))

    separable_k = assemble_features(spec, fs).k_phi_phi[:n, :n]
    wv = fs.value_rows(slice(None))
    gemm_k = kernels._grid_product(spec, wv, q) @ wv.T
    gemm_k = 0.5 * (gemm_k + gemm_k.T)
    err_sep = float(np.max(np.abs(separable_k - oracle)) / scale)
    err_gemm = float(np.max(np.abs(gemm_k - oracle)) / scale)
    assert err_sep <= 1.25 * err_gemm + 1e-15, (err_sep, err_gemm)
    assert err_sep <= 4e-15, err_sep


def _sine2d_blocks(spec, c_of, nu, bp, p, q):
    """k_cc, k_cb and the G x N grid values of the features of the sine2d
    FeatureSet with c = c_of(grid) on q points per dim."""
    fs = FeatureSet(build_test_space("sine2d", n_per_dim=p),
                    c_of(grid_points(q, 2)), nu, bp, q)
    blocks = assemble_features(spec, fs)
    n = fs.n_features
    unit = np.eye(n + fs.n_boundary)[:, :n]
    return blocks.k_chi_phi[:, :n], blocks.k_chi_phi[:, n:], \
        blocks.on_grid(unit)


def _trapezoid_blocks(spec, c_of, nu, bp, p, q):
    """k_cc and k_cb of the same features by the trapezoid rule on q
    points per dim, from dense weight rows: the rule sine2d features took
    on 4p + 1 points before the Gregory and Filon rules."""
    sp = build_test_space("sine2d", n_per_dim=p)
    x = grid_points(q, 2)
    w = trapezoid_weights(q, 2)
    phi = basis_values(sp, x)
    rows = phi * (w * c_of(x)) + phi * (nu * sp.eigenvalues)[:, None] * w
    k_cc = kernels._grid_product(spec, rows, q) @ rows.T
    return 0.5 * (k_cc + k_cc.T), rows @ kernels._pairwise(spec, x, bp)


# how far the sixth-order Gregory features on 5p/2 + 5 points (15 and 25),
# the rule before the Filon one, were from the same kind of reference:
# k_cc, k_cb and grid values
_GREGORY_ERRORS = {4: (8.8e-3, 1.1e-2, 9.9e-3), 8: (2.3e-2, 1.1e-2, 1.1e-2)}


@pytest.mark.parametrize("p", [4, 8])
def test_sine2d_features_against_a_fine_grid_reference(p):
    # the sine2d operator block, its boundary block and its features' grid
    # values on the default grid, against the same features on a grid four
    # times finer that nests it, relative to each reference's largest
    # entry.  The Filon features on the default grid (q = 13 and 19 here)
    # are closer to the reference than the Gregory ones were on their
    # larger grid, and at least twice as close as trapezoid ones on
    # 4p + 1 points (trapezoid: k_cc 5.4e-2 and 8.3e-2, k_cb 4.4e-2 and
    # 4.9e-2).  The reference itself is 1e-7 or closer to mpmath at the
    # spot checks, and its operator block moves by less than 1e-4 (2.0e-6
    # and 1.7e-6 measured) when its grid is halved again, under a thirtieth
    # of the errors above (k_cc 5.0e-3 and 3.9e-3 measured, k_cb 4.5e-4 and
    # 1.4e-4, values 1.5e-3 and 4.4e-4).
    spec, nu = KernelSpec("matern52", 0.2), 0.1
    t = np.linspace(0.0, 1.0, 5)
    bp = np.vstack([np.column_stack([t, np.zeros(5)]),
                    np.column_stack([t[1:-1], np.ones(3)])])

    def c_of(x):
        return 1.0 + 0.5 * np.cos(3 * np.pi * x[:, 0]) * \
            np.cos(2 * np.pi * x[:, 1])

    def err(got, want):
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    q = default_n_quad(build_test_space("sine2d", n_per_dim=p))
    q_ref = 4 * (q - 1) + 1
    k_cc, k_cb, values = _sine2d_blocks(spec, c_of, nu, bp, p, q)
    ref_cc, ref_cb, ref_values = _sine2d_blocks(spec, c_of, nu, bp, p, q_ref)
    trap_cc, trap_cb = _trapezoid_blocks(spec, c_of, nu, bp, p, 4 * p + 1)
    on_default = ref_values.reshape(q_ref, q_ref, -1)[::4, ::4]
    errors = (err(k_cc, ref_cc), err(k_cb, ref_cb),
              err(values, on_default.reshape(q * q, -1)))
    assert all(e <= g for e, g in zip(errors, _GREGORY_ERRORS[p])), errors
    assert errors[0] <= 0.5 * err(trap_cc, ref_cc)
    assert errors[1] <= 0.5 * err(trap_cb, ref_cb)
    finer_cc = _sine2d_blocks(spec, c_of, nu, bp, p, 2 * (q_ref - 1) + 1)[0]
    assert err(ref_cc, finer_cc) <= 1e-4

    mp = pytest.importorskip("mpmath")
    if p != 8:
        return
    with mp.workdps(15):
        a = mp.sqrt(5) / mp.mpf(spec.length_scale)
        i, j = 3, 2
        scale = nu * mp.pi ** 2 * (i * i + j * j)

        def feature_times_kernel(zx, zy):
            def f(x, y):
                r = mp.sqrt((x - zx) ** 2 + (y - zy) ** 2)
                c = 1 + mp.cos(3 * mp.pi * x) * mp.cos(2 * mp.pi * y) / 2
                return (c + scale) * 2 * mp.sin(mp.pi * i * x) * \
                    mp.sin(mp.pi * j * y) * \
                    (1 + a * r + (a * r) ** 2 / 3) * mp.exp(-a * r)
            # split at the kernel's C^4 point, where the rule would not
            # converge fast
            return mp.quad(f, [0, zx, 1], [0, zy, 1],
                           method="gauss-legendre")

        row = (i - 1) * p + (j - 1)
        zx, zy = bp[2]
        want = feature_times_kernel(mp.mpf(zx), mp.mpf(zy))
        assert abs(ref_cb[row, 2] - want) <= \
            1e-7 * np.max(np.abs(ref_cb[:, 2]))
        k, m = 3 * (q_ref - 1) // 5, (q_ref - 1) // 3
        want = feature_times_kernel(mp.mpf(k) / (q_ref - 1),
                                    mp.mpf(m) / (q_ref - 1))
        assert abs(ref_values[k * q_ref + m, row] - want) <= \
            1e-7 * np.max(np.abs(ref_values[:, row]))


def test_sine2d_assembly_holds_no_weight_array(monkeypatch):
    # sine2d features keep no N x G weights: with a varying c assembly
    # forms their rows a block at a time from the axis sines and pairs them
    # by separable contractions, so FeatureSet and assembly together peak
    # near the N x N Gram array; the FFT work buffers are cut to one row so
    # that only the arrays of the assembly count
    monkeypatch.setattr(kernels, "_FFT_BLOCK_ELEMENTS", 1)
    p, q = 16, 65
    unit = 8 * p * p * q * q
    bp = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tracemalloc.start()
    try:
        fs = FeatureSet(build_test_space("sine2d", n_per_dim=p),
                        _varying_c(grid_points(q, 2)), 0.1, bp, q)
        assemble_features(SPEC, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * unit, f"peak {peak / unit:.2f} N x G arrays"


def _grid_product_block(spec, fs):
    """The sine2d operator block by the grid-product path, in the blocks of
    rows that assembly takes: each block of weight rows, their FFT grid
    products, paired with the weights, then symmetrized."""
    n, q = fs.n_features, fs.n_quad
    block = max(1, kernels._WEIGHT_BLOCK_ELEMENTS // (q * q))
    k_cc = np.empty((n, n))
    for lo in range(0, n, block):
        rows = slice(lo, min(lo + block, n))
        fs.pair(kernels._grid_product(spec, fs.value_rows(rows), q),
                out=k_cc[rows])
    return 0.5 * (k_cc + k_cc.T)


def _constant_c_features(p, c, nu):
    sp = build_test_space("sine2d", n_per_dim=p)
    q = default_n_quad(sp)
    return FeatureSet(sp, np.full(q * q, c), nu,
                      np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), q)


@pytest.mark.parametrize("p", [4, 20, 32])
def test_constant_c_sine2d_block_matches_grid_products(monkeypatch, p):
    # with a constant c the operator block is the lattice-offset
    # contraction, which takes no grid product: the same sums as the
    # grid-product block in another order, within 1e-12 of max |k_cc|
    # (4.8e-16, 2.2e-15 and 5.7e-15 measured at c = 1 + pi, nu = 0.1,
    # ell = 0.2)
    spec = KernelSpec("matern52", 0.2)
    fs = _constant_c_features(p, 1.0 + np.pi, 0.1)
    want = _grid_product_block(spec, fs)

    def no_grid_product(*args):
        raise AssertionError("grid product in a constant-c build")

    monkeypatch.setattr(kernels, "_grid_product", no_grid_product)
    got = assemble_features(spec, fs).k_chi_phi[:, :fs.n_features]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=25, deadline=None)
@given(p=st.integers(2, 24), ell=st.floats(0.05, 0.5),
       nu=st.floats(0.0, 1.0), c=st.floats(-3.0, 5.0))
def test_constant_c_sine2d_block_matches_grid_products_everywhere(
        p, ell, nu, c):
    # the same bound over sizes, length scales, diffusions and constants
    # c, zero included (4.7e-15 of max |k_cc| the largest measured at the
    # corners of these ranges)
    spec, fs = KernelSpec("matern52", ell), _constant_c_features(p, c, nu)
    want = _grid_product_block(spec, fs)
    got = assemble_features(spec, fs).k_chi_phi[:, :fs.n_features]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_varying_c_sine2d_build_takes_grid_products(monkeypatch):
    # c off by one part in 2^40 at one node is not constant: the block is
    # the grid-product one, bit for bit, and the contraction is not called
    spec = KernelSpec("matern52", 0.2)
    fs = _constant_c_features(6, 1.7, 0.1)
    c = fs.c_field.copy()
    c[7] += 2.0 ** -40
    fs = FeatureSet(fs.space, c, fs.nu_diff, fs.boundary_points, fs.n_quad)

    def no_contraction(*args):
        raise AssertionError("lattice contraction with a varying c")

    monkeypatch.setattr(kernels, "_sine2d_lattice_block", no_contraction)
    k = assemble_features(spec, fs).k_chi_phi[:, :fs.n_features]
    assert np.array_equal(k, _grid_product_block(spec, fs))


def test_constant_c_sine2d_assembly_memory():
    # written into a given N x N array, the contraction holds the p^2 x q
    # array C and one p x N block of rows, plus p x q and q x q arrays and
    # ufunc buffers, which the 30% covers (18% measured at p = 32); a
    # second p x N block (+32%) or p^2 x q array (+68%) would not fit.  The
    # circulant spectrum is cached with the grid products' and formed first
    p = 32
    fs = _constant_c_features(p, 1.0 + np.pi, 0.1)
    n, q = fs.n_features, fs.n_quad
    kernels._circulant_spectrum(SPEC, q)
    out = np.empty((n, n))
    unit = 8 * (p * n + p * p * q)
    tracemalloc.start()
    try:
        kernels._sine2d_lattice_block(SPEC, fs, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * unit, f"peak {peak / unit:.2f} of p x N + p^2 x q"
    assert np.array_equal((out + out.T) * 0.5,
                          assemble_features(SPEC, fs).k_chi_phi[:, :n])


def _mp_sine1d_mode(mp, a, j):
    """s(pi j), the coefficients c_0, c_1, c_2 of P_j and Im J_m, m <= 2,
    of mode j in mpmath, from the formulas as stated: I_k =
    Im k!/(a - i pi j)^(k+1) and J_m = int_0^1 x^m e^{zx} dx written out,
    z = -a + i pi i."""
    w = mp.pi * j
    s = 16 * a ** 5 / (3 * (a * a + w * w) ** 3)
    i0, i1, i2 = (mp.im(mp.factorial(k) / mp.mpc(a, -w) ** (k + 1))
                  for k in range(3))
    c = (i0 + a * i1 + a * a * i2 / 3, a * i0 + 2 * a * a * i1 / 3,
         a * a * i0 / 3)
    z = mp.mpc(-a, w)
    ez = mp.exp(z)
    big_j = ((ez - 1) / z, ez / z - (ez - 1) / z ** 2,
             ez / z - 2 * ez / z ** 2 + 2 * (ez - 1) / z ** 3)
    return s, c, [mp.im(v) for v in big_j]


def _mp_k_phi(mp, a, j, x, mode):
    """(K phi_j)(x) from the closed form of ``_mp_sine1d_mode``: s phi_j
    plus the boundary layers sqrt(2) e^{-ax} P_j(x) and its mirror image
    times (-1)^(j+1)."""
    s, c, _ = mode

    def p(t):
        return c[0] + c[1] * t + c[2] * t * t
    r2 = mp.sqrt(2)
    return s * r2 * mp.sin(mp.pi * j * x) + r2 * mp.exp(-a * x) * p(x) + \
        r2 * (-1) ** (j + 1) * mp.exp(-a * (1 - x)) * p(1 - x)


def _mp_sine1d_gram(mp, a, modes, i, j):
    """Gram entry (i, j) of phi_i, phi_j: s_i delta_ij plus
    sum_m 2 Im J_m(i) c_m(j) (1 + (-1)^(i+j))."""
    s_i, _, im_j = modes[i]
    _, c_j, _ = modes[j]
    layers = 2 * sum(im_j[m] * c_j[m] for m in range(3)) * \
        (1 + (-1) ** (i + j))
    return layers + (s_i if i == j else 0)


def test_sine1d_closed_forms_match_mpmath_at_30_digits():
    # the closed forms against 30-digit quadrature, then the float64 terms,
    # the whole Gram array and k_cb at n = 32 against the 30-digit closed
    # forms, and entries up to n = 4096; Gram errors are taken relative to
    # sqrt(G_ii G_jj), which bounds |G_ij| for a PSD matrix
    mp = pytest.importorskip("mpmath")
    spec, nu, cc, n = KernelSpec("matern52", 0.2), 0.01, 0.8, 32
    with mp.workdps(30):
        a = mp.sqrt(5) / mp.mpf(spec.length_scale)

        def k(t):
            t = abs(t)
            return (1 + a * t + (a * t) ** 2 / 3) * mp.exp(-a * t)

        spot = [(4096, 4096), (4095, 4095), (4096, 4094), (1, 4095),
                (2, 4096), (2047, 4095), (3000, 3000), (2047, 2047),
                (4095, 4096), (1, 1)]
        modes = {j: _mp_sine1d_mode(mp, a, j)
                 for j in set(range(1, n + 1)).union(*spot)}
        # the formulas, which hold for every j, against quadrature
        for j in (1, 2, 7):
            w = mp.pi * j
            s_quad = 2 * mp.quad(lambda t: k(t) * mp.cos(w * t),
                                 mp.linspace(0, 8, 2 * j + 7))
            assert abs(modes[j][0] - s_quad) <= 1e-18 * modes[j][0]
            for m in range(3):
                mu = mp.quad(lambda x: x ** m * mp.exp(-a * x) *
                             mp.sin(w * x), mp.linspace(0, 1, j + 2))
                assert abs(modes[j][2][m] - mu) <= 1e-18 * abs(mu)
            for x in (0, mp.mpf("0.13"), mp.mpf("0.5"), mp.mpf("0.91"), 1):
                quad = mp.quad(lambda y: k(x - y) * mp.sqrt(2) *
                               mp.sin(w * y), [0, x, 1])
                scale = abs(_mp_k_phi(mp, a, j, mp.mpf(0), modes[j]))
                assert abs(_mp_k_phi(mp, a, j, x, modes[j]) - quad) <= \
                    1e-18 * scale

        # the float64 terms
        s_hat, moments, coeffs = kernels._sine1d_terms(
            np.sqrt(5.0) / 0.2, np.pi * np.arange(1, n + 1))
        for j in range(1, n + 1):
            s, c, im_j = modes[j]
            cols = slice(0, 3) if j % 2 else slice(3, 6)
            assert abs(s_hat[j - 1] - s) <= 1e-13 * s
            for got, want in ((coeffs[j - 1, cols], [mp.sqrt(2) * v
                                                     for v in c]),
                              (moments[j - 1, cols], [2 * mp.sqrt(2) * v
                                                      for v in im_j])):
                assert max(abs(g - v) for g, v in zip(got, want)) <= \
                    1e-13 * max(abs(v) for v in want)
            assert not coeffs[j - 1, 3:].any() if j % 2 else \
                not coeffs[j - 1, :3].any()

        # the whole Gram array and k_cb at n = 32
        bp = np.array([0.0, 1.0])
        fs = FeatureSet(build_test_space("sine1d", n), np.full(129, cc),
                        nu, bp, 129)
        blocks = assemble_features(spec, fs)
        d = {j: cc + mp.mpf(nu) * (mp.pi * j) ** 2 for j in modes}
        want = mp.matrix(n, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want[i - 1, j - 1] = d[i] * d[j] * \
                    _mp_sine1d_gram(mp, a, modes, i, j)
        got = blocks.k_chi_phi[:, :n]
        for i in range(n):
            for j in range(n):
                scale = mp.sqrt(want[i, i] * want[j, j])
                assert abs(got[i, j] - want[i, j]) <= 1e-13 * scale, (i, j)
        for j in range(1, n + 1):
            for b, x in enumerate(bp):
                want_cb = d[j] * _mp_k_phi(mp, a, j, mp.mpf(x), modes[j])
                got_cb = blocks.k_chi_phi[j - 1, n + b]
                assert abs(got_cb - want_cb) <= 1e-13 * abs(want_cb)
                assert blocks.k_x_phi[b, j - 1] == got_cb

        # entries up to n = 4096, from the terms the assembly reads
        big = 4096
        s_hat, moments, coeffs = kernels._sine1d_terms(
            np.sqrt(5.0) / 0.2, np.pi * np.arange(1, big + 1))
        for i, j in spot:
            got = moments[i - 1] @ coeffs[j - 1] + \
                (s_hat[i - 1] if i == j else 0.0)
            want = _mp_sine1d_gram(mp, a, modes, i, j)
            scale = mp.sqrt(_mp_sine1d_gram(mp, a, modes, i, i) *
                            _mp_sine1d_gram(mp, a, modes, j, j))
            assert abs(got - want) <= 1e-13 * scale, (i, j)
