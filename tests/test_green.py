"""Green's function tables: quadrature values against the walk-series oracle,
the oracle against closed forms and the walk distributions behind it against
the step-count loop and brute force, exact symmetries, the stencil residual
check, and the decay/entropy helpers."""

import itertools
import math

import numpy as np
import pytest

from sandharm import green
from sandharm.green import (
    GreenTable,
    QuadratureSpec,
    compute_green,
    decay_profile,
    entropy_quadrature,
    fundamental_residual,
    multiplier_table,
    tail_beyond,
    walk_series_oracle,
)
from sandharm.laurent import LaurentPoly, laplacian_poly


def test_symmetry_is_exact(table_d2_g4, table_d3_g6):
    t = table_d2_g4
    for n in [(1, 0), (3, 2), (7, 1), (16, 16)]:
        assert t.value(n) == t.value((-n[0], -n[1]))
        assert t.value(n) == t.value((n[1], n[0]))
        assert t.value(n) == t.value((n[0], -n[1]))
    t3 = table_d3_g6
    base = (1, 2, 3)
    vals = {t3.value(p) for p in itertools.permutations(base)}
    assert len(vals) == 1
    signs = {t3.value((s0 * 1, s1 * 2, s2 * 3)) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)}
    assert len(signs) == 1


def test_critical_d2_center_zero_rest_negative(table_d2_g4):
    t = table_d2_g4
    assert t.value((0, 0)) == 0.0
    vals = t.values.copy()
    vals[t.radius, t.radius] = -1.0
    assert np.all(vals < 0)


def test_d3_tables_positive(table_d3_g6, table_d3_g7):
    assert np.all(table_d3_g6.values > 0)
    assert np.all(table_d3_g7.values > 0)


def test_closed_form_spot_values_d2(table_d2_g4):
    t = table_d2_g4
    assert abs(t.value((1, 0)) + 0.25) <= 1e-6
    assert abs(t.value((1, 1)) + 1 / math.pi) <= 1e-5
    assert abs(t.value((2, 1)) - (0.25 - 2 / math.pi)) <= 1e-5


def test_d3_center_matches_series(table_d3_g6):
    t = table_d3_g6
    oracle = walk_series_oracle(3, 6, (0, 0, 0))
    assert abs(t.value((0, 0, 0)) - oracle.value) <= oracle.err_bound + 10 * t.accuracy
    assert abs(oracle.value - 0.252731) <= 1e-5


def test_oracle_closed_forms():
    near = walk_series_oracle(2, 4, (1, 0))
    diag = walk_series_oracle(2, 4, (1, 1))
    knight = walk_series_oracle(2, 4, (2, 1))
    assert abs(near.value + 0.25) <= near.err_bound + 1e-9
    assert near.err_bound < 1e-6
    assert abs(diag.value + 1 / math.pi) <= diag.err_bound + 1e-9
    assert abs(knight.value - (0.25 - 2 / math.pi)) <= knight.err_bound + 1e-9


# Watson's value 6 w(0) = sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)
# for the critical d=3 lattice (Watson 1939; Glasser-Zucker 1977)
WATSON_6W0 = math.sqrt(6) / (32 * math.pi**3) * math.prod(math.gamma(k / 24) for k in (1, 5, 7, 11))


def test_d3_center_matches_watson(table_d3_g6):
    assert abs(WATSON_6W0 - 1.516386059151978) <= 1e-15
    oracle = walk_series_oracle(3, 6, (0, 0, 0))
    assert abs(6 * oracle.value - WATSON_6W0) <= 6 * oracle.err_bound
    assert abs(6 * table_d3_g6.value((0, 0, 0)) - WATSON_6W0) <= 6 * table_d3_g6.accuracy


@pytest.mark.parametrize("gamma", [3, 5])
def test_oracle_dissipative_d1_closed_form(gamma):
    # gamma w_n - w_{n-1} - w_{n+1} = delta_n gives w_0 = 1/sqrt(gamma^2 - 4)
    oracle = walk_series_oracle(1, gamma, (0,))
    assert abs(oracle.value - 1 / math.sqrt(gamma**2 - 4)) <= oracle.err_bound


def test_oracle_refuses_what_it_cannot_serve():
    with pytest.raises(ValueError, match="dimension"):
        walk_series_oracle(0, 0, ())
    with pytest.raises(ValueError, match="diverges"):
        walk_series_oracle(1, 2, (0,))
    with pytest.raises(ValueError, match="wrong dimension"):
        walk_series_oracle(2, 4, (0,))
    with pytest.raises(ValueError, match="at least 2d"):
        walk_series_oracle(3, 5, (0, 0, 0))


def test_oracle_refuses_near_critical_gamma_before_building_tables():
    walk, binom = green._walk_1d_table.cache_info().misses, green._binom_p_table.cache_info().misses
    with pytest.raises(ValueError, match="too close to 2d"):
        walk_series_oracle(3, 6.001, (0, 0, 0))
    assert green._walk_1d_table.cache_info().misses == walk
    assert green._binom_p_table.cache_info().misses == binom


@pytest.mark.parametrize("d,gamma,site", [(2, 4, (0, 0)), (2, 4, (1, 0)), (3, 6, (1, 0, 0)), (2, 5, (1, 0)), (1, 3, (0,))])
def test_oracle_returns_floats_on_every_branch(d, gamma, site):
    oracle = walk_series_oracle(d, gamma, site)
    assert type(oracle.value) is float and type(oracle.err_bound) is float


# -- walk distributions against the step-by-step DP and brute force ------------


def _loop_walk_distribution(d, n, kmax):
    """Reference: the step-count loop, dealing steps to one axis at a time by binomial allocation."""
    W = green._walk_1d_table(kmax)

    def column(x):
        return W[:, kmax + x] if abs(x) <= kmax else np.zeros(kmax + 1)

    cur = column(n[-1])
    for axes_left, axis in enumerate(range(d - 2, -1, -1), start=2):
        B = green._binom_p_table(kmax, 1.0 / axes_left)
        col = column(n[axis])
        nxt = np.zeros(kmax + 1)
        for k in range(kmax + 1):
            a = np.arange(k + 1)
            nxt[k] = np.dot(B[k, : k + 1], col[: k + 1] * cur[k - a])
        cur = nxt
    return cur


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kmax", [0, 1, 5, 40, 600, 800])
def test_walk_distribution_matches_loop_reference(d, kmax):
    sites = [(0,) * d, (1,) + (0,) * (d - 1), tuple(range(-1, d - 1)), (3,) * d,
             (kmax + 1,) + (0,) * (d - 1), (kmax // 2 + 1,) * d, (kmax // 2,) + (0,) * (d - 1)]
    for n in sites:
        ref = _loop_walk_distribution(d, n, kmax)
        p = green.walk_distribution(d, n, kmax)
        assert p.shape == (kmax + 1,)
        assert np.all(np.abs(p - ref) <= 4e-15 * np.abs(ref)), (n, np.max(np.abs(p - ref)))


@pytest.mark.parametrize("d,K", [(2, 8), (3, 6)])
def test_walk_distribution_matches_enumeration(d, K):
    """Every one of the (2d)^K walks of K steps; each k-step prefix occurs (2d)^(K-k) times."""
    steps = np.concatenate([np.eye(d, dtype=np.int64), -np.eye(d, dtype=np.int64)])
    walks = np.indices((2 * d,) * K).reshape(K, -1).T
    ends = np.concatenate([np.zeros((len(walks), 1, d), np.int64), np.cumsum(steps[walks], axis=1)], axis=1)
    side = 2 * K + 3  # sites with |n_j| <= K + 1, one ring past reach
    exact = np.zeros((K + 1,) + (side,) * d)
    for k in range(K + 1):
        idx = tuple((ends[:, k] + K + 1).T)
        np.add.at(exact[k], idx, 1.0)
    exact /= len(walks)
    total = np.zeros(K + 1)
    for n in itertools.product(range(-K - 1, K + 2), repeat=d):
        p = green.walk_distribution(d, n, K)
        want = exact[(slice(None),) + tuple(x + K + 1 for x in n)]
        assert np.all(np.abs(p - want) <= 4e-15 * want), (n, p, want)
        total += p
    assert np.max(np.abs(total - 1.0)) <= 1e-14


def test_walk_distribution_results_are_fresh():
    for d, n in [(1, (0,)), (2, (1, 0)), (3, (1, 1, 0))]:
        want = green.walk_distribution(d, n, 5).copy()
        p = green.walk_distribution(d, n, 5)
        p[:] = 0.0
        assert np.array_equal(green.walk_distribution(d, n, 5), want)
    for table in (green._walk_1d_table(5), green._binom_p_table(5, 0.5)):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


@pytest.mark.parametrize("fixture,span", [("table_d2_g4", 2), ("table_d2_g5", 2), ("table_d3_g6", 1)])
def test_oracle_agreement_near_origin(request, fixture, span):
    t = request.getfixturevalue(fixture)
    for site in itertools.product(range(span + 1), repeat=t.dim):
        if tuple(sorted(site, reverse=True)) != site:
            continue  # one representative per symmetry class
        oracle = walk_series_oracle(t.dim, t.gamma, site)
        assert abs(t.value(site) - oracle.value) <= oracle.err_bound + 10 * t.accuracy


def test_fundamental_residual_small(table_d2_g4, table_d2_g5, table_d3_g6, table_d3_g7):
    for t in (table_d2_g4, table_d2_g5, table_d3_g6, table_d3_g7):
        assert fundamental_residual(t) <= 10 * t.accuracy


def test_fundamental_residual_detects_corruption(table_d2_g4):
    t = table_d2_g4
    bad = np.array(t.values)
    bad[t.radius + 3, t.radius + 2] += 1e-3
    corrupted = GreenTable(t.dim, t.gamma, t.radius, bad, t.accuracy, t.method)
    assert fundamental_residual(corrupted) >= 9e-4


def test_stencil_multiplier_is_point_mass(table_d2_g4):
    t = table_d2_g4
    m = multiplier_table(laplacian_poly(2), t)
    tol = m.entry_error + 10 * t.accuracy
    expect = np.zeros_like(m.values)
    expect[m.radius, m.radius] = 1.0
    assert np.max(np.abs(m.values - expect)) <= tol


def test_cubed_difference_multiplier_decays(table_d2_g4):
    one = LaurentPoly.one(2)
    u1 = LaurentPoly(2, {(1, 0): 1})
    m = multiplier_table((one - u1) ** 3, table_d2_g4)
    prof = decay_profile(m.values)
    assert prof.exponent is not None
    assert prof.exponent <= -2.7


def test_decay_profile_synthetic():
    R = 20
    grid = np.fromfunction(
        lambda i, j: 1.0 / np.maximum(np.maximum(abs(i - R), abs(j - R)), 1) ** 3,
        (2 * R + 1, 2 * R + 1),
    )
    prof = decay_profile(grid)
    assert abs(prof.exponent + 3.0) <= 0.1

    delta = np.zeros((9, 9))
    delta[4, 4] = 1.0
    prof2 = decay_profile(delta)
    assert prof2.exponent is None
    assert tail_beyond(prof2) == 0.0


def test_dissipative_total_mass(table_d2_g5):
    # summing the fundamental relation over all sites gives (gamma - 2d) sum w = 1
    t = table_d2_g5
    total = float(t.values.sum())
    prof = decay_profile(t.values)
    budget = tail_beyond(prof) + t.values.size * t.accuracy
    assert abs(total - 1.0) <= budget


def test_entropy_large_gamma_bracket():
    h = entropy_quadrature(2, 100)
    assert math.log(96) <= h.value <= math.log(104)
    assert h.err_bound < 1e-6


@pytest.mark.parametrize("d,gamma", [(2, 5), (2, 6), (3, 7), (3, 8)])
def test_dissipative_entropy_matches_bessel_integral(d, gamma):
    """h = int_0^inf (e^-t - e^-(gamma-2d)t i0e(2t)^d) / t dt, the Frullani form of the torus mean of log f.

    The torus mean of e^{2t cos} is I0(2t) = e^{2t} i0e(2t); the integrand
    decays like e^-(gamma-2d)t, so the last piece reaches infinity.
    """
    from scipy import integrate, special

    def f(t):
        return (math.exp(-t) - math.exp(-(gamma - 2 * d) * t) * special.i0e(2.0 * t) ** d) / t

    value, quad_err = 0.0, 0.0
    for a, b in ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, math.inf)):
        part, part_err = integrate.quad(f, a, b, limit=200, epsabs=1e-14, epsrel=1e-13)
        value += part
        quad_err += part_err
    h = entropy_quadrature(d, gamma)
    assert h.method == "tensor trapezoid"
    assert abs(h.value - value) <= h.err_bound + quad_err


def test_entropy_critical_values(entropy_d2_critical, entropy_d3_critical):
    assert abs(entropy_d2_critical.value - 1.166244) <= 1e-3
    assert abs(entropy_d3_critical.value - 1.673) <= 1e-3
    assert entropy_d2_critical.err_bound < 1e-3
    assert entropy_d3_critical.err_bound < 1e-3


def test_entropy_d2_matches_catalan(entropy_d2_critical):
    """The critical d=2 entropy equals 4G/pi, G being Catalan's constant."""
    catalan = 0.915965594177219015054603514932384110774
    assert abs(entropy_d2_critical.value - 4 * catalan / math.pi) <= 1e-12


def test_csv_round_trip(table_d3_g7):
    t = table_d3_g7
    back = GreenTable.from_csv(t.to_csv())
    assert back.dim == t.dim
    assert back.gamma == t.gamma
    assert back.radius == t.radius
    assert back.accuracy == t.accuracy
    assert np.array_equal(back.values, t.values)
    assert isinstance(back.gamma, int)


def test_csv_rejects_garbage():
    with pytest.raises(ValueError):
        GreenTable.from_csv("no header here\n1,2,3\n")


def test_csv_rejects_corrupt_tables():
    # every entry must be listed once, inside the radius, with a finite value
    head = "# d=2 gamma=4 R=1 accuracy=1e-08 method=test"
    rows = ["%d,%d,%r" % (i, j, 0.25 * (i + 2 * j)) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    table = GreenTable.from_csv("\n".join([head] + rows))
    assert table.value((1, -1)) == -0.25 and table.value((0, 1)) == 0.5
    cases = [
        (rows[:8] + [rows[0]], "listed more than once"),  # (1, 1) missing
        (rows[:8] + ["-4,0,0.5"], "outside the radius-1 table"),
        (rows[:8] + ["2,1,0.5"], "outside the radius-1 table"),
        (rows[:4] + ["0,0,nan"] + rows[5:], "not finite"),
        (rows[:4] + ["0,0,inf"] + rows[5:], "not finite"),
        (rows[:4] + ["0,0,-inf"] + rows[5:], "not finite"),
        (rows[:8], "expected 9 rows, found 8"),
        (rows[:8] + ["1,1"], "row '1,1' has 2 fields, expected 3"),
        (rows[:8] + ["1,1.5,0.5"], "1.5"),
        (rows[:8] + ["1,99999999999999999999,0.5"], "99999999999999999999"),
    ]
    for body, message in cases:
        with pytest.raises(ValueError, match=message):
            GreenTable.from_csv("\n".join([head] + body))
    for bad in ("d=0", "R=-1", "gamma=nan", "gamma=inf", "accuracy=nan", "accuracy=inf", "accuracy=-1e-08"):
        key = bad.split("=")[0]
        header = " ".join(bad if tok.startswith(key + "=") else tok for tok in head.split())
        with pytest.raises(ValueError, match="bad header"):
            GreenTable.from_csv("\n".join([header] + rows))


def test_csv_parse_is_bit_identical(table_d2_g4, table_d3_g6):
    # the array parser against float() on every row
    for table in (table_d2_g4, table_d3_g6):
        text = table.to_csv()
        expected = np.array([float(ln.split(",")[-1]) for ln in text.splitlines()[1:]])
        back = GreenTable.from_csv(text)
        assert np.array_equal(back.values.ravel(), expected)
        assert np.array_equal(back.values, table.values)


def test_value_outside_radius_raises(table_d3_g6):
    with pytest.raises(KeyError):
        table_d3_g6.value((9, 0, 0))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_axis=4)
    with pytest.raises(ValueError):
        compute_green(2, 4, 20, QuadratureSpec(nodes_per_axis=64))
    with pytest.raises(ValueError):
        compute_green(2, 3.5, 4)
    with pytest.raises(ValueError):
        compute_green(1, 2, 4)


# -- folded quadrature against full-grid references ---------------------------


def _full_grid(d, gamma, N):
    """Symbol F and wrapped |t| on the whole N^d torus grid."""
    t = np.arange(N) / N
    axes = np.meshgrid(*[t] * d, indexing="ij")
    F = float(gamma) - 2.0 * sum(np.cos(2 * np.pi * a) for a in axes)
    rho = np.sqrt(sum(np.minimum(a, 1.0 - a) ** 2 for a in axes))
    return F, rho


@pytest.mark.parametrize("d,N", [(2, 20), (2, 21), (3, 16), (3, 17)])
@pytest.mark.parametrize("critical", [True, False])
def test_folded_coefficients_match_full_fft(d, N, critical):
    gamma = 2 * d if critical else 2 * d + 1
    radius = 4
    F, rho = _full_grid(d, gamma, N)
    G = np.zeros_like(F)
    G[F != 0] = 1.0 / F[F != 0]
    if critical:
        G *= 1.0 - green._bump(rho)
    ref = (np.fft.fftn(G).real / float(N) ** d)[(slice(0, radius + 1),) * d]
    A = green._smooth_part(d, gamma, N, radius, np.reciprocal)
    assert A.shape == (radius + 1,) * d
    assert np.max(np.abs(A - ref)) <= 1e-12


def _full_patch_nodes(d, gamma, n_r, n_ang):
    """Reference: every node of the polar (d = 2) or spherical (d = 3) rule, no sign-flip fold."""
    r, wr = green._leggauss(n_r, 0.0, green.BUMP_OUTER)
    if d == 2:
        n_th = 2 * n_ang
        th = 2 * np.pi * np.arange(n_th) / n_th
        wth = 2 * np.pi / n_th
        RR, TT = np.meshgrid(r, th, indexing="ij")
        pts = np.stack([(RR * np.cos(TT)).ravel(), (RR * np.sin(TT)).ravel()])
        jac = (RR * (wr[:, None] * wth)).ravel()
    else:
        c, wc = np.polynomial.legendre.leggauss(n_ang)
        n_az = 2 * n_ang
        az = 2 * np.pi * np.arange(n_az) / n_az
        waz = 2 * np.pi / n_az
        RR, CC, AA = np.meshgrid(r, c, az, indexing="ij")
        SS = np.sqrt(1.0 - CC**2)
        pts = np.stack([(RR * SS * np.cos(AA)).ravel(), (RR * SS * np.sin(AA)).ravel(), (RR * CC).ravel()])
        jac = (RR**2 * (wr[:, None, None] * wc[None, :, None] * waz)).ravel()
    return pts, jac, RR.ravel(), float(gamma) - 2.0 * np.cos(2 * np.pi * pts).sum(axis=0)


@pytest.mark.parametrize("d", [2, 3])
def test_separable_patch_matches_direct_sum(d):
    """The folded patch equals the plain sum over the full circle or sphere, at small and default fine counts."""
    gamma = 2 * d
    for radius, (n_r, n_ang) in [(3, (8, 6)), (8, green._default_patch_counts(d, fine=True))]:
        P = green._patch_values(d, gamma, radius, n_r, n_ang)
        pts, jac, rad, F = green._patch_nodes(d, gamma, n_r, n_ang)
        assert np.array_equal(F, gamma - 2.0 * np.cos(2 * np.pi * pts).sum(axis=0))
        pts, jac, rad, F = _full_patch_nodes(d, gamma, n_r, n_ang)
        wts = green._bump(rad) * jac / F
        for site in [(0, 0, 0), (1, 0, 0), (2, 3, 1), (3, 1, 2), (3, 3, 3), (radius, radius - 3, 2), (radius,) * 3]:
            site = site[:d]
            c = np.cos(2 * np.pi * (np.array(site, dtype=float) @ pts))
            assert abs(P[site] - np.dot(c, wts)) <= 1e-12
            if d == 2:
                # the regularized numerator e^{-2 pi i <n,t>} - 1 used at d = 2
                assert abs((P[site] - P[0, 0]) - np.dot(c - 1.0, wts)) <= 1e-12


@pytest.mark.parametrize("d,gamma,n_r,n_ang,nodes", [(3, 6, 64, 48, 38_400), (2, 4, 96, 96, 4_704),
                                                     (3, 6, 8, 6, 96), (2, 4, 8, 6, 32)])
def test_patch_keeps_one_node_per_sign_flip_orbit(d, gamma, n_r, n_ang, nodes):
    """Work-count guard: the folded node count, and the full rule's weight sum."""
    pts, jac, rad, F = green._patch_nodes(d, gamma, n_r, n_ang)
    assert pts.shape == (d, nodes) and jac.shape == rad.shape == F.shape == (nodes,)
    assert np.all(pts >= 0.0)
    full = _full_patch_nodes(d, gamma, n_r, n_ang)[1].sum()
    assert abs(jac.sum() - full) <= 1e-14 * full


def test_patch_refuses_odd_angle_count_before_building_nodes(monkeypatch):
    monkeypatch.setattr(green, "_leggauss", _no_grid)
    for d in (2, 3):
        with pytest.raises(ValueError, match="even"):
            green._patch_nodes(d, 2 * d, 8, 7)


@pytest.mark.parametrize("d,N,side", [(2, 50, 12), (3, 50, 12), (3, 256, 62), (2, 2048, 492)])
def test_smooth_part_builds_the_bump_on_its_corner_block_only(monkeypatch, d, N, side):
    """Work-count guard: |t| and the bump cover the indices with t_j = k/N < BUMP_OUTER, not the octant."""
    shapes, bump = [], green._bump

    def recording_bump(rho):
        shapes.append(np.shape(rho))
        return bump(rho)

    monkeypatch.setattr(green, "_bump", recording_bump)
    green._smooth_part(d, 2 * d, N, 0, np.reciprocal)
    assert shapes == [(side,) * d]


@pytest.mark.parametrize("d,N", [(2, 20), (2, 21), (3, 16), (3, 17)])
def test_folded_entropy_mean_matches_full_grid(d, N):
    F, rho = _full_grid(d, 2 * d, N)
    G = np.zeros_like(F)
    G[F != 0] = (1.0 - green._bump(rho[F != 0])) * np.log(F[F != 0])
    Fo = green._octant_grid(d, 2 * d, N)
    t = np.arange(N // 2 + 1) / N
    rho_o = np.sqrt(sum(a**2 for a in np.meshgrid(*[t] * d, indexing="ij")))
    Go = np.zeros_like(Fo)
    Go[Fo != 0] = (1.0 - green._bump(rho_o[Fo != 0])) * np.log(Fo[Fo != 0])
    assert abs(green._fold(Go, N, 0).item() - G.mean()) <= 1e-12
    # dissipative entropy is the plain grid mean of log F
    F, _ = _full_grid(d, 2 * d + 1, N)
    assert abs(green._entropy_pass(d, 2 * d + 1, N, 8, 8) - np.log(F).mean()) <= 1e-12


def _no_grid(*args):
    raise AssertionError("grid built for an input that must be refused")


def test_compute_green_refuses_before_building_grids(monkeypatch):
    monkeypatch.setattr(green, "_octant_grid", _no_grid)
    monkeypatch.setattr(green, "_patch_nodes", _no_grid)
    with pytest.raises(ValueError, match=r"d in \{2, 3\}"):
        compute_green(4, 8, 1, QuadratureSpec(nodes_per_axis=8))
    with pytest.raises(ValueError, match="budget of %d points" % green.GRID_POINT_BUDGET):
        compute_green(3, 7, 1, QuadratureSpec(nodes_per_axis=1024))
    with pytest.raises(ValueError, match="budget"):
        compute_green(2, 4, 16, QuadratureSpec(nodes_per_axis=8192))
    with pytest.raises(ValueError, match="budget"):
        entropy_quadrature(4, 9)  # the default d=4 octant, 65^4 points
    with pytest.raises(ValueError, match=r"d in \{2, 3\}"):
        entropy_quadrature(4, 8)
