"""Noise processes: closed-form correlation/spectrum pairs and smooth
realization synthesis with analytic derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_bits,
    eval_spectral_complex,
    lfilter_bspline_coefficients,
    ou_coeffs_by_columns,
    ou_coeffs_per_seed,
    ou_eval_row_major,
    ou_eval_untiled,
    prefilter_sequential,
)
from stochastic_dce import noise
from stochastic_dce.dynamics import BLOCK_STEPS
from stochastic_dce.noise import (
    NoiseConfigError,
    NoiseKind,
    NoiseSpec,
    NoiseBatch,
    NotAStochasticProcessError,
    _prefilter,
    _recurse,
    bspline_evaluate,
    correlation,
    eval_batch,
    spectrum,
    synthesize,
    synthesize_many,
)

OU = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
BAND = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=1.5, nu_max=2.5)
LINES = NoiseSpec(kind=NoiseKind.SPECTRAL_LINES, sigma=1.0, nu_min=1.5, nu_max=2.5)
SINUSOID = NoiseSpec(kind=NoiseKind.DETERMINISTIC_SINUSOID, omega_drive=2.0)


def ev(batch, t, order):
    """Values of the first row of a batch at times t, one derivative order."""
    return eval_batch(batch, t, (order,))[order][:, 0]


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=-1.0, t_c=0.5),
        dict(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.0),
        dict(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0),  # missing t_c
        dict(kind=NoiseKind.BAND_LIMITED, nu_min=2.5, nu_max=1.5),
        dict(kind=NoiseKind.BAND_LIMITED, nu_min=-1.0, nu_max=1.5),
        dict(kind=NoiseKind.BAND_LIMITED, nu_min=2.0, nu_max=2.0),
        dict(kind=NoiseKind.BAND_LIMITED, nu_min=1.0, nu_max=2.0, n_components=0),
        dict(kind=NoiseKind.SPECTRAL_LINES),  # missing band
        dict(kind=NoiseKind.DETERMINISTIC_SINUSOID),  # missing omega_drive
        dict(kind=NoiseKind.DETERMINISTIC_SINUSOID, omega_drive=-2.0),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(NoiseConfigError):
        NoiseSpec(**kwargs)


def test_specs_are_immutable():
    with pytest.raises(Exception):
        OU.sigma = 2.0


# ---------------------------------------------------------------------------
# correlation


def test_ou_correlation_hand_values():
    # R(u) = sigma^2 e^{-|u|/t_c}
    assert correlation(OU, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert correlation(OU, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_band_correlation_hand_values():
    # R(u) = sigma^2 (sin(nu2 u) - sin(nu1 u)) / (dnu u), R(0) = sigma^2
    assert correlation(BAND, 0.0) == pytest.approx(1.0, abs=1e-15)
    u = 0.7
    expected = (math.sin(2.5 * u) - math.sin(1.5 * u)) / (1.0 * u)
    assert correlation(BAND, u) == pytest.approx(expected, rel=1e-12)


def test_lines_correlation_is_mean_of_cosines():
    spec = NoiseSpec(kind=NoiseKind.SPECTRAL_LINES, sigma=2.0, nu_min=1.0,
                     nu_max=3.0, n_components=4)
    u = 0.3
    nus = spec.line_frequencies()
    assert nus == pytest.approx([1.25, 1.75, 2.25, 2.75])
    expected = 4.0 * np.mean(np.cos(nus * u))
    assert correlation(spec, u) == pytest.approx(expected, rel=1e-12)


@given(st.floats(-50.0, 50.0))
def test_correlation_is_even(u):
    for spec in (OU, BAND, LINES):
        assert correlation(spec, -u) == pytest.approx(correlation(spec, u),
                                                      rel=1e-12, abs=1e-12)


@given(st.floats(0.0, 50.0))
def test_correlation_bounded_by_variance(u):
    for spec in (OU, BAND, LINES):
        assert abs(correlation(spec, u)) <= spec.sigma**2 + 1e-12


def test_sinusoid_has_no_correlation_contract():
    with pytest.raises(NotAStochasticProcessError):
        correlation(SINUSOID, 0.3)
    with pytest.raises(NotAStochasticProcessError):
        spectrum(SINUSOID, 2.0)


# ---------------------------------------------------------------------------
# spectrum


def test_ou_spectrum_hand_values():
    # S(nu) = sigma^2 t_c (1 + i nu t_c) / (1 + nu^2 t_c^2)
    s = spectrum(OU, 2.0)
    assert s.real == pytest.approx(0.25, rel=1e-12)
    assert s.imag == pytest.approx(0.25, rel=1e-12)
    s0 = spectrum(OU, 0.0)
    assert s0 == pytest.approx(0.5 + 0.0j, rel=1e-12)


def test_zero_amplitude_spectrum_vanishes():
    for spec in (
        NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=0.0, t_c=0.5),
        NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=0.0, nu_min=1.5, nu_max=2.5),
    ):
        assert spectrum(spec, 2.0) == 0.0
        assert spectrum(spec, 0.0) == 0.0


def test_band_spectrum_flat_real_part():
    # Re S = pi sigma^2 / (2 dnu) inside the band, 0 outside
    inside = np.pi / 2.0
    assert spectrum(BAND, 2.0).real == pytest.approx(inside, rel=1e-12)
    assert spectrum(BAND, 1.5).real == pytest.approx(inside, rel=1e-12)
    assert spectrum(BAND, 1.0).real == 0.0
    assert spectrum(BAND, 3.0).real == 0.0


def test_band_spectrum_imag_log_form():
    # Im S(nu) = (sigma^2 / 2 dnu) log |(nu+nu2)(nu-nu1)| / |(nu-nu2)(nu+nu1)|
    # (one-sided transform of the band correlation, computed by hand).
    nu, n1, n2 = 2.0, 1.5, 2.5
    expected = 0.5 * math.log(abs((nu + n2) * (nu - n1)) /
                              abs((nu - n2) * (nu + n1)))
    assert spectrum(BAND, nu).imag == pytest.approx(expected, rel=1e-12)


def test_band_spectrum_matches_numerical_transform():
    # independent oracle: S(nu) = int_0^inf R(u) e^{i nu u} du, evaluated
    # numerically with a slow convergence factor removed by Richardson-style
    # averaging over half-oscillation endpoints.
    nu = 2.2
    from scipy.integrate import quad

    def re_int(u):
        return correlation(BAND, u) * math.cos(nu * u)

    def im_int(u):
        return correlation(BAND, u) * math.sin(nu * u)

    # integrate over many band-beat periods and average tail endpoints
    upper = [200 + 80 * j for j in range(8)]
    re_vals = []
    im_vals = []
    for U in upper:
        re_vals.append(quad(re_int, 0.0, U, limit=4000)[0])
        im_vals.append(quad(im_int, 0.0, U, limit=4000)[0])
    s = spectrum(BAND, nu)
    assert np.mean(re_vals) == pytest.approx(s.real, abs=0.02)
    assert np.mean(im_vals) == pytest.approx(s.imag, abs=0.02)


@given(st.floats(0.0, 30.0))
def test_spectrum_real_part_nonnegative(nu):
    for spec in (OU, BAND, LINES):
        assert spectrum(spec, nu).real >= 0.0


@given(st.floats(0.0, 30.0))
def test_spectrum_negative_argument_conjugates(nu):
    for spec in (OU, BAND):
        assert spectrum(spec, -nu) == pytest.approx(
            np.conj(spectrum(spec, nu)), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# synthesis


def test_zero_noise_gives_zero_path():
    spec = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=0.0, nu_min=1.5,
                     nu_max=2.5)
    r = synthesize(spec, 3, 10.0)
    t = np.linspace(0.0, 10.0, 17)
    out = eval_batch(r, t, (0, 1, 2))
    for order in (0, 1, 2):
        assert np.all(out[order] == 0.0)


def test_sinusoid_path_is_seed_independent_sine():
    t = np.linspace(0.0, 9.0, 50)
    for seed in (0, 1, 99):
        out = eval_batch(synthesize(SINUSOID, seed, 10.0), t, (0, 1, 2))
        np.testing.assert_allclose(out[0][:, 0], np.sin(2.0 * t), atol=1e-14)
        np.testing.assert_allclose(out[1][:, 0], 2.0 * np.cos(2.0 * t),
                                   atol=1e-13)
        np.testing.assert_allclose(out[2][:, 0], -4.0 * np.sin(2.0 * t),
                                   atol=1e-13)


def test_sinusoid_derivative_hand_value():
    r = synthesize(NoiseSpec(kind=NoiseKind.DETERMINISTIC_SINUSOID,
                             omega_drive=2.0), 0, 10.0)
    assert ev(r, [math.pi / 4.0], 1)[0] == pytest.approx(0.0, abs=1e-12)


def test_single_line_second_derivative_hand_value():
    # xi = cos(3t): xi''(0) = -9
    r = NoiseBatch(10.0, amplitudes=np.array([1.0]),
                   frequencies=np.array([[3.0]]), phases=np.array([[0.0]]))
    assert ev(r, [0.0], 2)[0] == pytest.approx(-9.0, rel=1e-12)


@pytest.mark.parametrize("spec", [OU, BAND, LINES], ids=["ou", "band", "lines"])
def test_synthesis_is_deterministic(spec, rng):
    a = synthesize(spec, 42, 20.0)
    b = synthesize(spec, 42, 20.0)
    t = rng.uniform(0.0, 20.0, 100)
    np.testing.assert_array_equal(ev(a, t, 0), ev(b, t, 0))


def test_different_seeds_give_different_paths():
    a = synthesize(BAND, 1, 20.0)
    b = synthesize(BAND, 2, 20.0)
    t = np.linspace(0.0, 20.0, 50)
    assert np.max(np.abs(ev(a, t, 0) - ev(b, t, 0))) > 1e-3


def test_eval_rejects_out_of_range_times():
    for spec in (BAND, OU):
        r = synthesize(spec, 0, 5.0)
        for orders in ((0,), (0, 1, 2)):
            with pytest.raises(ValueError):
                eval_batch(r, [5.5], orders)
            with pytest.raises(ValueError):
                eval_batch(r, [-0.5], orders)


def test_band_realization_variance_budget():
    # sum a_j^2 / 2 = R(0) for spectral synthesis
    r = synthesize(BAND, 7, 10.0)
    assert np.sum(r.amplitudes**2) / 2.0 == pytest.approx(1.0, rel=1e-12)


def test_band_frequencies_stratified_over_band():
    r = synthesize(BAND, 7, 10.0)
    n = BAND.n_components
    edges = np.linspace(1.5, 2.5, n + 1)
    assert np.all(r.frequencies[0] >= edges[:-1])
    assert np.all(r.frequencies[0] <= edges[1:])


# ---------------------------------------------------------------------------
# derivative consistency (central differences vs analytic orders)


@pytest.mark.parametrize("spec", [BAND, LINES], ids=["band", "lines"])
def test_spectral_derivatives_match_finite_differences(spec, rng):
    r = synthesize(spec, 5, 20.0)

    h = 1e-5
    t = rng.uniform(1.0, 19.0, 200)
    for lo, hi in ((0, 1), (1, 2)):
        fd = (ev(r, t + h, lo) - ev(r, t - h, lo)) / (2.0 * h)
        exact = ev(r, t, hi)
        scale = np.maximum(np.abs(exact), 1e-3)
        assert np.max(np.abs(fd - exact) / scale) < 1e-6


def test_ou_derivatives_match_finite_differences(rng):
    # The OU path is a C^2 cubic interpolant: the truncation error of the
    # h=1e-5 central difference itself (~h^2 |xi'''| with |xi'''| set by
    # the knot-to-knot roughness) dominates at the 1e-4 level, so order
    # 0 -> 1 is checked at 1e-3; order 1 -> 2 is piecewise-polynomial
    # exact away from knots and holds to near roundoff.
    r = synthesize(OU, 5, 20.0)

    h = 1e-5
    t = rng.uniform(1.0, 19.0, 200)
    t = (np.round(t / r.grid_step) + 0.5) * r.grid_step  # mid-interval
    fd1 = (ev(r, t + h, 0) - ev(r, t - h, 0)) / (2.0 * h)
    scale = np.maximum(np.abs(ev(r, t, 1)), 1e-3)
    assert np.max(np.abs(fd1 - ev(r, t, 1)) / scale) < 1e-3
    fd2 = (ev(r, t + h, 1) - ev(r, t - h, 1)) / (2.0 * h)
    scale = np.maximum(np.abs(ev(r, t, 2)), 1e-3)
    assert np.max(np.abs(fd2 - ev(r, t, 2)) / scale) < 1e-6


# ---------------------------------------------------------------------------
# ensemble statistics


def test_band_ensemble_mean_and_variance():
    reals = synthesize_many(BAND, range(10_000), 2.0)
    x = eval_batch(reals, np.array([1.0]), (0,))[0][0]
    assert abs(np.mean(x)) < 3.0 / math.sqrt(10_000)
    assert np.var(x) == pytest.approx(1.0, rel=0.05)


def test_ou_ensemble_marginals_and_lagged_correlation():
    n = 10_000
    t, u = 3.0, 0.5
    prods = np.empty(n)
    vals = np.empty(n)
    for s in range(0, n, 2000):
        reals = synthesize_many(OU, range(s, s + 2000), 6.0)
        out = eval_batch(reals, np.array([t, t + u]), (0,))[0]
        vals[s:s + 2000] = out[0]
        prods[s:s + 2000] = out[0] * out[1]
    assert np.var(vals) == pytest.approx(1.0, rel=0.05)
    target = correlation(OU, u)
    stderr = np.std(prods) / math.sqrt(n)
    assert abs(np.mean(prods) - target) < 4.0 * stderr


def test_ou_statistics_are_stationary():
    # same lag probed at two anchor times agrees within combined error
    n = 4000
    ests = []
    errs = []
    for t in (2.0, 7.0):
        reals = synthesize_many(OU, range(n), 10.0)
        out = eval_batch(reals, np.array([t, t + 0.5]), (0,))[0]
        prod = out[0] * out[1]
        ests.append(np.mean(prod))
        errs.append(np.std(prod) / math.sqrt(n))
    assert abs(ests[0] - ests[1]) < 4.0 * math.hypot(*errs)


def test_synthesize_many_matches_synthesize():
    # every row is bitwise the seed drawn alone, wherever it sits in a
    # batch of 300
    t = np.linspace(0.5, 9.5, 40)
    seeds = list(range(3, 303))
    for spec in (OU, BAND):
        many = synthesize_many(spec, seeds, 10.0)
        out = eval_batch(many, t, (0,))[0]
        for i in (0, 1, 5, 127, 128, 200, 299):
            single = synthesize(spec, seeds[i], 10.0)
            if spec is OU:
                np.testing.assert_array_equal(many.coeffs[:, i], single.coeffs[:, 0])
            else:
                np.testing.assert_array_equal(many.frequencies[i],
                                              single.frequencies[0])
                np.testing.assert_array_equal(many.phases[i], single.phases[0])
            np.testing.assert_array_equal(out[:, i], ev(single, t, 0))


def test_ou_coeffs_match_per_seed_filter():
    # the in-place recursions over the whole batch give each seed the bits
    # of its own lfilter AR(1) filter and lfilter spline fit
    for horizon, knots in ((0.005, 2), (0.035, 5), (5.0, 501)):
        for width in (1, 128, 129, 300):
            seeds = list(range(3, 3 + width))
            coeffs = synthesize_many(OU, seeds, horizon).coeffs
            assert coeffs.shape == (knots, width)
            np.testing.assert_array_equal(coeffs, ou_coeffs_per_seed(OU, seeds, horizon))


@pytest.mark.parametrize("width", [1, 3, 16, 17, 128])
def test_ou_drives_in_seed_groups_match_column_writes(width):
    # the drives written a seed group at a time, a full group, a partial
    # one or both, give the bytes of one strided column per seed
    for horizon in (0.005, 0.3, 6.0, 25.0):
        seeds = list(range(11, 11 + width))
        assert_same_bits(synthesize_many(OU, seeds, horizon).coeffs,
                         ou_coeffs_by_columns(OU, seeds, horizon))


@pytest.mark.parametrize("width", [1, 3, 128, 129])
def test_ou_eval_matches_row_major_gather(width, rng):
    # step-major evaluation of knot-major coefficients is bitwise the
    # row-major gather, at t = 0, at the knots, at t = horizon and between
    horizon = 10.0
    batch = synthesize_many(OU, range(40, 40 + width), horizon)
    knots = np.append(np.arange(batch.coeffs.shape[0] - 1) * batch.grid_step, horizon)
    grids = [np.linspace(0.0, horizon, 4097), knots,
             np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, 500)), [horizon]])]
    alone = synthesize(OU, 40 + width // 2, horizon)
    for t in grids:
        assert t[0] == 0.0 and t[-1] == horizon
        for b in (batch, alone):
            got = eval_batch(b, t, (0, 1, 2))
            ref = ou_eval_row_major(b, t, (0, 1, 2))
            for o in (0, 1, 2):
                assert got[o].shape == (t.size, len(b))
                np.testing.assert_array_equal(got[o], ref[o])


# the shortest array whose prefilter passes run in pieces
SEGMENTED = noise.SEGMENTS * noise.WARMUP


@pytest.mark.parametrize("width", [1, 3, 17, 128, 256])
def test_segmented_prefilter_matches_sequential_loop(width):
    # both passes in pieces side by side give the bytes of one loop over
    # every knot row: white and OU-correlated samples, many seeds, knot
    # counts around the length that starts the pieces, a cosmo_sweep
    # chunk's 2,501 and 20,001
    a = math.exp(-1.0 / noise.OU_GRID_PER_TC)
    cases = [(n, range(8)) for n in (2, 5, SEGMENTED - 1, SEGMENTED, SEGMENTED + 1,
                                     SEGMENTED + noise.SEGMENTS - 1, 2501)]
    cases.append((20001, range(2)))
    for n, seeds in cases:
        for seed in seeds:
            white = np.random.default_rng(seed).standard_normal((n, width))
            correlated = white.copy()
            _recurse(list(correlated), a)
            for samples in (white, correlated):
                got, ref = samples.copy(), samples.copy()
                _prefilter(got)
                prefilter_sequential(ref)
                assert_same_bits(got, ref)


@pytest.mark.parametrize("width", [1, 3, 17, 128, 256])
def test_tiled_ou_eval_matches_untiled(width, rng):
    # the tiles give the bytes of one gather per tap over all times, for
    # every order set: one point, a tile, a point past it, several tiles
    # and a partial one, and uneven times across tile edges
    horizon = 25.0
    batch = synthesize_many(OU, range(60, 60 + width), horizon)
    tile = noise.TILE_BYTES // (8 * width)
    grids = [np.array([horizon]), np.linspace(0.0, horizon, tile),
             np.linspace(0.0, horizon, tile + 1), np.linspace(0.0, horizon, 3 * tile + 5),
             np.sort(rng.uniform(0.0, horizon, 2 * tile + 7))]
    for t in grids:
        for orders in ((0,), (1,), (2,), (0, 1, 2)):
            got = eval_batch(batch, t, orders)
            ref = ou_eval_untiled(batch, t, orders)
            assert list(got) == list(orders)
            for o in orders:
                assert_same_bits(got[o], ref[o])


@pytest.mark.parametrize("spec", [OU, BAND, LINES, SINUSOID],
                         ids=["ou", "band", "lines", "sinusoid"])
def test_eval_batch_is_step_major(spec, rng):
    # every kind and order comes back (times, rows), and column b is
    # bitwise row b's seed synthesized and evaluated alone
    horizon = 10.0
    seeds = [5, 6, 7]
    batch = synthesize_many(spec, seeds, horizon)
    for t in (np.linspace(0.0, horizon, 301), np.sort(rng.uniform(0.0, horizon, 40))):
        out = eval_batch(batch, t, (0, 1, 2))
        for b, seed in enumerate(seeds):
            alone = eval_batch(synthesize(spec, seed, horizon), t, (0, 1, 2))
            for o in (0, 1, 2):
                assert out[o].shape == (t.size, len(seeds))
                np.testing.assert_array_equal(out[o][:, b], alone[o][:, 0])


def test_eval_batch_matches_individual_eval(rng):
    t = np.sort(rng.uniform(0.0, 10.0, 25))
    for spec in (OU, BAND):
        out = eval_batch(synthesize_many(spec, range(6), 10.0), t, (0, 1, 2))
        for i in range(6):
            single = synthesize(spec, i, 10.0)
            for o in (0, 1, 2):
                np.testing.assert_allclose(out[o][:, i], ev(single, t, o),
                                           rtol=1e-12, atol=1e-12)


def _long_double_sums(batch, t):
    """xi, xi', xi'' of every row as long-double cosine sums."""
    ld = np.longdouble
    a = batch.amplitudes.astype(ld)
    out = {o: np.empty((len(batch), t.size)) for o in (0, 1, 2)}
    for i, (nu, phi) in enumerate(zip(batch.frequencies.astype(ld),
                                      batch.phases.astype(ld))):
        phase = np.multiply.outer(t.astype(ld), nu) + phi
        cos, sin = np.cos(phase), np.sin(phase)
        out[0][i] = cos @ a
        out[1][i] = sin @ (-a * nu)
        out[2][i] = cos @ (-a * nu**2)
    return out


SPECTRAL_BATCHES = [
    (NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=9.0, nu_max=10.0,
               n_components=64), 3),
    (NoiseSpec(kind=NoiseKind.SPECTRAL_LINES, sigma=1.0, nu_min=1.5, nu_max=12.0,
               n_components=48), 2),
    (NoiseSpec(kind=NoiseKind.DETERMINISTIC_SINUSOID, omega_drive=6.0), 1),
]


@pytest.mark.parametrize("spec,rows", SPECTRAL_BATCHES,
                         ids=["band", "lines", "sinusoid"])
def test_spectral_eval_matches_long_double_sums(spec, rows, rng):
    # (a) run_batch's half-step grid, block by block over more than three
    # blocks and from a block start that is not a multiple of the block;
    # (b) unsorted, unevenly spaced times, where every time is an anchor
    horizon = 40.0
    nsteps = 3 * BLOCK_STEPS + 1500
    half = 0.5 * horizon / nsteps
    batch = synthesize_many(spec, range(7, 7 + rows), horizon)
    starts = [*range(0, nsteps, BLOCK_STEPS), 1001]
    grids = [half * np.arange(2 * s, 2 * min(nsteps, s + BLOCK_STEPS) + 1)
             for s in starts]
    grids.append(rng.uniform(0.0, horizon, 3000))
    for t in grids:
        got = eval_batch(batch, t, (0, 1, 2))
        ref = _long_double_sums(batch, t)
        for o in (0, 1, 2):
            scale = np.max(np.abs(ref[o]), axis=1, keepdims=True)
            assert np.all(np.abs(got[o].T - ref[o]) <= 1e-12 * scale)


@pytest.mark.parametrize("spec,rows", SPECTRAL_BATCHES,
                         ids=["band", "lines", "sinusoid"])
def test_spectral_eval_matches_complex_oracle(spec, rows, rng):
    # the real-arithmetic kernel rounds like the complex products it
    # replaced, bit for bit: on one of run_batch's half-step blocks at
    # every batch width tested, and at width 3 for each order set on that
    # block, on an even grid whose length is not a multiple of the anchor
    # stride and on sorted and unsorted uneven times
    horizon = 40.0
    half = 0.5 * horizon / (3 * BLOCK_STEPS + 1500)
    grids = [half * np.arange(2 * BLOCK_STEPS, 4 * BLOCK_STEPS + 1),
             np.linspace(0.0, horizon, 130),
             np.sort(rng.uniform(0.0, horizon, 300)),
             rng.uniform(0.0, horizon, 300)]
    cases = [(width, grids[0], (0, 1, 2)) for width in (1, 2, 32, 257)]
    cases += [(3, t, orders) for t in grids for orders in ((0,), (1,), (0, 1, 2))]
    for width, t, orders in cases:
        batch = synthesize_many(spec, range(7, 7 + width), horizon)
        got = eval_batch(batch, t, orders)
        ref = eval_spectral_complex(batch, t, orders)
        assert list(got) == list(orders)
        for o in orders:
            assert_same_bits(got[o], ref[o])


# ---------------------------------------------------------------------------
# B-spline interpolation building block


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(8, 60))
def test_bspline_interpolates_samples(seed, n):
    samples = np.random.default_rng(seed).standard_normal((n, 1))
    coeffs = samples.copy()
    _prefilter(coeffs)
    at_knots = bspline_evaluate(coeffs, np.arange(n, dtype=float), (0,))[0]
    np.testing.assert_allclose(at_knots, samples, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 40])
def test_bspline_matches_lfilter_oracle(n, rng):
    # knots on the first axis, filtered in place; a column rounds the same
    # alone as in the batch
    samples = rng.standard_normal((n, 7))
    coeffs = samples.copy()
    _prefilter(coeffs)
    np.testing.assert_array_equal(coeffs, lfilter_bspline_coefficients(samples.T).T)
    alone = samples[:, 3:4].copy()
    _prefilter(alone)
    np.testing.assert_array_equal(alone[:, 0], coeffs[:, 3])


def test_bspline_is_c2_smooth(rng):
    # first and second derivatives are continuous across knots
    coeffs = rng.standard_normal((40, 1))
    _prefilter(coeffs)
    h = 1e-7
    for knot in (10.0, 20.0, 31.0):
        for order in (0, 1, 2):
            left = bspline_evaluate(coeffs, np.array([knot - h]), (order,))[order][0, 0]
            right = bspline_evaluate(coeffs, np.array([knot + h]), (order,))[order][0, 0]
            assert abs(left - right) < 1e-4
