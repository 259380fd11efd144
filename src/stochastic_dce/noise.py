"""Stationary zero-mean noise processes and smooth realizations.

A process is described by its correlation R(u) = <xi(t) xi(t+u)> and the
one-sided spectrum S(nu) = int_0^inf R(u) e^{i nu u} du.  Re S sets the
stochastic resonance rates, Im S the frequency shifts.

Realizations are drawn in batches (NoiseBatch, one row per seed) and
are smooth (at least C^2) functions of time so that xi, xi' and xi'' can
all be fed to the mode equations:

* spectral kinds (band-limited, spectral lines, deterministic sinusoid)
  are finite cosine sums, differentiated term by term and evaluated by
  phasor recurrence from exact anchors every 64 points of an evenly
  spaced time grid (Shinozuka & Deodatis, 1991);
* the Ornstein-Uhlenbeck process is sampled exactly on a fine grid, by
  an AR(1) recursion, and interpolated with a C^2 cubic B-spline whose
  coefficients come from the recursive prefilter (Unser, Aldroubi & Eden,
  1993).  Both are first-order recursions run in place over the knot
  rows of one knot-major array: the AR(1) pass as one loop, each
  prefilter pass as 16 pieces side by side, every piece after the first
  restarted 64 knots early, which keeps the loop's bits.  eval_batch
  reads the array step-major, in time tiles of about 256 KB (one
  gathered knot row per tap and time).

eval_batch returns every kind in one layout, times on axis 0 and rows
on the last axis, (len(times), len(batch)): the layout of the OU
coefficients and of every array run_batch steps with.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseKind",
    "NoiseSpec",
    "NoiseConfigError",
    "NotAStochasticProcessError",
    "correlation",
    "spectrum",
    "synthesize",
    "synthesize_many",
    "eval_batch",
    "max_step",
    "NoiseBatch",
]

# Exact marginals on a grid of t_c/50, interpolation error is bounded by
# the sub-grid roughness of the path (irrelevant at the drive frequencies).
OU_GRID_PER_TC = 50

# Seeds whose OU drives are stacked and written into the knot-major
# array together: one transposed block copy per group, not one strided
# column per seed.
DRIVE_GROUP = 16

# Bytes of one tile array of the OU evaluation (a tile of gathered knot
# rows, the output tile): small enough to stay in cache, so 256 points
# at 128 rows, 1024 at 32.
TILE_BYTES = 256 * 1024

# The B-spline prefilter's passes run as this many pieces side by side,
# each later piece started by this many steps over the rows before it:
# the pole's |z|^64 is about 1e-37.
SEGMENTS = 16
WARMUP = 64

# Points per exact anchor when the spectral sums are evaluated on an
# evenly spaced grid; the recurrence's rounding stays near 1e-14.
ANCHOR_STRIDE = 64


class NoiseConfigError(ValueError):
    """Invalid noise specification."""


class NotAStochasticProcessError(TypeError):
    """Correlation/spectrum queried on a deterministic drive."""


class NoiseKind(enum.Enum):
    ORNSTEIN_UHLENBECK = "ornstein_uhlenbeck"
    BAND_LIMITED = "band_limited"
    SPECTRAL_LINES = "spectral_lines"
    DETERMINISTIC_SINUSOID = "deterministic_sinusoid"


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of one noise process.

    sigma is the RMS amplitude (R(0) = sigma^2) for the stochastic kinds.
    t_c applies to the OU kind, [nu_min, nu_max] and n_components to the
    spectral-synthesis kinds, omega_drive to the deterministic sinusoid.
    """

    kind: NoiseKind
    sigma: float = 1.0
    t_c: float | None = None
    nu_min: float | None = None
    nu_max: float | None = None
    n_components: int = 256
    omega_drive: float | None = None

    def __post_init__(self):
        k = self.kind
        if k is not NoiseKind.DETERMINISTIC_SINUSOID and self.sigma < 0:
            raise NoiseConfigError(f"sigma must be >= 0, got {self.sigma}")
        if k is NoiseKind.ORNSTEIN_UHLENBECK:
            if self.t_c is None or self.t_c <= 0:
                raise NoiseConfigError(f"OU noise needs t_c > 0, got {self.t_c}")
        elif k in (NoiseKind.BAND_LIMITED, NoiseKind.SPECTRAL_LINES):
            if self.nu_min is None or self.nu_max is None:
                raise NoiseConfigError(f"{k.value} noise needs nu_min and nu_max")
            if not (0 <= self.nu_min < self.nu_max):
                raise NoiseConfigError(
                    f"need 0 <= nu_min < nu_max, got [{self.nu_min}, {self.nu_max}]"
                )
            if self.n_components < 1:
                raise NoiseConfigError("n_components must be >= 1")
        elif k is NoiseKind.DETERMINISTIC_SINUSOID:
            if self.omega_drive is None or self.omega_drive <= 0:
                raise NoiseConfigError("sinusoid drive needs omega_drive > 0")

    @property
    def is_stochastic(self) -> bool:
        return self.kind is not NoiseKind.DETERMINISTIC_SINUSOID

    def line_frequencies(self) -> np.ndarray:
        """Deterministic line positions: centers of equal strata in the band."""
        n = self.n_components
        edges = np.linspace(self.nu_min, self.nu_max, n + 1)
        return 0.5 * (edges[:-1] + edges[1:])


def correlation(spec: NoiseSpec, u) -> np.ndarray | float:
    """R(u) = <xi(t) xi(t+u)> of the target process; even in u."""
    if not spec.is_stochastic:
        raise NotAStochasticProcessError(
            "a deterministic sinusoid drive has no ensemble correlation"
        )
    u = np.asarray(u, dtype=float)
    s2 = spec.sigma**2
    if spec.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        out = s2 * np.exp(-np.abs(u) / spec.t_c)
    elif spec.kind is NoiseKind.BAND_LIMITED:
        dnu = spec.nu_max - spec.nu_min
        with np.errstate(invalid="ignore", divide="ignore"):
            out = s2 * (np.sin(spec.nu_max * u) - np.sin(spec.nu_min * u)) / (dnu * u)
        out = np.where(u == 0.0, s2, out)
    else:  # spectral lines
        nu = spec.line_frequencies()
        out = s2 * np.mean(np.cos(np.multiply.outer(u, nu)), axis=-1)
    return out if out.ndim else float(out)


def spectrum(spec: NoiseSpec, nu) -> np.ndarray | complex:
    """One-sided S(nu) = int_0^inf R(u) e^{i nu u} du, in closed form.

    Negative arguments use S(-nu) = conj(S(nu)).  For the spectral-line
    kind this is the smooth flat-band target the synthesis draws from
    (the ensemble-intended spectrum), not the line comb of one draw.
    """
    if not spec.is_stochastic:
        raise NotAStochasticProcessError(
            "a deterministic sinusoid drive has no noise spectrum"
        )
    nu = np.asarray(nu, dtype=float)
    anu = np.abs(nu)
    s2 = spec.sigma**2
    if spec.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        tc = spec.t_c
        out = s2 * tc * (1.0 + 1j * anu * tc) / (1.0 + (anu * tc) ** 2)
    else:
        # flat band: Re S = pi sigma^2 / (2 dnu) inside [nu_min, nu_max]
        n1, n2 = spec.nu_min, spec.nu_max
        dnu = n2 - n1
        re = np.where((anu >= n1) & (anu <= n2), np.pi * s2 / (2.0 * dnu), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs((anu + n2) * (anu - n1)) / np.abs((anu - n2) * (anu + n1))
            im = s2 / (2.0 * dnu) * np.log(ratio)
        im = np.where(np.isfinite(im), im, 0.0)
        out = re + 1j * im
    out = np.where(nu < 0, np.conj(out), out)
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# cubic B-spline interpolation on a uniform grid (C^2, vectorized over rows)

_POLE = math.sqrt(3.0) - 2.0


def _recurse(rows, a: float) -> None:
    """rows[k] += a * rows[k-1] for k = 1, 2, ..., in place: the first-order
    recursive filter y_k = x_k + a y_{k-1}, one elementwise step per row, so
    every column rounds the same alone or in a batch."""
    for k in range(1, len(rows)):
        rows[k] += a * rows[k - 1]


def _recurse_segmented(x: np.ndarray, a: float) -> None:
    """_recurse over the rows of x (n, B), |a| < 1, as SEGMENTS pieces side
    by side: one elementwise step updates a (SEGMENTS, B) slice.

    The first piece continues from x[0] exactly.  Each later piece starts
    from the state that WARMUP zero-started steps over the raw rows before
    it reach; the true state differs from it by a^WARMUP times the state
    WARMUP rows earlier (about 1e-37 relative at the spline pole), far
    below one rounding, so the pieces give the bits of the plain loop
    (tests/conftest.py keeps the loop as the oracle).  Arrays too short
    for pieces of WARMUP rows take the plain loop.
    """
    n = x.shape[0]
    size = n // SEGMENTS
    if size < WARMUP:
        _recurse(list(x), a)
        return
    head = n - SEGMENTS * size          # < SEGMENTS rows, run by the plain loop
    pieces = x[head:].reshape((SEGMENTS, size) + x.shape[1:])   # a view
    # each later piece's start state, from raw rows, before any is overwritten
    state = pieces[:-1, size - WARMUP].copy()
    for k in range(size - WARMUP + 1, size):
        state *= a
        state += pieces[:-1, k]
    _recurse(list(x[:head + 1]), a)     # the first piece's first row, exactly
    state *= a
    steps = list(pieces.swapaxes(0, 1))  # steps[k]: row k of every piece
    steps[0][1:] += state
    _recurse(steps, a)


def _prefilter(c: np.ndarray) -> None:
    """Samples (n, B), n >= 2 -> interpolating cubic B-spline coefficients
    with mirror boundaries, in place, by the forward and backward
    recursive filters.

    Each pass starts from its exact mirror state and runs in pieces side
    by side (_recurse_segmented): the causal pass from the first knot row,
    the anticausal pass from the last."""
    n = c.shape[0]
    z = _POLE
    horizon = int(math.ceil(math.log(1e-17) / math.log(abs(z))))
    # causal-filter state sum_k z^k x_k over the mirror-periodized
    # sequence (exact for short arrays too), by Horner's rule one tap at
    # a time: elementwise, so a row rounds the same alone or in a batch
    # (a matrix-vector product does not)
    taps = _mirror(np.arange(horizon) % (2 * (n - 1)), n)
    init = c[taps[-1]]
    for tap in taps[-2::-1]:
        init = init * z + c[tap]
    # first output (init - x_0) + x_0, rounded as the filter with that state
    c[0] += init - c[0]
    _recurse_segmented(c, z)
    # anticausal pass y_k = -z x_k + z y_{k+1}, started from the mirror state
    last = (z / (z * z - 1.0)) * (c[-1] + z * c[-2])
    start = last + z * c[-1]
    c *= -z
    c[-1] += start
    _recurse_segmented(c[::-1], z)
    c *= 6.0


def _mirror(idx: np.ndarray, n: int) -> np.ndarray:
    idx = np.abs(idx)
    return np.where(idx >= n, 2 * (n - 1) - idx, idx)


def _tap_weights(w: np.ndarray, order: int) -> tuple:
    """The four cubic B-spline tap weights (or their derivatives) at the
    offsets w in [0, 1) from each point's knot."""
    if order == 0:
        w2 = w * w
        w3 = w2 * w
        return (
            (1.0 - w) ** 3 / 6.0,
            (4.0 - 6.0 * w2 + 3.0 * w3) / 6.0,
            (1.0 + 3.0 * (w + w2 - w3)) / 6.0,
            w3 / 6.0,
        )
    if order == 1:
        w2 = w * w
        return (
            -0.5 * (1.0 - w) ** 2,
            0.5 * w * (3.0 * w - 4.0),
            0.5 * (1.0 + 2.0 * w - 3.0 * w2),
            0.5 * w2,
        )
    if order == 2:
        return (1.0 - w, 3.0 * w - 2.0, 1.0 - 3.0 * w, w)
    raise ValueError(f"order must be 0, 1 or 2, got {order}")


def bspline_evaluate(c: np.ndarray, u: np.ndarray, orders, step: float = 1.0) -> dict:
    """Evaluate the spline and its derivatives at grid coordinates u.

    c (n, B) has the knots on its first axis, knot-major, so that a batch
    is one column per row; u is 1-d, in grid units.  Returns {order:
    (len(u), B)}, step-major, with derivatives per unit of step.

    The output is filled in tiles of about TILE_BYTES per array: each tap
    gathers one tile's knot rows, which every order reads, and each point
    sums its four taps in order 0..3 and is divided by step^order, so a
    point rounds as it would alone.  The weights are computed once for
    all of u.
    """
    n, width = c.shape
    j = np.clip(np.floor(u).astype(np.intp), 0, n - 1)
    w = u - j
    weights = {o: _tap_weights(w, o) for o in orders}
    idx = [_mirror(j + tap - 1, n) for tap in range(4)]
    out = {o: np.empty((u.size, width)) for o in orders}
    tile = max(1, TILE_BYTES // (c.itemsize * width))
    rows = np.empty((min(tile, u.size), width))
    term = np.empty_like(rows)
    for lo in range(0, u.size, tile):
        hi = min(u.size, lo + tile)
        g, t = rows[:hi - lo], term[:hi - lo]
        dst = {o: out[o][lo:hi] for o in orders}
        for tap in range(4):
            np.take(c, idx[tap][lo:hi], axis=0, out=g, mode="clip")  # idx is in range
            for o in orders:
                wt = weights[o][tap][lo:hi, None]
                if tap:
                    dst[o] += np.multiply(g, wt, out=t)
                else:
                    np.multiply(g, wt, out=dst[o])
        for o in orders:
            if o:
                dst[o] /= step**o
    return out


# ---------------------------------------------------------------------------
# batches of realizations


@dataclass(frozen=True)
class NoiseBatch:
    """Realizations of one noise spec on [0, horizon], one row per seed.

    Spectral kinds: row b is xi_b(t) = sum_j a_j cos(nu_bj t + phi_bj),
    with the amplitudes a (n,) shared by every row and frequencies and
    phases of shape (B, n).  OU: row b is the cubic B-spline with
    coefficients coeffs[:, b] on the knots t = k * grid_step; coeffs is
    knot-major, (n_knots, B), so that eval_batch gathers whole knot rows.
    Derivatives are analytic in both cases, and eval_batch puts row b's
    values in column b for either kind.
    """

    horizon: float
    amplitudes: np.ndarray | None = None
    frequencies: np.ndarray | None = None
    phases: np.ndarray | None = None
    grid_step: float | None = None
    coeffs: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        if self.coeffs is not None:
            return self.coeffs.shape[1]
        return self.phases.shape[0]


def synthesize(spec: NoiseSpec, seed: int, horizon: float) -> NoiseBatch:
    """Draw one realization: a batch of one row."""
    return synthesize_many(spec, [seed], horizon)


def _ou_grid(spec: NoiseSpec, horizon: float):
    target = spec.t_c / OU_GRID_PER_TC
    n_grid = max(2, int(math.ceil(horizon / target)) + 1)
    return n_grid, horizon / (n_grid - 1)


def max_step(spec: NoiseSpec, horizon: float) -> float:
    """The longest RK4 step a run to horizon keeps to: one knot cell of
    the OU spline, whose third derivative jumps at every knot, so that a
    longer step loses RK4's order (inf for the spectral kinds)."""
    if spec.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        return _ou_grid(spec, horizon)[1]
    return math.inf


def _ou_drive(spec: NoiseSpec, seed: int, n_grid: int, a: float) -> np.ndarray:
    """The AR(1) innovations of one seed; filtering by 1/(1 - a z^-1) gives
    the exact OU samples on the grid."""
    from numpy.random import default_rng
    rng = default_rng(np.uint64(seed))
    z = rng.standard_normal(n_grid)
    drive = spec.sigma * math.sqrt(1.0 - a * a) * z
    drive[0] = spec.sigma * z[0]  # stationary start
    return drive


def synthesize_many(spec: NoiseSpec, seeds, horizon: float) -> NoiseBatch:
    """Draw one realization per seed.

    Each row is a pure function of (spec, seed, horizon): bitwise the
    same whether the seed is drawn alone or at any place in a batch.
    """
    if horizon <= 0:
        raise NoiseConfigError(f"horizon must be > 0, got {horizon}")
    seeds = list(seeds)
    if spec.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        n_grid, step = _ou_grid(spec, horizon)
        a = math.exp(-step / spec.t_c)
        coeffs = np.empty((n_grid, len(seeds)))
        group = np.empty((min(DRIVE_GROUP, len(seeds)), n_grid))
        for g in range(0, len(seeds), DRIVE_GROUP):
            rows = seeds[g:g + DRIVE_GROUP]
            for i, seed in enumerate(rows):
                group[i] = _ou_drive(spec, seed, n_grid, a)
            coeffs[:, g:g + len(rows)] = group[:len(rows)].T
        # the whole chunk filtered in place: AR(1), then the spline fit
        _recurse(list(coeffs), a)
        _prefilter(coeffs)
        return NoiseBatch(horizon, grid_step=step, coeffs=coeffs)
    if spec.kind is NoiseKind.DETERMINISTIC_SINUSOID:
        # xi(t) = sin(omega_drive t), independent of the seed
        return NoiseBatch(horizon, amplitudes=np.array([1.0]),
                          frequencies=np.full((len(seeds), 1), spec.omega_drive),
                          phases=np.full((len(seeds), 1), -0.5 * np.pi))
    from numpy.random import default_rng
    n = spec.n_components
    freqs = np.empty((len(seeds), n))
    phases = np.empty((len(seeds), n))
    for i, seed in enumerate(seeds):
        rng = default_rng(np.uint64(seed))
        if spec.kind is NoiseKind.BAND_LIMITED:
            # stratified frequency sampling over the flat band
            strata = (np.arange(n) + rng.random(n)) / n
            freqs[i] = spec.nu_min + strata * (spec.nu_max - spec.nu_min)
        else:
            freqs[i] = spec.line_frequencies()
        phases[i] = rng.uniform(0.0, 2.0 * np.pi, n)
    amps = np.full(n, spec.sigma * math.sqrt(2.0 / n))
    return NoiseBatch(horizon, amps, freqs, phases)


def eval_batch(batch: NoiseBatch, times, orders) -> dict[int, np.ndarray]:
    """Evaluate every row of the batch on one shared 1-d time grid.

    Returns {order: array (len(times), len(batch))} for each requested
    derivative order (0, 1 or 2), for every kind: step-major, with row b
    of the batch in column b.  Times must lie in [0, horizon].  OU values
    are filled in time tiles of about TILE_BYTES per array, whatever the
    number of times, and each point rounds as it would alone.  For the
    spectral kinds, evenly spaced times are the fast case; other times
    are evaluated one by one, with memory O(len(times)) per component.
    """
    times = np.asarray(times, dtype=float)
    tiny = 1e-9 * max(1.0, batch.horizon)
    if np.any(times < -tiny) or np.any(times > batch.horizon + tiny):
        raise ValueError(f"time outside [0, {batch.horizon}]")
    if not set(orders) <= {0, 1, 2}:
        raise ValueError(f"orders must be among 0, 1, 2, got {orders}")
    if batch.coeffs is not None:
        step = batch.grid_step
        return bspline_evaluate(batch.coeffs, times / step, tuple(orders), step)
    return _eval_spectral(batch, times, tuple(orders))


def _even_step(times: np.ndarray) -> float | None:
    """The spacing h if times[k] = times[0] + k h to within rounding, else None."""
    n = times.size
    if n < 2:
        return None
    h = (times[-1] - times[0]) / (n - 1)
    if not h > 0:
        return None
    off = np.abs(times - (times[0] + h * np.arange(n)))
    scale = max(abs(times[0]), abs(times[-1]))
    return h if np.max(off) <= 8.0 * np.finfo(float).eps * scale else None


def _eval_spectral(batch: NoiseBatch, times: np.ndarray, orders) -> dict[int, np.ndarray]:
    """Cosine sums by phasor recurrence from exact anchors.

    z_j(t) = e^{i(nu_j t + phi_j)} is evaluated exactly at the anchors
    t_a = times[::K]; the points in between are z_j(t_a) e^{i nu_j r h}
    (r < K) from one offset table per row, and every order is the real
    part of sum_j c_j z_j with c = (a, i a nu, -a nu^2).  With z the
    anchor phasors and w the offset table, that is one real matrix
    product per row, [Re cz, -Im cz] @ [Re w; Im w], which rounds a row
    the same alone or in a batch.  Each c is real or pure imaginary, so
    the block [Re cz, -Im cz] is built from the cos and sin tables of z
    in real arithmetic, with the same roundings as the complex products.
    Rows' values go to a row-major scratch, 64 rows at a time, and each
    order's block of rows is transposed once into the (times, rows)
    output.  Unevenly spaced times take K = 1: each time is its own
    anchor.
    """
    h = _even_step(times)
    stride = ANCHOR_STRIDE if h is not None else 1
    anchors = times[::stride]
    offsets = np.arange(stride) * (h or 0.0)
    amps = batch.amplitudes
    n_t, n_a, n = times.size, anchors.size, amps.size
    out = {o: np.empty((n_t, len(batch))) for o in orders}
    lhs = np.empty((len(orders), n_a, 2 * n))      # [Re cz, -Im cz] per order
    # row-major values of up to 64 rows, so the scratch stays small at any width
    scratch = np.empty((len(orders), min(64, len(batch)), n_a * stride))
    for lo in range(0, len(batch), scratch.shape[1]):
        hi = min(len(batch), lo + scratch.shape[1])
        for g, (nu, phi) in enumerate(zip(batch.frequencies[lo:hi], batch.phases[lo:hi])):
            theta = np.multiply.outer(anchors, nu) + phi
            cos, sin = np.cos(theta), np.sin(theta)                  # Re z, Im z: (n_a, n)
            arg = np.multiply.outer(nu, offsets)
            w = np.concatenate([np.cos(arg), np.sin(arg)])           # [Re w; Im w]: (2n, K)
            coef = {0: amps, 1: amps * nu, 2: -amps * nu**2}
            for k, o in enumerate(orders):
                re, im = lhs[k, :, :n], lhs[k, :, n:]
                if o == 1:      # c = i a nu: Re cz = -(a nu sin), -Im cz = -(a nu cos)
                    np.negative(np.multiply(coef[o], sin, out=re), out=re)
                    np.multiply(coef[o], cos, out=im)
                else:           # c real: Re cz = c cos, -Im cz = -(c sin)
                    np.multiply(coef[o], cos, out=re)
                    np.multiply(coef[o], sin, out=im)
                np.negative(im, out=im)
            vals = lhs.reshape(-1, 2 * n) @ w                         # (orders * n_a, K)
            scratch[:, g] = vals.reshape(len(orders), -1)
        for k, o in enumerate(orders):
            out[o][:, lo:hi] = scratch[k, :hi - lo, :n_t].T
    return out
