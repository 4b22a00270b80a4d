"""Time- and frequency-grid signal containers plus the shared transforms.

Conventions
-----------
* All signals are uniformly sampled.  Electrical signals carry volts,
  optical envelopes carry sqrt-watts; the carrying unit is a tag, never
  converted implicitly.
* Optical signals are complex envelopes relative to a declared carrier;
  the optical frequency itself is never sampled.
* Forward transform uses exp(-i 2 pi f t) with symmetric 1/sqrt(N)
  normalization, so Parseval holds with equal discrete norms on both sides
  and the round trip is exact to machine precision.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError

_TIME_EPS = 1e-9  # index rounding tolerance, in units of dt


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``n_samples`` points from ``t_start``, spaced ``dt``."""

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValidationError("TimeGrid.dt must be finite and > 0")
        if int(self.n_samples) != self.n_samples or self.n_samples < 2:
            raise ValidationError("TimeGrid.n_samples must be an integer >= 2")
        if not np.isfinite(self.t_start):
            raise ValidationError("TimeGrid.t_start must be finite")
        object.__setattr__(self, "n_samples", int(self.n_samples))

    @property
    def span(self):
        return self.dt * (self.n_samples - 1)

    @property
    def t_end(self):
        return self.t_start + self.span

    def times(self):
        return self.t_start + self.dt * np.arange(self.n_samples)

    def index_at(self, t, mode="nearest"):
        """Sample index for time t; mode is 'nearest', 'ceil' or 'floor'."""
        x = (t - self.t_start) / self.dt
        r = round(x)
        if abs(x - r) <= _TIME_EPS:
            x = r
        if mode == "ceil":
            return int(np.ceil(x))
        if mode == "floor":
            return int(np.floor(x))
        return int(round(x))

    def window_slice(self, t_a, t_b):
        """Slice selecting samples with t_a <= t <= t_b (grid tolerance)."""
        if t_b < t_a:
            raise ValidationError("window end precedes window start")
        lo = max(self.index_at(t_a, "ceil"), 0)
        hi = min(self.index_at(t_b, "floor"), self.n_samples - 1)
        return slice(lo, hi + 1)


@dataclass(frozen=True)
class Waveform:
    """Sampled complex signal on a TimeGrid.

    ``unit`` declares what the samples carry ("V" for electrical signals,
    "sqrtW" for optical envelopes).  Instances are immutable; the sample
    array is marked read-only.
    """

    grid: TimeGrid
    samples: np.ndarray
    unit: str = ""

    def __post_init__(self):
        s = np.array(self.samples, dtype=np.complex128, copy=True)
        if s.ndim != 1 or len(s) != self.grid.n_samples:
            raise ValidationError(
                f"samples length {s.shape} does not match grid "
                f"({self.grid.n_samples} points)")
        if not np.all(np.isfinite(s)):
            raise ValidationError("waveform samples must all be finite")
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    def times(self):
        return self.grid.times()

    def norm2(self):
        """Discrete squared norm sum(|x|^2) (Parseval-side quantity)."""
        return float(np.sum(np.abs(self.samples) ** 2))

    def is_real(self, tol=1e-12):
        scale = np.max(np.abs(self.samples)) or 1.0
        return float(np.max(np.abs(self.samples.imag))) <= tol * scale


@dataclass(frozen=True)
class Spectrum:
    """Complex amplitudes vs frequency offset from the carrier."""

    df: float
    amplitudes: np.ndarray
    f_offset_start: float

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if not (self.df > 0):
            raise ValidationError("Spectrum.df must be > 0")
        if a.ndim != 1 or len(a) < 2:
            raise ValidationError("Spectrum needs at least 2 bins")
        if not np.all(np.isfinite(a)):
            raise ValidationError("spectrum amplitudes must all be finite")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_bins(self):
        return len(self.amplitudes)

    def frequencies(self):
        return self.f_offset_start + self.df * np.arange(self.n_bins)

    def norm2(self):
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def to_spectrum(w: Waveform) -> Spectrum:
    """Forward DFT of a waveform, bins ordered from most negative offset.

    Uses the exp(-i 2 pi f t) sign convention and 1/sqrt(N) normalization,
    so ``norm2`` is preserved exactly and ``from_spectrum`` inverts it to
    machine precision.
    """
    if not np.all(np.isfinite(w.samples)):
        raise ValidationError("cannot transform non-finite samples")
    n = w.grid.n_samples
    amps = np.fft.fftshift(np.fft.fft(w.samples)) / np.sqrt(n)
    df = 1.0 / (n * w.grid.dt)
    return Spectrum(df=df, amplitudes=amps, f_offset_start=-(n // 2) * df)


def from_spectrum(s: Spectrum, t_start=0.0) -> Waveform:
    """Inverse of :func:`to_spectrum`.

    The Spectrum type does not carry a time origin; pass ``t_start`` to
    restore the original grid placement (sample values are independent of it).
    """
    n = s.n_bins
    grid = TimeGrid(t_start=t_start, dt=1.0 / (n * s.df), n_samples=n)
    return filter_spectrum(s, 1.0, grid)


def filter_spectrum(s: Spectrum, gain, grid: TimeGrid, unit="") -> Waveform:
    """Waveform on ``grid`` whose spectrum is ``gain * s``.

    ``gain`` holds one finite value per bin of ``s`` (a scalar is allowed);
    this is the single inverse transform behind :func:`from_spectrum` and
    :func:`apply_transfer`.
    """
    h = np.asarray(gain)
    if not np.all(np.isfinite(h)):
        raise ValidationError("transfer function returned non-finite values")
    amps = np.broadcast_to(h, s.amplitudes.shape) * s.amplitudes
    out = np.fft.ifft(np.fft.ifftshift(amps)) * np.sqrt(s.n_bins)
    return Waveform(grid=grid, samples=out, unit=unit)


def apply_transfer(w: Waveform, transfer) -> Waveform:
    """Filter a waveform with a frequency-response callable H(f).

    H receives the array of frequency offsets (Hz) covering the waveform's
    spectral support and must return finite complex values (scalar allowed).
    Linear and composable: H1 then H2 equals H1*H2.
    """
    spec = to_spectrum(w)
    return filter_spectrum(spec, transfer(spec.frequencies()), w.grid, w.unit)


def one_pole_lowpass(f_c):
    """First-order low-pass response H(f) = 1 / (1 + i f / f_c)."""
    if not (f_c > 0):
        raise ValidationError("one_pole_lowpass needs f_c > 0")
    return lambda f: 1.0 / (1.0 + 1j * f / f_c)


def analytic_envelope(w: Waveform) -> Waveform:
    """Magnitude of the analytic signal of the real part of ``w``.

    Recovers the modulation envelope of a band-limited RF burst.
    """
    x = w.samples.real
    n = len(x)
    spec = np.fft.fft(x)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1:n // 2] = 2.0
    else:
        gain[1:(n + 1) // 2] = 2.0
    env = np.abs(np.fft.ifft(spec * gain))
    return Waveform(grid=w.grid, samples=env, unit=w.unit)


# ---------------------------------------------------------------------------
# exponential fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Fitted |y(t)| = amplitude * exp(+-(t - t_a)/tau) + offset."""

    tau: float
    amplitude: float
    offset: float
    residual_norm: float
    window: tuple

    def __post_init__(self):
        if not (self.tau > 0):
            raise ValidationError("FitResult.tau must be > 0")
        if self.residual_norm < 0:
            raise ValidationError("FitResult.residual_norm must be >= 0")


def _moving_average(y, width=5):
    if len(y) < width:
        return y.copy()
    return np.convolve(y, np.ones(width) / width, mode="valid")


def _check_trend(y, sign):
    """Monotone-trend precondition: strictly monotone block means of the
    5-point moving average (the smoothing is used only for this check)."""
    sm = _moving_average(y, 5)
    n_blocks = max(2, min(16, len(sm) // 8))
    blocks = np.array_split(sm, n_blocks)
    means = np.array([b.mean() for b in blocks])
    scale = np.max(np.abs(y))
    if scale <= 0 or (means.max() - means.min()) < 1e-3 * scale:
        raise FitError("fit rejected: data is near-constant over the window")
    d = np.diff(means) * sign
    if not np.all(d > 0):
        word = "rising" if sign > 0 else "falling"
        raise FitError(
            f"fit rejected: smoothed data is not monotone {word} over the "
            f"window (block means: {np.array2string(means, precision=4)})")


def _offset_estimate(y):
    """Offset of an exponential-plus-constant from equal-length third sums.

    For exact data A*exp(s*t)+B sampled uniformly the three partial sums obey
    (S1*S3 - S2^2) / (S1 + S3 - 2*S2) = n*B identically.
    """
    n3 = len(y) // 3
    s1 = float(np.sum(y[:n3]))
    s2 = float(np.sum(y[n3:2 * n3]))
    s3 = float(np.sum(y[2 * n3:3 * n3]))
    den = s1 + s3 - 2.0 * s2
    if abs(den) < 1e-12 * (abs(s1) + abs(s3) + 1e-300):
        return 0.0
    return (s1 * s3 - s2 * s2) / den / n3


def fit_exponential(w: Waveform, window, direction) -> FitResult:
    """Least-squares exponential fit of |samples| over a time window.

    Parameters
    ----------
    w : Waveform
    window : (t_a, t_b)
        Absolute times, inside the grid, covering at least 16 samples.
    direction : "rising" or "falling"

    Returns
    -------
    FitResult
        tau, amplitude A, offset B and the relative residual norm of the
        model A*exp(+-(t - t_a)/tau) + B.

    Notes
    -----
    Deterministic two-stage procedure: offset estimate from third-sums,
    weighted log-linear least squares on |y| - B, then a single Gauss-Newton
    pass on the full nonlinear model (kept only if it lowers the residual).
    """
    if direction not in ("rising", "falling"):
        raise ValidationError("direction must be 'rising' or 'falling'")
    sign = 1.0 if direction == "rising" else -1.0
    t_a, t_b = float(window[0]), float(window[1])
    g = w.grid
    if t_a < g.t_start - _TIME_EPS * g.dt or t_b > g.t_end + _TIME_EPS * g.dt:
        raise ValidationError("fit window extends outside the sampled grid")
    sl = g.window_slice(t_a, t_b)
    y = np.abs(w.samples[sl])
    if len(y) < 16:
        raise ValidationError("fit window must contain at least 16 samples")
    t_win = g.t_start + g.dt * np.arange(sl.start, sl.stop)
    t = t_win - t_win[0]

    _check_trend(y, sign)

    b0 = _offset_estimate(y)
    z = y - b0
    zmax = np.max(z)
    if zmax <= 0:
        raise FitError("fit rejected: offset estimate leaves no signal")
    mask = z > 1e-9 * zmax
    if np.count_nonzero(mask) < 8:
        raise FitError("fit rejected: too few usable samples above offset")
    # weighted log-linear LS; weights z^2 approximate linear-space residuals
    lz = np.log(z[mask])
    tm = t[mask]
    wgt = z[mask] ** 2
    sw = wgt.sum()
    st = (wgt * tm).sum() / sw
    sl2 = (wgt * (tm - st) ** 2).sum()
    if sl2 <= 0:
        raise FitError("fit rejected: degenerate time support")
    slope = (wgt * (tm - st) * lz).sum() / sl2
    icept = (wgt * lz).sum() / sw - slope * st
    tau = sign / slope if slope * sign > 0 else None
    if tau is None or not np.isfinite(tau):
        raise FitError(
            f"fit rejected: data trend contradicts requested direction "
            f"'{direction}'")
    amp = float(np.exp(icept))

    def model(a_, tau_, b_):
        return a_ * np.exp(sign * t / tau_) + b_

    def rnorm(a_, tau_, b_):
        return float(np.linalg.norm(y - model(a_, tau_, b_)))

    best = (amp, tau, b0)
    r0 = rnorm(*best)
    # one Gauss-Newton refinement pass on (A, tau, B)
    e = np.exp(sign * t / tau)
    jac = np.column_stack([e, amp * e * (-sign * t / tau ** 2), np.ones_like(t)])
    try:
        delta, *_ = np.linalg.lstsq(jac, y - model(*best), rcond=None)
        cand = (amp + delta[0], tau + delta[1], b0 + delta[2])
        if cand[1] > 0 and np.isfinite(cand).all() and rnorm(*cand) < r0:
            best = cand
            r0 = rnorm(*cand)
    except np.linalg.LinAlgError:
        pass

    ynorm = float(np.linalg.norm(y))
    return FitResult(tau=float(best[1]), amplitude=float(best[0]),
                     offset=float(best[2]),
                     residual_norm=r0 / ynorm if ynorm > 0 else 0.0,
                     window=(t_a, t_b))


# ---------------------------------------------------------------------------
# trace file format: plain CSV, header time_s,real,imag or time_s,value
# ---------------------------------------------------------------------------

def write_trace(path, w: Waveform):
    """Write a waveform as CSV (UTF-8, '.' decimal, one sample per line);
    the imaginary column is written only when some sample has one."""
    t = w.times()
    lines = []
    if np.any(w.samples.imag != 0.0):
        lines.append("time_s,real,imag")
        for ti, si in zip(t, w.samples):
            lines.append(f"{float(ti)!r},{float(si.real)!r},{float(si.imag)!r}")
    else:
        lines.append("time_s,value")
        for ti, si in zip(t, w.samples.real):
            lines.append(f"{float(ti)!r},{float(si)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path, unit="") -> Waveform:
    """Read a CSV trace written by :func:`write_trace` (or equivalent)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(raw) if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: empty trace file")
    header = rows[0][1].replace(" ", "").lower()
    if header == "time_s,real,imag":
        ncol = 3
    elif header == "time_s,value":
        ncol = 2
    else:
        raise ValidationError(
            f"{path}: line 1: unrecognized header {rows[0][1]!r}")
    times = []
    vals = []
    for lineno, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != ncol:
            raise ValidationError(
                f"{path}: line {lineno}: expected {ncol} columns, "
                f"got {len(parts)}")
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
        times.append(nums[0])
        vals.append(nums[1] if ncol == 2 else complex(nums[1], nums[2]))
    if len(times) < 2:
        raise ValidationError(f"{path}: trace needs at least 2 samples")
    t = np.asarray(times)
    dt = (t[-1] - t[0]) / (len(t) - 1)
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > 1e-6 * dt:
        raise ValidationError(f"{path}: sample times are not uniformly spaced")
    grid = TimeGrid(t_start=float(t[0]), dt=float(dt), n_samples=len(t))
    return Waveform(grid=grid, samples=np.asarray(vals), unit=unit)
