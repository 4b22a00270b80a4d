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

import array
import contextlib
import hashlib
import itertools
import os
import zlib
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


def _stored(a, what):
    """``a`` stored read-only, float64 if real and complex128 if complex: an
    array already read-only, owning its memory and of that dtype is kept,
    any other is copied.  Non-finite values are refused."""
    a = np.asarray(a)
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    if a.flags.writeable or a.base is not None or a.dtype != dtype:
        a = np.array(a, dtype=dtype)
        a.flags.writeable = False
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} must all be finite")
    return a


@dataclass(frozen=True)
class Waveform:
    """Sampled real (float64) or complex (complex128) signal on a TimeGrid.

    ``unit`` declares what the samples carry ("V" for electrical signals,
    "sqrtW" for optical envelopes).  Instances are immutable; the sample
    array is read-only (see :func:`_stored`).
    """

    grid: TimeGrid
    samples: np.ndarray
    unit: str = ""

    def __post_init__(self):
        s = _stored(self.samples, "waveform samples")
        if s.ndim != 1 or len(s) != self.grid.n_samples:
            raise ValidationError(
                f"samples length {s.shape} does not match grid "
                f"({self.grid.n_samples} points)")
        object.__setattr__(self, "samples", s)

    def times(self):
        return self.grid.times()

    def norm2(self):
        """Discrete squared norm sum(|x|^2) (Parseval-side quantity)."""
        return float(np.sum(np.abs(self.samples) ** 2))

    def is_real(self, tol=1e-12):
        if not np.iscomplexobj(self.samples):
            return True
        scale = np.max(np.abs(self.samples)) or 1.0
        return float(np.max(np.abs(self.samples.imag))) <= tol * scale


@dataclass(frozen=True)
class Spectrum:
    """Complex amplitudes vs frequency offset from the carrier, in FFT order:
    bin k holds offset k*df, the upper half wrapping to negative offsets."""

    df: float
    amplitudes: np.ndarray

    def __post_init__(self):
        a = _stored(self.amplitudes, "spectrum amplitudes")
        if not (self.df > 0):
            raise ValidationError("Spectrum.df must be > 0")
        if a.ndim != 1 or len(a) < 2:
            raise ValidationError("Spectrum needs at least 2 bins")
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_bins(self):
        return len(self.amplitudes)

    def frequencies(self):
        return np.fft.fftfreq(self.n_bins, 1.0 / (self.n_bins * self.df))

    def norm2(self):
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def to_spectrum(w: Waveform) -> Spectrum:
    """Forward DFT of a waveform, bins in FFT order (see :class:`Spectrum`).

    Uses the exp(-i 2 pi f t) sign convention and 1/sqrt(N) normalization,
    so ``norm2`` is preserved exactly and ``from_spectrum`` inverts it to
    machine precision.  ``Waveform`` samples are finite (see :func:`_stored`).
    """
    amps = _forward(w.samples)
    amps.flags.writeable = False
    return Spectrum(df=1.0 / (len(amps) * w.grid.dt), amplitudes=amps)


def _forward(x):
    """The normalized forward DFT of ``x``, as a new writeable array."""
    amps = np.fft.fft(x)
    amps /= np.sqrt(len(x))
    return amps


def _inverse(amps, grid: TimeGrid, unit="", overwrite=False) -> Waveform:
    """The waveform on ``grid`` whose :func:`_forward` DFT is ``amps``.  With
    ``overwrite``, ``amps`` is transformed in place and becomes the samples."""
    out = np.fft.ifft(amps, out=amps if overwrite else None)
    out *= np.sqrt(len(amps))
    out.flags.writeable = False
    return Waveform(grid=grid, samples=out, unit=unit)


def from_spectrum(s: Spectrum, t_start=0.0) -> Waveform:
    """Inverse of :func:`to_spectrum`.

    The Spectrum type does not carry a time origin; pass ``t_start`` to
    restore the original grid placement (sample values are independent of it).
    """
    n = s.n_bins
    grid = TimeGrid(t_start=t_start, dt=1.0 / (n * s.df), n_samples=n)
    return _inverse(s.amplitudes, grid)


def one_pole_lowpass(f_c):
    """First-order low-pass response H(f) = 1 / (1 + i f / f_c)."""
    if not (f_c > 0):
        raise ValidationError("one_pole_lowpass needs f_c > 0")
    return lambda f: 1.0 / (1.0 + 1j * f / f_c)


_BINS = 1 << 14  # bins per block of a spectral gain: O(block) temporaries


def _spans(n, size):
    """Consecutive ``(lo, hi)`` spans of ``size`` covering ``range(n)``.

    A one-element remainder joins the span before it: numpy rounds an
    in-place complex product on a one-element array differently from the
    same product inside a longer one, so a blocked pass must not make a
    one-element block that the whole-array pass does not.
    """
    lo = 0
    while lo < n:
        hi = n if n - lo <= size + 1 else lo + size
        yield lo, hi
        lo = hi


def _filter_real(x, dt, transfer, out=None):
    """The real signal ``x``, sampled every ``dt``, through the transfer
    function H(f), as a read-only float64 array: a new one, or ``out``
    (which may be ``x`` itself).

    The one filter of real signals: ``irfft(rfft(x) * H(rfftfreq))``, with
    H applied to the spectrum in blocks of ``_BINS`` bins and f built per
    block as ``rfftfreq`` builds it, so no full-length f or H exists.
    ``transfer`` receives the frequencies f >= 0 and returns H there (a
    scalar is allowed); H(-f) = conj H(f), as for any real filter.  At even
    ``len(x)`` the Nyquist bin is real, so H acts there by its real part.
    """
    n = len(x)
    spec = np.fft.rfft(x)
    df = 1.0 / (n * dt)
    for lo, hi in _spans(len(spec), _BINS):
        block = spec[lo:hi]
        block *= transfer(np.arange(lo, hi) * df)
    out = np.fft.irfft(spec, n, out=out)
    out.flags.writeable = False
    return out


def analytic_envelope(w: Waveform) -> Waveform:
    """Magnitude of the analytic signal of the real part of ``w``.

    Recovers the modulation envelope of a band-limited RF burst as
    hypot(x, y), y the Hilbert transform of x: the spectrum -i X(f) on f > 0,
    zero at DC and at Nyquist.  ``irfft`` takes those two bins as real, so
    their purely imaginary -i X drops out without being zeroed.
    """
    x = w.samples.real
    env = np.hypot(x, _filter_real(x, w.grid.dt, lambda f: -1j))
    env.flags.writeable = False
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


def _block_means(x, k):
    """``[b.mean() for b in np.array_split(x, k)]``, bit for bit: the r
    blocks of q + 1 and the k - r of q as two row sums (the pairwise sums
    that ``mean`` takes), not k calls."""
    q, r = divmod(len(x), k)
    c = r * (q + 1)
    return np.concatenate((x[:c].reshape(r, q + 1).sum(axis=1) / (q + 1),
                           x[c:].reshape(k - r, q).sum(axis=1) / q))


def _check_trend(y, sign, scale):
    """Monotone-trend precondition: strictly monotone block means of the
    5-point moving average (the smoothing is used only for this check);
    ``scale`` is max |y|."""
    sm = _moving_average(y, 5)
    means = _block_means(sm, max(2, min(16, len(sm) // 8)))
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
    if not (np.isfinite(t_a) and np.isfinite(t_b)):
        raise ValidationError(f"fit window ({t_a}, {t_b}) s must be finite")
    g = w.grid
    if t_a < g.t_start - _TIME_EPS * g.dt or t_b > g.t_end + _TIME_EPS * g.dt:
        raise ValidationError("fit window extends outside the sampled grid")
    sl = g.window_slice(t_a, t_b)
    y = np.abs(w.samples[sl])
    if len(y) < 16:
        raise ValidationError("fit window must contain at least 16 samples")
    # far from 1, an exact power of two brings the peak into [0.5, 1), so
    # no product in the fit under- or overflows; A and B are scaled back
    y_max = np.max(y)  # y >= 0
    shift = int(np.frexp(y_max)[1])
    shift = shift if abs(shift) > 200 else 0
    if shift:  # exact for the peak, which lands in [0.5, 1)
        y, y_max = np.ldexp(y, -shift), np.ldexp(y_max, -shift)

    _check_trend(y, sign, y_max)
    t_win = g.t_start + g.dt * np.arange(sl.start, sl.stop)
    t = t_win - t_win[0]
    b0 = _offset_estimate(y)
    z = y - b0
    zmax = np.max(z)
    if zmax <= 0:
        raise FitError("fit rejected: offset estimate leaves no signal")
    mask = z > 1e-9 * zmax
    n_usable = np.count_nonzero(mask)
    if n_usable < 8:
        raise FitError("fit rejected: too few usable samples above offset")
    zm, tm = (z, t) if n_usable == len(z) else (z[mask], t[mask])
    # weighted log-linear LS; weights z^2 approximate linear-space residuals
    lz = np.log(zm)
    wgt = zm ** 2
    sw = wgt.sum()
    st = (wgt * tm).sum() / sw
    d = tm - st
    sl2 = (wgt * d ** 2).sum()
    if sl2 <= 0:
        raise FitError("fit rejected: degenerate time support")
    slope = (wgt * d * lz).sum() / sl2
    icept = (wgt * lz).sum() / sw - slope * st
    tau = sign / slope if slope * sign > 0 else None
    if tau is None or not np.isfinite(tau):
        raise FitError(
            f"fit rejected: data trend contradicts requested direction "
            f"'{direction}'")
    amp = float(np.exp(icept))

    best = (amp, tau, b0)
    e = np.exp(sign * t / tau)
    resid = y - (amp * e + b0)
    r0 = float(np.linalg.norm(resid))
    # one Gauss-Newton refinement pass on (A, tau, B)
    jac = np.column_stack([e, amp * e * (-sign * t / tau ** 2), np.ones_like(t)])
    try:
        delta, *_ = np.linalg.lstsq(jac, resid, rcond=None)
        cand = (amp + delta[0], tau + delta[1], b0 + delta[2])
        if cand[1] > 0 and np.isfinite(cand).all():
            r1 = float(np.linalg.norm(
                y - (cand[0] * np.exp(sign * t / cand[1]) + cand[2])))
            if r1 < r0:
                best, r0 = cand, r1
    except np.linalg.LinAlgError:
        pass

    return FitResult(tau=float(best[1]),
                     amplitude=float(np.ldexp(best[0], shift)),
                     offset=float(np.ldexp(best[2], shift)),
                     residual_norm=r0 / float(np.linalg.norm(y)),
                     window=(t_a, t_b))


# ---------------------------------------------------------------------------
# trace file format: plain CSV, header time_s,real,imag or time_s,value
# ---------------------------------------------------------------------------

# Rows formatted per step: large enough that the per-chunk numpy calls are
# cheap next to the per-value repr, small enough that a chunk's strings,
# the field list they are joined from and the joined text (~0.7 MB for
# three columns) fit a 2 MiB per-core L2 cache; 8192 rows took ~2.8 MB,
# and ~3 MB more peak memory in a traced 1e5-sample run.
_TRACE_CHUNK = 2048

# The text of each trace column that the last write_traces call repeated
# from the call before it, zlib-compressed chunk by chunk: column key ->
# chunk texts, or None for a column that the last call wrote only once.
_column_text = {}


def _format_column(x):
    """repr() of each float64 in ``x``."""
    return list(map(repr, x.tolist()))


@contextlib.contextmanager
def _replacing(paths):
    """Open ``<path>.tmp`` for writing for each path, and rename each into
    place once the block completes; if anything fails, every ``.tmp`` file
    opened here is removed before the error propagates."""
    files = []
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                files.append(stack.enter_context(
                    open(f"{path}.tmp", "w", encoding="utf-8", newline="\n")))
            yield files
        for path, fh in zip(paths, files):
            os.replace(fh.name, path)
    except BaseException:
        for fh in files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(fh.name)
        raise


def write_trace(path, w: Waveform):
    """Write a waveform as CSV (UTF-8, '.' decimal, one sample per line);
    the imaginary column is written only when some sample has one.  The
    file is replaced atomically."""
    write_traces([(path, w)])


def write_traces(items):
    """Write each ``(path, waveform)`` as :func:`write_trace` does.

    All files are written in lockstep, ``_TRACE_CHUNK`` rows at a time, so
    a column that several files share, such as a grid's time column, is
    formatted once per call.  A column that the previous call also wrote
    is kept as its compressed text, keyed by its grid or by a digest of its
    samples, and later calls reuse that text instead of formatting it
    again; a call that does not write a kept column drops it.  The files
    are replaced together, as :func:`_replacing` does.
    """
    global _column_text
    items = [(os.fspath(path), w) for path, w in items]
    formats, columns = {}, []  # column key -> its formatter; keys per file
    for _, w in items:
        s, grid = w.samples, w.grid
        keys = [(grid, _TRACE_CHUNK)]
        formats[keys[0]] = lambda lo, hi, g=grid: list(map(
            repr, (g.t_start + g.dt * np.arange(lo, hi)).tolist()))
        digest = hashlib.sha256(np.ascontiguousarray(s)).digest()
        parts = [("real", s.real)]
        if np.iscomplexobj(s) and np.any(s.imag != 0.0):
            parts.append(("imag", s.imag))
        for part, v in parts:
            keys.append((digest, part, s.dtype.str, _TRACE_CHUNK))
            formats[keys[-1]] = lambda lo, hi, v=v: _format_column(v[lo:hi])
        columns.append((grid.n_samples, keys))
    last = _column_text
    # a column that the last call wrote too is kept: its text reused, or
    # filled from the text that this call formats
    kept = {key: (last[key] or []) if key in last else None
            for key in formats}

    def text(key, k, lo, hi):
        """Rows ``lo`` to ``hi``, chunk ``k``, of column ``key``."""
        if last.get(key):
            return zlib.decompress(last[key][k]).decode("ascii").split("\n")
        values = formats[key](lo, hi)
        if kept[key] is not None:
            kept[key].append(
                zlib.compress("\n".join(values).encode("ascii"), 1))
        return values

    with _replacing([path for path, _ in items]) as files:
        for fh, (_, keys) in zip(files, columns):
            fh.write("time_s,value\n" if len(keys) == 2
                     else "time_s,real,imag\n")
        n_max = max((n for n, _ in columns), default=0)
        for k, lo in enumerate(range(0, n_max, _TRACE_CHUNK)):
            texts = {}
            for fh, (n, keys) in zip(files, columns):
                hi = min(lo + _TRACE_CHUNK, n)
                if lo >= hi:
                    continue
                step = 2 * len(keys)  # each value and the separator after it
                fields = [","] * (step * (hi - lo))
                fields[step - 1::step] = itertools.repeat("\n", hi - lo)
                for j, key in enumerate(keys):
                    if key not in texts:
                        texts[key] = text(key, k, lo, hi)
                    fields[2 * j::step] = texts[key]
                fh.write("".join(fields))
    _column_text = kept


def _raise_bad_line(path, lines, linenos, ncol):
    """Name the first of ``lines`` with the wrong column count or a value
    float() rejects; the error path of :func:`read_trace`."""
    for lineno, line in zip(linenos, lines):
        parts = line.split(",")
        if len(parts) != ncol:
            raise ValidationError(
                f"{path}: line {lineno}: expected {ncol} columns, "
                f"got {len(parts)}")
        try:
            for p in parts:
                float(p)
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None


# Characters read per block of read_trace: the text, its lines and their
# parsed floats are held one block at a time, a few MB whatever the trace
# length; only the packed values grow with it.
_READ_CHARS = 1 << 17


def _line_blocks(fh):
    """The lines of the text file ``fh`` as ``str.splitlines`` splits its
    whole text, in lists of about ``_READ_CHARS`` characters.

    A block is cut after its last newline; universal-newline reading has
    turned every "\r" into one, so no line break spans two blocks.
    """
    rest = ""
    while True:
        text = fh.read(_READ_CHARS)
        if not text:
            if rest:
                yield rest.splitlines()
            return
        text = rest + text
        cut = text.rfind("\n") + 1
        rest = text[cut:]
        yield text[:cut].splitlines()


def _parse_rows(path, body, lineno, ncol, out):
    """Append the values of the rows of ``body``, whose first line is line
    ``lineno`` of the file, to the array ``out``; blank lines are skipped."""
    commas = np.fromiter(map(str.count, body, itertools.repeat(",")),
                         dtype=np.intp, count=len(body))
    # a line with no comma is blank, or a row with too few columns
    keep = commas != 0
    for i in np.flatnonzero(~keep).tolist():
        keep[i] = bool(body[i].strip())
    linenos = np.flatnonzero(keep) + lineno
    if not keep.all():
        body = list(itertools.compress(body, keep.tolist()))
        commas = commas[keep]
    try:
        if np.any(commas != ncol - 1):
            raise ValueError("wrong column count")
        if body:  # "".split(",") is one empty value
            out.fromlist(list(map(float, ",".join(body).split(","))))
    except ValueError:
        _raise_bad_line(path, body, linenos.tolist(), ncol)
        raise


def read_trace(path, unit="") -> Waveform:
    """Read a CSV trace written by :func:`write_trace` (or equivalent).

    Blank lines and whitespace around values are ignored; values parse as
    Python's float() parses them.  A malformed line, or a non-finite or
    non-uniform time, is reported with the path.  The file is parsed as it
    is read, into one packed array of its values, so only that array and
    the samples copied out of it are held whole.
    """
    ncol = None
    values = array.array("d")
    lineno = 1  # of the first line of the current block
    with open(path, "r", encoding="utf-8") as fh:
        for lines in _line_blocks(fh):
            body = lines
            if ncol is None:
                first = next((i for i, line in enumerate(lines)
                              if line.strip()), None)
                if first is None:
                    lineno += len(lines)
                    continue
                header = lines[first].strip().replace(" ", "").lower()
                if header == "time_s,real,imag":
                    ncol = 3
                elif header == "time_s,value":
                    ncol = 2
                else:
                    raise ValidationError(
                        f"{path}: line {lineno + first}: unrecognized header "
                        f"{lines[first].strip()!r}")
                body = lines[first + 1:]
            _parse_rows(path, body, lineno + len(lines) - len(body), ncol,
                        values)
            lineno += len(lines)
    if ncol is None:
        raise ValidationError(f"{path}: empty trace file")
    table = np.frombuffer(values, dtype=np.float64).reshape(-1, ncol)
    n = len(table)
    if n < 2:
        raise ValidationError(f"{path}: trace needs at least 2 samples")
    t = table[:, 0]
    dt = (float(t[-1]) - float(t[0])) / (n - 1)  # overflows to inf, silently
    if not (0 < dt < np.inf and np.isfinite(t).all()
            and np.max(np.abs(np.diff(t) - dt)) <= 1e-6 * dt):
        raise ValidationError(
            f"{path}: sample times are not finite and uniformly spaced")
    samples = np.array(table[:, 1] if ncol == 2
                       else table[:, 1:].view(np.complex128)[:, 0])
    samples.flags.writeable = False
    grid = TimeGrid(t_start=float(t[0]), dt=float(dt), n_samples=n)
    try:
        return Waveform(grid=grid, samples=samples, unit=unit)
    except ValidationError as exc:  # a non-finite sample
        raise ValidationError(f"{path}: {exc}") from None
