"""DDS tone synthesis, band-pass spur suppression, frequency quadrupling and
double-balanced envelope mixing."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import Waveform


@dataclass(frozen=True)
class DdsParams:
    f_clk: float = 500e6
    f_tune: float = 125e6   # inferred: first upper image at 375 MHz
    n_images: int = 4

    def __post_init__(self):
        if not (0 < self.f_tune < self.f_clk / 2):
            raise ValidationError("DdsParams.f_tune must be above 0 and below "
                                  "half of DdsParams.f_clk")
        if self.n_images < 1:
            raise ValidationError("DdsParams.n_images must be >= 1")


@dataclass(frozen=True)
class BandpassSpec:
    """Magnitude-only band-pass: stated suppression points, log-frequency
    interpolated in dB, flat beyond the outermost points."""

    f_center: float = 375e6
    rejections: tuple = ((125e6, 70.0), (500e6, 24.0), (625e6, 35.0))
    passband_loss_db: float = 0.0

    def __post_init__(self):
        for f, db in self.rejections:
            if not (f > 0 and db >= 0):
                raise ValidationError("BandpassSpec.rejections need f > 0 "
                                      "and dB >= 0 at every point")
        if not (self.passband_loss_db >= 0):
            raise ValidationError("BandpassSpec.passband_loss_db must be >= 0")
        if not (self.f_center > 0):
            raise ValidationError("BandpassSpec.f_center must be > 0")


@dataclass(frozen=True)
class MixerParams:
    conversion_gain: float = 1.0
    lo_leak_db: float = -40.0   # carrier feedthrough
    if_leak_db: float = -40.0   # envelope feedthrough

    def __post_init__(self):
        if not (self.conversion_gain > 0):
            raise ValidationError("MixerParams.conversion_gain must be > 0")
        for name in ("lo_leak_db", "if_leak_db"):
            v = getattr(self, name)
            if np.isnan(v) or v > 0:
                raise ValidationError(
                    f"MixerParams.{name} must be <= 0 dB (use -inf for ideal)")


def _zoh(f, f_clk):
    # zero-order-hold magnitude |sin(pi f/f_clk) / (pi f/f_clk)|
    x = np.pi * np.asarray(f, dtype=float) / f_clk
    return np.abs(np.where(x == 0, 1.0, np.sin(x) / np.where(x == 0, 1.0, x)))


def dds_tones(p: DdsParams):
    """Sampled-synthesizer output: fundamental plus image tones.

    Frequencies are |k*f_clk +- f_tune| for k = 0..n_images, weighted by the
    zero-order-hold envelope and normalized to unit fundamental amplitude.
    Returns a frequency-sorted list of (frequency_hz, amplitude) pairs.
    """
    freqs = {p.f_tune}
    for k in range(1, p.n_images + 1):
        freqs.add(abs(k * p.f_clk - p.f_tune))
        freqs.add(k * p.f_clk + p.f_tune)
    ref = _zoh(p.f_tune, p.f_clk)
    return [(f, float(_zoh(f, p.f_clk) / ref)) for f in sorted(freqs)]


def apply_bandpass(tones, spec: BandpassSpec):
    """Attenuate each tone by the interpolated suppression curve."""
    nodes = sorted(list(spec.rejections) + [(spec.f_center, 0.0)])
    node_f = np.log10([f for f, _ in nodes])
    node_db = np.array([db for _, db in nodes])
    out = []
    for f, a in tones:
        supp = float(np.interp(np.log10(f), node_f, node_db))
        out.append((f, a * 10.0 ** (-(supp + spec.passband_loss_db) / 20.0)))
    return out


@functools.lru_cache(maxsize=8)
def carrier_tones(dds: DdsParams, bandpass: BandpassSpec):
    """The DDS tones after the band-pass and the same tones quadrupled, as
    two tuples of (frequency_hz, amplitude) pairs.  Memoised on the frozen
    blocks: config validation and the run's front end both derive the
    carrier from them, and every point of a sweep is validated anew."""
    after = apply_bandpass(dds_tones(dds), bandpass)
    return tuple(after), tuple(frequency_quadruple(after))


def frequency_double(tones):
    """One doubling stage: every (f, a) tone maps to 2f; the output is
    renormalized to a unit dominant tone, so each spur keeps its dBc."""
    amax = max(a for _, a in tones)
    if amax <= 0:
        raise ValidationError("tone list carries no power")
    return [(2.0 * f, 1.0 if a == amax else a / amax) for f, a in tones]


def frequency_quadruple(tones):
    """Two doubling stages (f -> 4f), e.g. 375 MHz -> 1.5 GHz."""
    return frequency_double(frequency_double(tones))


def dominant_tone(tones):
    return max(tones, key=lambda t: t[1])


def resolves_carrier(f_s, dt) -> bool:
    """True when a grid step dt gives at least 4 samples per cycle of f_s."""
    return f_s * dt <= 0.25


def mix_envelope(envelope: Waveform, f_s, m: MixerParams) -> Waveform:
    """Double-balanced mixer: envelope (IF) times the carrier (LO) at f_s.

    output(t) = gain*env(t)*cos(2 pi f_s t) + lo_leak*cos(2 pi f_s t)
                + if_leak*env(t), with leak amplitudes 10^(dB/20).
    """
    if not envelope.is_real():
        raise ValidationError("mix_envelope: envelope must be real-valued")
    if not resolves_carrier(f_s, envelope.grid.dt):
        raise ValidationError(
            f"grid too coarse for f_s = {f_s:g} Hz: fewer than 4 samples "
            f"per carrier cycle")
    # one scratch trace: the times become the LO, then each added term
    lo = envelope.times()
    np.multiply(2.0 * np.pi * f_s, lo, out=lo)
    np.cos(lo, out=lo)
    env = envelope.samples.real
    out = m.conversion_gain * env * lo
    np.multiply(10.0 ** (m.lo_leak_db / 20.0), lo, out=lo)
    out += lo
    np.multiply(10.0 ** (m.if_leak_db / 20.0), env, out=lo)
    out += lo
    out.flags.writeable = False
    return Waveform(grid=envelope.grid, samples=out, unit="V")
