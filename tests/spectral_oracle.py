"""Complex-transform filter references for the tests.

The package filters real signals with one real transform pair
(``waveform._filter_real``) and the optical sideband in the etalon stage's
single pass.  These general paths transform the whole complex spectrum
instead; the tests compare the package's filters against them.
"""

import numpy as np

from pulsechain import ValidationError, Waveform, to_spectrum
from pulsechain.waveform import _inverse


def filter_spectrum(s, gain, grid, unit="") -> Waveform:
    """Waveform on ``grid`` whose spectrum is ``gain * s``; ``gain`` holds
    one finite value per bin of ``s`` (a scalar is allowed)."""
    h = np.asarray(gain)
    if not np.all(np.isfinite(h)):
        raise ValidationError("transfer function returned non-finite values")
    return _inverse(np.broadcast_to(h, s.amplitudes.shape) * s.amplitudes,
                    grid, unit)


def apply_transfer(w: Waveform, transfer) -> Waveform:
    """Filter a waveform with a frequency-response callable H(f), evaluated
    on the offsets of the whole spectrum (FFT order)."""
    spec = to_spectrum(w)
    return filter_spectrum(spec, transfer(spec.frequencies()), w.grid, w.unit)
