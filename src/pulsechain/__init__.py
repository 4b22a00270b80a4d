"""pulsechain: forward simulator for an exponentially rising optical pulse
preparation chain (transistor envelope shaper -> RF mixing -> electro-optic
sideband -> cascaded etalon filter -> square-law detector -> two-level-atom
excitation efficiency)."""

from ._version import __version__
from .atom import (AtomParams, ExcitationResult, compare_shapes, excite,
                   falling_exponential_pulse, rising_exponential_pulse)
from .config import (ChainConfig, config_sha256, default_config, load_config,
                     parse_config, serialize_config, set_config_value,
                     valid_parameter_paths)
from .detector import DetectorParams, detect, undershoot_fraction
from .envelope import (CircuitParams, GatePulse, control_voltage_for_tau,
                       generate_envelope, shockley_current, simulate_circuit,
                       tau_from_control_voltage)
from .eom import (ModulatorParams, bessel_j, decompose_sidebands, demodulate,
                  distortion_fraction, phase_modulate, reconstruct_from_orders,
                  sideband_amplitude, sideband_window)
from .errors import FitError, LeakageWarning, ValidationError
from .etalon import (EtalonParams, EtalonStack, airy_transmission,
                     carrier_leak, filter_pulse, finesse, fwhm_hz,
                     photon_lifetime, stack_extinction_db, stack_transmission,
                     stage_diagnostics, temperature_to_frequency,
                     with_thermal_jitter)
from .pipeline import RunReport, fit_trace, run_chain, sweep
from .rfchain import (BandpassSpec, DdsParams, MixerParams, apply_bandpass,
                      dds_tones, dominant_tone, frequency_double,
                      frequency_quadruple, mix_envelope)
from .waveform import (FitResult, Spectrum, TimeGrid, Waveform,
                       analytic_envelope, apply_transfer, filter_spectrum,
                       fit_exponential, from_spectrum, one_pole_lowpass,
                       read_trace, to_spectrum, write_trace)

__all__ = [
    "__version__",
    "AtomParams", "ExcitationResult", "compare_shapes", "excite",
    "falling_exponential_pulse", "rising_exponential_pulse",
    "ChainConfig", "config_sha256", "default_config", "load_config",
    "parse_config", "serialize_config", "set_config_value",
    "valid_parameter_paths",
    "DetectorParams", "detect", "undershoot_fraction",
    "CircuitParams", "GatePulse", "control_voltage_for_tau",
    "generate_envelope", "shockley_current", "simulate_circuit",
    "tau_from_control_voltage",
    "ModulatorParams", "bessel_j", "decompose_sidebands", "demodulate",
    "distortion_fraction", "phase_modulate", "reconstruct_from_orders",
    "sideband_amplitude", "sideband_window",
    "FitError", "LeakageWarning", "ValidationError",
    "EtalonParams", "EtalonStack", "airy_transmission", "carrier_leak",
    "filter_pulse", "finesse", "fwhm_hz", "photon_lifetime",
    "stack_extinction_db", "stack_transmission", "stage_diagnostics",
    "temperature_to_frequency", "with_thermal_jitter",
    "RunReport", "fit_trace", "run_chain", "sweep",
    "BandpassSpec", "DdsParams", "MixerParams", "apply_bandpass", "dds_tones",
    "dominant_tone", "frequency_double", "frequency_quadruple", "mix_envelope",
    "FitResult", "Spectrum", "TimeGrid", "Waveform", "analytic_envelope",
    "apply_transfer", "filter_spectrum", "fit_exponential", "from_spectrum",
    "one_pole_lowpass",
    "read_trace", "to_spectrum", "write_trace",
]
