"""Chain configuration: INI-style sections with unit-suffixed keys.

Every physical key carries its unit in the name (tau_ns, fsr_ghz, ...) to
keep unit errors out of config files.  Unknown sections or keys are errors,
every value is validated against the owning module's invariants before any
simulation runs, and serialization is canonical (fixed section/key order,
normalized number formatting) so identical configs hash identically.
"""

import configparser
import hashlib
import io
import math
import re
from dataclasses import dataclass, field

from .atom import AtomParams
from .detector import DetectorParams
from .envelope import MIN_GATE_SAMPLES, CircuitParams, GatePulse, gate_in_grid
from .eom import ModulatorParams, window_spans_bin
from .errors import ValidationError
from .etalon import EtalonParams, EtalonStack
from .rfchain import (BandpassSpec, DdsParams, MixerParams, carrier_tones,
                      dominant_tone, resolves_carrier)
from .waveform import TimeGrid

_STAGE_KEY = re.compile(
    r"^stage(\d+)_(reflectivity|fsr_ghz|detuning_mhz|loss|temp_per_fsr_k)$")

MAX_STAGES = 1000   # [etalon] n_stages: parsing builds every stage
MAX_IMAGES = 1000   # [dds] n_images: parsing builds every image tone
MAX_SAMPLES = 10**8  # [grid] n_samples: a run holds ~70 bytes per sample

# kind: f float, i int, b bool, inf float-or-inf, rej rejection list
_SCHEMA = {
    "grid": [("dt_ns", "f", "0.1"), ("n_samples", "i", "10000"),
             ("t_start_ns", "f", "0.0")],
    "circuit": [("i0_a", "f", "1e-14"), ("v_t_mv", "f", "26.0"),
                ("c1_nf", "f", "3.9"), ("r11_ohm", "f", "1000.0"),
                ("v_in_v", "f", "4.455555555555556"),
                ("v_drop_v", "f", "0.7"), ("i_c_max_ma", "f", "40.0"),
                ("v_out_max_v", "f", "2.0"),
                ("discharge_tau_ns", "f", "200.0"),
                ("load_ohm", "f", "50.0"), ("gate_on_ns", "f", "50.0"),
                ("gate_len_ns", "f", "750.0")],
    "dds": [("f_clk_mhz", "f", "500.0"), ("f_tune_mhz", "f", "125.0"),
            ("n_images", "i", "4")],
    "bandpass": [("f_center_mhz", "f", "375.0"),
                 ("rejections_mhz_dbc", "rej", "125.0:70.0,500.0:24.0,625.0:35.0"),
                 ("passband_loss_db", "f", "0.0")],
    "mixer": [("conversion_gain", "f", "1.0"), ("lo_leak_db", "inf", "-40.0"),
              ("if_leak_db", "inf", "-40.0")],
    "eom": [("v_pi_v", "f", "1.7"), ("drive_scale", "f", "0.29"),
            ("bandwidth_ghz", "inf", "inf")],
    "etalon": [("n_stages", "i", "3"), ("reflectivity", "f", "0.95"),
               ("fsr_ghz", "f", "17.0"), ("detuning_mhz", "f", "0.0"),
               ("loss", "f", "0.0"), ("temp_per_fsr_k", "f", "7.4"),
               ("temp_jitter_mk", "f", "5.0"),
               ("apply_temp_jitter", "b", "false")],
    "detector": [("bandwidth_ghz", "inf", "1.0"),
                 ("scope_bandwidth_ghz", "inf", "2.0"),
                 ("responsivity", "f", "1.0")],
    "atom": [("excited_lifetime_ns", "f", "26.2"),
             ("lambda_overlap", "f", "1.0"), ("detuning_mhz", "f", "0.0"),
             ("run_excitation", "b", "true")],
    "run": [("seed", "i", "0")],
}


def _parse_number(section, key, raw, kind):
    """One scalar value; NaN is never accepted, +-inf only by kind ``inf``."""
    raw = str(raw).strip()
    try:
        if kind == "i":
            try:
                return int(raw)
            except ValueError:
                f = float(raw)
                if not f.is_integer():
                    raise ValueError("expected an integer") from None
                return int(f)
        if kind == "b":
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError("expected a boolean")
        f = float(raw)
        if math.isnan(f) or (math.isinf(f) and kind != "inf"):
            raise ValueError("expected a finite number")
        return f
    except ValueError as exc:
        raise ValidationError(f"config [{section}] {key} = {raw!r}: {exc}") from None


def _si(key, value, scale):
    """A config value in SI units.  A finite value that the unit factor
    overflows, or flushes to zero, is rejected; an ``inf``-kind infinity
    stays infinite."""
    x = value * scale
    if (math.isinf(x) and not math.isinf(value)) or (x == 0 and value != 0):
        raise ValidationError(f"{key} = {value!r} is out of range in SI units")
    return x


def _parse_rejections(section, key, raw):
    pairs = []
    for chunk in str(raw).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValidationError(
                f"config [{section}] {key}: expected 'mhz:dbc' pairs, got {chunk!r}")
        pairs.append((_parse_number(section, key, parts[0], "f"),
                      _parse_number(section, key, parts[1], "f")))
    if not pairs:
        raise ValidationError(f"config [{section}] {key}: no rejection points")
    return sorted(pairs)


def _canon(value, kind):
    if kind == "i":
        return str(value)
    if kind == "b":
        return "true" if value else "false"
    if kind == "rej":
        return ",".join(f"{f!r}:{db!r}" for f, db in value)
    return repr(float(value))


class _ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError.  It compares equal to a dict
    and serialises, copies, deep-copies and pickles as one."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("ChainConfig.kv is read-only; edit a config with "
                        "set_config_value or replace(cfg, kv=...)")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class ChainConfig:
    """A chain design built and validated from ``kv`` alone (section -> key
    -> value text, absent keys at their defaults).  The typed blocks derive
    from it, so ``kv`` is stored read-only; edit with
    :func:`set_config_value` or ``replace(cfg, kv=...)``."""

    kv: dict
    grid: TimeGrid = field(init=False)
    circuit: CircuitParams = field(init=False)
    gate: GatePulse = field(init=False)
    dds: DdsParams = field(init=False)
    bandpass: BandpassSpec = field(init=False)
    mixer: MixerParams = field(init=False)
    eom: ModulatorParams = field(init=False)
    etalon: EtalonStack = field(init=False)
    apply_temp_jitter: bool = field(init=False)
    detector: DetectorParams = field(init=False)
    atom: AtomParams = field(init=False)
    run_excitation: bool = field(init=False)
    seed: int = field(init=False)

    def __post_init__(self):
        for name, value in _build(*_merge_with_defaults(self.kv)).items():
            object.__setattr__(self, name, value)


def _merge_with_defaults(sections):
    merged = {}
    stage_overrides = {}
    for section, items in _SCHEMA.items():
        merged[section] = {}
        provided = sections.get(section, {})
        known = {k for k, _, _ in items}
        for key, raw in provided.items():
            if key in known:
                continue
            if section == "etalon" and _STAGE_KEY.match(key):
                continue
            raise ValidationError(
                f"config [{section}]: unknown key {key!r} "
                f"(known: {', '.join(sorted(known))})")
        for key, kind, default in items:
            raw = provided.get(key, default)
            if kind == "rej":
                val = _parse_rejections(section, key, raw)
            else:
                val = _parse_number(section, key, raw, kind)
            merged[section][key] = (val, kind)
    for section in sections:
        if section not in _SCHEMA:
            raise ValidationError(
                f"config: unknown section [{section}] "
                f"(known: {', '.join(_SCHEMA)})")
    for key, raw in sections.get("etalon", {}).items():
        m = _STAGE_KEY.match(key)
        if m:
            idx = int(m.group(1))
            stage_overrides.setdefault(idx, {})[m.group(2)] = _parse_number(
                "etalon", key, raw, "f")
    return merged, stage_overrides


def _build(merged, stage_overrides):
    def val(section, key):
        return merged[section][key][0]

    def si(section, key, scale):
        return _si(key, val(section, key), scale)

    def section_guard(section, fn):
        try:
            return fn()
        except ValidationError as exc:
            raise ValidationError(f"config [{section}]: {exc}") from None

    for section, key, limit in (("etalon", "n_stages", MAX_STAGES),
                                ("dds", "n_images", MAX_IMAGES),
                                ("grid", "n_samples", MAX_SAMPLES)):
        if val(section, key) > limit:
            raise ValidationError(
                f"config [{section}] {key} = {val(section, key)} exceeds {limit}")
    grid = section_guard("grid", lambda: TimeGrid(
        t_start=si("grid", "t_start_ns", 1e-9),
        dt=si("grid", "dt_ns", 1e-9),
        n_samples=val("grid", "n_samples")))
    circuit = section_guard("circuit", lambda: CircuitParams(
        i0=val("circuit", "i0_a"), v_t=si("circuit", "v_t_mv", 1e-3),
        c1=si("circuit", "c1_nf", 1e-9), r11=val("circuit", "r11_ohm"),
        v_in=val("circuit", "v_in_v"), v_drop=val("circuit", "v_drop_v"),
        i_c_max=si("circuit", "i_c_max_ma", 1e-3),
        v_out_max=val("circuit", "v_out_max_v"),
        discharge_tau=si("circuit", "discharge_tau_ns", 1e-9),
        load_ohms=val("circuit", "load_ohm")))
    if not circuit.r11 * circuit.c1 > 0:  # the ramp slope divides by it
        raise ValidationError(
            f"config [circuit]: r11_ohm = {val('circuit', 'r11_ohm')!r} times "
            f"c1_nf = {val('circuit', 'c1_nf')!r} underflows to 0 s")
    gate = section_guard("circuit", lambda: GatePulse(
        t_on=si("circuit", "gate_on_ns", 1e-9),
        duration=si("circuit", "gate_len_ns", 1e-9)))
    dds = section_guard("dds", lambda: DdsParams(
        f_clk=si("dds", "f_clk_mhz", 1e6),
        f_tune=si("dds", "f_tune_mhz", 1e6),
        n_images=val("dds", "n_images")))
    bandpass = section_guard("bandpass", lambda: BandpassSpec(
        f_center=si("bandpass", "f_center_mhz", 1e6),
        rejections=tuple((_si("rejections_mhz_dbc", f, 1e6), db)
                         for f, db in val("bandpass", "rejections_mhz_dbc")),
        passband_loss_db=val("bandpass", "passband_loss_db")))
    if not gate_in_grid(gate, grid):
        raise ValidationError(
            f"config [grid]: dt_ns = {val('grid', 'dt_ns')!r} with "
            f"n_samples = {grid.n_samples} and t_start_ns = "
            f"{val('grid', 't_start_ns')!r} spans [{grid.t_start:g}, "
            f"{grid.t_end:g}] s, which does not contain the gate "
            f"[{gate.t_on:g}, {gate.t_off:g}] s of [circuit] gate_on_ns = "
            f"{val('circuit', 'gate_on_ns')!r}, gate_len_ns = "
            f"{val('circuit', 'gate_len_ns')!r}")
    on = grid.window_slice(gate.t_on, gate.t_off)
    n_gate = on.stop - on.start
    if n_gate < MIN_GATE_SAMPLES:
        raise ValidationError(
            f"config [grid]: dt_ns = {val('grid', 'dt_ns')!r} puts fewer "
            f"than {MIN_GATE_SAMPLES} samples ({n_gate}) in the gate of "
            f"[circuit] gate_len_ns = {val('circuit', 'gate_len_ns')!r}")
    f_s = dominant_tone(section_guard(
        "bandpass", lambda: carrier_tones(dds, bandpass))[1])[0]
    if not resolves_carrier(f_s, grid.dt):
        raise ValidationError(
            f"config [grid]: dt_ns = {val('grid', 'dt_ns')!r} gives fewer "
            f"than 4 samples per cycle of the carrier f_S = {f_s:g} Hz that "
            f"[dds] f_clk_mhz = {val('dds', 'f_clk_mhz')!r}, f_tune_mhz = "
            f"{val('dds', 'f_tune_mhz')!r} and [bandpass] f_center_mhz = "
            f"{val('bandpass', 'f_center_mhz')!r} select")
    if not window_spans_bin(f_s, grid):
        raise ValidationError(
            f"config [dds]: f_tune_mhz = {val('dds', 'f_tune_mhz')!r} with "
            f"[bandpass] gives f_S = {f_s:g} Hz, whose sideband window is less "
            f"than one frequency bin of [grid] n_samples = {grid.n_samples}, "
            f"dt_ns = {val('grid', 'dt_ns')!r}")
    mixer = section_guard("mixer", lambda: MixerParams(
        conversion_gain=val("mixer", "conversion_gain"),
        lo_leak_db=val("mixer", "lo_leak_db"),
        if_leak_db=val("mixer", "if_leak_db")))
    eom = section_guard("eom", lambda: ModulatorParams(
        v_pi=val("eom", "v_pi_v"), drive_scale=val("eom", "drive_scale"),
        bandwidth_hz=si("eom", "bandwidth_ghz", 1e9)))
    if not eom.bandwidth_hz > f_s:
        raise ValidationError(
            f"config [eom] bandwidth_ghz = {val('eom', 'bandwidth_ghz')!r} "
            f"must exceed the carrier f_S = {f_s:g} Hz that [dds] and "
            "[bandpass] select")

    def make_stack():
        n = val("etalon", "n_stages")
        if n < 1:
            raise ValidationError("n_stages must be >= 1")
        for idx in stage_overrides:
            if not 1 <= idx <= n:
                raise ValidationError(
                    f"stage override index {idx} outside 1..{n}")

        def stage(i, name, scale=1.0):
            # a stage<i>_<name> override, else the [etalon] <name> default
            over = stage_overrides.get(i, {})
            key = f"stage{i}_{name}" if name in over else name
            return _si(key, over.get(name, val("etalon", name)), scale)

        stages = [EtalonParams(
            reflectivity=stage(i, "reflectivity"),
            fsr_hz=stage(i, "fsr_ghz", 1e9),
            detuning_hz=stage(i, "detuning_mhz", 1e6),
            loss=stage(i, "loss"),
            temp_per_fsr_k=stage(i, "temp_per_fsr_k"),
            temp_jitter_k=si("etalon", "temp_jitter_mk", 1e-3))
            for i in range(1, n + 1)]
        return EtalonStack(stages=tuple(stages))

    etalon_stack = section_guard("etalon", make_stack)
    detector = section_guard("detector", lambda: DetectorParams(
        bandwidth_hz=si("detector", "bandwidth_ghz", 1e9),
        scope_bandwidth_hz=si("detector", "scope_bandwidth_ghz", 1e9),
        responsivity=val("detector", "responsivity")))
    lifetime_ns = val("atom", "excited_lifetime_ns")
    if not (lifetime_ns > 0):
        raise ValidationError("config [atom]: excited_lifetime_ns must be > 0")
    gamma = section_guard(
        "atom", lambda: 1.0 / si("atom", "excited_lifetime_ns", 1e-9))
    if math.isinf(gamma):
        raise ValidationError(
            f"config [atom]: excited_lifetime_ns = {lifetime_ns!r} gives an "
            "infinite decay rate")
    atom = section_guard("atom", lambda: AtomParams(
        gamma=gamma, lambda_overlap=val("atom", "lambda_overlap"),
        detuning_hz=si("atom", "detuning_mhz", 1e6)))
    if not atom.lambda_overlap > 0:
        raise ValidationError("config [atom] lambda_overlap must be > 0: "
                              "an atom with no overlap cannot be excited")

    kv = {section: {key: _canon(v, kind)
                    for key, (v, kind) in merged[section].items()}
          for section in _SCHEMA}
    for idx in sorted(stage_overrides):
        for name in sorted(stage_overrides[idx]):
            kv["etalon"][f"stage{idx}_{name}"] = _canon(
                stage_overrides[idx][name], "f")

    kv = _ReadOnlyDict({section: _ReadOnlyDict(items)
                        for section, items in kv.items()})

    if val("run", "seed") < 0:
        raise ValidationError("config [run]: seed must be >= 0")

    return dict(grid=grid, circuit=circuit, gate=gate, dds=dds,
                bandpass=bandpass, mixer=mixer, eom=eom, etalon=etalon_stack,
                apply_temp_jitter=val("etalon", "apply_temp_jitter"),
                detector=detector, atom=atom, seed=val("run", "seed"),
                run_excitation=val("atom", "run_excitation"), kv=kv)


def parse_config(text) -> ChainConfig:
    """Parse and fully validate a config; unknown sections/keys are errors."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from None
    return ChainConfig({s: dict(cp.items(s)) for s in cp.sections()})


def load_config(path) -> ChainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def default_config() -> ChainConfig:
    return parse_config("")


def serialize_config(cfg: ChainConfig) -> str:
    """Canonical text form: schema section/key order, normalized numbers."""
    out = io.StringIO()
    for section in _SCHEMA:
        out.write(f"[{section}]\n")
        for key, value in cfg.kv[section].items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def config_sha256(cfg: ChainConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def valid_parameter_paths():
    paths = [f"{section}.{key}" for section, items in _SCHEMA.items()
             for key, _, _ in items]
    paths.append("etalon.stage<N>_<reflectivity|fsr_ghz|detuning_mhz|loss|temp_per_fsr_k>")
    return paths


def set_config_value(cfg: ChainConfig, path, value) -> ChainConfig:
    """Return a new validated config with one key replaced.

    ``path`` is "section.key" using the config key names (unit suffixes
    included), e.g. "circuit.v_in_v" or "etalon.fsr_ghz".
    """
    if "." not in path:
        raise ValidationError(
            f"parameter path {path!r} must be 'section.key'; valid paths: "
            + ", ".join(valid_parameter_paths()))
    section, key = path.split(".", 1)
    known = section in _SCHEMA and (
        any(k == key for k, _, _ in _SCHEMA[section])
        or (section == "etalon" and _STAGE_KEY.match(key)))
    if not known:
        raise ValidationError(
            f"unknown parameter path {path!r}; valid paths: "
            + ", ".join(valid_parameter_paths()))
    sections = {s: dict(kv) for s, kv in cfg.kv.items()}
    sections[section][key] = value
    return ChainConfig(sections)
