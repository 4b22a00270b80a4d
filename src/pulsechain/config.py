"""Chain configuration: INI-style sections with unit-suffixed keys.

Every physical key carries its unit in the name (tau_ns, fsr_ghz, ...) to
keep unit errors out of config files, and that suffix alone sets its SI
scale (``_SCALES``; a key without one is in SI units).  Unknown sections or
keys are errors, every value is validated against the owning module's
invariants before any simulation runs, a refusal names its section and
key, and serialization is canonical (fixed section/key order, normalized
number formatting) so identical configs hash identically.
"""

import configparser
import functools
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

# a key's unit suffix -> its SI scale; a key without one is in SI units
_SCALES = {"ns": 1e-9, "nf": 1e-9, "mv": 1e-3, "ma": 1e-3, "mk": 1e-3,
           "mhz": 1e6, "ghz": 1e9}

# EtalonParams field -> the [etalon] key, for all stages or stage<N>_ one
_STAGE_FIELDS = {"reflectivity": "reflectivity", "fsr_hz": "fsr_ghz",
                 "detuning_hz": "detuning_mhz", "loss": "loss",
                 "temp_per_fsr_k": "temp_per_fsr_k"}
_STAGE_KEY = re.compile(rf"^stage(\d+)_({'|'.join(_STAGE_FIELDS.values())})$")
_FIELD = re.compile(r"\b[A-Z]\w*\.(\w+)")  # a type's "Cls.field" in its error

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


def _si(section, key, value, scale):
    """``value * scale``.  A finite value that the unit factor overflows, or
    flushes to zero, is rejected; an ``inf``-kind infinity stays infinite."""
    x = value * scale
    if (math.isinf(x) and not math.isinf(value)) or (x == 0 and value != 0):
        raise ValidationError(f"config [{section}]: {key} = {value!r} is out "
                              "of range in SI units")
    return x


@functools.lru_cache(maxsize=4096)
def _read(section, key, kind, raw):
    """A key's canonical text and its value in SI units, scaled by its unit
    suffix.  Memoised: each point of a sweep rebuilds a config whose other
    keys keep their texts."""
    if kind == "rej":  # mhz:dbc pairs
        val = _parse_rejections(section, key, raw)
        return _canon(val, kind), tuple((_si(section, key, f, 1e6), db)
                                        for f, db in val)
    val = _parse_number(section, key, raw, kind)
    scale = _SCALES.get(key.rpartition("_")[2])
    return _canon(val, kind), (val if scale is None
                               else _si(section, key, val, scale))


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
    """Each section's canonical key texts, in schema order with the
    ``stage<N>_`` overrides last by index and name, and their values in SI
    units; unknown sections and keys are refused."""
    kv, si = {}, {}
    for section, items in _SCHEMA.items():
        provided = sections.get(section, {})
        known = {k for k, _, _ in items}
        entries = [(key, kind, key, provided.get(key, default))
                   for key, kind, default in items]
        overrides = {}
        for key, raw in provided.items():
            m = section == "etalon" and _STAGE_KEY.match(key)
            if m:  # stage02_loss overrides stage 2 as stage2_loss
                overrides[int(m[1]), m[2]] = (key, raw)
            elif key not in known:
                raise ValidationError(
                    f"config [{section}]: unknown key {key!r} "
                    f"(known: {', '.join(sorted(known))})")
        entries += [(f"stage{i}_{name}", "f", key, raw)
                    for (i, name), (key, raw) in sorted(overrides.items())]
        kv[section], si[section] = {}, {}
        for name, kind, key, raw in entries:
            kv[section][name], si[section][name] = _read(section, key, kind,
                                                         str(raw))
    for section in sections:
        if section not in _SCHEMA:
            raise ValidationError(
                f"config: unknown section [{section}] "
                f"(known: {', '.join(_SCHEMA)})")
    return kv, si


def _build(kv, si):
    def block(cls, section, **fields):
        """``cls`` with each field at its [section] key's SI value; a
        ``Cls.field`` in a refusal is named as ``key = value``."""
        try:
            return cls(**{f: si[section][key] for f, key in fields.items()})
        except ValidationError as exc:
            def named(m):
                key = fields.get(m[1])
                return m[0] if key is None else f"{key} = {kv[section][key]}"
            raise ValidationError(f"config [{section}]: "
                                  + _FIELD.sub(named, str(exc))) from None

    g, c, d, b = kv["grid"], kv["circuit"], kv["dds"], kv["bandpass"]
    for section, key, limit in (("etalon", "n_stages", MAX_STAGES),
                                ("dds", "n_images", MAX_IMAGES),
                                ("grid", "n_samples", MAX_SAMPLES)):
        if si[section][key] > limit:
            raise ValidationError(
                f"config [{section}] {key} = {kv[section][key]} exceeds {limit}")
    grid = block(TimeGrid, "grid", t_start="t_start_ns", dt="dt_ns",
                 n_samples="n_samples")
    circuit = block(CircuitParams, "circuit", i0="i0_a", v_t="v_t_mv",
                    c1="c1_nf", r11="r11_ohm", v_in="v_in_v",
                    v_drop="v_drop_v", i_c_max="i_c_max_ma",
                    v_out_max="v_out_max_v", discharge_tau="discharge_tau_ns",
                    load_ohms="load_ohm")
    rc, dv = circuit.r11 * circuit.c1, circuit.v_in - circuit.v_drop
    rc_keys = f"r11_ohm = {c['r11_ohm']} times c1_nf = {c['c1_nf']}"
    if not rc > 0:  # the ramp slope divides by it
        raise ValidationError(f"config [circuit]: {rc_keys} underflows to 0 s")
    if not math.isfinite(dv / rc):  # named by its side further from 1
        dv_keys = f"v_in_v = {c['v_in_v']} minus v_drop_v = {c['v_drop_v']}"
        first, size, slope = ((dv_keys, "large", f"it over {rc_keys}")
                              if dv > 1.0 / rc else
                              (rc_keys, "small", f"{dv_keys} over it"))
        raise ValidationError(f"config [circuit]: {first} is so {size} that "
                              f"the ramp slope, {slope}, overflows")
    gate = block(GatePulse, "circuit", t_on="gate_on_ns",
                 duration="gate_len_ns")
    dds = block(DdsParams, "dds", f_clk="f_clk_mhz", f_tune="f_tune_mhz",
                n_images="n_images")
    bandpass = block(BandpassSpec, "bandpass", f_center="f_center_mhz",
                     rejections="rejections_mhz_dbc",
                     passband_loss_db="passband_loss_db")
    if not gate_in_grid(gate, grid):
        raise ValidationError(
            f"config [grid]: dt_ns = {g['dt_ns']} with n_samples = "
            f"{g['n_samples']} and t_start_ns = {g['t_start_ns']} spans "
            f"[{grid.t_start:g}, {grid.t_end:g}] s, which does not contain "
            f"the gate [{gate.t_on:g}, {gate.t_off:g}] s of [circuit] "
            f"gate_on_ns = {c['gate_on_ns']}, gate_len_ns = "
            f"{c['gate_len_ns']}")
    on = grid.window_slice(gate.t_on, gate.t_off)
    n_gate = on.stop - on.start
    if n_gate < MIN_GATE_SAMPLES:
        raise ValidationError(
            f"config [grid]: dt_ns = {g['dt_ns']} puts fewer than "
            f"{MIN_GATE_SAMPLES} samples ({n_gate}) in the gate of [circuit] "
            f"gate_len_ns = {c['gate_len_ns']}")
    try:
        f_s = dominant_tone(carrier_tones(dds, bandpass)[1])[0]
    except ValidationError:  # every tone's amplitude is 0
        raise ValidationError(
            f"config [bandpass]: passband_loss_db = {b['passband_loss_db']} "
            f"with rejections_mhz_dbc = {b['rejections_mhz_dbc']} leaves the "
            "DDS tones no power") from None
    if not resolves_carrier(f_s, grid.dt):
        raise ValidationError(
            f"config [grid]: dt_ns = {g['dt_ns']} gives fewer than 4 samples "
            f"per cycle of the carrier f_S = {f_s:g} Hz that [dds] f_clk_mhz "
            f"= {d['f_clk_mhz']}, f_tune_mhz = {d['f_tune_mhz']} and "
            f"[bandpass] f_center_mhz = {b['f_center_mhz']} select")
    if not window_spans_bin(f_s, grid):
        raise ValidationError(
            f"config [dds]: f_tune_mhz = {d['f_tune_mhz']} with [bandpass] "
            f"gives f_S = {f_s:g} Hz, whose sideband window is less than one "
            f"frequency bin of [grid] n_samples = {g['n_samples']}, dt_ns = "
            f"{g['dt_ns']}")
    mixer = block(MixerParams, "mixer", conversion_gain="conversion_gain",
                  lo_leak_db="lo_leak_db", if_leak_db="if_leak_db")
    eom = block(ModulatorParams, "eom", v_pi="v_pi_v",
                drive_scale="drive_scale", bandwidth_hz="bandwidth_ghz")
    if not eom.bandwidth_hz > f_s:
        raise ValidationError(
            f"config [eom] bandwidth_ghz = {kv['eom']['bandwidth_ghz']} must "
            f"exceed the carrier f_S = {f_s:g} Hz that [dds] and [bandpass] "
            "select")

    n = si["etalon"]["n_stages"]
    if n < 1:
        raise ValidationError(f"config [etalon]: n_stages = {n} must be >= 1")
    for key in si["etalon"]:
        m = _STAGE_KEY.match(key)
        if m and not 1 <= int(m[1]) <= n:
            raise ValidationError(
                f"config [etalon]: {key} = {kv['etalon'][key]} is a stage "
                f"override outside n_stages = {n}")
    etalon = EtalonStack(stages=tuple(block(  # stage i's own key, else all's
        EtalonParams, "etalon", temp_jitter_k="temp_jitter_mk",
        **{f: f"stage{i}_{k}" if f"stage{i}_{k}" in si["etalon"] else k
           for f, k in _STAGE_FIELDS.items()}) for i in range(1, n + 1)))
    detector = block(DetectorParams, "detector", bandwidth_hz="bandwidth_ghz",
                     scope_bandwidth_hz="scope_bandwidth_ghz",
                     responsivity="responsivity")
    nyquist = 0.5 / grid.dt  # f/bw and pi/FSR*f on the grid
    fsr_keys = {f"stage{i}_fsr_ghz" if f"stage{i}_fsr_ghz" in si["etalon"]
                else "fsr_ghz" for i in range(1, n + 1)}
    for section, key, product, what in (
            [("detector", k, nyquist * (1.0 / si["detector"][k]), "f/bw")
             for k in ("bandwidth_ghz", "scope_bandwidth_ghz")]
            + [("etalon", k, math.pi / si["etalon"][k] * nyquist, "pi/FSR*f")
               for k in sorted(fsr_keys)]):
        if not math.isfinite(product):
            raise ValidationError(
                f"config [{section}]: {key} = {kv[section][key]} is so narrow "
                f"that {what} overflows below the Nyquist frequency of "
                f"[grid] dt_ns = {g['dt_ns']}")
    lifetime = si["atom"]["excited_lifetime_ns"]
    shown = ("config [atom]: excited_lifetime_ns = "
             + kv["atom"]["excited_lifetime_ns"])
    if not lifetime > 0:
        raise ValidationError(f"{shown} must be > 0")
    if math.isinf(1.0 / lifetime):
        raise ValidationError(f"{shown} gives an infinite decay rate")
    atom = block(functools.partial(AtomParams, 1.0 / lifetime), "atom",
                 lambda_overlap="lambda_overlap", detuning_hz="detuning_mhz")
    if not atom.lambda_overlap > 0:
        raise ValidationError("config [atom] lambda_overlap must be > 0: "
                              "an atom with no overlap cannot be excited")
    if si["run"]["seed"] < 0:
        raise ValidationError("config [run]: seed must be >= 0")

    return dict(grid=grid, circuit=circuit, gate=gate, dds=dds,
                bandpass=bandpass, mixer=mixer, eom=eom, etalon=etalon,
                apply_temp_jitter=si["etalon"]["apply_temp_jitter"],
                detector=detector, atom=atom, seed=si["run"]["seed"],
                run_excitation=si["atom"]["run_excitation"],
                kv=_ReadOnlyDict({section: _ReadOnlyDict(items)
                                  for section, items in kv.items()}))


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
    paths.append(f"etalon.stage<N>_<{'|'.join(_STAGE_FIELDS.values())}>")
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
