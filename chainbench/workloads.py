"""The benchmark workloads: seeded inputs, the timed op, its checks.

Every workload draws a pool of inputs from the seed, then cycles through it,
one op at a time.  The program sees only the generated config text and
parameter values.  The checks are the acceptance suite's oracles with its
tolerances, applied only where they hold for the op's inputs; a fit that the
report records as rejected is not a failure (the traced run counts it).
"""

import json
import math
import os
import shutil

TAU_REL_TOL = 0.02        # criterion 1: envelope fit vs design rise constant
EXTINCTION_DB = 60.0      # criterion 4: cascade extinction, default stack
P_MAX_SLACK = 1e-9        # criterion 8: p_max <= Lambda * (1 + slack)
READBACK_REL_TOL = 1e-9   # excite on the read-back trace vs the report
DT_S = 0.1e-9             # default grid step


def _stratified(rng, lo, hi, n):
    """One uniform draw from each of n equal slices of [lo, hi), shuffled.

    Every seed gives distinct values with nearly the same spread of op
    sizes, so the op-time distribution does not depend on the seed."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _design_text(n_samples, run_seed):
    return (f"[grid]\nn_samples = {n_samples}\n\n"
            f"[etalon]\napply_temp_jitter = true\n\n"
            f"[run]\nseed = {run_seed}\n")


def _envelope_fit_window(cfg, data):
    """The window run_chain fits the envelope over: the late on-interval."""
    gate, tau = cfg.gate, data["envelope"]["tau_design_s"]
    return (gate.t_on + max(0.3 * gate.duration, gate.duration - 5.0 * tau),
            gate.t_off - 2.0 * cfg.grid.dt)


def _strict_json(data, fails):
    try:
        json.dumps(data, allow_nan=False)
    except ValueError as exc:
        fails.append(f"report is not strict JSON: {exc}")


def _p_max_in_bound(p, lam, label, fails):
    if not 0.0 <= p <= lam * (1.0 + P_MAX_SLACK):
        fails.append(f"{label} = {p!r} outside [0, {lam!r} * (1 + 1e-9)]")


def _tau_matches(tau, tau_design, label, fails):
    err = abs(tau - tau_design) / tau_design
    if not err <= TAU_REL_TOL:
        fails.append(f"{label} {tau!r} is {err:.2%} from design {tau_design!r}")


def check_report(data, lam, design_stack):
    """Oracle checks on one run_chain report; returns failure messages."""
    fails = []
    _strict_json(data, fails)
    try:
        env = data["envelope"]
        fit = env["fit"]
        if fit is None:
            fails.append("envelope is degenerate")
            return fails
        if fit["tau_s"] is not None:
            _tau_matches(fit["tau_s"], env["tau_design_s"], "envelope fit", fails)
        if design_stack:
            db = data["etalon"]["cascade_extinction_db"]
            if not db >= EXTINCTION_DB:
                fails.append(f"cascade extinction {db!r} dB < {EXTINCTION_DB}")
        _p_max_in_bound(data["atom"]["p_max"], lam, "p_max", fails)
    except (KeyError, TypeError) as exc:
        fails.append(f"report lacks {exc}")
    return fails


class SweepSmall:
    """``sweep_small``: one etalon.fsr_ghz sweep point on the default grid."""

    name = "sweep_small"
    pool = 64
    digest_ops = 20
    n_samples = 10_000
    # 0.6-1.7x the 17 GHz design FSR, the ringdown range of criterion 7
    fsr_range_ghz = (10.2, 28.9)

    def inputs(self, rng):
        text = f"[grid]\nn_samples = {self.n_samples}\n"
        return [(text, f"{v:.6f}")
                for v in _stratified(rng, *self.fsr_range_ghz, self.pool)]

    def prepare(self, pc, items):
        return [(pc.config.parse_config(text), value) for text, value in items]

    def run(self, pc, item, scratch):
        cfg, value = item
        reports = pc.pipeline.sweep(cfg, "etalon.fsr_ghz", [value])
        return {"fsr_ghz": value, "n_reports": len(reports),
                "report": reports[0].data}

    def check(self, item, result):
        fails = check_report(result["report"], item[0].atom.lambda_overlap,
                             False)
        if result["n_reports"] != 1:
            fails.append(f"sweep returned {result['n_reports']} reports, not 1")
        return fails

    def samples(self, item):
        return item[0].grid.n_samples


class Chain1M:
    """``chain_1m``: run_chain without output on a 1e6-sample grid."""

    name = "chain_1m"
    pool = 8
    digest_ops = 3
    n_samples = 1_000_000

    def inputs(self, rng):
        return [_design_text(self.n_samples, rng.randrange(2 ** 31))
                for _ in range(self.pool)]

    def prepare(self, pc, items):
        return [pc.config.parse_config(text) for text in items]

    def run(self, pc, cfg, scratch):
        return {"report": pc.pipeline.run_chain(cfg).data}

    def check(self, cfg, result):
        return check_report(result["report"], cfg.atom.lambda_overlap, True)

    def samples(self, cfg):
        return cfg.grid.n_samples


class SimulateTraces:
    """``simulate_traces``: run_chain with trace output on a 1e5-sample grid,
    then the CLI's read paths on two of the written traces."""

    name = "simulate_traces"
    pool = 16
    digest_ops = 10
    n_samples = 100_000

    def inputs(self, rng):
        return [_design_text(self.n_samples, rng.randrange(2 ** 31))
                for _ in range(self.pool)]

    def prepare(self, pc, items):
        return [pc.config.parse_config(text) for text in items]

    def samples(self, cfg):
        return cfg.grid.n_samples

    def run(self, pc, cfg, scratch):
        outdir = os.path.join(scratch, "run")
        data = pc.pipeline.run_chain(cfg, outdir).data
        fit_tau = None
        env_fit = data["envelope"]["fit"]
        if env_fit is not None and env_fit["tau_s"] is not None:
            fit_tau = pc.pipeline.fit_trace(os.path.join(outdir, "v_out.csv"),
                                            _envelope_fit_window(cfg, data),
                                            "rising").tau
        pulse = pc.pipeline.read_trace(
            os.path.join(outdir, "filtered_envelope.csv"), unit="sqrtW")
        res = pc.pipeline.excite(pulse, cfg.atom)
        return {"report": data, "readback_fit_tau_s": fit_tau,
                "readback_p_max": res.p_max}

    def cleanup(self, scratch):
        shutil.rmtree(os.path.join(scratch, "run"), ignore_errors=True)

    def check(self, cfg, result):
        data = result["report"]
        fails = check_report(data, cfg.atom.lambda_overlap, True)
        try:
            if result["readback_fit_tau_s"] is not None:
                _tau_matches(result["readback_fit_tau_s"],
                             data["envelope"]["tau_design_s"], "read-back fit",
                             fails)
            p, p_rb = data["atom"]["p_max"], result["readback_p_max"]
            if not abs(p_rb - p) <= READBACK_REL_TOL * abs(p):
                fails.append(f"read-back p_max {p_rb!r} != report {p!r}")
        except (KeyError, TypeError) as exc:
            fails.append(f"report lacks {exc}")
        return fails


class AtomShapes:
    """``atom_shapes``: rising vs falling exponential excitation."""

    name = "atom_shapes"
    pool = 64
    digest_ops = 20
    tau_range_s = (5.4e-9, 135e-9)   # the factor-of-5 range of criterion 1

    def inputs(self, rng):
        return _stratified(rng, *self.tau_range_s, self.pool)

    def prepare(self, pc, items):
        self.atom = pc.atom.AtomParams()
        return items

    def run(self, pc, tau, scratch):
        p_rise, p_fall = pc.atom.compare_shapes(tau, self.atom)
        return {"tau_s": tau, "p_rising": p_rise, "p_falling": p_fall}

    def check(self, tau, result):
        fails = []
        _strict_json(result, fails)
        lam = self.atom.lambda_overlap
        _p_max_in_bound(result["p_rising"], lam, "rising p_max", fails)
        _p_max_in_bound(result["p_falling"], lam, "falling p_max", fails)
        if not result["p_rising"] > result["p_falling"]:
            fails.append("falling exponential beats the rising one")
        return fails

    def samples(self, tau):
        # nominal problem size: a 14 tau rising mode plus a falling mode
        # over 16 max(tau, 2/gamma), both at the default 0.1 ns step
        span = 14.0 * tau + 16.0 * max(tau, 2.0 / self.atom.gamma)
        return math.ceil(span / DT_S)


WORKLOADS = {w.name: w for w in (Chain1M, SweepSmall, SimulateTraces,
                                  AtomShapes)}
