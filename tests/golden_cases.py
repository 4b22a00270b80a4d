"""Golden-output cases and their regeneration script.

Four cases pin the program's outputs: the default run at 1e4 samples with
thermal jitter off, the same with jitter on at one seed, a 3-point
``etalon.fsr_ghz`` sweep, and ``compare_shapes`` at three rise times.  The
default run also writes its five trace files, whose sha256 is recorded
(the hashes, not the files).

``tests/test_golden.py`` compares fresh runs with the files in
``tests/golden/``.  Regenerate them, after an intended output change, with

    PYTHONPATH=src python tests/golden_cases.py

and list in the change log the fields that moved and by how much.
"""

import hashlib
import json
import os
import tempfile

import numpy as np

from pulsechain import (AtomParams, compare_shapes, default_config,
                        parse_config, run_chain, sweep)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
META = "meta.json"

JITTER_CONFIG = "[etalon]\napply_temp_jitter = true\n\n[run]\nseed = 7\n"
SWEEP_PATH, SWEEP_VALUES = "etalon.fsr_ghz", (12.0, 17.0, 24.0)
SHAPE_TAUS_S = (5.4e-9, 27e-9, 135e-9)


def _dumps(data):
    """JSON text as :meth:`pulsechain.RunReport.to_json` writes it."""
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compute(outdir):
    """Every golden case, run fresh: ``(texts, trace_sha256)``, with
    ``texts`` mapping each golden file name to its JSON text.  The default
    run writes its traces under ``outdir``."""
    default = run_chain(default_config(), outdir)
    trace_sha = {name: _sha256(os.path.join(outdir, name))
                 for name in default.data["traces"]}
    jitter = run_chain(parse_config(JITTER_CONFIG))
    points = sweep(default_config(), SWEEP_PATH, SWEEP_VALUES)
    atom = AtomParams()
    shapes = []
    for tau in SHAPE_TAUS_S:
        p_rising, p_falling = compare_shapes(tau, atom)
        shapes.append({"tau_s": tau, "p_rising": p_rising,
                       "p_falling": p_falling})
    texts = {
        "default_report.json": default.to_json(),
        "jitter_report.json": jitter.to_json(),
        "sweep_fsr.json": _dumps({
            "parameter": SWEEP_PATH, "values": list(SWEEP_VALUES),
            "reports": [r.data for r in points]}),
        "compare_shapes.json": _dumps(shapes),
    }
    return texts, trace_sha


def load():
    """The stored golden files: ``(texts, meta)``."""
    texts = {}
    for name in os.listdir(GOLDEN_DIR):
        if name.endswith(".json") and name != META:
            with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
    with open(os.path.join(GOLDEN_DIR, META), encoding="utf-8") as fh:
        meta = json.load(fh)
    return texts, meta


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as outdir:
        texts, trace_sha = compute(outdir)
    texts[META] = _dumps({"numpy_version": np.__version__,
                          "trace_sha256": trace_sha})
    for name, text in texts.items():
        with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(text)
        print(os.path.join(GOLDEN_DIR, name))


if __name__ == "__main__":
    regenerate()
