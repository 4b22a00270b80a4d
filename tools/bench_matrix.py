#!/usr/bin/env python3
"""Time ``run_chain`` across the north star's matrix and, optionally, the
benchmark against a parent checkout; print the record or append it to
``BENCH_chain.json``.

    python3 tools/bench_matrix.py [--reps N] [--parent DIR --pairs K
                                   --seconds S] [--append FILE]
    python3 tools/bench_matrix.py --summary [FILE]

The matrix runs ``run_chain`` at 1e4, 1e5 and 1e6 samples (jitter on), with
and without trace files, cold (the front-end memo cleared before each run)
and warm (the memo filled by an untimed run, the seed changed per run).
Each cell runs in its own single-threaded process, so its ``ru_maxrss_mb``
is that cell's high-water mark; times are best-of-N with the median and the
largest, ``minflt_per_run`` is the median count of minor page faults a
timed run takes (``ru_minflt``), and ``tracemalloc_peak_mb`` is one more
run's peak above the memory live before it.

With ``--parent``, ``chainbench/run.py`` runs every workload in the parent
checkout and in this one, alternately, ``--pairs`` times each, and the
record gets the median and [q1, q3] of each end-to-end metric on both
sides, with the raw (unscaled) ``raw_op_p50_s`` and the host-speed block
time ``host_block_s`` from each run's provenance line.  The cold 1e6 cell
and the warm 1e6 and 1e4 cells run the same way, each side's ``src/``
under this script, and the record's ``alternated_cells`` gets the spread
of their ``best_s`` and ``minflt_per_run``.  Last, ``paired_cells``
imports both checkouts' ``src/pulsechain`` into this process under distinct
package names and alternates them op by op: a warm 1e4 ``sweep`` point (as
the benchmark's ``sweep_small`` runs one), a warm 1e6 ``run_chain``, a
``compare_shapes`` at a tau spread over ``atom_shapes``' range, a warm
1e5 ``run_chain`` with trace files, as ``simulate_traces`` writes them, and
the read-back of such a run's traces, as ``simulate_traces`` reads them.
The record gets the median and [q1, q3] of the per-op ratio change/parent
and the number of ops below 1: a difference that separate processes on a
shared host, drifting by +-20% from one to the next, cannot resolve.  Run it from a copy whose directory sits beside
the parent's and has a name of the same length: the benchmark's host-speed
block and the cells' minor faults depend on the heap layout, which the path
moves.

A spread is kept as its median and [q1, q3], not as its runs, and the
record is written with each dict or list of scalars (or of lists of
scalars) on one line, so an entry is about 200 lines.  ``--append`` adds
it to the end of the JSON list and leaves the earlier entries as written.

``--summary`` runs nothing and writes nothing: it prints four tables of
``FILE`` (default ``BENCH_chain.json``), each with one line per entry: the
entry's short git and ``src/`` sha, ``src_lines``, and then ``best_s``,
``minflt_per_run`` or ``ru_maxrss_mb`` of each matrix cell, or the ratio
of each paired cell as median [q1, q3] and below_1/ops; blank where the
entry lacks it.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (10_000, 100_000, 1_000_000)
WORKLOADS = ("chain_1m", "sweep_small", "simulate_traces", "atom_shapes")
METRICS = ("setup_s", "op_p50_s", "op_p90_s", "msamples_per_s", "ok_frac",
           "peak_rss_mb")                  # the end-to-end metrics
PROVENANCE = ("raw_op_p50_s", "host_block_s")   # read off each run's record
ALTERNATED = ((1_000_000, "cold", 5), (1_000_000, "warm", 8),
              (10_000, "warm", 40))                # (n, mode, reps)
PAIRED = ((10_000, "sweep", 400), (1_000_000, "warm", 40),
          (None, "compare_shapes", 400), (100_000, "traced", 24),
          (100_000, "readback", 24))
                                                   # (n, op, ops)
FSR_RANGE_GHZ = (10.2, 28.9)                       # as sweep_small draws it
TAU_RANGE_S = (5.4e-9, 135e-9)                     # as atom_shapes draws it
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _cell(n, traces, mode, reps):
    """One matrix cell, in this process; returns its record."""
    from pulsechain import parse_config, pipeline

    def config(seed):
        return parse_config(f"[grid]\nn_samples = {n}\n[etalon]\n"
                            f"apply_temp_jitter = true\n[run]\nseed = {seed}\n")

    scratch = tempfile.mkdtemp(prefix="bench-matrix-")
    try:
        def run(seed):
            if mode == "cold":
                pipeline._front_end.cache_clear()
            outdir = os.path.join(scratch, str(seed)) if traces else None
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            pipeline.run_chain(config(seed), outdir)
            elapsed = time.perf_counter() - t0
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
            if outdir:
                shutil.rmtree(outdir)
            return elapsed, flt

        if mode == "warm":
            run(0)
        times, faults = zip(*(run(seed) for seed in range(1, reps + 1)))
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracemalloc.start()
        run(reps + 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"n_samples": n, "traces": traces, "mode": mode, "reps": reps,
            "best_s": min(times), "median_s": statistics.median(times),
            "max_s": max(times), "minflt_per_run": statistics.median(faults),
            "tracemalloc_peak_mb": peak / 1e6,
            "ru_maxrss_mb": maxrss * 1024 / 1e6}


def _child_env(root):
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run_cell(root, n, traces, mode, reps):
    """One cell of the checkout at ``root``, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cell", str(n),
         str(int(traces)), mode, str(reps)],
        env=_child_env(root), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def matrix(reps):
    cells = []
    for n in SIZES:
        for traces in (False, True):
            for mode in ("cold", "warm"):
                r = reps if n < 1_000_000 or not traces else max(1, reps // 2)
                cells.append(_run_cell(ROOT, n, traces, mode, r))
                print(json.dumps(cells[-1]), file=sys.stderr)
    return cells


def _chainbench(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("chainbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    run = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    prov = json.loads(next(line for line in lines
                           if line.startswith("provenance "))[11:])
    run.update({k: prov[k] for k in PROVENANCE})
    return run


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1_q3": [q1, q3]}


def _alternate(label, parent, n_pairs, measure, keys):
    """``measure(root, i)`` in the parent and in this checkout, ``n_pairs``
    times each, alternating which side runs first; the spread of each
    side's ``keys``."""
    sides = {"parent": [], "change": []}
    for i in range(n_pairs):
        order = (("parent", parent), ("change", ROOT))
        for side, root in order if i % 2 == 0 else order[::-1]:
            sides[side].append(measure(root, i))
            print(label, side, json.dumps(sides[side][-1]), file=sys.stderr)
    return {side: {key: _spread([run[key] for run in runs]) for key in keys}
            for side, runs in sides.items()}


def pairs(parent, n_pairs, seconds):
    return {workload: _alternate(
                workload, parent, n_pairs,
                lambda root, i: _chainbench(root, workload, i, seconds),
                METRICS + PROVENANCE)
            for workload in WORKLOADS}


def alternated_cells(parent, n_pairs):
    return [{"n_samples": n, "mode": mode, "reps": reps, **_alternate(
                f"{mode} {n}", parent, n_pairs,
                lambda root, i: _run_cell(root, n, False, mode, reps),
                ("best_s", "minflt_per_run"))}
            for n, mode, reps in ALTERNATED]


def _load(root, name):
    """The package in ``root``/src/pulsechain, imported as ``name``."""
    pkg = os.path.join(root, "src", "pulsechain")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _paired_op(pc, n, op, scratch):
    """``timed(i)`` runs op ``i`` of a paired cell with the package ``pc``
    and returns its time: a sweep point at an FSR spread over sweep_small's
    range, a compare_shapes at a tau spread over atom_shapes' range, a run
    with jitter seeded by ``i``, its config parsed untimed, or the read-back
    of one such run's traces; a traced run writes into a directory under
    ``scratch``, removed untimed.  The read-back reads the traces that one
    untimed run wrote there: ``fit_trace`` of ``v_out.csv`` over the
    envelope's fit window, and ``read_trace`` and ``excite`` of
    ``filtered_envelope.csv``."""
    outdir = (os.path.join(scratch, pc.__name__)
              if op in ("traced", "readback") else None)

    def config(seed):
        return pc.parse_config(f"[grid]\nn_samples = {n}\n[etalon]\n"
                               f"apply_temp_jitter = true\n[run]\n"
                               f"seed = {seed}\n")
    if op == "compare_shapes":
        lo, hi = TAU_RANGE_S
        atom = pc.AtomParams()

        def call(i):
            tau = lo + (hi - lo) * (i * 0.618034 % 1)
            return lambda: pc.compare_shapes(tau, atom)
    elif op == "sweep":
        cfg = pc.parse_config(f"[grid]\nn_samples = {n}\n")
        lo, hi = FSR_RANGE_GHZ

        def call(i):
            value = f"{lo + (hi - lo) * (i * 0.618034 % 1):.6f}"
            return lambda: pc.sweep(cfg, "etalon.fsr_ghz", [value])
    elif op == "readback":
        cfg = config(0)
        tau = pc.run_chain(cfg, outdir).data["envelope"]["tau_design_s"]
        gate = cfg.gate
        window = (gate.t_on + max(0.3 * gate.duration,
                                  gate.duration - 5.0 * tau),
                  gate.t_off - 2.0 * cfg.grid.dt)

        def read_back():
            pc.fit_trace(os.path.join(outdir, "v_out.csv"), window, "rising")
            pc.excite(pc.read_trace(os.path.join(
                outdir, "filtered_envelope.csv"), unit="sqrtW"), cfg.atom)

        def call(i):
            return read_back
    else:
        def call(i):
            cfg = config(i)
            return lambda: pc.run_chain(cfg, outdir)

    def timed(i):
        fn = call(i)
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if op == "traced":
            shutil.rmtree(outdir)
        return elapsed
    return timed


def paired_cells(parent):
    trees = {"parent": _load(parent, "pulsechain_parent"),
             "change": _load(ROOT, "pulsechain_change")}
    cells = []
    with tempfile.TemporaryDirectory(prefix="bench-paired-") as scratch:
        for n, op, n_ops in PAIRED:
            ops = {side: _paired_op(pc, n, op, scratch)
                   for side, pc in trees.items()}
            for timed in ops.values():
                timed(0)  # fills the tree's front-end memo
            times = {"parent": [], "change": []}
            for i in range(1, n_ops + 1):
                for side in ("parent", "change")[::1 if i % 2 else -1]:
                    times[side].append(ops[side](i))
            ratios = [c / p for c, p in zip(times["change"], times["parent"])]
            q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
            cells.append({"n_samples": n, "op": op, "ops": n_ops,
                          "ratio": {"median": med, "q1_q3": [q1, q3],
                                    "below_1": sum(r < 1.0 for r in ratios)},
                          **{f"{side}_median_s": statistics.median(t)
                             for side, t in times.items()}})
            print("paired", json.dumps(cells[-1]), file=sys.stderr)
    return cells


def _git_sha(root):
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def _src(root):
    """sha256 over ``src/`` (path and bytes of each .py file, as the
    benchmark's provenance computes it) and its line count."""
    src = os.path.join(root, "src")
    sha, lines = hashlib.sha256(), 0
    for path in sorted(os.path.join(d, f) for d, _, fs in os.walk(src)
                       for f in fs if f.endswith(".py")):
        with open(path, "rb") as fh:
            data = fh.read()
        sha.update(os.path.relpath(path, src).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return sha.hexdigest(), lines


def _flat(x):
    """Whether ``x`` holds no container but lists of scalars."""
    values = x.values() if isinstance(x, dict) else x
    return all(not isinstance(v, dict) and (not isinstance(v, list)
                                             or _flat(v)) for v in values)


def _dumps(x, pad=""):
    """``x`` as JSON indented by one space per level, with each dict or list
    that holds no container but lists of scalars on one line (a spread, a
    matrix cell), so that a record is a couple of hundred lines."""
    if not isinstance(x, (dict, list)) or _flat(x):
        return json.dumps(x)
    inner = pad + " "
    if isinstance(x, dict):
        items = (f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in x.items())
        brackets = "{}"
    else:
        items = (_dumps(v, inner) for v in x)
        brackets = "[]"
    return (brackets[0] + "\n" + ",\n".join(inner + i for i in items) + "\n"
            + pad + brackets[1])


def append(path, record):
    """Add ``record`` to the JSON list in ``path`` (made if missing) before
    its closing bracket, so that the earlier entries stay as written."""
    old = "[]"
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = fh.read()
    head = old.rstrip()[:-1].rstrip()
    sep = ",\n" if json.loads(old) else "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{head}{sep} {_dumps(record, ' ')}\n]\n")


def _ratio_text(cell):
    """A paired cell's change/parent ratio: median [q1, q3] below_1/ops."""
    r = cell["ratio"]
    return (f"{r['median']:.3f} [{r['q1_q3'][0]:.3f}, {r['q1_q3'][1]:.3f}] "
            f"{r['below_1']}/{cell['ops']}")


def summary(path):
    """Print the ``--summary`` tables of the JSON list at ``path``."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    cells = [(n, traces, mode) for n in SIZES for traces in (False, True)
             for mode in ("cold", "warm")]

    def size(n):
        return f"1e{len(str(n)) - 1}"

    def matrix_row(field, fmt):
        def row(e):
            got = {(c.get("n_samples"), c.get("traces"), c.get("mode")):
                   c.get(field) for c in e.get("matrix", [])}
            return ["" if got.get(c) is None else fmt.format(got[c])
                    for c in cells]
        return row

    def paired_row(e):
        got = {(c.get("n_samples"), c.get("op")): c
               for c in e.get("paired_cells", [])}
        return ["" if (n, op) not in got else _ratio_text(got[n, op])
                for n, op, _ in PAIRED]

    matrix_heads = [f"{size(n)}{'+tr' if traces else ''} {mode}"
                    for n, traces, mode in cells]
    tables = [(field, matrix_heads, matrix_row(field, fmt))
              for field, fmt in (("best_s", "{:.4g}"),
                                 ("minflt_per_run", "{:.0f}"),
                                 ("ru_maxrss_mb", "{:.1f}"))]
    tables.append(("paired_cells: change/parent median [q1, q3] below_1/ops",
                   [op if n is None else f"{size(n)} {op}"
                    for n, op, _ in PAIRED], paired_row))
    for k, (title, heads, row_of) in enumerate(tables):
        rows = [["git", "src", "lines"] + heads]
        for e in entries:
            rows.append([(e.get("git_sha") or "")[:7],
                         (e.get("src_sha256") or "")[:7],
                         str(e.get("src_lines", ""))] + row_of(e))
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(rows[0]))]
        print(("\n" if k else "") + title)
        for row in rows:
            print("  ".join(v.rjust(w) for v, w in zip(row, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--append", help="JSON list to append the record to")
    ap.add_argument("--summary", nargs="?", metavar="FILE",
                    const=os.path.join(ROOT, "BENCH_chain.json"),
                    help="print one line per entry of a record list and exit")
    ap.add_argument("--cell", nargs=4, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.summary:
        summary(args.summary)
        return 0
    if args.parent and args.pairs < 2:
        ap.error("--pairs must be at least 2 for a spread")
    if args.cell:
        n, traces, mode, reps = args.cell
        print(json.dumps(_cell(int(n), traces == "1", mode, int(reps))))
        return 0

    os.environ.update(SINGLE_THREAD)  # before numpy: paired_cells runs here
    import numpy as np
    src_sha, src_lines = _src(ROOT)
    record = {"git_sha": _git_sha(ROOT), "src_sha256": src_sha,
              "src_lines": src_lines,
              "backend": f"numpy {np.__version__}",
              "python": sys.version.split()[0], "nproc": os.cpu_count(),
              "matrix": matrix(args.reps)}
    if args.parent:
        parent_sha, parent_lines = _src(args.parent)
        record["parent"] = {"git_sha": _git_sha(args.parent),
                            "src_sha256": parent_sha,
                            "src_lines": parent_lines}
        record["chainbench"] = {"seconds": args.seconds,
                                "pairs": args.pairs,
                                "workloads": pairs(args.parent, args.pairs,
                                                   args.seconds)}
        record["alternated_cells"] = {
            "pairs": args.pairs,
            "cells": alternated_cells(args.parent, args.pairs)}
        record["paired_cells"] = paired_cells(args.parent)
    if args.append:
        append(args.append, record)
    print(_dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
