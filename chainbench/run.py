#!/usr/bin/env python3
"""pulsechain benchmark: run one workload and print its metrics.

    python3 chainbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
Each workload runs in a fresh single-threaded process (``worker.py``).  With
``--trace 0`` the last stdout line holds the end-to-end metrics listed in
``BENCHMARK.json``; set-up time is the median over the main process and the
set-up-only processes that follow it (see ``_setup_times``).  Every timing
is scaled to a nominal host speed (see ``hostspeed.py``).  With
``--trace 1`` the same process runs an untraced loop and then a traced one,
and the last line holds the per-layer metrics.  Workload choices and the
layer-to-metric predictions are in ``chainbench/README.md``.  Exit code 0
means the run completed; the ``correct`` field says whether every op passed
its checks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(HERE, "out")
# set-up-only processes run until there are SETUP_MIN set-ups and they have
# taken SETUP_S: a cheap set-up gets many samples, a 3 s one the minimum
SETUP_MIN = 4
SETUP_S = 4.0
BUDGET_S = 170.0          # the whole command must end within 180 s
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_worker(args, role, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--outdir", OUTDIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {role} worker exceeded the time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {role} worker exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def _setup_times(args, main, deadline):
    """Set-up times of the main and the set-up-only processes, each scaled
    to the nominal host by the blocks timed just after it."""
    outs = [main]
    start = time.monotonic()
    while len(outs) < SETUP_MIN or time.monotonic() - start < SETUP_S:
        outs.append(_run_worker(args, "setup", deadline))
    return [o["setup_s"] * hostspeed.NOMINAL_S / o["setup_block_s"]
            for o in outs]


def _provenance(args, main):
    loop = main["untraced"]
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC)
                   for f in fs if f.endswith(".py"))
    sha = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        sha.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        git_sha = proc.stdout.strip() or None
    return {"git_sha": git_sha, "src_sha256": sha.hexdigest(),
            "src_lines": lines, "backend": main["backend"],
            "numpy": main["numpy"], "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "input_pool": main["pool"],
            "samples_per_op": loop["samples"] / loop["attempted"],
            "ops": loop["attempted"],
            "host_block_s": loop["block_s"], "host_blocks": loop["blocks"],
            "raw_op_p50_s": _p50_p90(loop["op_times"])[0],
            "raw_op_p90_s": _p50_p90(loop["op_times"])[1]}


def _p50_p90(times):
    return (statistics.median(times),
            statistics.quantiles(times, n=10, method="inclusive")[-1])


def _scaled(loop):
    """A loop's op times, each scaled to the nominal host by the blocks
    timed around it."""
    return [t * hostspeed.NOMINAL_S / b
            for t, b in zip(loop["op_times"], loop["op_block_s"])]


def _end_to_end(main, setups):
    loop = main["untraced"]
    times = _scaled(loop)
    p50, p90 = _p50_p90(times)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": p50,
        "op_p90_s": p90,
        "msamples_per_s": loop["samples"] / sum(times) / 1e6,
        "ok_frac": 1.0 - loop["failed"] / loop["attempted"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def _per_layer(main):
    traced = main["traced"]
    metrics = dict(traced["layers"])
    untraced = main["untraced"]
    metrics["trace.overhead_frac"] = (
        statistics.median(_scaled(traced))
        / statistics.median(_scaled(untraced)) - 1.0)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "pulsechain", "__init__.py")):
        print(f"error: no pulsechain package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUTDIR, exist_ok=True)

    main_out = _run_worker(args, "main", deadline)
    loops = [main_out["untraced"]]
    if args.trace:
        loops.append(main_out["traced"])
        metrics = _per_layer(main_out)
        wanted = spec["per_layer"]
    else:
        metrics = _end_to_end(main_out, _setup_times(args, main_out, deadline))
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print("error: computed metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 2

    digests = {loop["digest"] for loop in loops}
    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    provenance = _provenance(args, main_out)
    record = {"provenance": provenance, "digests": sorted(digests), **result}
    with open(os.path.join(OUTDIR, f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for d in sorted(digests):
        print(f"digest {args.workload} seed {args.seed} {d}")
    for m in wanted:
        print(f"{m['name']:<40s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
