"""One workload process of the benchmark; ``run.py`` starts it.

Roles:
  setup  import, generate and parse the inputs, run one untimed warm-up op,
         and print the set-up time and the host speed just after it;
  main   the same set-up, then a closed loop of ops for ``--seconds`` (one
         client: the next op starts when the previous one returns); with
         ``--trace 1``, an untraced and then a traced loop of half that
         time each.

The last stdout line is one JSON object for ``run.py``.
"""

import time

_T_START = time.perf_counter()   # set-up time counts from here

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
import types

import hostspeed


def _run_loop(w, pc, items, scratch, seconds, call):
    """Closed loop over the input pool; checks run outside the timed op.

    Calibration blocks run between ops, so that they take about
    ``hostspeed.SHARE`` of the op time.  Each op gets the median time of the
    ``hostspeed.LOCAL`` blocks run just before it and as many just after,
    which measures the host's speed around that op."""
    times, records, blocks, marks = [], [], [], []
    failed = samples = 0
    op_total = block_total = 0.0
    start = time.perf_counter()
    i = 0
    while i < w.digest_ops or time.perf_counter() - start < seconds:
        while (len(blocks) < hostspeed.MIN_BLOCKS
               or block_total < hostspeed.SHARE * op_total):
            blocks.append(hostspeed.block())
            block_total += blocks[-1]
        marks.append(len(blocks))
        item = items[i % len(items)]
        t0 = time.perf_counter()
        try:
            result = call(i, w.run, pc, item, scratch)
        except Exception:   # an op that raises is a failed op, not a crash
            traceback.print_exc()
            result = None
        times.append(time.perf_counter() - t0)
        op_total += times[-1]
        if hasattr(w, "cleanup"):
            w.cleanup(scratch)
        fails = ["op raised"] if result is None else w.check(item, result)
        if fails:
            failed += 1
            print(f"{w.name} op {i} failed: {'; '.join(fails)}", file=sys.stderr)
        if i < w.digest_ops:
            records.append(result)
        samples += w.samples(item)
        i += 1
    blocks.extend(hostspeed.block() for _ in range(hostspeed.LOCAL))
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    return {"op_times": times, "attempted": len(times), "failed": failed,
            "samples": samples, "digest": digest,
            "op_block_s": [statistics.median(blocks[j - hostspeed.LOCAL:
                                                    j + hostspeed.LOCAL])
                           for j in marks],
            "block_s": statistics.median(blocks), "blocks": len(blocks)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    import numpy as np
    from pulsechain import _accel, atom, config, errors, pipeline

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]()
    pc = types.SimpleNamespace(pipeline=pipeline, atom=atom, config=config)
    items = w.prepare(pc, w.inputs(random.Random(args.seed)))
    scratch = os.path.join(args.outdir, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        w.run(pc, items[0], scratch)        # untimed warm-up op
        if hasattr(w, "cleanup"):
            w.cleanup(scratch)
        out = {"setup_s": time.perf_counter() - _T_START,
               "setup_block_s": statistics.median(
                   hostspeed.block() for _ in range(hostspeed.MIN_BLOCKS))}
        if args.role == "main":
            # a traced run splits its time between an untraced and a traced
            # loop, so that it lasts as long as an untraced run
            seconds = args.seconds / 2 if args.trace else args.seconds
            out["untraced"] = _run_loop(w, pc, items, scratch, seconds,
                                        lambda i, fn, *a: fn(*a))
            out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss * 1024 / 1e6)
            out["pool"] = len(items)
            out["backend"] = _accel.BACKEND
            out["numpy"] = np.__version__
            if args.trace:
                from tracer import Tracer
                tracer = Tracer()
                tracer.install(pipeline, atom, errors)
                try:
                    traced = _run_loop(w, pc, items, scratch, seconds,
                                       tracer.op)
                finally:
                    tracer.uninstall()
                traced["layers"] = tracer.metrics(traced["attempted"])
                tracer.write_spans(os.path.join(
                    args.outdir, f"spans-{w.name}-seed{args.seed}.jsonl"))
                out["traced"] = traced
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
