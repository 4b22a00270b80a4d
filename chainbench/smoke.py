#!/usr/bin/env python3
"""Self-check of the benchmark: a shortened run of every workload.

    python3 chainbench/smoke.py [--seconds S]

For each workload it runs ``run.py`` untraced and traced with one seed and
checks that the last line is a result with exactly the expected keys, that
every metric of ``BENCHMARK.json`` is printed with its unit, that no op
failed, and that both runs print the same output digest.  It then copies the
benchmark alone (``BENCHMARK.json`` and ``chainbench/``) into a scratch
directory and checks that ``run.py`` fails there without printing a result.
Exit code 0 means every check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def _run(root, workload, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "chainbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=180)


def _check_run(proc, wanted):
    problems = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}"], None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        problems.append("metric names or units differ from BENCHMARK.json")
    if result["failed"] != 0 or not result["correct"]:
        problems.append(f"{result['failed']} of {result['attempted']} ops "
                        f"failed, correct = {result['correct']}")
    if "ok_frac" in result["metrics"] and result["metrics"]["ok_frac"]["value"] != 1.0:
        problems.append("ok_frac != 1")
    digests = [line.split()[-1] for line in lines if line.startswith("digest ")]
    return problems, digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems, d = _check_run(_run(ROOT, name, args.seconds, trace), wanted)
            digests.extend(d or [])
            for p in problems:
                print(f"FAIL {name} trace {trace}: {p}")
            ok &= not problems
        if len(set(digests)) != 1:
            print(f"FAIL {name}: digests differ: {digests}")
            ok = False
        else:
            print(f"ok   {name} digest {digests[0][:16]}")

    alone = os.path.join(HERE, "out", "smoke-alone")
    shutil.rmtree(alone, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(alone, "chainbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    try:
        proc = _run(alone, spec["workloads"][0]["name"], args.seconds, 0)
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        print("FAIL benchmark alone did not fail cleanly")
        ok = False
    else:
        print("ok   benchmark alone fails without a result")
    print("smoke check passed" if ok else "smoke check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
