"""Benchmark for ordhorn: time to verdict on four instance families.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (untimed), then decides them
through ``ordhorn.cli.main`` in a fresh worker process, a closed loop with
one client, and checks every verdict.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same inputs once untraced and once traced
(half the time each) and reports the per-layer metrics and the tracing
overhead.  Times are rescaled by a reference loop timed between commands,
which takes out most of the machine's own speed drift (see worker.py); the
"unscaled" line gives the measured values.  The last stdout line is one
JSON object; the lines before it list every metric with its unit and sample
count, and the run's provenance.
Inputs, spans and a full result file go to .perfbench_out/ in the checkout.
Exit status: 0 when every verdict checked out, 1 when some did not, 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# modules a workload's commands load besides ordhorn.cli (imported lazily by
# the CLI, so counted in set-up time where the workload needs them)
WORKLOADS = {
    "solve-chain": [],
    "solve-sparse": [],
    "oracle-small": [],
    "classify": ["ordhorn.classifier"],
}
SETUP_SAMPLES = 15
# end-to-end runs decide enough commands that ten lie beyond the 90th
# percentile
MIN_SAMPLES = 100
READY_TIMEOUT = 60.0
RUN_GRACE = 60.0


class BenchError(RuntimeError):
    pass


def spawn(args, env, timeout):
    """Start a worker; returns (seconds until it printed ready, exit code).
    The worker is stopped and reaped on every path."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(READY_TIMEOUT):
                raise BenchError("worker did not become ready")
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker failed before ready (exit {proc.wait(READY_TIMEOUT)})")
        proc.stdout.read()
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded its time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ready, code


def run_worker(manifest, result_path, env, imports, seconds, trace, min_samples=1):
    args = [manifest, result_path, "--seconds", str(seconds), "--min-samples", str(min_samples)]
    args += [a for m in imports for a in ("--import", m)]
    if trace:
        args.append("--trace")
    _, code = spawn(args, env, seconds + RUN_GRACE)
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def timing(res, samples):
    """Throughput and verdict-time percentiles of one worker's samples."""
    ms = [t * 1000.0 for t in samples]
    return {
        "instances_per_s": (res["attempted"] - res["failed"]) / sum(samples),
        "verdict_p50_ms": statistics.median(ms),
        "verdict_p90_ms": statistics.quantiles(ms, n=10)[8],
    }


def provenance(workload, seed, ops, rounds):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ordhorn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = got.stdout.strip() or None
    sizes = [op["n_vars"] for op in ops]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "inputs_per_round": len(ops),
        "commands_per_round": sum(len(op["argvs"]) for op in ops),
        "n_vars_range": [min(sizes), max(sizes)],
        "rounds": rounds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "ordhorn", "cli.py")):
        print(f"no ordhorn sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import families
    from layers import PER_LAYER
    from worker import REF_NOMINAL_S, reference_block

    out = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs)
    rng = random.Random(f"{args.workload}/{args.seed}")
    ops = families.build(args.workload, rng, inputs, os.path.join(ROOT, "fixtures"))
    manifest = os.path.join(out, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)

    env = dict(os.environ, PYTHONHASHSEED="0")
    imports = WORKLOADS[args.workload]
    ready_only = [manifest, os.devnull, "--ready-only"] + [a for m in imports for a in ("--import", m)]
    metrics = {}  # name -> (value, unit, samples)
    try:
        if args.trace == 0:
            spawn(ready_only, env, READY_TIMEOUT)  # unmeasured: fills bytecode caches
            # each set-up is rescaled by the reference loop timed just before
            # and just after it
            setups, scaled, refs = [], [], [reference_block()[1]]
            for _ in range(SETUP_SAMPLES):
                ready, code = spawn(ready_only, env, READY_TIMEOUT)
                if code != 0:
                    raise BenchError(f"set-up worker exited with {code}")
                refs.append(reference_block()[1])
                setups.append(ready)
                scaled.append(ready * REF_NOMINAL_S * 2 / (refs[-2] + refs[-1]))
            res = run_worker(
                manifest, os.path.join(out, "run.json"), env, imports, args.seconds, False, MIN_SAMPLES
            )
            metrics["setup_s"] = (statistics.median(scaled), "s", SETUP_SAMPLES)
            units = {"instances_per_s": "1/s", "verdict_p50_ms": "ms", "verdict_p90_ms": "ms"}
            for name, value in timing(res, res["samples"]).items():
                metrics[name] = (value, units[name], res["attempted"])
            metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB", 1)
            results = [res]
            raw = dict(
                timing(res, res["raw_samples"]),
                setup_s=statistics.median(setups),
                reference_loop_ms=[statistics.median(refs) * 1000.0, res["ref_loop_s"] * 1000.0],
            )
        else:
            half = args.seconds / 2
            plain = run_worker(manifest, os.path.join(out, "untraced.json"), env, imports, half, False)
            res = run_worker(manifest, os.path.join(out, "traced.json"), env, imports, half, True)
            units = {name: unit for name, unit, *_ in PER_LAYER}
            for name, value in res["layers"].items():
                metrics[name] = (value, units[name], res["rounds"])
            traced = timing(res, res["samples"])["instances_per_s"]
            untraced = timing(plain, plain["samples"])["instances_per_s"]
            metrics["trace.instances_per_s"] = (traced, "1/s", res["attempted"])
            metrics["trace.slowdown"] = (untraced / traced, "ratio", res["attempted"])
            results = [plain, res]
            raw = {"reference_loop_ms": [plain["ref_loop_s"] * 1000.0, res["ref_loop_s"] * 1000.0]}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    info = provenance(args.workload, args.seed, ops, res["rounds"])
    for r in results:
        for f in r["failures"]:
            print(f"FAILED {f['argvs']}: {f['error']}", file=sys.stderr)

    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"failed_frac {failed / attempted:.6f} ratio (n={attempted})")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    print("unscaled " + json.dumps(raw, sort_keys=True))
    if args.trace:
        print("layer metric -> end-to-end metric it should move, on workload:")
        for name, _, _, moves, where in PER_LAYER:
            print(f"  {name} -> {moves}  [{where}]")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, provenance=info, unscaled=raw), fh, indent=1)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
