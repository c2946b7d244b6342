"""One benchmark worker: a fresh interpreter that imports the CLI, reports
ready on stdout, then runs the manifest's operations in a closed loop (one
client, each command starting after the previous one returned) through the
in-process entry point ``ordhorn.cli.main``.

Usage: worker.py MANIFEST RESULT [--seconds S] [--min-samples N] [--trace]
                 [--ready-only] [--import MODULE ...]
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Machine-speed reference.  On the 2-core VM this benchmark was tuned on, a
# fixed CPU-bound loop timed in 5 s windows ran up to 30% slower or faster
# from one window to the next (host contention the guest cannot see), while
# a command's time divided by the loop's time nearby stayed within about 5%.
# So a short pure-Python loop is timed between commands, and every reported
# time is rescaled to a machine on which that loop takes REF_NOMINAL_S:
#     reported = measured * REF_NOMINAL_S / (median loop time nearby).
# Raw times are kept next to the rescaled ones.
REF_NOMINAL_S = 0.001
REF_EVERY_S = 0.05
REF_REPS = 3
REF_WINDOW = 5


def reference_loop():
    d = {}
    s = 0
    for i in range(2200):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        s += len(d) & 7
    st = set()
    for k, v in sorted(d.items(), key=lambda kv: kv[1]):
        st.add(k ^ v)
    return s + len(st)


def reference_block():
    """(clock reading when done, median seconds of one reference loop).  The
    collector is off meanwhile: a collection of the program's garbage would otherwise be
    charged to the loop."""
    times = []
    gc.disable()
    try:
        for _ in range(REF_REPS):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return time.perf_counter(), statistics.median(times)


def rescale(samples, ends, refs):
    """Each sample times REF_NOMINAL_S over the median of the REF_WINDOW
    reference blocks nearest to its end."""
    ref_at = [t for t, _ in refs]
    out = []
    for sample, end in zip(samples, ends):
        i = bisect.bisect_left(ref_at, end)
        lo = max(0, min(i - REF_WINDOW // 2, len(refs) - REF_WINDOW))
        local = statistics.median(r for _, r in refs[lo : lo + REF_WINDOW])
        out.append(sample * REF_NOMINAL_S / local)
    return out


CLASSIFY_FLAGS = (
    "oh_semantic",
    "oh_syntactic",
    "pp_preserved",
    "dual_pp_preserved",
    "ppsynt_shape",
    "goh_syntactic",
)


def check(op, out) -> str:
    """Empty when the last command's output matches the expectation, else
    the reason it does not."""
    expect = op["expect"]
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    if isinstance(expect, str):
        got = lines[-1] if lines else ""
        return "" if got == expect else f"printed {got!r}, expected {expect!r}"
    report = dict(ln.split(": ", 1) for ln in lines if ": " in ln)
    flags = {k: report.get(k) == "True" for k in CLASSIFY_FLAGS}
    if set(CLASSIFY_FLAGS) - report.keys() or "verdict" not in report:
        return f"incomplete classify report {report}"
    for key, want in expect.items():
        got = report["verdict"] if key == "verdict" else flags[key]
        if got != want:
            return f"{key} is {got!r}, expected {want!r}"
    if flags["ppsynt_shape"] and not flags["pp_preserved"]:
        return "ppsynt_shape without pp_preserved"
    if flags["oh_syntactic"] and not flags["oh_semantic"]:
        return "oh_syntactic without oh_semantic"
    return ""


def run_op(cli, op):
    """Run an operation's commands; returns (seconds, stdout of the last
    command, error or '')."""
    error = ""
    t0 = time.perf_counter()
    for argv in op["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc(limit=-3)
        if code != 0 and not error:
            error = f"exit {code}: {err.getvalue().strip()}"
        if error:
            break
    return time.perf_counter() - t0, out.getvalue(), error


def run(ops, seconds, min_samples, cli, tracer):
    """Whole rounds over `ops` for about `seconds`, and at least
    `min_samples` commands; per-command times, raw and rescaled."""
    samples, ends, failures = [], [], []
    refs = [reference_block()]
    rounds = target = 0
    t_start = time.perf_counter()
    while rounds == 0 or rounds < target:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.instance = rounds * len(ops) + i
            elapsed, out, error = run_op(cli, op)
            samples.append(elapsed)
            ends.append(time.perf_counter())
            error = error or check(op, out)
            if error:
                failures.append({"op": i, "argvs": op["argvs"], "error": error})
            if time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                refs.append(reference_block())
        rounds += 1
        if rounds == 1:
            # whole rounds only, so every input is measured equally often
            target = max(-(-min_samples // len(ops)), round(seconds / (time.perf_counter() - t_start)))
    refs.append(reference_block())
    return {
        "samples": rescale(samples, ends, refs),
        "raw_samples": samples,
        "ref_loop_s": statistics.median(r for _, r in refs),
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": rounds,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--min-samples", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ready-only", action="store_true")
    parser.add_argument("--import", dest="imports", action="append", default=[])
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ordhorn.cli as cli

    for name in args.imports:
        importlib.import_module(name)
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"ordhorn imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.ready_only:
        return 0

    with open(args.manifest, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if args.trace:
        from layers import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    result = run(ops, args.seconds, args.min_samples, cli, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.totals(), tracer.counts, result["rounds"])
        tracer.write(os.path.join(os.path.dirname(args.result), "spans.jsonl.gz"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
