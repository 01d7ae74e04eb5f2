"""The dsmg benchmark: run one workload, check every output, print every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the directory above this file; the program is imported from
its `src/`, and nothing is installed. Inputs are generated from the seed into
`.perfbench_out/`, which also receives the results file
`BENCH_<workload>_seed<N>_trace<T>.json` (with the environment fingerprint)
and, for traced runs, the spans. Every op runs in a fresh worker process with
OPENBLAS/OMP/MKL_NUM_THREADS=1 and DSMG_THREADS unset (see worker.py).

--trace 0 measures the end-to-end metrics: `setup_s` is the median over
SETUP_SAMPLES fresh processes, the op times come from the last of them.
--trace 1 splits the seconds between an untraced and a traced process and
reports the per-layer metrics, each the median over the traced ops, plus
`trace_overhead_s`. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from worker import PINNED_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
DEADLINE_S = 170.0

# layers whose self time is not already the inclusive time of one of their spans
REPORTED_SELF = ("cli", "deconvolution")

E2E_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_error": "ratio",
}
LAYER_UNITS = {
    **{f"{name}_s": "s" for name in spans.SPAN_NAMES},
    **{f"{layer}.self_s": "s" for layer in REPORTED_SELF},
    **spans.COUNTS,
    "trace_overhead_s": "s",
}


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


class WorkerFailed(Exception):
    pass


def run_worker(run_dir, tag, mode, seconds, deadline, extra=()):
    """Start one fresh worker process, wait for it, return its result."""
    env = {k: v for k, v in os.environ.items() if k != "DSMG_THREADS"}
    env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
    result = run_dir / f"result-{tag}.json"
    command = [sys.executable, str(HERE / "worker.py"), str(run_dir / "spec.json"), str(result),
               "--mode", mode, "--seconds", repr(seconds), *extra]
    try:
        done = subprocess.run(command, env=env, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {tag} passed the {DEADLINE_S:.0f} s deadline") from None
    if done.returncode != 0:
        raise WorkerFailed(f"worker {tag} exited with code {done.returncode}")
    return json.loads(result.read_text())


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it, else the maximum."""
    n = len(times)
    ordered = sorted(times)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def end_to_end(setup_samples, measured, size):
    times = [ns / 1e9 for ns in measured["op_ns"]]
    tail_s, percentile, beyond = tail(times)
    busy = sum(times)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / busy,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        "rel_error": measured["rel_error"],
    }
    notes = {
        "op_p50_s": f"median of {len(times)} ops",
        "op_tail_s": (f"p{percentile:.1f}: {beyond} of {len(times)} ops beyond it" if beyond
                      else f"maximum: {len(times)} ops, too few for {TAIL_BEYOND} beyond a percentile"),
        "ops_per_s": f"{len(times)} ops / {busy:.3f} s inside ops; {size}",
        "setup_s": f"median of {len(setup_samples)} fresh processes: import dsmg + first op",
        "peak_rss_mb": "ru_maxrss of the measuring process",
        "rel_error": "vs the known truth (sweep: mean over dsmg rows)",
    }
    return metrics, notes


def per_layer(traced, untraced, variants):
    """Per-layer medians over traced ops, the self-time split and its check, the overhead.

    A count is taken per op variant and averaged over the variants, so it does
    not depend on how many ops of each variant fitted in the run.
    """
    ops = traced["traced_ops"]
    by_variant = {}
    for op in ops:
        by_variant.setdefault(op["op"] % variants, []).append(op)
    values = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}_s"] = statistics.median(op["span_ns"].get(name, 0) for op in ops) / 1e9
    split = {layer: statistics.median(op["self_ns"].get(layer, 0) for op in ops) / 1e9
             for layer in spans.LAYERS}
    for layer in REPORTED_SELF:
        values[f"{layer}.self_s"] = split[layer]
    for name in spans.COUNTS:
        count = statistics.mean(statistics.median(op["counts"].get(name, 0) for op in group)
                                for group in by_variant.values())
        values[name] = int(count) if float(count).is_integer() else count
    values["trace_overhead_s"] = (statistics.median(traced["op_ns"])
                                  - statistics.median(untraced["op_ns"])) / 1e9
    split_ok = all(sum(op["self_ns"].values()) == op["op_ns"] for op in ops)
    counts_repeat = {name: all(len({op["counts"].get(name, 0) for op in group}) == 1
                               for group in by_variant.values())
                     for name in spans.COUNTS}
    return values, split, split_ok, counts_repeat


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def print_table(title, metrics, units, notes):
    print(title)
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:28s} {shown:>14s} {units[name]:14s} {notes.get(name, '')}")


def measure(args, workloads):
    """Generate the inputs, run the worker processes, return (spec, worker results)."""
    deadline = time.monotonic() + DEADLINE_S
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    run_dir = OUT_DIR / f"run_{label}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        spec = workloads.generate(args.workload, args.seed, run_dir, args.scale == "toy")
        spec["src"] = str(ROOT / "src")
        (run_dir / "spec.json").write_text(json.dumps(spec))
        corrupt = ("--corrupt", str(args.corrupt)) if args.corrupt else ()
        if args.trace:
            half = args.seconds / 2
            spans_file = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv"
            return spec, [
                run_worker(run_dir, "untraced", "measure", half, deadline, corrupt),
                run_worker(run_dir, "traced", "trace", half, deadline,
                           ("--spans", str(spans_file), *corrupt)),
            ]
        setups = [run_worker(run_dir, f"setup{i}", "setup", 0.0, deadline)
                  for i in range(SETUP_SAMPLES - 1)]
        return spec, setups + [run_worker(run_dir, "measure", "measure", args.seconds, deadline, corrupt)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, spec, workers) -> dict:
    """Print every metric and write the results file; return the result line."""
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    measured = workers[0] if args.trace else workers[-1]
    metrics, notes = end_to_end([w["setup_s"] for w in workers], measured, spec["size"])
    table = dict(metrics, fail_frac=failed / attempted)
    units = dict(E2E_UNITS, fail_frac="ratio")
    notes["fail_frac"] = f"{failed} failed / {attempted} attempted"
    fingerprint = dict(measured["fingerprint"], git_commit=git_commit())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}  "
          f"input {spec['size']}  one closed-loop client")
    print("environment " + json.dumps(fingerprint, sort_keys=True))
    print_table("end-to-end" + (" (untraced process)" if args.trace else ""), table, units, notes)
    failures = [f for w in workers for f in w["failures"]]
    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    correct = failed == 0
    extra = {}
    if args.trace:
        traced = workers[1]
        metrics, split, split_ok, counts_repeat = per_layer(traced, workers[0], len(spec["variants"]))
        op_p50 = statistics.median(traced["op_ns"]) / 1e9
        print(f"per-layer self time, median per traced op (op p50 {op_p50:.6g} s, "
              f"{len(traced['op_ns'])} ops); self times sum to each op's time: {split_ok}")
        for layer, value in split.items():
            print(f"  {layer:28s} {value:14.6g} s  {100.0 * value / op_p50:6.2f} %")
        print_table("per-layer metrics", metrics, LAYER_UNITS,
                    {name: "varies across ops of one variant" for name, same in counts_repeat.items() if not same})
        if traced["untraced"]:
            print(f"  not traced (no longer in the program): {', '.join(traced['untraced'])}")
        correct = correct and split_ok
        extra = {"self_split_s": split, "split_ok": split_ok, "counts_repeat": counts_repeat,
                 "untraced": traced["untraced"]}
    result = {
        "correct": correct and all(_number(v) is not None for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _number(v), "unit": (LAYER_UNITS if args.trace else E2E_UNITS)[k]}
                    for k, v in metrics.items()},
    }
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"BENCH_{label}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale, "input": spec["size"],
        "fingerprint": fingerprint, "failures": failures,
        "end_to_end": {k: {"value": _number(v), "unit": units[k], "note": notes[k]} for k, v in table.items()},
        **extra, **result,
    }, indent=1))
    return result


def main(argv=None) -> int:
    # pin BLAS threads before numpy is first imported, for input generation too
    os.environ.update(PINNED_ENV)
    os.environ.pop("DSMG_THREADS", None)
    import workloads

    parser = argparse.ArgumentParser(description="Run one dsmg benchmark workload.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy shrinks every input; used by the self-test")
    parser.add_argument("--corrupt", type=int, default=0,
                        help="damage the output of this measured op; used by the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dsmg" / "cli.py").is_file():
        print(f"error: no dsmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec, workers = measure(args, workloads)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, spec, workers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
