"""Run one workload's ops in a fresh process with single-threaded BLAS.

    python3 perfbench/worker.py SPEC RESULT --mode {setup,measure,trace}
        --seconds S [--spans PATH] [--corrupt K]

The process refuses to start unless OPENBLAS/OMP/MKL_NUM_THREADS are 1 and
DSMG_THREADS is unset. Its clock starts just before `import dsmg`, and
set-up ends when the first op returns. `setup` stops there; `measure` and
`trace` then run ops in a closed loop -- one client, the next op starts when
the previous one returns -- until S seconds have passed. Each op is one
`dsmg.cli.main(argv)` call with stdout captured; only that call is timed.
`trace` records spans (see spans.py) and writes them to PATH at the end.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET_ENV = ("DSMG_THREADS",)
MAX_REPORTED_FAILURES = 5


def env_problems() -> list:
    problems = [f"{k}={os.environ.get(k, 'unset')} (need {v})"
                for k, v in PINNED_ENV.items() if os.environ.get(k) != v]
    problems += [f"{k} is set" for k in UNSET_ENV if k in os.environ]
    return problems


def fingerprint() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "thread_env": {k: os.environ.get(k, "unset") for k in (*PINNED_ENV, *UNSET_ENV)},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
    }


def run_op(cli, argv, tracer, op_id):
    """One CLI command; returns (exit code, captured stdout, wall ns of the call)."""
    buffer = io.StringIO()
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an untyped error escaping the CLI is a failed op
        traceback.print_exc()
        rc = 1
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.end_op()
    return rc, buffer.getvalue(), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("result")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--corrupt", type=int, default=0,
                        help="damage the output of this measured op (self-test only)")
    args = parser.parse_args(argv)
    problems = env_problems()
    if problems:
        print(f"error: thread environment not pinned: {'; '.join(problems)}", file=sys.stderr)
        return 3
    spec = json.loads(Path(args.spec).read_text())
    variants = [v["argv"] for v in spec["variants"]]

    start = time.perf_counter()
    import dsmg
    from dsmg import cli
    first = run_op(cli, variants[0], None, 0)
    setup_s = time.perf_counter() - start

    if not Path(dsmg.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"error: imported dsmg from {dsmg.__file__}, not {spec['src']}", file=sys.stderr)
        return 3
    import workloads  # after the timed import: it loads numpy itself

    checker = workloads.Checker(spec)
    failures = []
    attempted = 0

    def record(op_id, variant, rc, stdout):
        nonlocal attempted
        attempted += 1
        problems = checker.check(variant, rc, stdout)
        if problems:
            failures.append(f"op {op_id}: {'; '.join(problems)}")

    record(0, 0, first[0], first[1])
    result = {"mode": args.mode, "setup_s": setup_s, "op_ns": []}
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        result["untraced"] = spans.install(tracer)
    if args.mode != "setup":
        loop_start = time.perf_counter()
        op_id = 1
        while time.perf_counter() - loop_start < args.seconds:
            variant = op_id % len(variants)
            rc, stdout, elapsed = run_op(cli, variants[variant], tracer, op_id)
            if op_id == args.corrupt:
                stdout = workloads.corrupt(spec, stdout)
            record(op_id, variant, rc, stdout)
            result["op_ns"].append(elapsed)
            op_id += 1
    if tracer is not None:
        result["traced_ops"] = tracer.summarize()
        if args.spans:
            tracer.write(args.spans)
    result.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:MAX_REPORTED_FAILURES],
        rel_error=checker.rel_error(),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        fingerprint=fingerprint(),
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
