"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced (twice, to see
the counts repeat), and checks that the last stdout line names every metric
of BENCHMARK.json with its unit and reports no failure. It then damages one
op's output per workload -- a flipped byte of the restored PGM, a perturbed
residual, an altered CSV -- and checks that exactly that op is counted in
fail_frac. Last, it checks the benchmark refuses to run where there are no
program sources, and that a worker refuses an unpinned BLAS thread count.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = sorted(WORKLOADS)

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def bench(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--scale", "toy", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done):
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(label, done, named):
    result = last_json(done)
    expect(done.returncode == 0 and result is not None, f"{label}: exit {done.returncode} {done.stderr[-500:]}")
    if result is None:
        return None
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
    expect(got == named, f"{label}: metrics/units differ from BENCHMARK.json: {set(got) ^ set(named)}")
    expect(all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()),
           f"{label}: a metric value is not a number")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES), "unknown workload in BENCHMARK.json")
    counts = [name for name, unit in per_layer.items() if unit != "s"]

    for workload in WORKLOAD_NAMES:
        print(f"workload {workload}", flush=True)
        check_result(f"{workload} untraced", bench(workload, 0), end_to_end)
        traced = [check_result(f"{workload} traced", bench(workload, 1), per_layer) for _ in range(2)]
        if all(traced):
            first, second = (t["metrics"] for t in traced)
            expect(all(first[c]["value"] == second[c]["value"] for c in counts),
                   f"{workload}: counts differ between runs")
        damaged = last_json(bench(workload, 0, "--corrupt", "1"))
        expect(damaged is not None and damaged["failed"] == 1 and not damaged["correct"],
               f"{workload}: a corrupted output was not counted as exactly one failure: {damaged}")
        report = json.loads((OUT_DIR / f"BENCH_{workload}_seed3_trace0.json").read_text())
        fail_frac = report["end_to_end"]["fail_frac"]["value"]
        expect(damaged is not None and fail_frac == 1 / damaged["attempted"],
               f"{workload}: fail_frac {fail_frac} is not 1/attempted")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(WORKLOAD_NAMES[0], 0, cwd=bare)
    expect(done.returncode != 0 and last_json(done) is None,
           f"without sources: exit {done.returncode}, printed a result: {last_json(done) is not None}")
    shutil.rmtree(bare)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), "unused", "unused", "--mode", "setup"],
                          env=env, capture_output=True, text=True, timeout=60)
    expect(done.returncode == 3, f"worker accepted OPENBLAS_NUM_THREADS=2 (exit {done.returncode})")

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
