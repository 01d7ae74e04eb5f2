"""Command-line surface: dense solves, benchmark sweeps, image deblurring.

Subcommands:

    solve            solve a dense system from text matrix/vector files
    derivative-bench second-derivative benchmark sweep, CSV on stdout
    deblur           deblur a PGM image with a PGM point-spread function

Matrix and vector files are plain text: first line "m n", then m rows of n
whitespace-separated decimals (vectors are m x 1 or 1 x n). Exit codes:
0 success, 2 parse or usage error, 3 solver error. Reruns with the same
arguments reproduce CSV and PGM outputs byte for byte.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .baselines import vr_solve
from .deconvolution import GrayImage, deconvolve_2d
from .errors import DsmgError, MalformedFile
from .linalg import factorize_svd
from .pgm import read_pgm, write_pgm
from .problems import NoiseSpec, add_noise, second_derivative_problem
from .solver import AprioriRule, DiscrepancyRule, NoisyProblem, solve

CSV_SCHEMA = 1

SOLUTION_CHOICES = {
    "sin_pi": lambda t: math.sin(math.pi * t),
    "sin_2pi": lambda t: math.sin(2.0 * math.pi * t),
}


@dataclass(frozen=True)
class BenchmarkRow:
    """One benchmark cell; every row carries enough context to regenerate it."""

    N: int
    method: str
    iterations: int
    relative_error: float
    t_or_alpha: float
    seed: int
    delta_rel: float


def load_matrix(path) -> np.ndarray:
    """Parse the text matrix format; raises MalformedFile on any defect."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc.strerror}", 0) from exc
    text = raw.decode("ascii", errors="replace")
    # (byte offset, line) of each nonblank line; ascii decoding keeps one char per byte
    lines = []
    offset = 0
    for line in text.splitlines(keepends=True):
        if line.strip():
            lines.append((offset, line))
        offset += len(line)
    if not lines:
        raise MalformedFile(f"{path}: empty file", 0)
    header_at, header = lines[0][0], lines[0][1].split()
    if len(header) != 2:
        raise MalformedFile(f"{path}: first line must be 'm n'", header_at)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MalformedFile(f"{path}: non-integer dimensions {header}", header_at) from None
    if rows < 1 or cols < 1 or len(lines) - 1 != rows:
        raise MalformedFile(
            f"{path}: expected {rows} data rows, found {len(lines) - 1}", header_at
        )
    data = np.empty((rows, cols))
    for i, (start, line) in enumerate(lines[1:]):
        fields = line.split()
        if len(fields) != cols:
            raise MalformedFile(
                f"{path}: row {i + 1} has {len(fields)} entries, expected {cols}", start
            )
        try:
            data[i] = [float(f) for f in fields]
        except ValueError:
            data[i] = math.nan
        # float() also reads nan, inf and digit-group underscores
        if "_" in line or not np.isfinite(data[i]).all():
            raise MalformedFile(f"{path}: bad number in row {i + 1}", start)
    return data


def load_vector(path) -> np.ndarray:
    matrix = load_matrix(path)
    if 1 not in matrix.shape:
        raise MalformedFile(f"{path}: expected a vector, got shape {matrix.shape}", 0)
    return matrix.ravel()


def _make_rule(args):
    if args.rule == "discrepancy":
        return DiscrepancyRule(C=args.C if args.C is not None else 1.1)
    return AprioriRule(C=args.C if args.C is not None else 1.0, gamma=args.gamma)


def _format(value: float) -> str:
    return repr(float(value))


def cmd_solve(args) -> int:
    matrix = load_matrix(args.matrix)
    rhs = load_vector(args.rhs)
    if rhs.shape[0] != matrix.shape[0]:
        raise MalformedFile(
            f"rhs length {rhs.shape[0]} does not match matrix rows {matrix.shape[0]}", 0
        )
    start = None
    if args.u0 != "zero":
        start = load_vector(args.u0)
        if start.shape[0] != matrix.shape[1]:
            raise MalformedFile(
                f"u0 length {start.shape[0]} does not match matrix columns {matrix.shape[1]}", 0
            )
    rule = _make_rule(args)
    problem = NoisyProblem(
        factorization=factorize_svd(matrix), f_delta=rhs, delta=args.delta, u0=start
    )
    report = solve(problem, rule)
    print(f"t_delta = {_format(report.t_delta)}")
    print(f"newton_iterations = {report.newton_iterations}")
    print(f"residual_norm = {_format(report.residual_norm)}")
    print(f"rule = {report.rule_used}")
    if report.diagnostics:
        print(f"diagnostics = {','.join(report.diagnostics)}")
    print("solution:")
    for value in report.solution:
        print(_format(value))
    return 0


def _bench_cell(problem, fact, delta_rel, seed, C):
    """Run both methods on one noise realization; returns two rows."""
    noisy_rhs, delta_abs = add_noise(problem.exact_rhs, NoiseSpec(delta_rel, seed))
    noisy = NoisyProblem(factorization=fact, f_delta=noisy_rhs, delta=delta_abs)
    truth = problem.exact_solution
    truth_norm = float(np.linalg.norm(truth))
    n = len(truth)
    rows = []
    for method in ("dsmg", "vr"):
        try:
            if method == "dsmg":
                report = solve(noisy, DiscrepancyRule(C=C))
                param = report.t_delta
            else:
                report = vr_solve(noisy, C)
                param = report.alpha
            error = float(np.linalg.norm(report.solution - truth)) / truth_norm
            rows.append(
                BenchmarkRow(n, method, report.newton_iterations, error, param, seed, delta_rel)
            )
        except DsmgError:
            rows.append(BenchmarkRow(n, method, -1, float("nan"), float("nan"), seed, delta_rel))
    return rows


def run_derivative_bench(n_values, u_choice, delta_rel, seeds, C):
    """Benchmark sweep; rows come back sorted by (N, method, seed)."""
    u_fn = SOLUTION_CHOICES[u_choice]
    rows = []
    for n in n_values:
        problem = second_derivative_problem(n, u_fn)
        fact = factorize_svd(problem.matrix)
        for seed in seeds:
            rows.extend(_bench_cell(problem, fact, delta_rel, seed, C))
    rows.sort(key=lambda r: (r.N, r.method, r.seed))
    return rows


def rows_to_csv(rows) -> str:
    lines = [f"# dsmg derivative-bench csv schema={CSV_SCHEMA}"]
    lines.append("N,method,iterations,relative_error,t_or_alpha,seed,delta_rel")
    for row in rows:
        lines.append(
            f"{row.N},{row.method},{row.iterations},{_format(row.relative_error)},"
            f"{_format(row.t_or_alpha)},{row.seed},{_format(row.delta_rel)}"
        )
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str):
    if not text.strip():
        return []
    return [int(part) for part in text.split(",")]


def cmd_derivative_bench(args) -> int:
    try:
        n_values = _parse_int_list(args.N)
        seeds = _parse_int_list(args.seeds)
    except ValueError as exc:
        raise MalformedFile(f"bad integer list: {exc}", 0) from None
    rows = run_derivative_bench(n_values, args.u, args.delta_rel, seeds, args.C)
    sys.stdout.write(rows_to_csv(rows))
    if any(row.iterations < 0 for row in rows):
        print("error: one or more benchmark cells failed (iterations=-1)", file=sys.stderr)
        return 3
    return 0


def cmd_deblur(args) -> int:
    observed = read_pgm(args.image)
    psf = read_pgm(args.psf)
    # 8-bit quantization destroys the kernel's absolute scale; restore unit mass
    mass = float(psf.pixels.sum())
    if mass <= 0:
        raise MalformedFile(f"{args.psf}: point-spread function is identically zero", 0)
    psf = GrayImage(psf.pixels / mass)
    rule = _make_rule(args)
    restored, report = deconvolve_2d(observed, psf, args.delta_rel, rule)
    write_pgm(restored, args.out)
    print(f"t_delta = {_format(report.t_delta)}")
    print(f"newton_iterations = {report.newton_iterations}")
    print(f"residual_norm = {_format(report.residual_norm)}")
    print(f"restored = {args.out}")
    if args.truth is not None:
        truth = read_pgm(args.truth)
        scale = float(np.linalg.norm(truth.pixels))
        err_in = float(np.linalg.norm(observed.pixels - truth.pixels)) / scale
        err_out = float(np.linalg.norm(restored.pixels - truth.pixels)) / scale
        print(f"input_relative_error = {_format(err_in)}")
        print(f"restored_relative_error = {_format(err_out)}")
        print(f"improved = {err_out < err_in}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmg",
        description="Spectral gradient-flow regularization for ill-conditioned systems",
    )
    parser.add_argument("--version", action="version", version=f"dsmg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a dense system from text files")
    p_solve.add_argument("matrix", help="text matrix file ('m n' header)")
    p_solve.add_argument("rhs", help="text vector file with the noisy right-hand side")
    p_solve.add_argument("--delta", type=float, required=True, help="noise bound")
    p_solve.add_argument("--rule", choices=("discrepancy", "apriori"), default="discrepancy")
    p_solve.add_argument("--C", type=float, default=None,
                         help="rule constant (default 1.1 discrepancy, 1.0 apriori)")
    p_solve.add_argument("--gamma", type=float, default=0.5, help="a priori exponent")
    p_solve.add_argument("--u0", default="zero", help="'zero' or a vector file")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("derivative-bench", help="benchmark sweep, CSV on stdout")
    p_bench.add_argument("--N", default="10,20,30,40,50,60,70,80,90,100",
                         help="comma-separated problem sizes")
    p_bench.add_argument("--u", choices=sorted(SOLUTION_CHOICES), default="sin_2pi")
    p_bench.add_argument("--delta-rel", dest="delta_rel", type=float, default=0.01)
    p_bench.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9",
                         help="comma-separated seeds; empty for header-only output")
    p_bench.add_argument("--C", type=float, default=1.1)
    p_bench.set_defaults(func=cmd_derivative_bench)

    p_deblur = sub.add_parser("deblur", help="deblur a PGM image")
    p_deblur.add_argument("image", help="observed (blurred, noisy) PGM image")
    p_deblur.add_argument("psf", help="point-spread function PGM, centered at (0,0); "
                                      "normalized to unit sum on load")
    p_deblur.add_argument("--delta-rel", dest="delta_rel", type=float, required=True)
    p_deblur.add_argument("--out", required=True, help="output PGM path")
    p_deblur.add_argument("--rule", choices=("discrepancy", "apriori"), default="discrepancy")
    p_deblur.add_argument("--C", type=float, default=None)
    p_deblur.add_argument("--gamma", type=float, default=0.5)
    p_deblur.add_argument("--truth", default=None, help="ground-truth PGM for error report")
    p_deblur.set_defaults(func=cmd_deblur)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedFile as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DsmgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
