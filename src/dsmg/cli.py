"""Command-line surface: dense solves, benchmark sweeps, image deblurring.

Subcommands:

    solve            solve a dense system from text matrix/vector files
    derivative-bench second-derivative benchmark sweep, CSV on stdout
    deblur           deblur a PGM image with a PGM point-spread function

Matrix and vector files are plain text: first line "m n", then m rows of n
whitespace-separated finite decimals (vectors are m x 1 or 1 x n). Exit codes:
0 success, 2 parse, usage or file-system error (an unwritable --out too),
3 solver error. Reruns with the same arguments reproduce CSV and PGM outputs
byte for byte. ``solve`` and ``deblur`` take the same rule options and print
the same report lines. Every subcommand builds its stopping rule before it
reads a file or runs a benchmark batch, so a bad rule constant exits 3 first.
"""

import argparse
import io
import math
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .baselines import vr_solve
from .deconvolution import GrayImage, deconvolve_2d
from .errors import DsmgError, MalformedFile, _ascii_int, _read_bytes
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
    """One benchmark cell: its seed and noise level, but not the sweep's C or solution."""

    N: int
    method: str
    iterations: int
    relative_error: float
    t_or_alpha: float
    seed: int
    delta_rel: float


# the bytes of "m n" rows of finite decimals; a file with any other byte (a letter
# of "nan", "_", or a form feed, which str.splitlines takes for a line break and
# np.loadtxt for a blank) goes to the row loop
_DECIMAL_BYTES = b"0123456789.eE+- \t\r\n"
_BLANKS = re.compile(rb"\s*")


def load_matrix(path) -> np.ndarray:
    """Parse the text matrix format; raises MalformedFile on any defect."""
    raw = _read_bytes(path)
    data = _load_bulk(raw)
    return data if data is not None else _load_rows(path, raw)


def _load_bulk(raw: bytes):
    """One np.loadtxt call over the rows; None whenever the row loop must decide.

    Both this and the row loop round with CPython's PyOS_string_to_double, so a
    file accepted here reads back with the same bytes."""
    if raw.translate(None, _DECIMAL_BYTES):
        return None
    # offsets, not slices: each slice or strip of the file would copy it whole
    start = _BLANKS.match(raw).end()
    end = raw.find(b"\n", start)
    if end < 0:  # no row after the header
        return None
    line = raw[start:end]
    head = line.split()
    # a lone CR ends the header line for str.splitlines but not for find;
    # np.loadtxt warns on a blank body
    if len(head) != 2 or b"\r" in line.rstrip() or _BLANKS.match(raw, end + 1).end() == len(raw):
        return None
    body = io.BytesIO(raw)
    body.seek(end + 1)
    try:
        rows, cols = _ascii_int(head[0]), _ascii_int(head[1])
        data = np.loadtxt(body, comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (rows, cols) or not np.isfinite(data).all():
        return None
    return data


def _load_rows(path, raw: bytes) -> np.ndarray:
    """Line-by-line parse that reports the byte offset of the first bad line."""
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
        rows, cols = _ascii_int(header[0]), _ascii_int(header[1])
    except ValueError as exc:
        raise MalformedFile(f"{path}: bad dimensions: {exc}", header_at) from None
    if rows < 1 or cols < 1 or len(lines) - 1 != rows:
        raise MalformedFile(
            f"{path}: expected {rows} data rows, found {len(lines) - 1}", header_at
        )
    # rows join the matrix only once they pass, so the header sizes nothing
    data = []
    for i, (start, line) in enumerate(lines[1:]):
        fields = line.split()
        if len(fields) != cols:
            raise MalformedFile(
                f"{path}: row {i + 1} has {len(fields)} entries, expected {cols}", start
            )
        try:
            row = [float(f) for f in fields]
        except ValueError:
            row = [math.nan]
        # float() also reads nan, inf and digit-group underscores
        if "_" in line or not all(map(math.isfinite, row)):
            raise MalformedFile(f"{path}: bad number in row {i + 1}", start)
        data.append(row)
    return np.array(data)


def load_vector(path, name: str, length: int, side: str) -> np.ndarray:
    """Parse a text vector that must match the matrix's ``length`` ``side``."""
    matrix = load_matrix(path)
    if 1 not in matrix.shape:
        raise MalformedFile(f"{path}: expected a vector, got shape {matrix.shape}", 0)
    if matrix.size != length:
        raise MalformedFile(
            f"{name} length {matrix.size} does not match matrix {side} {length}", 0
        )
    return matrix.ravel()


def _make_rule(args):
    """The chosen rule, given only the constants set on the command line."""
    rule = DiscrepancyRule if args.rule == "discrepancy" else AprioriRule
    given = {f.name: getattr(args, f.name) for f in fields(rule)}
    return rule(**{name: value for name, value in given.items() if value is not None})


def _format(value: float) -> str:
    return repr(float(value))


def _print_report(report) -> None:
    print(f"t_delta = {_format(report.t_delta)}")
    print(f"newton_iterations = {report.newton_iterations}")
    print(f"residual_norm = {_format(report.residual_norm)}")
    print(f"rule = {report.rule_used}")
    if report.diagnostics:
        print(f"diagnostics = {','.join(report.diagnostics)}")


def cmd_solve(args, rule) -> int:
    matrix = load_matrix(args.matrix)
    rows, cols = matrix.shape
    rhs = load_vector(args.rhs, "rhs", rows, "rows")
    start = None if args.u0 is None else load_vector(args.u0, "u0", cols, "columns")
    problem = NoisyProblem(
        factorization=factorize_svd(matrix), f_delta=rhs, delta=args.delta, u0=start
    )
    report = solve(problem, rule)
    _print_report(report)
    print("solution:")
    for value in report.solution:
        print(_format(value))
    return 0


def _bench_batch(problem, fact, delta_rel, seeds, rule):
    """Run both methods, stopped by one discrepancy ``rule``, on one noise draw per seed.

    The draws are one batch: each method makes one search and one synthesis
    for all of them, and a draw that fails yields its own row with
    iterations -1.
    """
    truth = problem.exact_solution
    n = len(truth)
    draws = [add_noise(problem.exact_rhs, NoiseSpec(delta_rel, seed)) for seed in seeds]
    noisy = NoisyProblem(
        factorization=fact,
        # reshaped so that no seeds make a 0 x n stack, not an empty vector
        f_delta=np.array([rhs for rhs, _ in draws]).reshape(len(draws), n),
        delta=np.array([delta for _, delta in draws]),
    )
    truth_norm = float(np.linalg.norm(truth))
    rows = []
    for method, run, parameter in (("dsmg", solve, "t_delta"), ("vr", vr_solve, "alpha")):
        for seed, outcome in zip(seeds, run(noisy, rule)):
            if isinstance(outcome, DsmgError):
                result = (-1, math.nan, math.nan)
            else:
                error = float(np.linalg.norm(outcome.solution - truth)) / truth_norm
                result = (outcome.newton_iterations, error, getattr(outcome, parameter))
            rows.append(BenchmarkRow(n, method, *result, seed, delta_rel))
    return rows


def run_derivative_bench(n_values, u_choice, delta_rel, seeds, rule):
    """Benchmark sweep, one batch of noise draws per N; rows sorted by (N, method, seed)."""
    u_fn = SOLUTION_CHOICES[u_choice]
    rows = []
    for n in n_values:
        problem = second_derivative_problem(n, u_fn)
        rows.extend(_bench_batch(problem, problem.factorization, delta_rel, seeds, rule))
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
    return [_ascii_int(part.strip()) for part in text.split(",")]


def cmd_derivative_bench(args, rule) -> int:
    try:
        n_values = _parse_int_list(args.N)
        seeds = _parse_int_list(args.seeds)
    except ValueError as exc:
        raise MalformedFile(f"bad integer list: {exc}", 0) from None
    rows = run_derivative_bench(n_values, args.u, args.delta_rel, seeds, rule)
    sys.stdout.write(rows_to_csv(rows))
    if any(row.iterations < 0 for row in rows):
        print("error: one or more benchmark cells failed (iterations=-1)", file=sys.stderr)
        return 3
    return 0


def _require_image_size(path, what, image, observed) -> None:
    """MalformedFile unless the image read from path has the observed image's size."""
    if image.pixels.shape != observed.pixels.shape:
        size = f"{image.width} x {image.height}, image is {observed.width} x {observed.height}"
        raise MalformedFile(f"{path}: {what} is {size}", 0)


def _truth_errors(path, observed, restored):
    """Relative errors of the observed and restored images against a truth PGM."""
    truth = read_pgm(path)
    _require_image_size(path, "truth", truth, observed)
    scale = float(np.linalg.norm(truth.pixels))
    if scale == 0:
        raise MalformedFile(f"{path}: truth image is identically zero", 0)
    err_in = float(np.linalg.norm(observed.pixels - truth.pixels)) / scale
    err_out = float(np.linalg.norm(restored.pixels - truth.pixels)) / scale
    return err_in, err_out


def cmd_deblur(args, rule) -> int:
    observed = read_pgm(args.image)
    psf = read_pgm(args.psf)
    _require_image_size(args.psf, "point-spread function", psf, observed)
    # 8-bit quantization destroys the kernel's absolute scale; restore unit mass
    mass = float(psf.pixels.sum())
    if mass <= 0:
        raise MalformedFile(f"{args.psf}: point-spread function is identically zero", 0)
    psf = GrayImage(psf.pixels / mass)
    restored, report = deconvolve_2d(observed, psf, args.delta_rel, rule)
    # the truth is read only now, so its pixels are not alive through the solve,
    # and before the write, so a bad truth leaves no output file
    if args.truth is not None:
        err_in, err_out = _truth_errors(args.truth, observed, restored)
    write_pgm(restored, args.out)
    _print_report(report)
    print(f"restored = {args.out}")
    if args.truth is not None:
        print(f"input_relative_error = {_format(err_in)}")
        print(f"restored_relative_error = {_format(err_out)}")
        print(f"improved = {err_out < err_in}")
    return 0


def _add_rule_options(parser) -> None:
    parser.add_argument("--rule", choices=("discrepancy", "apriori"), default="discrepancy")
    parser.add_argument("--C", type=float, default=None,
                        help=f"rule constant (default {DiscrepancyRule.C} discrepancy, "
                             f"{AprioriRule.C} apriori)")
    parser.add_argument("--gamma", type=float, default=None,
                        help=f"exponent of --rule apriori (default {AprioriRule.gamma})")


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
    _add_rule_options(p_solve)
    p_solve.add_argument("--u0", default=None, help="start vector file (default: zero vector)")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("derivative-bench", help="benchmark sweep, CSV on stdout")
    p_bench.add_argument("--N", default="10,20,30,40,50,60,70,80,90,100",
                         help="comma-separated problem sizes")
    p_bench.add_argument("--u", choices=sorted(SOLUTION_CHOICES), default="sin_2pi")
    p_bench.add_argument("--delta-rel", dest="delta_rel", type=float, default=0.01)
    p_bench.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9",
                         help="comma-separated seeds; empty for header-only output")
    p_bench.add_argument("--C", type=float, default=None,
                         help=f"discrepancy constant of both methods (default {DiscrepancyRule.C})")
    p_bench.set_defaults(func=cmd_derivative_bench, rule="discrepancy")

    p_deblur = sub.add_parser("deblur", help="deblur a PGM image")
    p_deblur.add_argument("image", help="observed (blurred, noisy) PGM image")
    p_deblur.add_argument("psf", help="point-spread function PGM, centered at (0,0); "
                                      "normalized to unit sum on load")
    p_deblur.add_argument("--delta-rel", dest="delta_rel", type=float, required=True)
    p_deblur.add_argument("--out", required=True, help="output PGM path")
    _add_rule_options(p_deblur)
    p_deblur.add_argument("--truth", default=None, help="ground-truth PGM for error report")
    p_deblur.set_defaults(func=cmd_deblur)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gamma", None) is not None and args.rule != "apriori":
        parser.error("--gamma applies only to --rule apriori")
    try:
        return args.func(args, _make_rule(args))
    except (DsmgError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (MalformedFile, OSError)) else 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
