"""Workload inputs and output checks for the dsmg benchmark.

A workload is a list of op variants. Each variant is the argv of one `dsmg`
CLI command plus what its output must satisfy; op i of a run uses variant
i mod len(variants), and op 0 is the untimed first op. Inputs are built from
the benchmark seed only, and the program sees nothing but the written files.

The generators use the library's documented test-problem builders
(`synthetic_target`, `gaussian_psf`, `second_derivative_problem`,
`add_noise`); everything the checks compare against is computed here, from
the files on disk, not taken from the program's own report.
"""

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np

RESIDUAL_RTOL = 1e-8
SOLVE_VARIANTS = 4  # noise draws per solve workload; averages rel_error over draws

# name -> (input builder, size at full scale, size at toy scale)
WORKLOADS = {
    "deblur-1024": ("deblur", 1024, 64),
    "dense-1000": ("dense", 1000, 40),
    "tall-4000x20": ("tall", (4000, 20), (400, 20)),
    # (N values, noise seeds per op); None: the CLI's own defaults
    "sweep-500-800": ("sweep", ("500,600,700,800", 8), ("10,20", 2)),
    "sweep-default": ("sweep", None, ("10,20", 2)),
}


def _write_pgm_bytes(path: Path, pixels: np.ndarray) -> None:
    """P5, maxval 255, pixels in [0, 1] quantized to the nearest level."""
    quantized = np.rint(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = quantized.shape
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + quantized.tobytes())


_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_p5(data: bytes) -> np.ndarray:
    """Pixels of a comment-free binary PGM as floats in [0, 1]."""
    match = _P5_HEADER.match(data)
    if match is None:
        raise ValueError("not a binary PGM")
    width, height, maxval = (int(g) for g in match.groups())
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    raster = data[match.end():match.end() + width * height * dtype.itemsize]
    if len(raster) != width * height * dtype.itemsize:
        raise ValueError("PGM raster truncated")
    return np.frombuffer(raster, dtype=dtype).astype(float).reshape(height, width) / maxval


def _write_text_matrix(path: Path, matrix: np.ndarray) -> None:
    """The CLI's text format: 'm n' then m rows; repr keeps every float exact."""
    rows = np.atleast_2d(matrix).tolist()
    with open(path, "w") as handle:
        handle.write(f"{len(rows)} {len(rows[0])}\n")
        handle.write("\n".join(" ".join(map(repr, row)) for row in rows))
        handle.write("\n")


def _gen_deblur(seed, workdir, size):
    from dsmg import NoiseSpec, add_noise, blur_periodic, gaussian_psf, synthetic_target

    C, delta_rel = 1.3, 0.01
    truth = synthetic_target(size, size)
    psf = gaussian_psf(size, size, sigma=2.0)
    blurred = blur_periodic(truth, psf)
    noisy, _ = add_noise(blurred.pixels.ravel(), NoiseSpec(delta_rel, seed))
    paths = {k: workdir / f"{k}.pgm" for k in ("observed", "psf", "truth", "restored")}
    _write_pgm_bytes(paths["observed"], noisy.reshape(size, size))
    # the CLI rescales the PSF to unit mass, so store it peak-normalized
    _write_pgm_bytes(paths["psf"], psf.pixels / psf.pixels.max())
    _write_pgm_bytes(paths["truth"], truth.pixels)
    observed = read_p5(paths["observed"].read_bytes())
    # the solve runs in the unnormalized Fourier domain: Parseval factor sqrt(count)
    delta_fourier = math.sqrt(observed.size) * delta_rel * float(np.linalg.norm(observed))
    argv = ["deblur", str(paths["observed"]), str(paths["psf"]),
            "--delta-rel", repr(delta_rel), "--C", repr(C),
            "--truth", str(paths["truth"]), "--out", str(paths["restored"])]
    return {
        "variants": [{"argv": argv, "target": C * delta_fourier}],
        "out": str(paths["restored"]),
        "truth": str(paths["truth"]),
        "size": f"{size}x{size} image, {size * size} modes",
    }


def _gen_dense(seed, workdir, n):
    from dsmg import second_derivative_problem

    problem = second_derivative_problem(n, lambda t: math.sin(2.0 * math.pi * t))
    return _gen_solve(problem.matrix, problem.exact_solution, seed, workdir)


def _gen_tall(seed, workdir, shape):
    rng = np.random.default_rng(seed)
    return _gen_solve(rng.standard_normal(shape), rng.standard_normal(shape[1]), seed, workdir)


def _gen_solve(matrix, truth, seed, workdir):
    from dsmg import NoiseSpec, add_noise

    C, delta_rel = 1.1, 0.01
    exact = matrix @ truth
    matrix_path = workdir / "matrix.txt"
    _write_text_matrix(matrix_path, matrix)
    truth_path = workdir / "truth.json"
    truth_path.write_text(json.dumps([float(v) for v in truth]))
    variants = []
    for k in range(SOLVE_VARIANTS):
        rhs, delta = add_noise(exact, NoiseSpec(delta_rel, SOLVE_VARIANTS * seed + k))
        rhs_path = workdir / f"rhs{k}.txt"
        _write_text_matrix(rhs_path, rhs.reshape(-1, 1))
        argv = ["solve", str(matrix_path), str(rhs_path), "--delta", repr(delta), "--C", repr(C)]
        variants.append({"argv": argv, "target": C * delta})
    return {"variants": variants, "truth": str(truth_path), "kind": "solve",
            "size": "{}x{} matrix, {} noise draws".format(*matrix.shape, SOLVE_VARIANTS)}


def _gen_sweep(seed, _workdir, sizes_and_seeds):
    argv = ["derivative-bench"]
    size = "N=10..100 x seeds 0-9 x 2 methods (CLI defaults)"
    if sizes_and_seeds is not None:
        n_values, count = sizes_and_seeds
        seeds = ",".join(str(count * seed + k) for k in range(count))
        argv += ["--N", n_values, "--seeds", seeds]
        size = f"N={n_values} x seeds {seeds} x 2 methods"
    return {"variants": [{"argv": argv, "target": None}], "size": size}


_BUILDERS = {"deblur": _gen_deblur, "dense": _gen_dense, "tall": _gen_tall, "sweep": _gen_sweep}


def generate(name: str, seed: int, workdir: Path, toy: bool) -> dict:
    """Write the inputs of one workload under ``workdir``; return the op spec."""
    builder, full, small = WORKLOADS[name]
    spec = {"kind": builder}
    spec.update(_BUILDERS[builder](seed, workdir, small if toy else full))
    spec.update(workload=name, seed=seed)
    return spec


def _key_values(stdout: str) -> dict:
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


def _residual_problem(pairs: dict, target: float) -> str | None:
    try:
        residual = float(pairs["residual_norm"])
    except (KeyError, ValueError):
        return "no residual_norm printed"
    if not abs(residual - target) <= RESIDUAL_RTOL * target:
        return f"residual_norm {residual!r} not within {RESIDUAL_RTOL} of C*delta {target!r}"
    return None


class Checker:
    """Checks every op's output; the first op's output is the reference bytes."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.reference = None
        self.rel_errors = {}  # variant index -> relative error of its first passing op
        self.truth = None
        if "truth" in spec:
            path = Path(spec["truth"])
            if spec["kind"] == "deblur":
                self.truth = read_p5(path.read_bytes())
            else:
                self.truth = np.array(json.loads(path.read_text()))

    def check(self, variant: int, rc: int, stdout: str) -> list:
        """Return the list of problems with one op's output (empty when correct)."""
        if rc != 0:
            return [f"exit code {rc}"]
        kind = self.spec["kind"]
        if kind == "deblur":
            return self._check_deblur(variant, stdout)
        if kind == "solve":
            return self._check_solve(variant, stdout)
        return self._check_sweep(variant, stdout)

    def _same_as_reference(self, output) -> list:
        if self.reference is None:
            self.reference = output
        return [] if output == self.reference else ["output differs from the first op's"]

    def _check_deblur(self, variant, stdout):
        pairs = _key_values(stdout)
        problems = [p for p in [_residual_problem(pairs, self.spec["variants"][variant]["target"])] if p]
        if pairs.get("improved") != "True":
            problems.append(f"improved = {pairs.get('improved')}")
        restored = Path(self.spec["out"]).read_bytes()
        problems += self._same_as_reference(restored)
        if not problems and variant not in self.rel_errors:
            error = np.linalg.norm(read_p5(restored) - self.truth) / np.linalg.norm(self.truth)
            self.rel_errors[variant] = float(error)
        return problems

    def _check_solve(self, variant, stdout):
        pairs = _key_values(stdout)
        problems = [p for p in [_residual_problem(pairs, self.spec["variants"][variant]["target"])] if p]
        lines = stdout.splitlines()
        try:
            solution = np.array([float(v) for v in lines[lines.index("solution:") + 1:]])
        except ValueError:
            return problems + ["solution block missing or unparsable"]
        if solution.shape != self.truth.shape:
            return problems + [f"solution has {solution.size} entries, expected {self.truth.size}"]
        if not problems and variant not in self.rel_errors:
            error = np.linalg.norm(solution - self.truth) / np.linalg.norm(self.truth)
            self.rel_errors[variant] = float(error)
        return problems

    def _check_sweep(self, variant, stdout):
        problems = self._same_as_reference(stdout)
        rows = list(csv.DictReader(io.StringIO(
            "".join(line for line in stdout.splitlines(True) if not line.startswith("#")))))
        if not rows:
            return problems + ["no CSV rows"]
        failed = sum(1 for row in rows if row.get("iterations") == "-1")
        if failed:
            problems.append(f"{failed} rows with iterations=-1")
        try:
            dsmg_errors = [float(row["relative_error"]) for row in rows if row.get("method") == "dsmg"]
        except (KeyError, ValueError):
            return problems + ["relative_error column missing or unparsable"]
        if not dsmg_errors:
            problems.append("no dsmg rows")
        if not problems and variant not in self.rel_errors:
            self.rel_errors[variant] = sum(dsmg_errors) / len(dsmg_errors)
        return problems

    def rel_error(self) -> float:
        """Mean relative error over the variants that produced a correct output."""
        values = list(self.rel_errors.values())
        return sum(values) / len(values) if values else float("nan")


def corrupt(spec: dict, stdout: str) -> str:
    """Damage one op's output the way a wrong program would; used by the self-test."""
    kind = spec["kind"]
    if kind == "deblur":
        path = Path(spec["out"])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        return stdout
    if kind == "solve":
        def bump(match):
            return f"residual_norm = {float(match.group(1)) * (1 + 1e-6)!r}"
        return re.sub(r"residual_norm = (\S+)", bump, stdout)
    head, last = stdout.rstrip("\n").rsplit("\n", 1)
    return f"{head}\n{last}0\n"
