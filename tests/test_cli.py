"""Command-line surface: file formats, subcommands, exit codes, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsmg import (
    DiscrepancyRule,
    GrayImage,
    MalformedFile,
    NoiseSpec,
    add_noise,
    blur_periodic,
    cli,
    factorize_svd,
    gaussian_psf,
    problems,
    read_pgm,
    second_derivative_problem,
    synthetic_target,
    write_pgm,
)
from dsmg.cli import load_matrix, main, run_derivative_bench
from oracles import eigh_derivative_bench
from test_acceptance import BENCH_SEEDS, BENCH_SIZES


def write_text(path, content):
    path.write_text(content)
    return str(path)


def parse_report(captured):
    values = {}
    for line in captured.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            values[key] = val
    return values


@pytest.fixture
def scalar_files(tmp_path):
    matrix = write_text(tmp_path / "a.txt", "1 1\n1.0\n")
    rhs = write_text(tmp_path / "f.txt", "1 1\n1.0\n")
    return matrix, rhs


class TestSolveCommand:
    def test_scalar_discrepancy(self, scalar_files, capsys):
        matrix, rhs = scalar_files
        code = main(["solve", matrix, rhs, "--delta", "0.01", "--C", "1.5"])
        captured = capsys.readouterr().out
        assert code == 0
        values = parse_report(captured)
        assert abs(float(values["t_delta"]) - math.log(1.0 / 0.015)) <= 1e-4
        assert "solution:" in captured

    def test_apriori_time(self, scalar_files, capsys):
        matrix, rhs = scalar_files
        code = main(
            ["solve", matrix, rhs, "--delta", "0.01", "--rule", "apriori", "--C", "1", "--gamma", "0.5"]
        )
        assert code == 0
        values = parse_report(capsys.readouterr().out)
        assert float(values["t_delta"]) == pytest.approx(10.0)

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        matrix = write_text(tmp_path / "a.txt", "2 2\n1 0\n0 1\n")
        rhs = write_text(tmp_path / "f.txt", "3 1\n1\n2\n3\n")
        code = main(["solve", matrix, rhs, "--delta", "0.01"])
        assert code == 2
        assert "rhs length 3 does not match matrix rows 2" in capsys.readouterr().err
        good_rhs = write_text(tmp_path / "g.txt", "2 1\n1\n2\n")
        code = main(["solve", matrix, good_rhs, "--delta", "0.01", "--u0", rhs])
        assert code == 2
        assert "u0 length 3 does not match matrix columns 2" in capsys.readouterr().err

    def test_garbled_matrix_exits_2(self, tmp_path, capsys):
        matrix = write_text(tmp_path / "a.txt", "2 2\n1 0\nnope 1\n")
        rhs = write_text(tmp_path / "f.txt", "2 1\n1\n2\n")
        code = main(["solve", matrix, rhs, "--delta", "0.01"])
        assert code == 2

    @pytest.mark.parametrize(
        "content, offset",
        [("3 2\n1 2\n2\n4 5\n", 8), ("2 2\n1 0\n\nnope 1\n", 9), ("\n\n3 x\n", 2)]
        # float() reads each of these; only finite decimals are matrix entries
        + [(f"2 2\n1 0\n0 {entry}\n", 8) for entry in ("nan", "inf", "-Infinity", "1_0", "1e999")]
        # int() reads both headers, as 10 x 1 and 2 x 1; dimensions are ASCII digits only
        + [("\n1_0 1\n" + "1\n" * 10, 1), ("\n+2 1\n1\n1\n", 1)],
        ids=["short-row", "bad-number-after-blank-line", "bad-header-after-blank-lines",
             "nan", "inf", "-infinity", "underscore", "overflow",
             "underscore-header", "signed-header"],
    )
    def test_bad_line_reported_at_its_own_offset(self, tmp_path, content, offset):
        path = write_text(tmp_path / "a.txt", content)
        with pytest.raises(MalformedFile) as excinfo:
            load_matrix(path)
        assert excinfo.value.offset == offset

    @pytest.mark.parametrize("header", ["1" * 5000 + " 1", "1 " + "1" * 5000], ids=["m", "n"])
    def test_header_past_int_digit_limit_names_digit_count(self, tmp_path, header):
        # int() refuses more than 4300 digits with a message quoting them all
        path = write_text(tmp_path / "a.txt", f"\n\n{header}\n5\n")
        with pytest.raises(MalformedFile, match="bad dimensions: 5000 digits") as excinfo:
            load_matrix(path)
        assert excinfo.value.offset == 2
        assert len(str(excinfo.value)) < 200 + len(path)

    @pytest.mark.parametrize("header", ["x" * 5000 + " 1", "1 " + "x" * 5000], ids=["m", "n"])
    def test_long_non_digit_header_quoted_by_prefix_and_length(self, tmp_path, header):
        path = write_text(tmp_path / "a.txt", f"\n\n{header}\n5\n")
        quoted = r"bad dimensions: invalid integer 'x{20}'\.\.\. \(5000 characters\)"
        with pytest.raises(MalformedFile, match=quoted) as excinfo:
            load_matrix(path)
        assert excinfo.value.offset == 2
        assert len(str(excinfo.value)) < 200 + len(path)

    def test_nan_entry_exits_2(self, tmp_path, capsys):
        matrix = write_text(tmp_path / "a.txt", "2 2\n1 0\n0 nan\n")
        rhs = write_text(tmp_path / "f.txt", "2 1\n1\n2\n")
        code = main(["solve", matrix, rhs, "--delta", "0.01"])
        assert code == 2
        assert "MalformedFile" in capsys.readouterr().err

    def test_oversized_header_exits_2_without_allocating(self, tmp_path, capsys):
        # numpy refuses a 2 x 10**18 array outright, so sizing the matrix from
        # the header would raise ValueError before any row were checked
        matrix = write_text(tmp_path / "a.txt", "2 1000000000000000000\n1\n2\n")
        rhs = write_text(tmp_path / "f.txt", "2 1\n1\n2\n")
        with pytest.raises(MalformedFile, match="row 1 has 1 entries") as excinfo:
            load_matrix(matrix)
        assert excinfo.value.offset == 22
        assert main(["solve", matrix, rhs, "--delta", "0.01"]) == 2
        assert "MalformedFile" in capsys.readouterr().err

    def test_repr_written_matrix_reads_back_bit_for_bit(self, tmp_path):
        # exact symmetry must survive the text format: it routes a dense
        # solve to the eigh factorization
        matrix = second_derivative_problem(60, math.sin).matrix
        rows = "\n".join(" ".join(map(repr, row)) for row in matrix.tolist())
        loaded = load_matrix(write_text(tmp_path / "a.txt", f"60 60\n{rows}\n"))
        assert loaded.tobytes() == matrix.tobytes()
        assert np.array_equal(loaded, loaded.T)

    def test_repr_written_matrix_takes_one_loadtxt_call(self, tmp_path, monkeypatch):
        calls = {"loadtxt": 0, "rows": 0}
        loadtxt, load_rows = np.loadtxt, cli._load_rows

        def counting_loadtxt(*args, **kwargs):
            calls["loadtxt"] += 1
            return loadtxt(*args, **kwargs)

        def counting_rows(*args):
            calls["rows"] += 1
            return load_rows(*args)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        monkeypatch.setattr(cli, "_load_rows", counting_rows)
        matrix = np.random.default_rng(0).normal(size=(30, 20)) * 1e-3
        rows = "\n".join(" ".join(map(repr, row)) for row in matrix.tolist())
        loaded = load_matrix(write_text(tmp_path / "a.txt", f"30 20\n{rows}\n"))
        assert loaded.tobytes() == matrix.tobytes()
        assert calls == {"loadtxt": 1, "rows": 0}
        with pytest.raises(MalformedFile) as excinfo:
            load_matrix(write_text(tmp_path / "b.txt", "2 2\n1 0\n0 nan\n"))
        assert excinfo.value.offset == 8
        assert calls == {"loadtxt": 1, "rows": 1}

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        # data entirely in the dead direction: discrepancy unattainable
        matrix = write_text(tmp_path / "a.txt", "2 2\n1 0\n0 0\n")
        rhs = write_text(tmp_path / "f.txt", "2 1\n0\n1\n")
        code = main(["solve", matrix, rhs, "--delta", "0.01", "--C", "1.5"])
        assert code == 3
        assert "UnattainableDiscrepancy" in capsys.readouterr().err

    def test_u0_from_file(self, tmp_path, capsys):
        matrix = write_text(tmp_path / "a.txt", "1 1\n1.0\n")
        rhs = write_text(tmp_path / "f.txt", "1 1\n1.0\n")
        start = write_text(tmp_path / "u0.txt", "1 1\n0.5\n")
        code = main(["solve", matrix, rhs, "--delta", "0.01", "--u0", start])
        assert code == 0

    def test_u0_file_named_zero_is_read(self, tmp_path, monkeypatch, capsys):
        # no file name means the zero start: a start file called "zero" is a file
        monkeypatch.chdir(tmp_path)
        write_text(tmp_path / "a.txt", "2 2\n1.0 0\n0 0.1\n")
        write_text(tmp_path / "f.txt", "2 1\n1.0\n1.0\n")
        for name in ("zero", "u0.txt"):
            write_text(tmp_path / name, "2 1\n0.5\n-0.5\n")
        outputs = {}
        for start in ([], ["--u0", "zero"], ["--u0", "u0.txt"]):
            assert main(["solve", "a.txt", "f.txt", "--delta", "0.01", *start]) == 0
            outputs[tuple(start)] = capsys.readouterr().out
        assert outputs[("--u0", "zero")] == outputs[("--u0", "u0.txt")]
        assert outputs[("--u0", "zero")] != outputs[()]

    def test_matrix_given_as_vector_exits_2(self, tmp_path, capsys):
        matrix = write_text(tmp_path / "a.txt", "2 2\n1 0\n0 1\n")
        code = main(["solve", matrix, matrix, "--delta", "0.01"])
        assert code == 2
        assert "expected a vector, got shape (2, 2)" in capsys.readouterr().err


class TestDerivativeBench:
    def test_csv_shape_and_determinism(self, capsys):
        args = ["derivative-bench", "--N", "10,20", "--seeds", "0,1", "--u", "sin_2pi"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().splitlines()
        assert lines[0].startswith("# dsmg derivative-bench csv schema=")
        assert lines[1] == "N,method,iterations,relative_error,t_or_alpha,seed,delta_rel"
        assert len(lines) == 2 + 2 * 2 * 2  # sizes x methods x seeds

    def test_rows_carry_context(self):
        rows = run_derivative_bench([10], "sin_pi", 0.05, [3], DiscrepancyRule(1.2))
        assert {row.method for row in rows} == {"dsmg", "vr"}
        for row in rows:
            assert row.seed == 3
            assert row.delta_rel == 0.05
            assert row.relative_error >= 0.0
            assert row.iterations >= 0

    def test_empty_seed_list_gives_header_only(self, capsys):
        assert main(["derivative-bench", "--N", "10,20", "--seeds", ""]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_empty_n_list_gives_header_only(self, capsys):
        assert main(["derivative-bench", "--N", ""]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_duplicate_seeds_give_identical_rows(self, capsys):
        assert main(["derivative-bench", "--N", "10,20", "--seeds", "1,0,1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        assert len(rows) == 2 * 2 * 3
        # sorted by (N, method, seed): each seed-1 pair is adjacent and identical
        assert len(set(rows)) == 2 * 2 * 2
        assert all(row.split(",")[5] == "1" for row in rows if rows.count(row) == 2)

    def test_failed_draw_gets_its_own_row(self, capsys, monkeypatch):
        # seed 3's noise bound is inflated until ||f|| <= C*delta: the flow
        # stops flagged at t = 0 and Tikhonov has no alpha, so seed 3's vr
        # rows read -1, and every row of every other seed is unchanged
        args = ["derivative-bench", "--N", "10,20", "--seeds", "0,1,2,3,4"]
        assert main(args) == 0
        clean = capsys.readouterr().out.splitlines()
        original = cli.add_noise

        def inflated(b, spec):
            noisy, delta = original(b, spec)
            return noisy, 200.0 * delta if spec.seed == 3 else delta

        monkeypatch.setattr(cli, "add_noise", inflated)
        assert main(args) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(clean)
        for before, after in zip(clean, lines):
            fields = after.split(",")
            if len(fields) < 6 or fields[5] != "3":
                assert after == before
            elif fields[1] == "vr":
                assert fields[2:5] == ["-1", "nan", "nan"]
            else:
                assert fields[2:5] == ["0", "1.0", "0.0"]

    def test_sine_transforms_grow_with_sizes_not_draws(self, capsys, monkeypatch):
        # each size factors once and solves its ten draws as one batch: per
        # size, the orthonormality and the reconstruction probe make one
        # apply and one adjoint each, U* f of all draws is one adjoint, and
        # each method's synthesis of all draws one apply
        counts = {"apply": 0, "adjoint": 0}
        for name in counts:
            original = getattr(problems._SineBasis, name)

            def counted(basis, x, original=original, name=name):
                counts[name] += 1
                return original(basis, x)

            monkeypatch.setattr(problems._SineBasis, name, counted)
        seeds = ",".join(str(seed) for seed in range(10))
        assert main(["derivative-bench", "--N", "10,20", "--seeds", seeds]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 2 * 2 * 10
        assert counts == {"apply": 2 * 4, "adjoint": 2 * 3}

    def test_bad_n_list_exits_2(self, capsys):
        assert main(["derivative-bench", "--N", "10,twenty"]) == 2

    def test_n_past_int_digit_limit_exits_2_with_short_error(self, capsys):
        assert main(["derivative-bench", "--N", "1" * 5000]) == 2
        assert capsys.readouterr().err == (
            "error: MalformedFile: bad integer list: 5000 digits (byte offset 0)\n"
        )

    @pytest.mark.parametrize(
        "option", [["--seeds=-1"], ["--N", "1_0", "--seeds", "0"]], ids=["negative-seed", "underscore-n"]
    )
    def test_non_digit_list_entry_exits_2(self, option, capsys):
        # int() reads both: -1 then fails in the noise generator, 1_0 runs N = 10
        assert main(["derivative-bench", *option]) == 2
        captured = capsys.readouterr()
        assert "MalformedFile" in captured.err
        assert captured.out == ""

    def test_failed_cell_marked_and_exit_3(self, capsys):
        # C*delta above the data norm: the baseline raises PreconditionViolated,
        # so its row is marked and the run still completes
        code = main(
            ["derivative-bench", "--N", "10", "--seeds", "0", "--delta-rel", "0.9", "--C", "1.9"]
        )
        captured = capsys.readouterr()
        assert code == 3
        marked = [line for line in captured.out.splitlines() if ",-1," in line]
        assert any(line.split(",")[1] == "vr" for line in marked)


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["dsmg", "dsmg.cli"])
    def test_python_m_runs_the_cli(self, module):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run(*args) -> str:
            command = [sys.executable, "-W", "error", "-m", module, *args]
            done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            assert done.stderr == ""
            return done.stdout

        assert run("--version") == "dsmg 0.1.0\n"
        lines = run("derivative-bench", "--N", "10", "--seeds", "0").splitlines()
        assert lines[0].startswith("# dsmg derivative-bench csv schema=")
        assert lines[1] == "N,method,iterations,relative_error,t_or_alpha,seed,delta_rel"


class TestRuleOptions:
    """Each subcommand builds its rule once, before any file is read or any batch runs."""

    @pytest.mark.parametrize("C", ["2.5", "0.5", "1.0"])
    def test_bench_inadmissible_C_exits_3_without_csv(self, C, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a benchmark batch ran")

        monkeypatch.setattr(cli, "_bench_batch", refuse)
        code = main(["derivative-bench", "--N", "10", "--seeds", "0", "--C", C])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        message = f"discrepancy constant C={float(C)} must lie in (1, 2)"
        assert captured.err == f"error: DomainError: {message}\n"

    # no file of these exists: each rule error must come before the first read
    MISSING_FILES = pytest.mark.parametrize(
        "argv",
        [["solve", "/nonexistent/a.txt", "/nonexistent/f.txt", "--delta", "0.01"],
         ["deblur", "/nonexistent/i.pgm", "/nonexistent/p.pgm", "--delta-rel", "0.01",
          "--out", "/nonexistent/o.pgm"]],
        ids=["solve", "deblur"],
    )

    @MISSING_FILES
    @pytest.mark.parametrize("rule", [[], ["--rule", "discrepancy"]], ids=["default", "explicit"])
    def test_gamma_without_apriori_is_usage_error(self, argv, rule, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + rule + ["--gamma", "0.3"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "--gamma applies only to --rule apriori" in captured.err

    @MISSING_FILES
    def test_bad_rule_reported_before_bad_file(self, argv, capsys):
        code = main(argv + ["--C", "2.5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: DomainError: discrepancy constant C=2.5")


class TestDerivativeBenchClosedForm:
    """The sweep factors its matrices in closed form, with no eigensolver."""

    def test_matches_eigh_oracle(self):
        rule = DiscrepancyRule(1.1)
        rows = run_derivative_bench(BENCH_SIZES, "sin_2pi", 0.01, BENCH_SEEDS, rule)
        expected = eigh_derivative_bench(BENCH_SIZES, "sin_2pi", 0.01, BENCH_SEEDS, rule)
        key = [(r.N, r.method, r.seed, r.iterations, r.delta_rel) for r in rows]
        assert key == [(r.N, r.method, r.seed, r.iterations, r.delta_rel) for r in expected]
        assert all(r.iterations >= 0 for r in rows)
        for got, want in zip(rows, expected):
            for field in ("relative_error", "t_or_alpha"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 1e-10 * abs(getattr(want, field))

    def test_runs_without_eigh_or_svd(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("derivative-bench called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        with pytest.raises(AssertionError):  # the patch reaches the dense path
            factorize_svd(second_derivative_problem(10, math.sin).matrix)
        rows = run_derivative_bench([2, 10, 57, 200], "sin_pi", 0.01, [0, 1], DiscrepancyRule(1.1))
        assert len(rows) == 4 * 2 * 2
        assert all(row.iterations >= 0 for row in rows)
        assert main(["derivative-bench", "--N", "10,20", "--seeds", "0"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2 + 2 * 2


class TestDeblur:
    @pytest.fixture
    def deblur_files(self, tmp_path):
        truth = synthetic_target(32, 32)
        psf = gaussian_psf(32, 32, 1.5)
        blurred = blur_periodic(truth, psf)
        noisy_flat, _ = add_noise(blurred.pixels.ravel(), NoiseSpec(0.01, 0))
        observed = GrayImage(noisy_flat.reshape(32, 32)).clamped()
        paths = {
            "truth": tmp_path / "truth.pgm",
            "observed": tmp_path / "observed.pgm",
            "psf": tmp_path / "psf.pgm",
            "out": tmp_path / "restored.pgm",
        }
        write_pgm(truth, paths["truth"])
        write_pgm(observed, paths["observed"])
        # store the psf scaled to full range so quantization keeps its shape
        write_pgm(GrayImage(psf.pixels / psf.pixels.max()), paths["psf"])
        return paths

    def test_delta_psf_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        image = GrayImage(rng.uniform(0.1, 0.9, size=(16, 16)))
        delta_psf = np.zeros((16, 16))
        delta_psf[0, 0] = 1.0
        image_path = tmp_path / "img.pgm"
        psf_path = tmp_path / "delta.pgm"
        out_path = tmp_path / "out.pgm"
        write_pgm(image, image_path)
        write_pgm(GrayImage(delta_psf), psf_path)
        code = main(
            ["deblur", str(image_path), str(psf_path), "--delta-rel", "1e-6",
             "--rule", "apriori", "--out", str(out_path)]
        )
        assert code == 0
        restored = read_pgm(out_path)
        original = read_pgm(image_path)
        assert np.max(np.abs(restored.pixels - original.pixels)) <= 2.0 / 255.0

    def test_deblur_improves_and_reports(self, deblur_files, capsys):
        code = main(
            ["deblur", str(deblur_files["observed"]), str(deblur_files["psf"]),
             "--delta-rel", "0.01", "--out", str(deblur_files["out"]),
             "--truth", str(deblur_files["truth"])]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = parse_report(out)
        assert values["rule"] == "DiscrepancyRule(C=1.1)"
        assert "diagnostics" not in values
        assert values["improved"] == "True"
        assert float(values["restored_relative_error"]) < float(values["input_relative_error"])
        assert int(values["newton_iterations"]) <= 10

    @pytest.mark.parametrize(
        "truth", [np.full((16, 12), 0.5), np.zeros((16, 16))], ids=["other-shape", "all-zero"]
    )
    def test_bad_truth_exits_2_without_output(self, tmp_path, capsys, truth):
        image = GrayImage(np.random.default_rng(2).uniform(0.1, 0.9, size=(16, 16)))
        delta_psf = np.zeros((16, 16))
        delta_psf[0, 0] = 1.0
        paths = [tmp_path / name for name in ("img.pgm", "delta.pgm", "truth.pgm", "out.pgm")]
        write_pgm(image, paths[0])
        write_pgm(GrayImage(delta_psf), paths[1])
        write_pgm(GrayImage(truth), paths[2])
        code = main(
            ["deblur", str(paths[0]), str(paths[1]), "--delta-rel", "0.01",
             "--truth", str(paths[2]), "--out", str(paths[3])]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "MalformedFile" in captured.err
        assert captured.out == ""
        assert not paths[3].exists()

    def test_start_meeting_target_flagged(self, deblur_files, capsys):
        # delta_rel 0.95 puts C * delta above the residual of the zero start
        code = main(
            ["deblur", str(deblur_files["observed"]), str(deblur_files["psf"]),
             "--delta-rel", "0.95", "--C", "1.1", "--out", str(deblur_files["out"])]
        )
        values = parse_report(capsys.readouterr().out)
        assert code == 0
        assert values["t_delta"] == "0.0"
        assert values["newton_iterations"] == "0"
        assert values["rule"] == "DiscrepancyRule(C=1.1)"
        assert values["diagnostics"] == "discrepancy_already_satisfied_at_t0"

    def test_unwritable_out_exits_2(self, deblur_files, capsys):
        out = deblur_files["out"].parent / "missing" / "restored.pgm"
        code = main(
            ["deblur", str(deblur_files["observed"]), str(deblur_files["psf"]),
             "--delta-rel", "0.01", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: FileNotFoundError: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_all_zero_psf_exits_2_without_output(self, deblur_files, capsys):
        write_pgm(GrayImage(np.zeros((32, 32))), deblur_files["psf"])
        code = main(
            ["deblur", str(deblur_files["observed"]), str(deblur_files["psf"]),
             "--delta-rel", "0.01", "--out", str(deblur_files["out"])]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "point-spread function is identically zero" in captured.err
        assert captured.out == ""
        assert not deblur_files["out"].exists()

    def test_psf_of_other_shape_exits_2_without_output(self, deblur_files, capsys):
        write_pgm(GrayImage(np.full((32, 24), 0.5)), deblur_files["psf"])
        code = main(
            ["deblur", str(deblur_files["observed"]), str(deblur_files["psf"]),
             "--delta-rel", "0.01", "--out", str(deblur_files["out"])]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "MalformedFile" in captured.err
        assert "point-spread function is 24 x 32, image is 32 x 32" in captured.err
        assert captured.out == ""
        assert not deblur_files["out"].exists()

    def test_missing_psf_exits_2(self, deblur_files, capsys):
        code = main(
            ["deblur", str(deblur_files["observed"]), "/nonexistent/psf.pgm",
             "--delta-rel", "0.01", "--out", str(deblur_files["out"])]
        )
        assert code == 2
        assert "psf.pgm" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, deblur_files, tmp_path):
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        for out in (out_a, out_b):
            assert main(
                ["deblur", str(deblur_files["observed"]), str(deblur_files["psf"]),
                 "--delta-rel", "0.01", "--out", str(out)]
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
