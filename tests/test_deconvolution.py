"""Half-spectrum DFT diagonalization, circular convolution, and 1-d/2-d deblurring."""

import tracemalloc
import weakref

import numpy as np
import pytest

from dsmg import (
    AprioriRule,
    CirculantProblem,
    DimensionMismatch,
    DiscrepancyRule,
    DomainError,
    GrayImage,
    NoiseSpec,
    NoisyProblem,
    add_noise,
    blur_periodic,
    deconvolve_1d,
    deconvolve_2d,
    factorize_svd,
    from_diagonal,
    gaussian_psf,
    solve,
    synthetic_target,
)
from dsmg import deconvolution
from dsmg.deconvolution import _deconvolve, _half_spectrum_weights
from oracles import circular_convolve


def gaussian_kernel_1d(n, sigma):
    idx = np.arange(n)
    dist = np.minimum(idx, n - idx).astype(float)
    kernel = np.exp(-dist ** 2 / (2.0 * sigma ** 2))
    return kernel / kernel.sum()


class TestDft:
    def test_parseval_scaling(self):
        # the weighted half spectrum keeps the full unnormalized DFT's norm
        rng = np.random.default_rng(5)
        for shape in ((1, 32), (1, 31), (6, 9), (5, 8)):
            x = rng.normal(size=shape)
            weighted = np.fft.rfft2(x) * _half_spectrum_weights(shape[1])
            expected = np.sqrt(x.size) * np.linalg.norm(x)
            assert abs(np.linalg.norm(weighted) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("shape", [(1, 15), (1, 16), (9, 7), (8, 10)])
    def test_matches_full_spectrum_oracle(self, shape):
        # solving on the full complex fft2 spectrum is the reference; a wrong
        # Nyquist weight (even width) or a spurious one (odd width) moves psi
        rng = np.random.default_rng(15)
        kernel = gaussian_psf(*shape, 1.0).pixels
        truth = GrayImage(rng.uniform(size=shape))
        blurred = blur_periodic(truth, GrayImage(kernel)).pixels
        noisy_flat, delta = add_noise(blurred.ravel(), NoiseSpec(0.02, 6))
        observed = noisy_flat.reshape(shape)
        rule = DiscrepancyRule(C=1.1)
        restored, report = _deconvolve(kernel, observed, delta, rule)
        oracle = solve(
            NoisyProblem(
                factorization=from_diagonal(np.fft.fft2(kernel).ravel()),
                f_delta=np.fft.fft2(observed).ravel(),
                delta=np.sqrt(observed.size) * delta,
            ),
            rule,
        )
        expected = np.fft.ifft2(oracle.solution.reshape(shape)).real
        assert abs(report.t_delta - oracle.t_delta) <= 1e-12 * oracle.t_delta
        assert np.linalg.norm(restored - expected) <= 1e-12 * np.linalg.norm(expected)
        assert report.newton_iterations == oracle.newton_iterations


class TestCircularConvolve:
    def test_impulse_identity(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=9)
        h = np.zeros(9)
        h[0] = 1.0
        assert np.allclose(circular_convolve(h, f), f, atol=1e-14)

    def test_shifted_impulse(self):
        f = np.arange(6.0)
        h = np.zeros(6)
        h[1] = 1.0
        assert np.allclose(circular_convolve(h, f), np.roll(f, 1), atol=1e-14)

    def test_matches_circulant_matrix(self):
        rng = np.random.default_rng(7)
        n = 8
        h = rng.normal(size=n)
        f = rng.normal(size=n)
        circulant = np.array([[h[(i - j) % n] for j in range(n)] for i in range(n)])
        assert np.allclose(circular_convolve(h, f), circulant @ f, atol=1e-12)

    def test_convolution_theorem(self):
        rng = np.random.default_rng(8)
        for n in (5, 8, 16):
            h = rng.normal(size=n)
            f = rng.normal(size=n)
            lhs = np.fft.fft(circular_convolve(h, f))
            rhs = np.fft.fft(h) * np.fft.fft(f)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            circular_convolve(np.ones(4), np.ones(5))


class TestDeconvolve1d:
    def test_zero_kernel_rejected(self):
        with pytest.raises(DomainError, match="^kernel transform is identically zero$"):
            _deconvolve(np.zeros((1, 8)), np.ones((1, 8)), 0.1, DiscrepancyRule(1.1))

    def test_empty_signal_rejected(self):
        # an empty period would reach the FFT as "Invalid number of FFT data points"
        with pytest.raises(DimensionMismatch, match="kernel has shape"):
            CirculantProblem([], [], 0.1)

    def test_noise_free_recovery(self):
        n = 64
        rng = np.random.default_rng(9)
        kernel = gaussian_kernel_1d(n, 0.5)
        truth = 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(n) / n) + 0.05 * rng.normal(size=n)
        observed = circular_convolve(kernel, truth)
        problem = CirculantProblem(kernel, observed, delta=1e-8)
        restored, report = deconvolve_1d(problem, AprioriRule(C=1.0, gamma=0.5))
        assert np.linalg.norm(restored - truth) <= 1e-4 * np.linalg.norm(truth)

    def test_impulse_kernel_returns_data(self):
        n = 16
        rng = np.random.default_rng(10)
        observed = rng.normal(size=n) + 2.0
        kernel = np.zeros(n)
        kernel[0] = 1.0
        problem = CirculantProblem(kernel, observed, delta=1e-10)
        restored, _ = deconvolve_1d(problem, AprioriRule(C=1.0, gamma=0.5))
        assert np.linalg.norm(restored - observed) <= 1e-6 * np.linalg.norm(observed)

    def test_beats_naive_fourier_division(self):
        n = 64
        idx = np.arange(n)
        truth = np.where((idx >= 16) & (idx < 40), 1.0, 0.0)  # boxcar
        kernel = gaussian_kernel_1d(n, 2.0)
        clean = circular_convolve(kernel, truth)
        observed, delta = add_noise(clean, NoiseSpec(0.01, 11))
        problem = CirculantProblem(kernel, observed, delta=delta)
        restored, _ = deconvolve_1d(problem, DiscrepancyRule(C=1.1))
        naive = np.fft.ifft(np.fft.fft(observed) / np.fft.fft(kernel)).real
        err_restored = np.linalg.norm(restored - truth)
        err_naive = np.linalg.norm(naive - truth)
        assert err_restored < err_naive

    def test_real_recovery_residue(self):
        n = 32
        rng = np.random.default_rng(12)
        kernel = gaussian_kernel_1d(n, 1.5)
        truth = rng.normal(size=n)
        observed, delta = add_noise(circular_convolve(kernel, truth), NoiseSpec(0.02, 3))
        problem = CirculantProblem(kernel, observed, delta=delta)
        report = solve(
            NoisyProblem(
                factorization=from_diagonal(np.fft.fft(kernel)),
                f_delta=np.fft.fft(observed),
                delta=np.sqrt(n) * delta,
            ),
            DiscrepancyRule(C=1.1),
        )
        recovered = np.fft.ifft(report.solution)
        assert np.linalg.norm(recovered.imag) <= 1e-8 * np.linalg.norm(recovered)

    def test_matches_dense_circulant_path(self):
        n = 16
        rng = np.random.default_rng(13)
        kernel = gaussian_kernel_1d(n, 1.5)
        truth = rng.normal(size=n) + 1.0
        observed, delta = add_noise(circular_convolve(kernel, truth), NoiseSpec(0.01, 5))
        problem = CirculantProblem(kernel, observed, delta=delta)
        rule = DiscrepancyRule(C=1.1)
        fourier_restored, fourier_report = deconvolve_1d(problem, rule)
        circulant = np.array([[kernel[(i - j) % n] for j in range(n)] for i in range(n)])
        dense_problem = NoisyProblem(factorize_svd(circulant), observed, delta=delta)
        dense_report = solve(dense_problem, rule)
        gap = np.linalg.norm(fourier_restored - dense_report.solution)
        assert gap <= 1e-8 * np.linalg.norm(dense_report.solution)


class TestDeconvolve2d:
    def test_delta_psf_identity(self):
        image = synthetic_target(16, 16)
        psf_pixels = np.zeros((16, 16))
        psf_pixels[0, 0] = 1.0
        psf = GrayImage(psf_pixels)
        restored, _ = deconvolve_2d(image, psf, 1e-9, AprioriRule(C=1.0, gamma=0.5))
        assert np.linalg.norm(restored.pixels - image.pixels) <= 1e-5 * np.linalg.norm(image.pixels)

    def test_gaussian_blur_improves(self):
        truth = synthetic_target(64, 64)
        psf = gaussian_psf(64, 64, 2.0)
        blurred = blur_periodic(truth, psf)
        noisy_flat, _ = add_noise(blurred.pixels.ravel(), NoiseSpec(0.01, 0))
        observed = GrayImage(noisy_flat.reshape(64, 64))
        restored, report = deconvolve_2d(observed, psf, 0.01, DiscrepancyRule(C=1.1))
        err_blurred = np.linalg.norm(observed.pixels - truth.pixels)
        err_restored = np.linalg.norm(restored.pixels - truth.pixels)
        assert err_restored < err_blurred
        assert report.newton_iterations <= 10

    def test_higher_noise_stops_no_later(self):
        truth = synthetic_target(64, 64)
        psf = gaussian_psf(64, 64, 2.0)
        blurred = blur_periodic(truth, psf)
        rule = DiscrepancyRule(C=1.3)
        iterations = {}
        for level in (0.01, 0.05):
            noisy_flat, _ = add_noise(blurred.pixels.ravel(), NoiseSpec(level, 0))
            observed = GrayImage(noisy_flat.reshape(64, 64))
            _, report = deconvolve_2d(observed, psf, level, rule)
            iterations[level] = report.newton_iterations
        assert iterations[0.05] <= iterations[0.01]

    def test_output_clamped(self):
        truth = synthetic_target(32, 32)
        psf = gaussian_psf(32, 32, 1.5)
        blurred = blur_periodic(truth, psf)
        noisy_flat, _ = add_noise(blurred.pixels.ravel(), NoiseSpec(0.05, 1))
        observed = GrayImage(noisy_flat.reshape(32, 32))
        restored, _ = deconvolve_2d(observed, psf, 0.05, DiscrepancyRule(C=1.1))
        assert restored.pixels.min() >= 0.0
        assert restored.pixels.max() <= 1.0
        assert not restored.pixels.flags.writeable
        delta = 0.05 * float(np.linalg.norm(observed.pixels))
        raw, _ = _deconvolve(psf.pixels, observed.pixels, delta, DiscrepancyRule(C=1.1))
        assert raw.min() < 0.0  # the clip is exercised
        assert restored.pixels.tobytes() == np.clip(raw, 0.0, 1.0).tobytes()

    def test_peak_memory_of_one_call(self):
        # the live set is the spectrum, the data (also r0 at the zero start) and
        # a few real or transient arrays; the problem is freed before irfft2
        size = 256
        truth, psf = synthetic_target(size, size), gaussian_psf(size, size, 2.0)
        noisy, _ = add_noise(blur_periodic(truth, psf).pixels.ravel(), NoiseSpec(0.01, 0))
        observed = GrayImage(noisy.reshape(size, size))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            deconvolve_2d(observed, psf, 0.01, DiscrepancyRule(C=1.3))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        half_spectrum = 16 * size * (size // 2 + 1)  # one complex rfft2 array
        assert peak <= 6 * half_spectrum

    def test_problem_freed_before_inverse_transform(self, monkeypatch):
        # while irfft2 runs, the solution is the one spectrum-sized array alive
        alive = []
        original_solve, original_irfft2 = deconvolution.solve, np.fft.irfft2

        def recording_solve(problem, rule):
            alive.extend((weakref.ref(problem), weakref.ref(problem.factorization)))
            return original_solve(problem, rule)

        def checking_irfft2(*args, **kwargs):
            assert [ref() for ref in alive] == [None, None]
            return original_irfft2(*args, **kwargs)

        monkeypatch.setattr(deconvolution, "solve", recording_solve)
        monkeypatch.setattr(np.fft, "irfft2", checking_irfft2)
        psf = gaussian_psf(16, 16, 1.0)
        deconvolve_2d(blur_periodic(synthetic_target(16, 16), psf), psf, 0.01, DiscrepancyRule(1.1))
        assert len(alive) == 2

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            deconvolve_2d(
                synthetic_target(16, 16),
                gaussian_psf(8, 8, 1.0),
                0.01,
                DiscrepancyRule(C=1.1),
            )


class TestHelpers:
    def test_gaussian_psf_normalized_and_centered(self):
        psf = gaussian_psf(32, 32, 2.0)
        assert abs(psf.pixels.sum() - 1.0) <= 1e-12
        assert psf.pixels[0, 0] == psf.pixels.max()

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
    def test_gaussian_psf_rejects_bad_sigma(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            gaussian_psf(8, 8, sigma)

    def test_blur_periodic_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match="differ in shape"):
            blur_periodic(synthetic_target(16, 16), gaussian_psf(16, 8, 1.0))

    def test_blur_periodic_matches_row_convolution(self):
        # a psf concentrated on row 0 reduces the 2-d blur to a 1-d circular
        # convolution applied to each row
        n = 8
        rng = np.random.default_rng(14)
        image = GrayImage(rng.uniform(size=(n, n)))
        row_kernel = gaussian_kernel_1d(n, 1.0)
        psf_pixels = np.zeros((n, n))
        psf_pixels[0, :] = row_kernel
        blurred = blur_periodic(image, GrayImage(psf_pixels))
        for r in range(n):
            expected = circular_convolve(row_kernel, image.pixels[r])
            assert np.allclose(blurred.pixels[r], expected, atol=1e-12)

    def test_synthetic_target_range(self):
        image = synthetic_target(64, 64)
        assert image.pixels.min() >= 0.0
        assert image.pixels.max() <= 1.0
        assert image.width == 64 and image.height == 64

    def test_clamped(self):
        img = GrayImage(np.array([[-0.5, 0.5], [1.5, 1.0]]))
        clamped = img.clamped()
        assert np.array_equal(clamped.pixels, [[0.0, 0.5], [1.0, 1.0]])
