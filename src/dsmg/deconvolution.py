"""Periodic deconvolution through the DFT-diagonalized solver.

Circular convolution by a kernel h is diagonal in the discrete Fourier
basis, so deblurring reduces to a diagonal spectral problem with
S = diag(dft(h)) and right-hand side dft(g_delta); no factorization has to
be computed. The DFT convention is the unnormalized forward sum
sum_j x_j exp(-2 pi i j k / N), whose Parseval factor sqrt(N) converts the
noise bound between signal and Fourier domains. 2-d images flatten to one
diagonal system through the 2-d DFT, and both paths solve it through the
same helper.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ComplexResidue, DimensionMismatch, DomainError
from .linalg import _frozen_array, from_diagonal
from .solver import NoisyProblem, SolveReport, StoppingRule, solve

IMAG_RESIDUE_LIMIT = 1e-6


@dataclass(frozen=True)
class CirculantProblem:
    """Periodic kernel, observed signal of the same period, and noise bound."""

    kernel: np.ndarray
    observed: np.ndarray
    delta: float

    def __post_init__(self):
        kernel = _frozen_array(self.kernel, dtype=float)
        observed = _frozen_array(self.observed, dtype=float)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "observed", observed)
        if kernel.ndim != 1 or observed.ndim != 1:
            raise DimensionMismatch("kernel and observed signal must be 1-d")
        if len(kernel) != len(observed):
            raise DimensionMismatch(
                f"kernel length {len(kernel)} != signal length {len(observed)}"
            )
        if not np.all(np.isfinite(kernel)) or not np.all(np.isfinite(observed)):
            raise DomainError("kernel and observed signal must be finite")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise DomainError(f"delta={self.delta} must be positive and finite")


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image; pixels are floats indexed [row, column]."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = _frozen_array(self.pixels, dtype=float)
        object.__setattr__(self, "pixels", pixels)
        if pixels.ndim != 2 or pixels.size == 0:
            raise DimensionMismatch("pixels must be a nonempty 2-d array")
        if not np.all(np.isfinite(pixels)):
            raise DomainError("pixels must be finite")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def clamped(self) -> "GrayImage":
        """Copy with pixel values clipped to [0, 1]."""
        return GrayImage(np.clip(self.pixels, 0.0, 1.0))


def dft(x) -> np.ndarray:
    """Unnormalized forward DFT, evaluated with an O(N log N) transform."""
    x = np.asarray(x)
    if x.ndim != 1 or len(x) == 0:
        raise DimensionMismatch("dft expects a nonempty 1-d sequence")
    return np.fft.fft(x)


def idft(x) -> np.ndarray:
    """Inverse DFT (divides by N); round trip with ``dft`` is the identity."""
    x = np.asarray(x)
    if x.ndim != 1 or len(x) == 0:
        raise DimensionMismatch("idft expects a nonempty 1-d sequence")
    return np.fft.ifft(x)


def circular_convolve(kernel, signal) -> np.ndarray:
    """Periodic convolution g_i = sum_j h_j f_{(i-j) mod N} by direct summation."""
    h = np.asarray(kernel, dtype=float)
    f = np.asarray(signal, dtype=float)
    if h.shape != f.shape or h.ndim != 1:
        raise DimensionMismatch(
            f"kernel shape {h.shape} and signal shape {f.shape} must be equal 1-d"
        )
    out = np.zeros(len(f))
    for shift, weight in enumerate(h):
        out += weight * np.roll(f, shift)
    return out


def _solve_transformed(kernel_hat, data_hat, delta: float, rule: StoppingRule) -> SolveReport:
    """Solve the diagonal system of a transformed kernel and data, bound ``delta``."""
    if not np.any(kernel_hat != 0):
        raise DomainError("kernel transform is identically zero")
    # Parseval for the unnormalized DFT: norms gain a factor sqrt(N), so the
    # noise bound must be converted into the Fourier domain alongside the data.
    spectral = NoisyProblem(
        factorization=from_diagonal(kernel_hat),
        f_delta=data_hat,
        delta=np.sqrt(len(kernel_hat)) * delta,
    )
    return solve(spectral, rule)


def _to_real(signal: np.ndarray) -> np.ndarray:
    scale = float(np.linalg.norm(signal))
    residue = float(np.linalg.norm(signal.imag))
    if scale > 0 and residue > IMAG_RESIDUE_LIMIT * scale:
        raise ComplexResidue(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_LIMIT} of norm {scale:.3e}"
        )
    return signal.real.copy()


def deconvolve_1d(problem: CirculantProblem, rule: StoppingRule) -> tuple[np.ndarray, SolveReport]:
    """Deblur a periodic signal; returns the restored signal and the solve report.

    The spectral solution lives in the Fourier domain; its inverse DFT must be
    real for real inputs, and a material imaginary residue raises
    ComplexResidue as a signal of inconsistent inputs.
    """
    report = _solve_transformed(dft(problem.kernel), dft(problem.observed), problem.delta, rule)
    restored = _to_real(idft(report.solution))
    return restored, report


def deconvolve_2d(
    observed: GrayImage,
    psf: GrayImage,
    delta_rel: float,
    rule: StoppingRule,
) -> tuple[GrayImage, SolveReport]:
    """Deblur an image under periodic boundary conditions.

    The point-spread function must have the same dimensions as the image and
    be periodized with its center at index (0, 0). The absolute noise bound
    is taken as delta_rel times the norm of the observed image. Output pixels
    are clamped to [0, 1]; the solve itself runs unclamped.
    """
    if observed.pixels.shape != psf.pixels.shape:
        raise DimensionMismatch(
            f"image {observed.pixels.shape} and psf {psf.pixels.shape} differ in shape"
        )
    if not (np.isfinite(delta_rel) and delta_rel > 0):
        raise DomainError(f"delta_rel={delta_rel} must be positive and finite")
    shape = observed.pixels.shape
    report = _solve_transformed(
        np.fft.fft2(psf.pixels).ravel(),
        np.fft.fft2(observed.pixels).ravel(),
        delta_rel * float(np.linalg.norm(observed.pixels)),
        rule,
    )
    flat = _to_real(np.fft.ifft2(report.solution.reshape(shape)).ravel())
    return GrayImage(flat.reshape(shape)).clamped(), report


def blur_periodic(image: GrayImage, psf: GrayImage) -> GrayImage:
    """Forward model: circular 2-d convolution of an image with a centered psf."""
    if image.pixels.shape != psf.pixels.shape:
        raise DimensionMismatch("image and psf differ in shape")
    blurred = np.fft.ifft2(np.fft.fft2(image.pixels) * np.fft.fft2(psf.pixels))
    return GrayImage(blurred.real)


def gaussian_psf(height: int, width: int, sigma: float) -> GrayImage:
    """Periodic Gaussian point-spread function centered at pixel (0, 0), sum 1."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    rows = np.arange(height)
    cols = np.arange(width)
    dr = np.minimum(rows, height - rows).astype(float)
    dc = np.minimum(cols, width - cols).astype(float)
    kernel = np.exp(-np.add.outer(dr ** 2, dc ** 2) / (2.0 * sigma ** 2))
    return GrayImage(kernel / kernel.sum())


def synthetic_target(height: int = 64, width: int = 64) -> GrayImage:
    """Deterministic deblurring target: a disk, a bar, and point sources."""
    img = np.zeros((height, width))
    rows, cols = np.mgrid[0:height, 0:width]
    disk = (rows - height * 0.35) ** 2 + (cols - width * 0.35) ** 2 < (min(height, width) * 0.18) ** 2
    img[disk] = 0.7
    img[int(height * 0.55):int(height * 0.85), int(width * 0.5):int(width * 0.6)] = 1.0
    for r, c in ((0.2, 0.8), (0.8, 0.2), (0.75, 0.8)):
        img[int(height * r), int(width * c)] = 1.0
    return GrayImage(img)
