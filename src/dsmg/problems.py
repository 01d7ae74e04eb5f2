"""Second-derivative test family and the seeded noise model.

The test matrix discretizes the integral operator whose kernel is the
Green's function of u'' with zero boundary values on [0, 1]:

    K(s, t) = s (t - 1)  for s < t,        t (s - 1)  otherwise.

Discretization is Galerkin with orthonormal box functions on an N-cell grid,
integrated exactly: off the diagonal the kernel is bilinear over a cell pair,
so the exact cell average equals the midpoint value K(mid_i, mid_j) / N; the
diagonal cell is integrated in closed form across the kink at s = t. A plain
point-collocation rule cannot be used here: the kernel vanishes identically
on the s = 1 line, so sampling the endpoint grid makes the matrix singular.

The matrix is factored in closed form, with no eigensolver. With h = 1/N and
midpoints x_i = (i - 1/2) h, the off-diagonal entries are -h G_ij, where
G_ij = min(x_i, x_j) - x_i x_j, and the exact diagonal-cell integral exceeds
-h G_ii by h^2/6, so

    K = -h G + (h^2 / 6) I.

No solve needs K as an array. ``TestProblem.apply`` computes K x from this
formula in O(N), by two prefix sums plus the diagonal-cell term, for a
vector or for each row of a p x N stack, and b = K u is computed that way;
``TestProblem.matrix`` assembles K only for a caller that reads it.

G^-1 = T / h is the second-difference matrix T = tridiag(-1, 2, -1) with
T_11 = T_NN = 3: Dirichlet ends half a cell outside the grid. The DST-II
basis diagonalizes it (Strang, "The Discrete Cosine Transform", SIAM Review
41, 1999): with theta_k = k pi / (2N), k = 1..N, T has eigenvalues
4 sin^2 theta_k and orthonormal eigenvectors

    V_jk = sqrt(2/N) sin((2j - 1) theta_k),  column N scaled by 1/sqrt(2).

So K = V S V* with S_k = h^2 (1/6 - 1 / (4 sin^2 theta_k)), negative and
strictly increasing in k: the eigendecomposition, with the eigenvalues in
the ascending order of ``np.linalg.eigh``, and U = V is one basis. It is not
stored as an array: V is a fast sine transform, applied by one real FFT of
length N after Makhoul's even/odd reordering, in O(N log N) time and O(N)
memory. The factorization passes the same orthonormality and
reconstruction checks as ``factorize_svd``, run through the transform. The
reconstruction check reads only K X, here from ``apply``, not from the
matrix, so it checks the DST-II spectrum against the Green's-kernel formula,
two independent derivations of K. ``factorize_svd``, and so ``dsmg solve``
on a matrix file, factors K by ``np.linalg.eigh`` instead: a matrix read
from a file is not known to belong to the family.

Noise is generated by a Box-Muller transform over the PCG64 generator, so a
seed pins the realization bit-for-bit across platforms, and is rescaled so
that ||noise|| = delta_rel * ||b|| holds exactly.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import SpectralFactorization, _admitted, _check_reconstruction, _real, _size


@dataclass(frozen=True, eq=False)
class TestProblem:
    """The N x N second-derivative operator K, an exact solution u and b = K u.

    The one field is ``exact_solution``, u at the N cell midpoints, admitted
    as a frozen float copy; N is its length. K is matrix-free: ``apply``
    computes K x in O(N) time and memory, and ``exact_rhs`` is
    ``apply(exact_solution)``. ``matrix``, ``exact_rhs`` and
    ``factorization`` are built on first use and cached, so a caller pays
    only for what it reads: ``derivative-bench`` never assembles ``matrix``.
    """

    exact_solution: np.ndarray

    def __post_init__(self):
        solution = _admitted(self.exact_solution, "exact_solution", ndim=1, dtype=float)
        object.__setattr__(self, "exact_solution", solution)

    def apply(self, x) -> np.ndarray:
        """K x for a vector, or of each row x of a p x N stack, in O(N p).

        For midpoints m_i < m_j, G_ij = m_i (1 - m_j), so
        (G x)_i = (1 - m_i) sum_(j <= i) m_j x_j + m_i sum_(j > i) (1 - m_j) x_j:
        two prefix sums, one from each end, with no cancellation between
        large terms. K x = (h^2 / 6) x - h G x adds the diagonal-cell term.
        """
        n = len(self.exact_solution)
        x = _checked(x, n)
        h = 1.0 / n
        mid = _midpoints(n)
        before = np.cumsum(mid * x, axis=-1)
        after = np.zeros_like(before)
        after[..., :-1] = np.cumsum(((1.0 - mid) * x)[..., :0:-1], axis=-1)[..., ::-1]
        return (h * h / 6.0) * x - h * ((1.0 - mid) * before + mid * after)

    @cached_property
    def exact_rhs(self) -> np.ndarray:
        """b = K u, read-only."""
        rhs = self.apply(self.exact_solution)
        rhs.setflags(write=False)
        return rhs

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix K, read-only; assembled only by a caller that reads it."""
        n = len(self.exact_solution)
        h = 1.0 / n
        mid = _midpoints(n)
        matrix = (np.outer(mid, mid) - np.minimum.outer(mid, mid)) * h
        # Exact integral over the diagonal cell, where the kernel has a kink:
        # (1/h) * double integral of K over cell i equals
        # h^2 * ((i^2 - i + 1/4) h - (i - 2/3)).
        idx = np.arange(1, n + 1, dtype=float)
        matrix[np.diag_indices(n)] = h * h * ((idx * idx - idx + 0.25) * h - (idx - 2.0 / 3.0))
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def factorization(self) -> SpectralFactorization:
        """The closed-form DST-II factorization of K, checked against ``apply``.

        The reconstruction probe compares U S V* X, from the DST-II
        spectrum, with ``apply(X)``, from the Green's-kernel formula: two
        independent derivations of K, so an error in either fails it. Raises
        FactorizationFailure if they disagree.
        """
        fact = _dst2_factorization(len(self.exact_solution))
        _check_reconstruction(self, fact)
        return fact


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and the seed that pins its realization."""

    delta_rel: float
    seed: int

    def __post_init__(self):
        if not 0.0 < _real(self.delta_rel, "delta_rel") < 1.0:
            raise DomainError(f"delta_rel={self.delta_rel} must lie in (0, 1)")
        _size(self.seed, "seed", 0)


def _checked(data, n: int) -> np.ndarray:
    """data as an array: a length-n vector or a p x n stack, else DimensionMismatch."""
    data = np.asarray(data)
    if data.ndim not in (1, 2) or data.shape[-1] != n:
        raise DimensionMismatch(f"input of shape {data.shape} does not match {(n, n)}")
    return data


def _midpoints(n: int) -> np.ndarray:
    """The cell midpoints (i - 1/2) h, i = 1..n, h = 1/n."""
    return (np.arange(1, n + 1) - 0.5) * (1.0 / n)


def second_derivative_problem(N: int, u_fn: Callable[[float], float]) -> TestProblem:
    """Build the N x N second-derivative test problem for a given solution.

    The solution is sampled at the cell midpoints (i - 1/2) / N and the
    right-hand side is the exact product b = K u, so the pair (u, b) is
    consistent with the operator by construction. No N x N array is built;
    see ``TestProblem``. N must be an integer of at least 2, else DomainError.
    """
    N = _size(N, "N", 2)
    return TestProblem(np.array([float(u_fn(point)) for point in _midpoints(N)]))


@dataclass(frozen=True, eq=False)
class _SineBasis:
    """The orthonormal DST-II basis V_jk = w_k sin((2j - 1) k pi / (2N)), w_k = ``weights``.

    Applied by one real FFT of length N (Makhoul, "A fast cosine transform
    in one and two dimensions", IEEE TASSP 28, 1980), in O(N log N) time and
    O(N) memory per vector; no N x N array is built. ``adjoint`` reorders y
    as (y_1, y_3, ..., -y_4, -y_2): the odd-indexed entries, then the
    even-indexed ones negated and reversed. With Y its rfft and theta_k =
    k pi / (2N), sum_j y_j sin((2j - 1) theta_k) = -Im(exp(-i theta_k) Y_k),
    which is V* y before the weights. rfft keeps k <= N/2; since Y_(N-m) =
    conj(Y_m), the entries k = N - m are Re(exp(-i theta_m) Y_m), and the
    Nyquist bin of an even N is read once, for k = N/2. ``apply`` runs the
    transpose of each step in reverse order, irfft in place of rfft, so
    V x = M (w x) for the unweighted sines M whatever the weights w: it is
    not the inverse of ``adjoint``, so the orthonormality probe rejects a
    wrong weight.

    The twiddles depend on N alone and are derived from ``len(weights)``;
    the weights are read at call time. Acts on 1-d vectors and on p x N
    stacks, each row by its own FFT along the last axis, where numpy's FFT
    is fastest; complex input is split into its real and imaginary parts.
    """

    weights: np.ndarray
    # i exp(-i theta_k), k = 0..N/2, which turns V* y into the real parts of
    # bins 1..N/2 and the imaginary parts of bins (N-1)/2..0
    _twiddle: np.ndarray = field(init=False, repr=False)
    # conj(_twiddle) over irfft's weight of each bin
    _gain: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.weights)
        quarter = np.sin(np.arange(n + 1) * (np.pi / (2 * n)))
        # sin theta_k + i cos theta_k, the cosine read as sin theta_(N-k)
        twiddle = quarter[:n // 2 + 1] + 1j * quarter[n:n - n // 2 - 1:-1]
        # irfft weighs bin 0 and an even N's Nyquist bin by 1 / N, the others by 2 / N
        gain = twiddle.conj() * (n / 2.0)
        gain[0] *= 2.0
        if n % 2 == 0:
            gain[-1] *= 2.0
        object.__setattr__(self, "_twiddle", twiddle)
        object.__setattr__(self, "_gain", gain)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.weights), len(self.weights))

    def apply(self, x) -> np.ndarray:
        """V x: a DST-III of the weighted coefficients, the transpose of ``adjoint``."""
        n = len(self.weights)
        x = _checked(x, n)
        if np.iscomplexobj(x):
            return self.apply(x.real) + 1j * self.apply(x.imag)
        weighted = x * self.weights
        spectrum = np.zeros(x.shape[:-1] + (n // 2 + 1,), dtype=complex)
        spectrum.real[..., 1:] = weighted[..., :n // 2]
        spectrum.imag[..., (n - 1) // 2::-1] = weighted[..., n // 2:]
        spectrum *= self._gain
        reordered = np.fft.irfft(spectrum, n=n, axis=-1)
        half = (n + 1) // 2
        out = np.empty_like(reordered)
        out[..., ::2] = reordered[..., :half]
        np.negative(reordered[..., half:][..., ::-1], out=out[..., 1::2])
        return out

    def adjoint(self, y) -> np.ndarray:
        """V* y: a DST-II, then the weights."""
        n = len(self.weights)
        y = _checked(y, n)
        if np.iscomplexobj(y):
            return self.adjoint(y.real) + 1j * self.adjoint(y.imag)
        reordered = np.concatenate((y[..., ::2], y[..., 1::2][..., ::-1]), axis=-1, dtype=float)
        second_half = reordered[..., (n + 1) // 2:]
        np.negative(second_half, out=second_half)
        spectrum = np.fft.rfft(reordered, axis=-1)
        spectrum *= self._twiddle
        out = np.concatenate((spectrum.real[..., 1:], spectrum.imag[..., (n - 1) // 2::-1]),
                             axis=-1)
        out *= self.weights
        return out


def _dst2_factorization(N: int) -> SpectralFactorization:
    """The closed-form eigendecomposition K = V S V* of the N x N matrix, V a DST-II.

    S is negative and ascending, the order of ``np.linalg.eigh`` of K.
    """
    quarter = np.sin(np.arange(N + 1) * (np.pi / (2 * N)))
    h = 1.0 / N
    diag = h * h * (1.0 / 6.0 - 0.25 / quarter[1:] ** 2)
    weights = np.full(N, np.sqrt(2.0 / N))
    weights[-1] *= np.sqrt(0.5)
    weights.setflags(write=False)
    basis = _SineBasis(weights)
    return SpectralFactorization(u_basis=basis, v_basis=basis, diag=diag)


def standard_normal(spec: NoiseSpec, count: int) -> np.ndarray:
    """Deterministic standard normals: Box-Muller over PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


def add_noise(b, spec: NoiseSpec) -> tuple[np.ndarray, float]:
    """Return (b + e, delta_abs) with ||e|| = delta_rel * ||b|| exactly.

    ``b`` is admitted as a real vector: complex or non-finite data raises
    DomainError, and data of another dimension DimensionMismatch.
    """
    b = _admitted(b, "b", ndim=1, dtype=float)
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        raise DomainError("cannot scale noise relative to a zero right-hand side")
    noise = standard_normal(spec, len(b))
    noise_norm = float(np.linalg.norm(noise))
    if noise_norm == 0.0:
        raise DomainError("degenerate zero noise draw")
    delta_abs = spec.delta_rel * scale
    noise *= delta_abs / noise_norm
    return b + noise, delta_abs
