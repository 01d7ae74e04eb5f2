"""Thin spectral factorizations A = U S V* and the operations built on them.

With k = min(m, n), a factorization stores the k singular triplets: bases U
(m x k) and V (n x k) with orthonormal columns, and the k-entry diagonal of
S. The diagonal may be complex (the DFT-diagonalized convolution case); the
derived spectrum is always the real vector |s_i|^2. A basis is one of:

- ``None``, the identity, for a square side, so that diagonal systems of
  FFT size never materialize an n x n identity matrix;
- a dense array;
- an orthonormal transform: a frozen object with ``shape``, ``apply(x)``
  (B x) and ``adjoint(y)`` (B* y), acting on 1-d vectors and on dim x p
  blocks along axis 0, such as a fast sine transform that never stores B.

``_left_multiply`` and ``_adjoint_multiply`` are the only code that tells
the three kinds apart; every check and product goes through them.

One rule admits every input array of the package, ``_admitted``: a frozen
copy with a checked shape and finite entries. Every operation is a pure
function, so values can be shared freely across threads.

Factorizations are checked with Freivalds-style probes: X is a fixed-seed
block of p = 8 standard normal columns, and for a defect matrix E the mean of
||E X||_F^2 is p ||E||_F^2, so ||E X||_F / sqrt(p) estimates the Frobenius
defect from matrix-block products, with no dim x dim temporary. The seed is
fixed and the global ``np.random`` state is never touched, so every check is
deterministic.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from .errors import DimensionMismatch, DomainError, FactorizationFailure

UNITARY_TOL_PER_DIM = 1e-10
RECON_TOL_PER_DIM = 1e-10
# columns p of the probe block and its fixed seed
_PROBES = 8
_PROBE_SEED = 0x5EED
# largest modulus whose square is finite in float64
MAX_SINGULAR_VALUE = float(np.sqrt(np.finfo(np.float64).max))


class _Transform(Protocol):
    """An orthonormal basis applied as an operator instead of stored as an array."""

    shape: tuple[int, int]

    def apply(self, x: np.ndarray) -> np.ndarray: ...

    def adjoint(self, y: np.ndarray) -> np.ndarray: ...


_Basis = np.ndarray | _Transform | None


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} contains non-finite entries")


def _admitted(values, name: str, shape=None, *, ndim=None, dtype=None) -> np.ndarray:
    """A frozen copy of an input array of exactly ``shape``, or else nonempty of ``ndim``.

    Raises DimensionMismatch on another shape and DomainError on a non-finite entry.
    """
    out = np.array(values, dtype=dtype, copy=True)
    if shape is not None and out.shape != shape:
        raise DimensionMismatch(f"{name} has shape {out.shape}, expected {shape}")
    if ndim is not None and (out.ndim != ndim or out.size == 0):
        raise DimensionMismatch(f"{name} has shape {out.shape}, expected nonempty {ndim}-d")
    _require_finite(out, name)
    out.setflags(write=False)
    return out


def _require_positive(value, name: str) -> None:
    """The admission rule of a scalar bound: positive and finite, or DomainError."""
    if not (np.isfinite(value) and value > 0):
        raise DomainError(f"{name}={value} must be positive and finite")


def _probes(rows: int) -> np.ndarray:
    """The rows x p block of standard normals that every check uses."""
    return np.random.default_rng(_PROBE_SEED).standard_normal((rows, _PROBES))


def _probe_norm(block: np.ndarray) -> float:
    """||E X||_F / sqrt(p) for block = E X: the estimate of ||E||_F."""
    return float(np.linalg.norm(block)) / np.sqrt(_PROBES)


@dataclass(frozen=True)
class SpectralFactorization:
    """A = U S V* with k = min(m, n), orthonormal columns U (m x k) and V (n x k).

    ``u_basis`` / ``v_basis`` are each ``None``, a dense array or an
    orthonormal transform (see the module docstring). ``None`` stands for a
    k x k identity matrix, so only a basis of a side with k rows can be
    omitted. ``diag`` and dense bases are admitted by ``_admitted``; a
    transform is kept as given, after a check of its shape.
    ``diag`` holds the k diagonal entries of S, possibly complex and in
    caller-defined order (``factorize_svd`` sorts them nonincreasing,
    ``from_diagonal`` preserves positional order).

    A stored basis B of ``dim`` rows must pass the orthonormality check
    ||B* (B X) - X||_F / sqrt(p) <= UNITARY_TOL_PER_DIM * dim, with X the
    seeded k x p probe block (p = 8): a probe estimate of ||B* B - I||_F that
    costs about 4 * dim * k * p flops for a dense B instead of a
    2 * dim * k^2 Gram product. A transform runs the same probe through its
    ``apply`` and ``adjoint``. Otherwise DomainError is raised.
    """

    u_basis: _Basis
    v_basis: _Basis
    diag: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        m, n = self.shape
        if m < 1 or n < 1:
            raise DimensionMismatch(f"shape {self.shape} must be at least 1 x 1")
        k = min(m, n)
        object.__setattr__(self, "diag", _admitted(self.diag, "diag", (k,)))
        # compared, not squared: squaring would warn on the overflow it detects
        if not np.all(np.abs(self.diag) <= MAX_SINGULAR_VALUE):
            raise DomainError(f"|diag| exceeds {MAX_SINGULAR_VALUE:.3e}; |s_i|^2 overflows")
        for name, basis, dim in (("u_basis", self.u_basis, m), ("v_basis", self.v_basis, n)):
            if basis is None:
                if dim != k:
                    raise DimensionMismatch(f"{name} of {dim} rows cannot be the identity")
                continue
            if not hasattr(basis, "adjoint"):  # dense; a transform is kept as given
                basis = _admitted(basis, name, (dim, k))
                object.__setattr__(self, name, basis)
            elif basis.shape != (dim, k):
                raise DimensionMismatch(f"{name} has shape {basis.shape}, expected {(dim, k)}")
            x = _probes(k)
            defect = _probe_norm(_adjoint_multiply(basis, _left_multiply(basis, x)) - x)
            # negated, so that a NaN defect from a transform fails too
            if not defect <= UNITARY_TOL_PER_DIM * dim:
                raise DomainError(f"{name} columns are not orthonormal (defect {defect:.3e})")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum |s_i|^2 of the k singular triplets."""
        out = np.abs(self.diag) ** 2
        out.setflags(write=False)
        return out


def _left_multiply(basis: _Basis, vec: np.ndarray) -> np.ndarray:
    """B vec for a basis of any of the three kinds."""
    if basis is None:
        return vec
    if isinstance(basis, np.ndarray):
        return basis @ vec
    return basis.apply(vec)


def _adjoint_multiply(basis: _Basis, vec: np.ndarray) -> np.ndarray:
    """B* vec for a basis of any of the three kinds."""
    if basis is None:
        return vec
    if isinstance(basis, np.ndarray):
        return basis.conj().T @ vec
    return basis.adjoint(vec)


def factorize_svd(matrix) -> SpectralFactorization:
    """Factor a dense matrix into the thin SVD A = U S V*, U m x k and V n x k.

    One ``np.linalg.svd`` call factors it, with ``hermitian=True`` for a
    matrix exactly equal to its conjugate transpose: numpy runs ``eigh``,
    sorts by |eigenvalue| and folds the signs into V. V's column of an
    exact-zero S entry is then set to U's, which numpy releases that fold
    sign(0) = 0 leave zero. The diagonal is real, nonnegative and nonincreasing.

    The result is checked by a seeded probe estimate of the Frobenius
    reconstruction defect, ||U (S (V* X)) - A X||_F / sqrt(p) with X the
    n x p probe block (p = 8), against RECON_TOL_PER_DIM * min(m, n) *
    ||A||_F. It costs about 2 * p * (m k + n k + m n) flops and builds no
    m x n product. Both norms are taken of A / c, with c the largest real or
    imaginary part of an entry in modulus (within sqrt(2) of max|A|), so the
    test is relative at every scale and neither norm underflows; an all-zero
    A factors. Raises FactorizationFailure if the iteration does not converge
    or the check fails, and DomainError on non-finite input.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim {a.ndim}")
    _require_finite(a, "matrix")
    hermitian = np.array_equal(a, a.conj().T)  # False unless square
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False, hermitian=hermitian)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(str(exc)) from exc
    if hermitian:
        vh[s == 0] = u[:, s == 0].conj().T
    fact = SpectralFactorization(u_basis=u, v_basis=vh.conj().T, diag=s, shape=a.shape)
    _check_reconstruction(a, fact)
    return fact


def _check_reconstruction(a: np.ndarray, fact: SpectralFactorization) -> None:
    """Raise FactorizationFailure unless U S V* reconstructs the dense matrix a.

    The seeded probe test of ``factorize_svd``'s docstring, run through
    ``_left_multiply`` / ``_adjoint_multiply`` for a basis of any kind. Any
    code that factors a known dense matrix calls it.
    """
    u, s, v = fact.u_basis, fact.diag, fact.v_basis
    # largest |Re| or |Im| of an entry, within sqrt(2) of max|A|; taken part by
    # part because an m x n abs() temporary raised dense-1000's peak RSS
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    peak = max(max(abs(part.max()), abs(part.min())) for part in parts) or 1.0
    unit, s_unit = a / peak, s / peak
    x = _probes(a.shape[1])
    recon = _left_multiply(u, s_unit[:, None] * _adjoint_multiply(v, x))
    recon_defect = _probe_norm(recon - unit @ x)
    # negated, so that a NaN defect from a transform fails too
    if not recon_defect <= RECON_TOL_PER_DIM * min(a.shape) * np.linalg.norm(unit):
        raise FactorizationFailure(
            f"relative reconstruction defect {recon_defect:.3e} exceeds tolerance"
        )


def from_diagonal(diag) -> SpectralFactorization:
    """Factorization of a square diagonal matrix with identity bases.

    Entries may be complex; their positional order is preserved so that
    frequency-indexed diagonals stay aligned with their frequencies.
    """
    d = np.asarray(diag)
    if d.ndim != 1 or len(d) == 0:
        raise DimensionMismatch("diag must be a nonempty 1-d sequence")
    n = len(d)
    return SpectralFactorization(u_basis=None, v_basis=None, diag=d, shape=(n, n))
