"""Thin spectral factorizations A = U S V* and the operations built on them.

With k = min(m, n), a factorization stores the k singular triplets: bases U
(m x k) and V (n x k) with orthonormal columns, and the k-entry diagonal of
S. The diagonal may be complex (the DFT-diagonalized convolution case); the
derived spectrum is always the real vector |s_i|^2. A basis that is square
may be stored as ``None``, meaning the identity, so that diagonal systems of
FFT size never materialize an n x n identity matrix.

All stored arrays are copied and frozen, and every operation is a pure
function, so values can be shared freely across threads.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError, FactorizationFailure

UNITARY_TOL_PER_DIM = 1e-10
RECON_TOL_PER_DIM = 1e-10
DEFAULT_RANK_TOL = 1e-12
# largest modulus whose square is finite in float64
MAX_SINGULAR_VALUE = float(np.sqrt(np.finfo(np.float64).max))


def _frozen_array(values, dtype=None) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class SpectralFactorization:
    """A = U S V* with k = min(m, n), orthonormal columns U (m x k) and V (n x k).

    ``u_basis`` / ``v_basis`` equal to ``None`` stand for k x k identity
    matrices, so only a basis of a side with k rows can be omitted.
    ``diag`` holds the k diagonal entries of S, possibly complex and in
    caller-defined order (``factorize_svd`` sorts them nonincreasing,
    ``from_diagonal`` preserves positional order).
    """

    u_basis: np.ndarray | None
    v_basis: np.ndarray | None
    diag: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        m, n = self.shape
        if m < 1 or n < 1:
            raise DimensionMismatch(f"shape {self.shape} must be at least 1 x 1")
        k = min(m, n)
        object.__setattr__(self, "diag", _frozen_array(self.diag))
        if self.diag.ndim != 1 or len(self.diag) != k:
            raise DimensionMismatch(f"diag has length {len(self.diag)}, expected {k}")
        _require_finite(self.diag, "diag")
        # compared, not squared: squaring would warn on the overflow it detects
        if not np.all(np.abs(self.diag) <= MAX_SINGULAR_VALUE):
            raise DomainError(f"|diag| exceeds {MAX_SINGULAR_VALUE:.3e}; |s_i|^2 overflows")
        for name, basis, dim in (("u_basis", self.u_basis, m), ("v_basis", self.v_basis, n)):
            if basis is None:
                if dim != k:
                    raise DimensionMismatch(f"{name} of {dim} rows cannot be the identity")
                continue
            basis = _frozen_array(basis)
            object.__setattr__(self, name, basis)
            if basis.shape != (dim, k):
                raise DimensionMismatch(f"{name} has shape {basis.shape}, expected {(dim, k)}")
            _require_finite(basis, name)
            gram = basis.conj().T @ basis
            defect = np.linalg.norm(gram - np.eye(k))
            if defect > UNITARY_TOL_PER_DIM * dim:
                raise DomainError(f"{name} columns are not orthonormal (defect {defect:.3e})")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum |s_i|^2 of the k singular triplets."""
        out = np.abs(self.diag) ** 2
        out.setflags(write=False)
        return out

    def to_matrix(self) -> np.ndarray:
        """Materialize the dense matrix U S V*."""
        left = np.diag(self.diag) if self.u_basis is None else self.u_basis * self.diag
        return left if self.v_basis is None else left @ self.v_basis.conj().T


def _left_multiply(basis: np.ndarray | None, vec: np.ndarray) -> np.ndarray:
    return vec if basis is None else basis @ vec


def _adjoint_multiply(basis: np.ndarray | None, vec: np.ndarray) -> np.ndarray:
    return vec if basis is None else basis.conj().T @ vec


def _symmetric_svd(a: np.ndarray):
    """SVD of a Hermitian matrix from its eigendecomposition A = Q diag(lam) Q*.

    Eigenpairs are ordered by |lam| nonincreasing (stable, so ties keep eigh's
    order); U = Q sgn(lam), with sgn 0 taken as +1, folds the signs into the
    left basis, so that U |lam| Q* = A is an exact SVD.
    """
    lam, q = np.linalg.eigh(a)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam, q = lam[order], q[:, order]
    return q * np.where(lam < 0, -1.0, 1.0), np.abs(lam), q


def factorize_svd(matrix) -> SpectralFactorization:
    """Factor a dense matrix into the thin SVD A = U S V*, U m x k and V n x k.

    A square matrix that is exactly symmetric (Hermitian if complex) is
    factored by ``eigh``, which is cheaper than an SVD: V holds the
    eigenvectors, S their |eigenvalues|, and U the eigenvectors with the
    eigenvalue signs folded in. Any other matrix is factored by ``svd``.
    The returned diagonal is real, nonnegative and sorted nonincreasing.
    Raises FactorizationFailure if the iteration does not converge and
    DomainError on non-finite input.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim {a.ndim}")
    _require_finite(a, "matrix")
    try:
        if np.array_equal(a, a.conj().T):  # False unless square
            u, s, v = _symmetric_svd(a)
        else:
            u, s, vh = np.linalg.svd(a, full_matrices=False)
            v = vh.conj().T
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(str(exc)) from exc
    fact = SpectralFactorization(u_basis=u, v_basis=v, diag=s, shape=a.shape)
    recon_defect = np.linalg.norm(fact.to_matrix() - a)
    scale = max(np.linalg.norm(a), 1.0)
    if recon_defect > RECON_TOL_PER_DIM * min(a.shape) * scale:
        raise FactorizationFailure(
            f"reconstruction defect {recon_defect:.3e} exceeds tolerance"
        )
    return fact


def from_diagonal(diag) -> SpectralFactorization:
    """Factorization of a square diagonal matrix with identity bases.

    Entries may be complex; their positional order is preserved so that
    frequency-indexed diagonals stay aligned with their frequencies.
    """
    d = np.asarray(diag)
    if d.ndim != 1 or len(d) == 0:
        raise DimensionMismatch("diag must be a nonempty 1-d sequence")
    _require_finite(d, "diag")
    n = len(d)
    return SpectralFactorization(u_basis=None, v_basis=None, diag=d, shape=(n, n))


def apply(fact: SpectralFactorization, x) -> np.ndarray:
    """Compute A x = U S V* x."""
    x = np.asarray(x)
    n = fact.shape[1]
    if x.shape != (n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({n},)")
    return _left_multiply(fact.u_basis, fact.diag * _adjoint_multiply(fact.v_basis, x))


def adjoint_apply(fact: SpectralFactorization, y) -> np.ndarray:
    """Compute A* y = V conj(S) U* y."""
    y = np.asarray(y)
    m = fact.shape[0]
    if y.shape != (m,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({m},)")
    return _left_multiply(fact.v_basis, fact.diag.conj() * _adjoint_multiply(fact.u_basis, y))


def minimal_norm_solution(fact: SpectralFactorization, f, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Pseudo-inverse solution V diag(g) U* f with g_i = conj(s_i)/|s_i|^2.

    Modes with |s_i|^2 at or below ``rank_tol`` times the largest eigenvalue
    are treated as null directions and dropped, which makes the result
    orthogonal to the numerical null space.
    """
    f = np.asarray(f)
    m = fact.shape[0]
    if f.shape != (m,):
        raise DimensionMismatch(f"f has shape {f.shape}, expected ({m},)")
    if rank_tol <= 0:
        raise DomainError("rank_tol must be positive")
    eig = fact.eigenvalues
    cutoff = rank_tol * (eig.max() if len(eig) else 0.0)
    gains = np.zeros(len(eig), dtype=np.result_type(fact.diag.dtype, float))
    keep = eig > cutoff
    gains[keep] = fact.diag[keep].conj() / eig[keep]
    return _left_multiply(fact.v_basis, gains * _adjoint_multiply(fact.u_basis, f))
