"""Thin spectral factorizations A = U S V* and the operations built on them.

With k = min(m, n), a factorization stores the k singular triplets, which fix
its shape m x n: bases U (m x k) and V (n x k) with orthonormal columns, and
the k-entry diagonal of S, possibly complex (the DFT-diagonalized convolution
case); the derived spectrum is always the real vector |s_i|^2. A Hermitian
A is stored as its eigendecomposition A = Q diag(l) Q*: one basis Q on both
sides and the signed eigenvalues l as S, with no sign moved into a second
basis, since every product reads S only through |s_i|^2 and conj(s_i). A
basis is:

- ``None``, the k x k identity, which counts k rows, so that diagonal
  systems of FFT size never materialize an n x n identity matrix;
- a dense array;
- an orthonormal transform: a frozen object with ``shape``, ``apply(x)``
  (B x) and ``adjoint(y)`` (B* y), such as a fast sine transform that never
  stores B.

Every product takes a 1-d vector or a p x dim stack of rows along the last
axis, numpy's FFT layout: B X of a dense B is ``X @ B.T``.

``_left_multiply`` and ``_adjoint_multiply`` are the only code that tells
the three kinds apart; every check and product goes through them, A X of a
checked matrix or operator A included.

One rule admits every input array of the package, ``_admitted``: a frozen
copy with a checked shape and finite entries. Every operation is a pure
function, so values can be shared freely across threads.

Factorizations are checked with Freivalds-style probes: X is a fixed-seed
stack of p = 8 standard normal rows, and for a defect matrix E the mean of
||E X||_F^2 is p ||E||_F^2, so ||E X||_F / sqrt(p) estimates the Frobenius
defect from matrix-block products, with no dim x dim temporary; ||A||_F is
estimated from A X the same way. The seed is fixed and the global
``np.random`` state is never touched, so every check is deterministic, and
the stack of the last size drawn is kept for the next check.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Protocol

import numpy as np

from .errors import DimensionMismatch, DomainError, FactorizationFailure

UNITARY_TOL_PER_DIM = 1e-10
RECON_TOL_PER_DIM = 1e-10
# rows p of the probe stack and its fixed seed
_PROBES = 8
_PROBE_SEED = 0x5EED
# largest modulus whose square is finite in float64
MAX_SINGULAR_VALUE = float(np.sqrt(np.finfo(np.float64).max))


class _Transform(Protocol):
    """An orthonormal basis applied as an operator to vectors and p x dim stacks of rows."""

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


def _real(value, name: str) -> np.ndarray:
    """value as a fresh float array; DomainError if it is complex or not a number."""
    values = np.asarray(value)
    if values.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be real, not of dtype {values.dtype}")
    return values.astype(float)


def _require_positive(value, name: str) -> None:
    """The admission rule of a bound, or of each in an array: positive and finite, or DomainError."""
    values = _real(value, name)
    if not np.all(np.isfinite(values) & (values > 0)):
        raise DomainError(f"{name}={value} must be positive and finite")


@lru_cache(maxsize=1)
def _probes(dim: int) -> np.ndarray:
    """The read-only p x dim stack of standard normals that every check uses, drawn dim x p."""
    out = np.random.default_rng(_PROBE_SEED).standard_normal((dim, _PROBES)).T.copy()
    out.setflags(write=False)
    return out


def _probe_norm(block: np.ndarray) -> float:
    """||E X||_F / sqrt(p) for block = E X: the estimate of ||E||_F."""
    return float(np.linalg.norm(block)) / np.sqrt(_PROBES)


def _admitted_basis(basis: _Basis, name: str) -> _Basis:
    """A dense basis admitted by ``_admitted``; a transform kept if its shape is a pair of ints."""
    if basis is None:
        return None
    if not hasattr(basis, "adjoint"):
        return _admitted(basis, name, ndim=2)
    shape = getattr(basis, "shape", None)
    if not (isinstance(shape, tuple) and len(shape) == 2
            and all(isinstance(dim, (int, np.integer)) for dim in shape)):
        raise DimensionMismatch(f"{name} has shape {shape!r}, expected a pair of ints")
    return basis


@dataclass(frozen=True, eq=False)
class SpectralFactorization:
    """A = U S V* with k = min(m, n), orthonormal columns U (m x k) and V (n x k).

    ``u_basis`` / ``v_basis`` are each ``None``, a dense array or an
    orthonormal transform (see the module docstring); ``shape`` (m, n) is
    read from their rows, ``None`` counting k = ``len(diag)``. Unless k =
    min(m, n) and each stored basis has k columns, DimensionMismatch is
    raised before any probe. ``diag`` and dense bases are admitted by
    ``_admitted``; a transform is kept as given once its ``shape`` is a pair
    of ints, else DimensionMismatch. A basis passed as both ``u_basis`` and
    ``v_basis`` (U = V, an eigendecomposition) is admitted, stored and
    probed once, so ``u_basis is v_basis`` holds on the result too. ``diag``
    holds the k entries of S, possibly complex or negative and in
    caller-defined order (``factorize_svd`` gives the ascending eigenvalues
    of a Hermitian matrix and the nonincreasing singular values of any
    other, ``from_diagonal`` preserves positional order).

    A stored basis B of ``dim`` rows must pass the orthonormality check
    ||B* (B X) - X||_F / sqrt(p) <= UNITARY_TOL_PER_DIM * dim, with X the
    seeded p x k probe stack (p = 8): a probe estimate of ||B* B - I||_F that
    costs about 4 * dim * k * p flops for a dense B instead of a
    2 * dim * k^2 Gram product. A transform runs the same probe through its
    ``apply`` and ``adjoint``. Otherwise DomainError is raised.
    """

    u_basis: _Basis
    v_basis: _Basis
    diag: np.ndarray
    shape: tuple[int, int] = field(init=False)

    def __post_init__(self):
        diag = _admitted(self.diag, "diag", ndim=1)
        # compared, not squared: squaring would warn on the overflow it detects
        if not np.all(np.abs(diag) <= MAX_SINGULAR_VALUE):
            raise DomainError(f"|diag| exceeds {MAX_SINGULAR_VALUE:.3e}; |s_i|^2 overflows")
        k = len(diag)
        u = _admitted_basis(self.u_basis, "u_basis")
        v = u if self.v_basis is self.u_basis else _admitted_basis(self.v_basis, "v_basis")
        m, n = (k if basis is None else basis.shape[0] for basis in (u, v))
        if min(m, n) != k:
            raise DimensionMismatch(f"diag has shape {diag.shape}, expected {(min(m, n),)}")
        # a basis passed for both sides is admitted, stored and probed once
        sides = [("u_basis", u, m)] if v is u else [("u_basis", u, m), ("v_basis", v, n)]
        stored = [(name, basis, dim) for name, basis, dim in sides if basis is not None]
        for name, basis, dim in stored:
            if basis.shape != (dim, k):
                raise DimensionMismatch(f"{name} has shape {basis.shape}, expected {(dim, k)}")
        for name, value in (("u_basis", u), ("v_basis", v), ("diag", diag), ("shape", (m, n))):
            object.__setattr__(self, name, value)
        for name, basis, dim in stored:
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


def _left_multiply(basis: _Basis, rows: np.ndarray) -> np.ndarray:
    """B x of each row x, for a basis of any of the three kinds or a checked A."""
    if basis is None:
        return rows
    if isinstance(basis, np.ndarray):
        return rows @ basis.T
    return basis.apply(rows)


def _adjoint_multiply(basis: _Basis, rows: np.ndarray) -> np.ndarray:
    """B* y of each row y, for a basis of any of the three kinds."""
    if basis is None:
        return rows
    if isinstance(basis, np.ndarray):
        return rows @ basis.conj()
    return basis.adjoint(rows)


def factorize_svd(matrix) -> SpectralFactorization:
    """Factor a dense matrix as A = U S V*, U m x k and V n x k, k = min(m, n).

    A matrix exactly equal to its conjugate transpose is factored by one
    ``np.linalg.eigh`` call into its eigendecomposition A = Q diag(l) Q*:
    U and V are the one basis Q (``u_basis is v_basis``), and the diagonal
    holds the real, signed eigenvalues l in eigh's ascending order. Any other
    matrix is factored by one ``np.linalg.svd`` call into the thin SVD, with
    a real, nonnegative and nonincreasing diagonal.

    The result is checked by a seeded probe estimate of the Frobenius
    reconstruction defect, ||U (S (V* X)) - A X||_F / sqrt(p) with X the
    p x n probe stack (p = 8), against RECON_TOL_PER_DIM * min(m, n) *
    ||A||_F, with ||A||_F estimated as ||A X||_F / sqrt(p). It costs about
    2 * p * (m k + n k + m n) flops and builds no m x n array. Both norms are
    taken after dividing by c, the largest modulus of an entry of A X, so the
    test is relative at every scale, subnormal ones included, and neither
    norm underflows; an all-zero A factors. Raises FactorizationFailure if
    the iteration does not converge or the check fails, and DomainError on
    non-finite input.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim {a.ndim}")
    _require_finite(a, "matrix")
    try:
        if np.array_equal(a, a.conj().T):  # False unless square
            diag, u = np.linalg.eigh(a)
            v = u
        else:
            u, diag, vh = np.linalg.svd(a, full_matrices=False)
            v = vh.conj().T
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(str(exc)) from exc
    fact = SpectralFactorization(u_basis=u, v_basis=v, diag=diag)
    _check_reconstruction(a, fact)
    return fact


def _check_reconstruction(a, fact: SpectralFactorization) -> None:
    """Raise FactorizationFailure unless U S V* reconstructs a.

    The seeded probe test of ``factorize_svd``'s docstring, for a basis of
    any kind and for a dense matrix a or an operator a with ``apply`` that
    is never assembled: only the product A X is read, through
    ``_left_multiply``. Any code that factors a known matrix or operator
    calls it.
    """
    u, s, v = fact.u_basis, fact.diag, fact.v_basis
    x = _probes(fact.shape[1])
    product = _left_multiply(a, x)
    peak = float(np.max(np.abs(product))) or 1.0
    # part by part: numpy's complex / real takes 1 / peak, which overflows
    # for a subnormal peak
    reference = product.real / peak + 1j * (product.imag / peak)
    recon = _left_multiply(u, (s / peak) * _adjoint_multiply(v, x))
    recon_defect = _probe_norm(recon - reference)
    # negated, so that a NaN defect from a transform fails too
    if not recon_defect <= RECON_TOL_PER_DIM * min(fact.shape) * _probe_norm(reference):
        raise FactorizationFailure(
            f"relative reconstruction defect {recon_defect:.3e} exceeds tolerance"
        )


def from_diagonal(diag) -> SpectralFactorization:
    """Factorization of the n x n diagonal matrix, n = len(diag), with identity bases.

    Entries may be complex; their positional order is preserved so that
    frequency-indexed diagonals stay aligned with their frequencies.
    """
    return SpectralFactorization(None, None, diag)
