"""Matrix backends: real symmetric and complex Hermitian n x n matrices.

Coordinate layout (one serialization per model, exact round trip):
  - sym:  n diagonal entries, then the strict upper triangle row-major.
  - herm: n diagonal entries, then (re, im) pairs of the strict upper
          triangle row-major.

Atoms are rank-one projections; an atom parameter is a unit vector spanning
the range.
"""

from __future__ import annotations

import numpy as np

from ..elements import Element, Tolerance
from ..errors import ConeProjectionError, NotAtomError, UnnormalizedParamError
from .base import Model, cluster_descending


def _deterministic_basis(projector: np.ndarray, rank: int) -> list[np.ndarray]:
    """Orthonormal basis of a projector's range, reproducible across runs.

    Columns of the projector are orthogonalized in index order and each kept
    vector is phase-fixed so its first significant component is real positive.
    """
    vecs: list[np.ndarray] = []
    n = projector.shape[0]
    for i in range(n):
        if len(vecs) == rank:
            break
        w = projector[:, i].copy()
        for _ in range(2):  # re-orthogonalize for stability
            for v in vecs:
                w = w - v * np.vdot(v, w)
        norm = np.linalg.norm(w)
        if norm <= 1e-6:
            continue
        w = w / norm
        j = int(np.argmax(np.abs(w) > 1e-8))
        phase = w[j] / abs(w[j])
        vecs.append(w / phase)
    if len(vecs) != rank:
        raise RuntimeError("projector basis extraction failed")  # pragma: no cover
    return vecs


class _MatrixModel(Model):
    """Common spectral kernel for the two matrix backends."""

    _complex = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matrix model needs n >= 1")
        self._n = int(n)
        self._iu = np.triu_indices(self._n, k=1)
        self._diag = np.diag_indices(self._n)

    @property
    def n(self) -> int:
        return self._n

    @property
    def info_capacity(self) -> int:
        return self._n

    @property
    def param_items(self) -> tuple:
        return (("n", self._n),)

    # subclasses provide _matrix_from_coords / matrix_coords; matrix_coords
    # maps a stack (..., n, n) of matrices to a stack of coordinate vectors

    def to_matrix(self, a: Element | np.ndarray) -> np.ndarray:
        coords = a.coords if isinstance(a, Element) else np.asarray(a, dtype=float)
        return self._matrix_from_coords(coords)

    def from_matrix(self, mat: np.ndarray) -> Element:
        return self.element(self.matrix_coords(mat))

    def order_unit_coords(self) -> np.ndarray:
        return self.matrix_coords(np.eye(self._n))

    def _spectrum(self, coords, tol: Tolerance):
        """Eigenvalues sorted descending with each cluster replaced by its
        mean, the eigenvectors as columns, and the cluster slices."""
        mat = self._matrix_from_coords(np.asarray(coords, dtype=float))
        eigvals, eigvecs = np.linalg.eigh(mat)
        order = np.argsort(-eigvals, kind="stable")
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        clusters = cluster_descending(eigvals, tol.eig_cluster)
        for cl in clusters:
            if cl.stop - cl.start > 1:
                # the mean of the halves cannot overflow; halving is exact
                eigvals[cl] = 2.0 * np.mean(0.5 * eigvals[cl])
        return eigvals, eigvecs, clusters

    def eigenvalues_coords(self, coords, tol: Tolerance) -> np.ndarray:
        return self._spectrum(coords, tol)[0]

    def decompose_coords(self, coords, tol: Tolerance):
        eigvals, eigvecs, clusters = self._spectrum(coords, tol)
        # a rank-one cluster keeps its eigenvector; only a degenerate one
        # needs a reproducible basis of its range
        for cl in clusters:
            rank = cl.stop - cl.start
            if rank > 1:
                basis = eigvecs[:, cl]
                eigvecs[:, cl] = np.column_stack(
                    _deterministic_basis(basis @ basis.conj().T, rank))
        vecs = eigvecs.T
        atoms = self.matrix_coords(vecs[:, :, None] * vecs.conj()[:, None, :])
        return list(zip(eigvals.tolist(), atoms))

    def cone_oracle(self, coords, slack: float) -> bool:
        mat = self._matrix_from_coords(coords)
        shifted = mat + (slack + 1e-15) * np.eye(mat.shape[0])
        try:
            np.linalg.cholesky(shifted)
            return True
        except np.linalg.LinAlgError:
            return False

    def split_orthogonal_coords(self, coords, tol: Tolerance):
        # the top singular pair of a PSD matrix is its top eigenpair; plain
        # SVD (LAPACK gesdd) keeps the oracle independent of the eigh kernel
        mat = self._matrix_from_coords(coords)
        scale = max(float(np.real(np.trace(mat))), 1e-30)
        v = np.linalg.svd(mat)[0][:, 0]
        lam = float(np.real(np.vdot(v, mat @ v)))
        if lam <= 1e-12 * scale or np.linalg.norm(mat @ v - lam * v) > 1e-9 * scale:
            raise ConeProjectionError("orthogonal-split oracle needs a cone element")
        head = lam * np.outer(v, v.conj())
        rest = mat - head
        if float(np.linalg.norm(rest)) <= 1e-9 * scale:
            return None
        return self.matrix_coords(head), self.matrix_coords(rest)

    def _unit_vector(self, param) -> np.ndarray:
        vec = np.asarray(param)
        if self._complex:
            if vec.dtype.kind != "c":
                if vec.shape == (2 * self._n,):  # interleaved (re, im) pairs
                    vec = vec[0::2] + 1j * vec[1::2]
                else:
                    vec = vec.astype(complex)
        else:
            vec = vec.astype(float)
        if vec.shape != (self._n,):
            raise UnnormalizedParamError(f"atom parameter must be a vector in dimension {self._n}")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
            raise UnnormalizedParamError("atom parameter must be a unit vector")
        return vec

    def atom_coords(self, param) -> np.ndarray:
        vec = self._unit_vector(param)
        return self.matrix_coords(np.outer(vec, vec.conj()))

    def atom_param_from_coords(self, coords):
        mat = self._matrix_from_coords(np.asarray(coords, dtype=float))
        eigvals, eigvecs = np.linalg.eigh(mat)
        rest = float(np.max(np.abs(eigvals[:-1]))) if len(eigvals) > 1 else 0.0
        if abs(eigvals[-1] - 1.0) > 1e-7 or rest > 1e-7:
            raise NotAtomError("matrix atoms are rank-one projections")
        return eigvecs[:, -1]

    def random_atom_param(self, rng: np.random.Generator):
        vec = rng.normal(size=self._n)
        if self._complex:
            vec = vec + 1j * rng.normal(size=self._n)
        return vec / np.linalg.norm(vec)

    def random_frame_params(self, rng: np.random.Generator):
        gauss = rng.normal(size=(self._n, self._n))
        if self._complex:
            gauss = gauss + 1j * rng.normal(size=(self._n, self._n))
        q, _ = np.linalg.qr(gauss)
        return [q[:, k] for k in range(self._n)]

    def state_value(self, param, coords) -> float:
        mat = self._matrix_from_coords(np.asarray(coords, dtype=float))
        vec = self._unit_vector(param)
        return float(np.real(np.vdot(vec, mat @ vec)))

    def native_pairing(self, ca, cb) -> float:
        a = self._matrix_from_coords(np.asarray(ca, dtype=float))
        b = self._matrix_from_coords(np.asarray(cb, dtype=float))
        return float(np.real(np.trace(a @ b)))


class SymMatrixModel(_MatrixModel):
    kind = "sym"
    _complex = False

    @property
    def ambient_dim(self) -> int:
        return self._n * (self._n + 1) // 2

    def matrix_coords(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=float)
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        n = self._n
        coords = np.empty(mat.shape[:-2] + (self.ambient_dim,))
        coords[..., :n] = np.diagonal(mat, axis1=-2, axis2=-1)
        coords[..., n:] = mat[..., self._iu[0], self._iu[1]]
        return coords

    def _matrix_from_coords(self, coords: np.ndarray) -> np.ndarray:
        n = self._n
        mat = np.zeros((n, n))
        mat[self._diag] = coords[:n]
        mat[self._iu] = coords[n:]
        mat[(self._iu[1], self._iu[0])] = coords[n:]
        return mat


class HermMatrixModel(_MatrixModel):
    kind = "herm"
    _complex = True

    @property
    def ambient_dim(self) -> int:
        return self._n * self._n

    def matrix_coords(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=complex)
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2).conj())
        n = self._n
        coords = np.empty(mat.shape[:-2] + (self.ambient_dim,))
        coords[..., :n] = np.diagonal(mat, axis1=-2, axis2=-1).real
        upper = mat[..., self._iu[0], self._iu[1]]
        coords[..., n::2] = upper.real
        coords[..., n + 1 :: 2] = upper.imag
        return coords

    def _matrix_from_coords(self, coords: np.ndarray) -> np.ndarray:
        n = self._n
        mat = np.zeros((n, n), dtype=complex)
        mat[self._diag] = coords[:n]
        upper = coords[n::2] + 1j * coords[n + 1 :: 2]
        mat[self._iu] = upper
        mat[(self._iu[1], self._iu[0])] = upper.conj()
        return mat
