"""Matrix backends: real symmetric and complex Hermitian n x n matrices.

Coordinate layout (one serialization per model, exact round trip):
  - sym:  n diagonal entries, then the strict upper triangle row-major.
  - herm: n diagonal entries, then (re, im) pairs of the strict upper
          triangle row-major.

Atoms are rank-one projections; an atom parameter is a unit vector spanning
the range.

Pairings and atoms are formulas in the coordinates and build no matrix:
  - trace form: tr(AB) = sum_k w_k a_k b_k, with weight w_k = 1 on the n
    diagonal coordinates and 2 on every other one (on herm an off-diagonal
    entry gives 2 Re(a_ij conj(b_ij)) = 2 (re re' + im im')).  This is
    ``native_pairing``, and ``state_value`` is the same form at v v*; with
    weights 1 and 2 both are exactly symmetric.
  - rank one: v v* has diagonal coordinates |v_i|^2 and off-diagonal entries
    v_i conj(v_j) for i < j.
The spectral kernel (``eigh``), ``atom_param_from_coords`` and the two
oracles (Cholesky, SVD) gather the coordinates into a matrix with one
precomputed index array.
"""

from __future__ import annotations

import numpy as np

from ..elements import Element, Tolerance
from ..errors import (
    ConeProjectionError,
    DimensionMismatchError,
    NotAtomError,
    UnnormalizedParamError,
)
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


_ZERO = np.zeros(1)
_ZERO.setflags(write=False)


class _MatrixModel(Model):
    """Common spectral kernel for the two matrix backends."""

    _complex = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matrix model needs n >= 1")
        self._n = int(n)
        # the matrix entries that carry coordinates, in coordinate order: the
        # diagonal, then the strict upper triangle row-major
        iu = np.triu_indices(self._n, k=1)
        self._rows = np.concatenate((np.arange(self._n), iu[0]))
        self._cols = np.concatenate((np.arange(self._n), iu[1]))
        self._weights = np.full(self.ambient_dim, 2.0)
        self._weights[: self._n] = 1.0

    @property
    def n(self) -> int:
        return self._n

    @property
    def info_capacity(self) -> int:
        return self._n

    @property
    def param_items(self) -> tuple:
        return (("n", self._n),)

    # subclasses provide _matrix_from_coords, matrix_coords (a stack
    # (..., n, n) of matrices to a stack of coordinate vectors) and
    # _rank_one_coords (a stack (..., n) of vectors v to the coordinates of
    # v v*, equal bit for bit to matrix_coords of the outer products)

    def _symmetric_index(self, values) -> np.ndarray:
        """(n, n) array holding ``values[k]`` at the k-th coordinate-carrying
        entry and at its mirror image."""
        index = np.empty((self._n, self._n), dtype=np.intp)
        index[self._rows, self._cols] = values
        index[self._cols, self._rows] = values
        return index

    def _checked(self, coords: np.ndarray) -> np.ndarray:
        if coords.shape != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"expected {self.ambient_dim} coordinates, got shape {coords.shape}")
        return coords

    def to_matrix(self, a: Element | np.ndarray) -> np.ndarray:
        coords = a.coords if isinstance(a, Element) else np.asarray(a, dtype=float)
        return self._matrix_from_coords(coords)

    def from_matrix(self, mat: np.ndarray) -> Element:
        return self.element(self.matrix_coords(mat))

    def order_unit_coords(self) -> np.ndarray:
        return self.matrix_coords(np.eye(self._n))

    def _spectrum(self, coords, tol: Tolerance):
        """Eigenvalues sorted descending with each cluster replaced by its
        mean, the eigenvectors as columns in eigh's ascending order, the
        permutation that sorts them like the eigenvalues, and the cluster
        slices."""
        mat = self._matrix_from_coords(np.asarray(coords, dtype=float))
        eigvals, eigvecs = np.linalg.eigh(mat)
        order = np.argsort(-eigvals, kind="stable")
        eigvals = eigvals[order]
        clusters = cluster_descending(eigvals, tol.eig_cluster)
        for cl in clusters:
            if cl.stop - cl.start > 1:
                # the mean of the halves cannot overflow; halving is exact
                eigvals[cl] = 2.0 * np.mean(0.5 * eigvals[cl])
        return eigvals, eigvecs, order, clusters

    def eigenvalues_coords(self, coords, tol: Tolerance) -> np.ndarray:
        return self._spectrum(coords, tol)[0]

    def decompose_coords(self, coords, tol: Tolerance):
        eigvals, eigvecs, order, clusters = self._spectrum(coords, tol)
        eigvecs = eigvecs[:, order]
        # a rank-one cluster keeps its eigenvector; only a degenerate one
        # needs a reproducible basis of its range
        for cl in clusters:
            rank = cl.stop - cl.start
            if rank > 1:
                basis = eigvecs[:, cl]
                eigvecs[:, cl] = np.column_stack(
                    _deterministic_basis(basis @ basis.conj().T, rank))
        return list(zip(eigvals.tolist(), self._rank_one_coords(eigvecs.T)))

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
        return self._rank_one_coords(self._unit_vector(param))

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

    def _trace_form(self, ca, cb) -> float:
        """tr(AB) of the matrices with coordinates ``ca`` and ``cb``; exactly
        symmetric, since the weights are 1 and 2."""
        return float(np.dot(np.asarray(ca, dtype=float) * self._weights,
                            np.asarray(cb, dtype=float)))

    def state_value(self, param, coords) -> float:
        return self._trace_form(self._rank_one_coords(self._unit_vector(param)), coords)

    def native_pairing(self, ca, cb) -> float:
        return self._trace_form(ca, cb)


class SymMatrixModel(_MatrixModel):
    kind = "sym"
    _complex = False

    def __init__(self, n: int):
        super().__init__(n)
        self._gather = self._symmetric_index(np.arange(self.ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self._n * (self._n + 1) // 2

    def matrix_coords(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=float)
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        return mat[..., self._rows, self._cols]

    def _rank_one_coords(self, vecs: np.ndarray) -> np.ndarray:
        return vecs[..., self._rows] * vecs[..., self._cols]

    def _matrix_from_coords(self, coords: np.ndarray) -> np.ndarray:
        return self._checked(coords)[self._gather]


class HermMatrixModel(_MatrixModel):
    kind = "herm"
    _complex = True

    def __init__(self, n: int):
        super().__init__(n)
        n = self._n
        upper = n + 2 * np.arange(len(self._rows) - n)
        # (re, im) coordinate of every entry; the imaginary part of a diagonal
        # entry reads the zero appended after the coordinates
        self._gather = np.stack(
            (self._symmetric_index(np.concatenate((np.arange(n), upper))),
             self._symmetric_index(np.concatenate((np.full(n, self.ambient_dim), upper + 1)))),
            axis=-1)
        self._signs = np.ones((n, n, 2))
        self._signs[self._cols[n:], self._rows[n:], 1] = -1.0  # below the diagonal

    @property
    def ambient_dim(self) -> int:
        return self._n * self._n

    def _coords_of_entries(self, entries: np.ndarray) -> np.ndarray:
        """Coordinates from the coordinate-carrying entries of a Hermitian
        matrix: the diagonal's real parts, then the (re, im) pairs."""
        entries = np.ascontiguousarray(entries)  # so that each entry views as a pair
        return np.concatenate((entries[..., : self._n].real, entries[..., self._n :].view(float)),
                              axis=-1)

    def matrix_coords(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=complex)
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2).conj())
        return self._coords_of_entries(mat[..., self._rows, self._cols])

    def _rank_one_coords(self, vecs: np.ndarray) -> np.ndarray:
        lo, hi = vecs[..., self._rows], vecs[..., self._cols]
        # v_i conj(v_j) averaged with conj(v_j conj(v_i)), as matrix_coords
        # averages a matrix with its adjoint: complex products may be fused,
        # so the two can differ in the last bit
        return self._coords_of_entries(0.5 * (lo * hi.conj() + (hi * lo.conj()).conj()))

    def _matrix_from_coords(self, coords: np.ndarray) -> np.ndarray:
        # one gather of every entry's (re, im) pair, the imaginary parts below
        # the diagonal negated, read as complex numbers
        pairs = np.concatenate((self._checked(coords), _ZERO))[self._gather] * self._signs
        return pairs.view(complex)[..., 0]
