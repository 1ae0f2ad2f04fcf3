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
The spectral kernel (``eigh``), ``atom_params_from_coords`` and the two
oracles (Cholesky, SVD) gather the coordinates into a matrix with one
precomputed index array.
"""

from __future__ import annotations

import numpy as np

from ..elements import Element, Tolerance
from ..errors import (ConeProjectionError, DimensionMismatchError, InputError, NotAtomError,
                      UnnormalizedParamError)
from .base import Model, normal_draws, row_norms


def _eigenspace_bases(projectors: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Orthonormal bases, reproducible across runs, of the ranges of a stack
    (C, n, n) of projectors of non-increasing ranks (C,): a stack
    (C, ranks[0], n) of each range's vectors as rows, a range of lower rank
    padded with zero rows.

    One sweep serves every range.  The columns of each projector are
    orthogonalized in index order (twice, for stability) against the vectors
    kept so far; a column of norm at most 1e-6 is skipped, and each kept
    vector is phase-fixed so that its first significant component is real
    positive.  Each column index is one pass over the ranges that still lack
    vectors; until a column is skipped, those are the first ones, and each
    has one vector per column so far.  Every row a pass works on is
    contiguous, so that each dot product and norm adds up as for one vector,
    whatever the other ranges.
    """
    count, n = len(ranks), projectors.shape[-1]
    columns = np.ascontiguousarray(np.moveaxis(projectors, 2, 0))  # column i of each, as rows
    basis = np.zeros((ranks[0], count, n), dtype=projectors.dtype)  # vector k of each in row k
    kept = np.zeros(count, dtype=np.intp)
    lockstep = True
    for i in range(n):
        todo = slice(0, np.count_nonzero(ranks > i)) if lockstep else np.flatnonzero(kept < ranks)
        w = columns[i, todo]
        if not len(w):
            break
        have = kept[todo]
        least, most = (i, i) if lockstep else (have.min(), have.max())
        for k in list(range(most)) * 2:
            v = basis[k, todo]
            step = w - v * np.vecdot(v, w)[:, np.newaxis]
            # a row with at most k vectors so far keeps its w
            w = step if k < least else np.where((have > k)[:, np.newaxis], step, w)
        norms = row_norms(w)
        keep = ~(norms <= 1e-6)
        if not keep.all():
            lockstep = False
            todo, w, norms = np.arange(count)[todo][keep], w[keep], norms[keep]
        w = w / norms[:, np.newaxis]
        lead = w[np.arange(len(w)), (np.abs(w) > 1e-8).argmax(axis=1)]
        basis[i if lockstep else kept[todo], todo] = w / (lead / np.abs(lead))[:, np.newaxis]
        kept[todo] += 1
    if (kept != ranks).any():
        raise RuntimeError("projector basis extraction failed")  # pragma: no cover
    return np.swapaxes(basis, 0, 1)


class _MatrixModel(Model):
    """Common spectral kernel for the two matrix backends."""

    _complex = False

    def __init__(self, n: int):
        if n < 1:
            raise InputError("matrix model needs n >= 1")
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

    # subclasses provide _matrix_from_coords (a stack (..., d) of coordinate
    # vectors to a stack of matrices), matrix_coords (a stack
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
        """``coords``, a coordinate vector or a stack (..., d) of them."""
        if coords.shape[-1:] != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"expected {self.ambient_dim} coordinates, got shape {coords.shape}")
        return coords

    def to_matrix(self, a: Element | np.ndarray) -> np.ndarray:
        """The matrix of an element of this model, or of a coordinate vector
        or a stack (..., d) of them."""
        if isinstance(a, Element):
            return self._matrix_from_coords(self.check_element(a).coords)
        return self._matrix_from_coords(np.asarray(a, dtype=float))

    def from_matrix(self, mat: np.ndarray) -> Element:
        return self.element(self.matrix_coords(mat))

    def order_unit_coords(self) -> np.ndarray:
        return self.matrix_coords(np.eye(self._n))

    def _spectra(self, stack, tol: Tolerance):
        """Of each row of a (K, d) stack: the eigenvalues sorted descending,
        each cluster replaced by its mean; the eigenvectors as columns in
        eigh's ascending order; the permutation sorting them like the
        eigenvalues, or None where that is the reversal; and the rank of each
        cluster, row after row, or None where every cluster is one
        eigenvalue.  A gap above ``eig_cluster`` times the spectral diameter
        ends a cluster.  Gaps and means are of halves, which cannot overflow
        and are exact above the subnormal range."""
        eigvals, eigvecs = np.linalg.eigh(self._matrix_from_coords(stack))
        if (eigvals[:, :-1] < eigvals[:, 1:]).all():
            order = None  # strictly ascending rows: descending is the reversal
            eigvals = eigvals[:, ::-1].copy()
        else:  # a tie or a NaN: the stable sort keeps eigh's order within a tie
            order = (-eigvals).argsort(axis=1, kind="stable")
            eigvals = eigvals[np.arange(len(order))[:, np.newaxis], order]
        half = 0.5 * eigvals
        threshold = tol.eig_cluster * (half[:, :1] - half[:, -1:])
        starts = np.ones(eigvals.shape, dtype=bool)
        starts[:, 1:] = half[:, :-1] - half[:, 1:] > threshold
        if starts.all():
            return eigvals, eigvecs, order, None
        # every row starts a cluster at column 0, so counting the starts
        # through the flattened stack numbers each row's clusters apart
        ids = starts.cumsum() - 1
        ranks = np.bincount(ids)
        # below 8 terms np.mean adds left to right from +0.0, as bincount
        # does; from 8 terms on it adds pairwise, so those clusters keep it
        means = 2.0 * (np.bincount(ids, half.ravel()) / ranks)
        if ranks.max() >= 8:
            for rank in np.unique(ranks[ranks >= 8]).tolist():
                at = (ranks.cumsum() - ranks)[ranks == rank, np.newaxis] + np.arange(rank)
                means[ranks == rank] = 2.0 * np.mean(half.ravel()[at], axis=1)
        eigvals = np.where(ranks[ids] > 1, means[ids], eigvals.ravel()).reshape(eigvals.shape)
        return eigvals, eigvecs, order, ranks

    def _eigenvalues(self, stack, tol: Tolerance) -> np.ndarray:
        return self._spectra(stack, tol)[0]

    def _frames(self, stack, tol: Tolerance):
        eigvals, eigvecs, order, ranks = self._spectra(stack, tol)
        count, n, m = eigvecs.shape
        # the columns of each row's eigenvectors in that row's order
        eigvecs = (eigvecs[..., ::-1] if order is None else
                   eigvecs[np.arange(count)[:, np.newaxis, np.newaxis], np.arange(n)[:, np.newaxis],
                           order[:, np.newaxis]])
        if ranks is not None:
            # the clusters of more than one eigenvalue, by rank from the highest
            multi = np.flatnonzero(ranks > 1)
            multi = multi[(-ranks[multi]).argsort(kind="stable")]
            spans = ranks[multi]
            rows, cols = np.divmod((ranks.cumsum() - ranks)[multi], m)
            # one matmul per rank, since its inner dimension can change the bits
            projectors = np.empty((len(multi), n, n), dtype=eigvecs.dtype)
            edges = [0, *(np.flatnonzero(spans[1:] != spans[:-1]) + 1).tolist(), len(multi)]
            for a, b in zip(edges[:-1], edges[1:]):
                vecs = eigvecs[rows[a:b, np.newaxis, np.newaxis], np.arange(n)[:, np.newaxis],
                               cols[a:b, np.newaxis, np.newaxis] + np.arange(spans[a])]
                projectors[a:b] = vecs @ np.swapaxes(vecs.conj(), 1, 2)
            inside = np.arange(spans[0]) < spans[:, np.newaxis]
            eigvecs[rows.repeat(spans), :, (cols[:, np.newaxis] + np.arange(spans[0]))[inside]] = \
                _eigenspace_bases(projectors, spans)[inside]
        return eigvals, self._rank_one_coords(np.swapaxes(eigvecs, 1, 2))

    def cone_oracle(self, coords, slack: float) -> bool:
        mat = self._matrix_from_coords(coords)
        shifted = mat + (slack + 1e-15) * np.eye(mat.shape[0])
        try:
            np.linalg.cholesky(shifted)
            return True
        except np.linalg.LinAlgError:
            return False

    def split_orthogonal_batch(self, stack, tol: Tolerance):
        # the top singular pair of a PSD matrix is its top eigenpair; plain
        # SVD (LAPACK gesdd) keeps the oracle independent of the eigh kernel.
        # On a C-contiguous stack, the stacked svd and matmul give each
        # matrix's own bits
        mats = np.ascontiguousarray(self._matrix_from_coords(stack))
        scale = np.maximum(np.trace(mats, axis1=1, axis2=2).real, 1e-30)
        v = np.linalg.svd(mats)[0][:, :, :1]  # (K, n, 1): the top singular vectors
        mv = (mats @ v)[:, :, 0]
        lam = np.vecdot(v[:, :, 0], mv).real
        residual = row_norms(mv - lam[:, np.newaxis] * v[:, :, 0])
        if np.any((lam <= 1e-12 * scale) | (residual > 1e-9 * scale)):
            raise ConeProjectionError("orthogonal-split oracle needs a cone element")
        heads = lam[:, np.newaxis, np.newaxis] * (v * np.swapaxes(v.conj(), 1, 2))
        rests = mats - heads
        single = row_norms(rests.reshape(len(rests), -1)) <= 1e-9 * scale
        return self.matrix_coords(heads), self.matrix_coords(rests), single

    def _vectors(self, params) -> np.ndarray:
        """The vectors (..., n) a stack of atom parameters holds; complex on
        herm, where real (re, im) pairs may come interleaved."""
        vecs = np.asarray(params)
        if not self._complex:
            return vecs.astype(float)
        if vecs.dtype.kind == "c":
            return vecs
        if vecs.shape[-1:] == (2 * self._n,):  # interleaved (re, im) pairs
            return vecs[..., 0::2] + 1j * vecs[..., 1::2]
        return vecs.astype(complex)

    def atom_coords_batch(self, params) -> np.ndarray:
        vecs = self._vectors(params)
        if vecs.shape[-1:] != (self._n,):
            raise UnnormalizedParamError(f"atom parameter must be a vector in dimension {self._n}")
        if np.any(np.abs(row_norms(vecs) - 1.0) > 1e-9):
            raise UnnormalizedParamError("atom parameter must be a unit vector")
        # a gather from a stack is not C-contiguous
        return np.ascontiguousarray(self._rank_one_coords(vecs))

    def atom_params_from_coords(self, stack) -> np.ndarray:
        # the stacked eigh gives each matrix's own bits; the top eigenvectors
        # are copied out so that each adds up as one vector downstream
        eigvals, eigvecs = np.linalg.eigh(self._matrix_from_coords(stack))
        rest = np.abs(eigvals[:, :-1]).max(axis=1, initial=0.0)
        if ((np.abs(eigvals[:, -1] - 1.0) > 1e-7) | (rest > 1e-7)).any():
            raise NotAtomError("matrix atoms are rank-one projections")
        return np.ascontiguousarray(eigvecs[:, :, -1])

    def _gaussians(self, rngs, shape: tuple) -> np.ndarray:
        """A standard normal array of ``shape`` from each generator, complex
        on herm with the real parts drawn first."""
        if self._complex:
            draws = normal_draws(rngs, (2,) + shape)
            return draws[:, 0] + 1j * draws[:, 1]
        return normal_draws(rngs, shape)

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        vecs = self._gaussians(rngs, (self._n,))
        return vecs / row_norms(vecs)[:, np.newaxis]

    def random_frame_params_batch(self, rngs) -> np.ndarray:
        # a stacked qr gives each matrix's qr bit for bit, real and imaginary
        # Gaussians drawn apart on herm; the frame is the columns of Q
        q, _ = np.linalg.qr(self._gaussians(rngs, (self._n, self._n)))
        return np.swapaxes(q, 1, 2)

    def state_values(self, params, coords) -> np.ndarray:
        atoms = self.atom_coords_batch(params)
        if atoms.shape != np.shape(coords):  # one vector per row
            raise UnnormalizedParamError(self._not_a_param)
        return self.native_pairings(atoms, coords)

    def native_pairings(self, stack_a, stack_b) -> np.ndarray:
        """tr(AB) of the matrices with coordinates in the rows; exactly
        symmetric, since the weights are 1 and 2."""
        return np.vecdot(np.asarray(stack_a, dtype=float) * self._weights, stack_b)


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
        return self._checked(coords)[..., self._gather]


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
        coords = self._checked(coords)
        padded = np.concatenate((coords, np.zeros(coords.shape[:-1] + (1,))), axis=-1)
        pairs = padded.take(self._gather, axis=-1) * self._signs
        return pairs.view(complex)[..., 0]
