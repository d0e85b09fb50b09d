"""Reference readers of CSR matrices: the reader of a CSR matrix's diagonals,
which the operators' products and the steppers' band readers are compared
against, and the CSR readers the operators' diagonal readers replaced; and
the identity and the scalar multiple the tests build their operators from."""

import math

import numpy as np
import scipy.sparse as sp

from gauge_hamilton import LinearOperator


def identity_operator(grid) -> LinearOperator:
    """The identity on ``grid``: its one diagonal, the main one, all ones."""
    return LinearOperator(grid, (np.zeros(1, dtype=np.intp), np.ones((1, grid.n_points))))


def scaled(op: LinearOperator, c: float) -> LinearOperator:
    """``c`` times ``op``: each entry of its diagonals times c, +0 where a
    product vanishes."""
    offsets, data = op.diagonals
    product = data * float(c)
    product += 0.0   # -0 to +0
    return LinearOperator(op.grid, (offsets, product))


def csr_diagonals(m: sp.csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of the CSR matrix ``m`` on the ``rows`` it keeps (a
    boolean mask) as diagonals, in DIA layout: data[k, j] = m[j - offsets[k],
    j], the offsets ascending, the main diagonal always among them.

    One pass over the CSR arrays, in any order: duplicate entries are summed
    in the order they are stored, and the entries left out (stored zeros and
    the rows not kept) are sent to a spare diagonal that is dropped.  ``m``
    is never copied, sorted or written.  Returns (offsets, data).
    """
    n = m.shape[0]
    counts = np.diff(m.indptr)
    # each entry's offset shifted by n, or 0, the spare slot
    key = m.indices + np.arange(n, 0, -1).repeat(counts)
    key *= rows.repeat(counts) & (m.data != 0.0)
    present = np.zeros(2 * n, dtype=bool)
    present[key] = True
    present[0], present[n] = False, True   # the main diagonal is always read
    # slot k > 0 holds the k-th offset present, slot 0 the entries left out
    slot = present.cumsum()[key] * n + m.indices
    offsets = present.nonzero()[0] - n
    data = np.bincount(slot, weights=m.data, minlength=(offsets.size + 1) * n)
    return offsets, data.reshape(-1, n)[1:]


def csr_hermiticity_defect(m: sp.csr_matrix, keep: np.ndarray) -> float:
    """max |M - M^T| over the rows and columns ``keep`` marks, read off the
    CSR matrix as ``hermiticity_defect`` did before it read the diagonals."""
    idx = np.flatnonzero(keep)
    sub = m[idx][:, idx]
    diff = (sub - sub.T).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def csr_bs_limit_residual(m2: sp.csr_matrix, m1: sp.csr_matrix, nx: int, ny: int) -> float:
    """The bs-limit check's residual walked row by row (``getrow``) over the
    CSR matrices of the 2D operator ``m2`` on an nx by ny grid and the 1D
    operator ``m1`` on its x axis: every interior 2D row summed exactly over
    its y neighbours against the 1D row."""
    residual = 0.0
    for i in range(1, nx - 1):
        row = m1.getrow(i)
        row1 = dict(zip(row.indices.tolist(), row.data.tolist()))
        for j in range(1, ny - 1):
            row2 = m2.getrow(i * ny + j)
            groups = {}
            for col, val in zip(row2.indices.tolist(), row2.data.tolist()):
                groups.setdefault(col // ny, []).append(val)
            collapsed = {xi: math.fsum(vals) for xi, vals in groups.items()}
            # a list, so a pair of empty rows (no built operator has one) adds nothing
            residual = max([residual, *(abs(collapsed.get(c, 0.0) - row1.get(c, 0.0))
                                        for c in set(collapsed) | set(row1))])
    return residual
