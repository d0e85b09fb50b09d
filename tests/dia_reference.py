"""The reference reader of a CSR matrix's diagonals, which the operators'
products and the steppers' band readers are compared against."""

import numpy as np
import scipy.sparse as sp


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
