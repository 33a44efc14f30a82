"""The reference CSR layout of a dense matrix, for tests to compare the
arrays features.vectorize and attribution.kernel_explain emit against,
and to store dense matrices as features.CSR reads them."""

from __future__ import annotations

import numpy as np


def to_csr(M: np.ndarray) -> dict[str, np.ndarray]:
    """CSR arrays of a dense matrix; every entry other than +0.0 is kept,
    so features.CSR.of(to_csr(M)).dense() is M bit for bit."""
    rows, cols = np.nonzero((M != 0.0) | np.signbit(M))
    indptr = np.zeros(M.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
    return {"shape": np.array(M.shape, dtype=np.int64), "indptr": indptr,
            "indices": cols.astype(np.int64), "data": M[rows, cols]}
