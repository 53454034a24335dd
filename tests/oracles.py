"""Reference helpers shared by the tests; the package itself never needs them."""

import numpy as np

from subdiff.sparse import SparseMatrix


def add_scaled(A: SparseMatrix, B: SparseMatrix, a: float, b: float) -> SparseMatrix:
    """a*A + b*B for matrices sharing one sparsity pattern."""
    if not (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)):
        raise ValueError("add_scaled requires identical sparsity patterns")
    return SparseMatrix(n=A.n, indptr=A.indptr, indices=A.indices,
                        data=a * A.data + b * B.data)
