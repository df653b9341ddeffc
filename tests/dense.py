"""Dense reference tensors for the tests: the d^k moment built from row-wise
Kronecker powers, and the conversion of a dense symmetric tensor to the Sym²
form that ``cltcert.tensors`` stores."""

import itertools
import math

import numpy as np

from cltcert.tensors import MomentTensor


def symmetrize(data):
    k = data.ndim
    out = np.zeros_like(data)
    for perm in itertools.permutations(range(k)):
        out += np.transpose(data, perm)
    return out / math.factorial(k)


def kron_rows(x, power):
    """Row-wise Kronecker power (power ≥ 1): row i is x_i^{⊗power} flattened
    in C order, so that it pairs with a C-order unfolding of a dense
    tensor."""
    out = x
    for _ in range(power - 1):
        out = (out[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)
    return out


def dense_moment(x, k):
    """n^{-1} Σ_i x_i^{⊗k} as a dense (d,)*k array: the d^⌊k/2⌋×d^⌈k/2⌉
    unfolding is one GEMM of Kronecker powers."""
    a, b = k // 2, k - k // 2
    unfolded = kron_rows(x, a).T @ kron_rows(x, b)
    return (unfolded / x.shape[0]).reshape((x.shape[1],) * k)


def sym2_form(dense):
    """The MomentTensor of a dense symmetric order-3 or order-4 tensor: C with
    C[a, p] = w_p·A[a, i_p, j_p], or G with G[p, q] = w_p·w_q·A[i_p, j_p,
    i_q, j_q], over the pairs p = (i_p ≤ j_p) of ``np.triu_indices`` and
    w_p = √2 off the diagonal."""
    k, d = dense.ndim, dense.shape[0]
    iu, ju = np.triu_indices(d)
    w = np.where(iu == ju, 1.0, math.sqrt(2.0))
    if k == 3:
        data = dense[:, iu, ju] * w
    else:
        data = dense[iu, ju][:, iu, ju] * np.outer(w, w)
    return MomentTensor(k, d, data)
