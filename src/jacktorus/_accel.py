"""Numeric kernels of the torus-sampling verifiers, in numpy.

Phase sums over an index set, eigenvalues of a Hermitian matrix (LAPACK,
through ``np.linalg.eigvalsh``) and RK4 transport of the connection as
products of per-step propagator matrices.
"""

from __future__ import annotations

import numpy as np

# RK4 steps whose propagators are built at once.  Building a whole path's
# propagators in one array raises the peak memory of a 20000-step transport
# by a fifth; blocks of this size keep it flat at no cost in speed.
_BLOCK = 256

# Point rows and terms of each GEMM in phase_matrix_sum.  With OpenBLAS the
# floats of a GEMM row depend on the product's shape (its row count too), and
# those of a long product on the BLAS thread count; products of this one shape,
# summed in order, make a point's floats those of any block it is in, at any
# thread count.
_ROWS = 32
_TERMS = 128


def phase_matrix_sum(gammas, mats, theta) -> np.ndarray:
    """sum_k exp(i <gamma_k, theta>) mats[k], at one point or at a block of points.

    mats is a real stack of K (d, d) matrices, and gammas is an integer (K, N)
    array closed under negation in reverse order (gammas[::-1] == -gammas, as
    enumerate_Z lists an index set); anything else raises ValueError.  theta of
    shape (N,) gives a (d, d) matrix; theta of shape (P, N) gives the (P, d, d)
    stack of the sums at its rows.  An empty index set sums to zero matrices.

    A phase is the product of N entries of the point's power table
    x_j^m = exp(i m theta_j), |m| <= max |gamma|; the phases of the first
    (K + 1) // 2 terms are computed once per call, and that of -gamma is the
    conjugate of that of gamma.  The sum is one real GEMM per 128 terms of the
    cosine and sine rows of 32 points against mats as (K, d*d), summed in order;
    each GEMM's operand is written into one reused buffer just before it runs,
    so past the phases the working memory does not grow with K.  Every product
    has that shape, so a point's floats do not depend on the block it is in or
    on the BLAS thread count.  With u = 2**-53, the real and the
    imaginary part of entry (a, b) are each within
        u * sum_k |mats[k, a, b]| * (K + 6 N + sum_j |gamma_kj theta_j|)
    of the exact sum: a table entry is off by u (|m theta_j| + 3), each of the
    N - 1 complex products by 2.25 u, and a GEMM entry by K u sum_k |c_k a_k|.
    """
    g = np.asarray(gammas, np.int64)
    mats = np.asarray(mats)
    if np.iscomplexobj(mats):
        raise ValueError("phase_matrix_sum needs real coefficient matrices")
    if not np.array_equal(g[::-1], -g):
        raise ValueError("phase_matrix_sum needs gammas closed under negation in reverse order")
    theta = np.asarray(theta, np.float64)
    block = np.atleast_2d(theta)
    k = len(g)
    if len(mats) != k:
        raise ValueError(f"phase_matrix_sum needs one matrix per index, got {len(mats)} matrices for {k} indices")
    if not k:
        return np.zeros(theta.shape[:-1] + mats.shape[1:], np.complex128)
    h = (k + 1) // 2
    # padded to whole groups of rows before any arithmetic: numpy's complex
    # product rounds a one-element array unlike a longer one
    padded = np.zeros((-(-len(block) // _ROWS) * _ROWS, block.shape[1]))
    padded[: len(block)] = block
    top = int(np.abs(g).max(initial=0))
    up = np.exp(1j * (np.arange(top + 1) * padded[:, :, None]))
    x = np.concatenate([up[:, :, :0:-1].conj(), up], axis=2)  # x[p, j, top + m] = x_j^m
    phases = x[:, 0, g[:h, 0] + top]
    for j in range(1, g.shape[1]):
        phases *= x[:, j, g[:h, j] + top]
    half = phases.reshape(-1, _ROWS, h)
    # the operand of the GEMM of terms t..e-1: lhs[q, :32] the cosines of group q's points, lhs[q, 32:]
    # their sines; term c >= h mirrors term k - 1 - c, the phase of its negation
    lhs = np.empty((len(half), 2 * _ROWS, _TERMS))
    flat = mats.reshape(k, -1)
    for t in range(0, k, _TERMS):
        e = min(t + _TERMS, k)
        own, mirror = half[..., t : min(e, h)], half[..., k - e : k - max(t, h)][..., ::-1]
        m = own.shape[-1]
        lhs[:, :_ROWS, :m], lhs[:, _ROWS:, :m] = own.real, own.imag
        lhs[:, :_ROWS, m : e - t], lhs[:, _ROWS:, m : e - t] = mirror.real, -mirror.imag
        part = lhs[..., : e - t] @ flat[t:e]
        acc = part if t == 0 else np.add(acc, part, out=acc)
    out = acc[:, :_ROWS].astype(np.complex128).reshape((len(padded),) + mats.shape[1:])
    out.imag = acc[:, _ROWS:].reshape(out.shape)
    return out[: len(block)] if theta.ndim == 2 else out[0]


def phase_sum(gammas, theta) -> complex:
    """sum_k exp(i <gamma_k, theta>)."""
    return complex(np.exp(1j * (np.asarray(gammas, np.float64) @ np.asarray(theta, np.float64))).sum())


def jacobi_eigvals(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(np.asarray(a, np.complex128))


def _product(mats: np.ndarray) -> np.ndarray:
    """mats[0] @ mats[1] @ ... @ mats[-1], multiplying neighbours pairwise."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        paired = mats[0:even:2] @ mats[1:even:2]
        mats = paired if even == len(mats) else np.concatenate([paired, mats[-1:]])
    return mats[0]


def rk4_transport(theta0, theta1, steps, kappa, gconst, pair_mats, pair_i, pair_j):
    """Transport L from the identity along the angle-space segment, dL = kappa L conn.

    pair_mats[p] is the transposition matrix for the pair (pair_i[p], pair_j[p]);
    the connection is
        conn = sum_p pair_mats[p] (dx_i - dx_j)/(x_i - x_j) - gconst (sum_j dx_j/x_j) I,
    where sum_j dx_j/x_j = i sum_j dtheta_j.  With x_j = exp(i theta_j),
        (dx_i - dx_j)/(x_i - x_j) = i (dtheta_i + dtheta_j)/2
                                    + (dtheta_i - dtheta_j)/2 cot((theta_i - theta_j)/2),
    so A = kappa conn is a constant matrix plus, for the moving pairs only (those
    with dtheta_i != dtheta_j), the real rate kappa (dtheta_i - dtheta_j)/2 cot(...)
    times pair_mats[p].  A block of steps takes A at all its times from one real
    product of those rates with the moving pairs' matrices, as (m, 2 d*d) floats
    (real and imaginary parts interleaved).

    The field is linear in L, so the classical RK4 step is L -> L P_k, where
        P_k = I + h/6 (A0 + 2 B2 + 2 B3 + B4),   B2 = (I + h/2 A0) A1,
        B3 = (I + h/2 B2) A1,   B4 = (I + h B3) A2,
    and A0, A1, A2 are A at t_k, t_k + h/2 and t_k + h.
    """
    theta0 = np.asarray(theta0, np.float64)
    dtheta = np.asarray(theta1, np.float64) - theta0
    pair_mats = np.asarray(pair_mats, np.complex128)
    d = pair_mats.shape[1]
    eye = np.eye(d, dtype=np.complex128)
    half_sum = (dtheta[pair_i] + dtheta[pair_j]) / 2
    half_diff = (dtheta[pair_i] - dtheta[pair_j]) / 2
    const = np.tensordot(1j * kappa * half_sum, pair_mats, 1) - (1j * kappa * gconst * dtheta.sum()) * eye
    moving = np.flatnonzero(half_diff)
    rate = half_diff[moving]
    half_angle = (theta0[pair_i] - theta0[pair_j])[moving] / 2
    flat = np.ascontiguousarray(pair_mats[moving]).reshape(len(moving), d * d).view(np.float64)
    h = 1.0 / steps
    el = eye
    for k0 in range(0, steps, _BLOCK):
        nb = min(_BLOCK, steps - k0)
        t = (2 * k0 + np.arange(2 * nb + 1)) * (h / 2)
        angle = half_angle + t[:, None] * rate
        f = kappa * rate * np.cos(angle) / np.sin(angle)
        a = const + (f @ flat).view(np.complex128).reshape(-1, d, d)
        a0, a1, a2 = a[0:-1:2], a[1::2], a[2::2]
        b2 = a1 + (h / 2) * a0 @ a1
        b3 = a1 + (h / 2) * b2 @ a1
        b4 = a2 + h * b3 @ a2
        el = el @ _product(eye + (h / 6) * (a0 + 2 * b2 + 2 * b3 + b4))
    return el
