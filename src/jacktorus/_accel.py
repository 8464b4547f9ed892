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


def phase_matrix_sum(gammas, mats, theta) -> np.ndarray:
    """sum_k exp(i <gamma_k, theta>) mats[k], at one point or at a block of points.

    mats is a real (K, d, d) stack, and gammas is closed under negation in
    reverse order (gammas[::-1] == -gammas, as enumerate_Z lists an index set);
    anything else raises ValueError.  theta of shape (N,) gives a (d, d)
    matrix; theta of shape (P, N) gives the (P, d, d) stack of the sums at its
    rows.

    The sum is done in real arithmetic: one exp per +-gamma pair, since
    exp(-i phi) = conj(exp(i phi)), and two real einsums, one for the cosines
    and one for the sines.  For d >= 2 (every shape the package accepts) each
    float is bit for bit that of the complex sum over all K phases against the
    stack cast to complex, and a row's floats are those of a call with that row
    alone.
    """
    g = np.asarray(gammas, np.float64)
    mats = np.asarray(mats)
    if np.iscomplexobj(mats):
        raise ValueError("phase_matrix_sum needs real coefficient matrices")
    if not np.array_equal(g[::-1], -g):
        raise ValueError("phase_matrix_sum needs gammas closed under negation in reverse order")
    theta = np.asarray(theta, np.float64)
    block = np.atleast_2d(theta)
    k = len(g)
    h = (k + 1) // 2
    # the per-point product g @ theta, stacked over the rows; block @ g.T
    # rounds the phases differently from grade 2 up.  Only the first half: the
    # product and exp are odd in gamma bit for bit, sign bits included.
    phases = 1j * (g[None, :h] @ block[:, :, None])[..., 0]
    np.exp(phases, out=phases)
    # mirror[:, j] is the conjugate of exp(i <gamma_{h+j}, theta>)
    mirror = phases[:, : k - h][:, ::-1]
    c = np.concatenate([phases.real, mirror.real], axis=1)
    s = np.concatenate([phases.imag, -mirror.imag], axis=1)
    # (c + is) a = (c a, s a) exactly, and each real einsum sums over k in the
    # order of the complex one.  einsum, not a BLAS product: BLAS sums over k
    # in an order of its own (blocked, and split by thread), so its floats
    # would not be those of the complex sum.
    out = np.empty((len(block),) + mats.shape[1:], np.complex128)
    out.real = np.einsum("pk,kab->pab", c, mats)
    out.imag = np.einsum("pk,kab->pab", s, mats)
    return out if theta.ndim == 2 else out[0]


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
    where sum_j dx_j/x_j = i sum_j dtheta_j.  The field is linear in L, so the
    classical RK4 step with A = kappa conn is L -> L P_k, where
        P_k = I + h/6 (A0 + 2 B2 + 2 B3 + B4),   B2 = (I + h/2 A0) A1,
        B3 = (I + h/2 B2) A1,   B4 = (I + h B3) A2,
    and A0, A1, A2 are A at t_k, t_k + h/2 and t_k + h.
    """
    theta0 = np.asarray(theta0, np.float64)
    dtheta = np.asarray(theta1, np.float64) - theta0
    pair_mats = np.asarray(pair_mats, np.complex128)
    eye = np.eye(pair_mats.shape[1], dtype=np.complex128)
    shift = kappa * gconst * 1j * dtheta.sum() * eye
    h = 1.0 / steps
    el = eye
    for k0 in range(0, steps, _BLOCK):
        nb = min(_BLOCK, steps - k0)
        t = (2 * k0 + np.arange(2 * nb + 1)) * (h / 2)
        x = np.exp(1j * (theta0 + t[:, None] * dtheta))
        dx = 1j * dtheta * x
        w = (dx[:, pair_i] - dx[:, pair_j]) / (x[:, pair_i] - x[:, pair_j])
        a = np.einsum("tp,pab->tab", kappa * w, pair_mats) - shift
        a0, a1, a2 = a[0:-1:2], a[1::2], a[2::2]
        b2 = a1 + (h / 2) * a0 @ a1
        b3 = a1 + (h / 2) * b2 @ a1
        b4 = a2 + h * b3 @ a2
        el = el @ _product(eye + (h / 6) * (a0 + 2 * b2 + 2 * b3 + b4))
    return el
