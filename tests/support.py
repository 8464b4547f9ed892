"""Helpers shared by the tests: shape lists, the triangular order, an ungated parameter, the partition norm, E-factors,
the affine rotation, termwise Laurent arithmetic, the termwise Dunkl and Cherednik-Dunkl operators,
the termwise build of the Jack polynomials, the dense Gram matrix, the exact limb product of integer matrices,
the one-shot phase sum and the grade stack built one index at a time.

The package computes none of these; the tests use them to enumerate cases
and as independent formulas to check the package against.
"""

from fractions import Fraction
from itertools import accumulate

import numpy as np

from jacktorus import _accel, perms, tableaux
from jacktorus.compositions import Vec, _partitions, canonicalize, enumerate_Z, rank_perm, sort_desc
from jacktorus.errors import SpectralCollision
from jacktorus.laurent import VVLaurent, group_action
from jacktorus.scalars import KappaParam
from jacktorus.tableaux import RSYT, Partition, Scaled, total
from jacktorus.torusform import nsjp_norm
from jacktorus.ybgraph import spectral_vector


def valid_shapes(n: int) -> list[Partition]:
    """All partitions of n with at least two rows and two columns."""
    return [Partition(p) for p in _partitions(n, n, n) if len(p) >= 2 and p[0] >= 2]


def unchecked_kappa(p: int, q: int, shape: tuple[int, ...]) -> KappaParam:
    """Bypass the pole gate; used to demonstrate in-recurrence pole detection."""
    part = Partition(shape)
    value = Fraction(p, q)
    return KappaParam(value, part.parts, psd_range=abs(value) < Fraction(1, part.max_hook))


def dominance_lt(alpha: Vec, beta: Vec) -> bool:
    """Partial-sum comparison: every prefix sum of alpha <= that of beta, alpha != beta."""
    if alpha == beta:
        return False
    return all(a <= b for a, b in zip(accumulate(alpha), accumulate(beta)))


def triangular_lt(alpha: Vec, beta: Vec) -> bool:
    """The strict triangular order used by the leading-term structure."""
    if sum(alpha) != sum(beta) or alpha == beta:
        return False
    ap, bp = sort_desc(alpha), sort_desc(beta)
    if ap == bp:
        return dominance_lt(alpha, beta)
    return dominance_lt(ap, bp)


def norm_partition(lam, t: RSYT, kappa: KappaParam) -> Fraction:
    """Squared torus norm of the Jack polynomial at a partition label.

    <T,T>_0 * prod_{i<j} prod_{l=1}^{lam_i - lam_j}
        (1 - (k / (l + k(c(i,T) - c(j,T))))^2),
    the product of ``nsjp_norm``, which strikes no factor at a partition label.
    """
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not a partition")
    return nsjp_norm(lam, t, kappa)


def e_factor(alpha, t: RSYT, eps: int, kappa: KappaParam) -> Fraction:
    """Correction factor accumulated by sorting alpha, for eps = +1 or -1.

    May legitimately vanish on the closed boundary |kappa| = 1/h of the
    positivity window (a zero factor marks a zero-norm partition label).
    """
    alpha = tuple(alpha)
    r = rank_perm(alpha)
    kap = kappa.value
    c = t.content
    out = Fraction(1)
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if alpha[i] < alpha[j]:
                den = alpha[j] - alpha[i] + kap * (c[r[j] - 1] - c[r[i] - 1])
                if den == 0:
                    raise SpectralCollision(f"degenerate inverted pair ({i + 1},{j + 1})")
                out *= 1 + eps * kap / den
    return out


def phi(alpha: Vec) -> Vec:
    """Affine rotation (a_1, ..., a_N) -> (a_2, ..., a_N, a_1 + 1)."""
    return alpha[1:] + (alpha[0] + 1,)


def monomial(shape: Partition, kappa: KappaParam, alpha, t_index: int) -> VVLaurent:
    """x^alpha (x) T, T the t_index-th basis tableau."""
    v = np.zeros(shape.dim, dtype=object)
    v[t_index] = 1
    return VVLaurent(shape, kappa, {tuple(alpha): Scaled(v, 1)})


def monomial_mul(f: VVLaurent, beta) -> VVLaurent:
    """x^beta f."""
    return VVLaurent(f.shape, f.kappa, {tuple(a + b for a, b in zip(alpha, beta)): v for alpha, v in f.terms.items()})


def e_shift(m: int, f: VVLaurent) -> VVLaurent:
    """Multiply by the m-th power of x_1 x_2 ... x_N (m may be negative); m = 0 returns f itself."""
    return f if m == 0 else monomial_mul(f, (m,) * f.shape.N)


def add_term(terms: dict[Vec, Scaled], alpha: Vec, v: Scaled) -> None:
    """Add v to the coefficient of x^alpha in a term map, reduced; a zero sum drops the term."""
    cur = terms.get(alpha)
    v = (v if cur is None else total([cur, v])).reduced()
    if v.num.any():
        terms[alpha] = v
    else:
        terms.pop(alpha, None)


def poly_add(f: VVLaurent, g: VVLaurent) -> VVLaurent:
    out = VVLaurent(f.shape, f.kappa, f.terms)
    for alpha, v in g.terms.items():
        add_term(out.terms, alpha, v)
    return out


def poly_scale(f: VVLaurent, c) -> VVLaurent:
    c = Fraction(c)
    return VVLaurent(f.shape, f.kappa, {a: v * c for a, v in f.terms.items()})


def poly_sub(f: VVLaurent, g: VVLaurent) -> VVLaurent:
    return poly_add(f, poly_scale(g, -1))


def poly_eq(f: VVLaurent, g: VVLaurent) -> bool:
    """The same exponents with equal coefficients."""
    return f.terms.keys() == g.terms.keys() and all(f.terms[a] == g.terms[a] for a in f.terms)


def dunkl(i: int, f: VVLaurent) -> VVLaurent:
    """Degree-lowering Dunkl operator in coordinate i, term by term, on polynomial input.

    Divided differences are expanded by the geometric-sum identity

        (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j)
            = sgn(a - b) * sum of x_i^p x_j^q over p + q = a + b - 1,
              min(a,b) <= p, q <= max(a,b) - 1,

    never by polynomial division, so exactness and sparsity are preserved.
    """
    kap = f.kappa.value
    out = VVLaurent(f.shape, f.kappa)
    for alpha, v in f.terms.items():
        a_i = alpha[i - 1]
        if a_i > 0:
            add_term(out.terms, alpha[: i - 1] + (a_i - 1,) + alpha[i:], v * a_i)
        for j in range(1, f.shape.N + 1):
            if j == i or alpha[j - 1] == a_i:
                continue
            b = alpha[j - 1]
            sv = (tableaux.transposition_matrix(f.shape, i, j) @ v) * (kap if a_i > b else -kap)
            base = list(alpha)
            for p in range(min(a_i, b), max(a_i, b)):
                base[i - 1] = p
                base[j - 1] = a_i + b - 1 - p
                add_term(out.terms, tuple(base), sv)
    return out


def cherednik(i: int, f: VVLaurent) -> VVLaurent:
    """Degree-preserving Cherednik-Dunkl operator U_i = D_i x_i - kappa sum_{j<i} (i j), term by term."""
    n = f.shape.N
    out = dunkl(i, monomial_mul(f, tuple(1 if k == i - 1 else 0 for k in range(n))))
    kap = f.kappa.value
    for j in range(1, i):
        out = poly_add(out, poly_scale(group_action(perms.transposition(n, i, j), f), -kap))
    return out


def termwise_nsjp(graph, alpha: Vec, t_index: int, memo: dict) -> VVLaurent:
    """The Jack polynomial at (alpha, T) built on term maps, edge by edge along ``graph._parent`` from x^0 (x) T.

    A jump is x_N sigma(w0^-1) f and a step s_i f - (kappa/gap) f, the gap taken from ``spectral_vector``
    at the parent; memo holds the polynomials already built, by label.
    """
    key = (alpha, t_index)
    if key not in memo:
        n = graph.shape.N
        if not any(alpha):
            memo[key] = monomial(graph.shape, graph.kappa, alpha, t_index)
        else:
            beta, i = graph._parent(alpha)
            f = termwise_nsjp(graph, beta, t_index, memo)
            if i is None:
                memo[key] = monomial_mul(group_action(perms.inverse(perms.cycle(n)), f), (0,) * (n - 1) + (1,))
            else:
                xi = spectral_vector(beta, graph.basis[t_index], graph.kappa)
                step = group_action(perms.simple(n, i), f)
                memo[key] = poly_sub(step, poly_scale(f, graph.kappa.value / (xi[i - 1] - xi[i])))
    return memo[key]


def dense_gram(blocks) -> np.ndarray:
    """The block-diagonal Fraction matrix that ``torusform.gram``'s blocks make up, entry by entry."""
    size = sum(len(blk.norms) for blk in blocks)
    out = np.full((size, size), Fraction(0), dtype=object)
    start = 0
    for blk in blocks:
        for i in range(len(blk.norms)):
            for j in range(len(blk.norms)):
                out[start + i, start + j] = blk.entry(i, j)
        start += len(blk.norms)
    return out


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product a @ b of two Python-int object matrices, taken from one float64 limb product.

    The package certifies its products on random vectors instead; this full
    product is the tests' oracle for those certificates.

    Each entry x is split into signed limbs of s = (53 - K.bit_length()) // 2
    bits, K the inner dimension: x = sum_k sign(x) d_k 2^(s k) with
    0 <= d_k < 2^s.  The limbs of a are stacked by rows and those of b by
    columns, so one float64 matmul takes every limb pair at once.  Each
    partial sum of a limb pair's product is an integer of magnitude at most
    K (2^s - 1)^2 < 2^53, which float64 holds exactly, so every sum is exact
    in any summation order, with or without FMA, at any BLAS thread count.
    The blocks are cast to int64 and shift-added back as Python ints.  A
    factor whose entries all fit in int64 is cut into limbs by int64 shifts,
    any other by Python-int shifts; the limbs are the same.
    """
    (m, k), n = a.shape, b.shape[1]
    s = _limb_bits(k)
    la, lb = _limbs(a, s), _limbs(b, s)
    prod = (la.reshape(-1, k) @ lb.transpose(1, 0, 2).reshape(k, -1)).astype(np.int64)
    prod = prod.reshape(len(la), m, len(lb), n)  # prod[i, :, j] = limb i of a @ limb j of b
    out = np.zeros((m, n), dtype=object)
    for i, j in np.ndindex(len(la), len(lb)):
        out += prod[i, :, j].astype(object) << (s * (i + j))
    return out


def _limb_bits(k: int) -> int:
    """Limb width for inner dimension k: 2s <= 53 - k.bit_length(), so k (2^s - 1)^2 < 2^53."""
    return (53 - k.bit_length()) // 2


def _limbs(m: np.ndarray, s: int) -> np.ndarray:
    """Signed s-bit float64 limbs of an int object matrix, lowest first, stacked; none for a zero matrix."""
    mag, neg, mask = np.abs(m), m < 0, (1 << s) - 1
    try:
        mag = mag.astype(np.int64)  # when every entry fits, the limbs are cut by int64 shifts
    except OverflowError:
        pass
    out = []
    while mag.any():
        limb = (mag & mask).astype(np.float64)
        out.append(np.where(neg, -limb, limb))
        mag = mag >> s
    return np.array(out, dtype=np.float64).reshape(len(out), *m.shape)


def one_shot_phase_matrix_sum(gammas, mats, theta) -> np.ndarray:
    """``_accel.phase_matrix_sum`` with its cosine and sine operand built for every term at once.

    The (groups, 64, K) operand is filled before the first GEMM and each GEMM
    reads 128 of its columns, in the same shapes and order as the package's
    sum, so the two agree bit for bit; the operand grows with K.
    """
    g = np.asarray(gammas, np.int64)
    mats = np.asarray(mats)
    theta = np.asarray(theta, np.float64)
    block = np.atleast_2d(theta)
    rows, terms = _accel._ROWS, _accel._TERMS
    k = len(g)
    h = (k + 1) // 2
    padded = np.zeros((-(-len(block) // rows) * rows, block.shape[1]))
    padded[: len(block)] = block
    top = int(np.abs(g).max(initial=0))
    up = np.exp(1j * (np.arange(top + 1) * padded[:, :, None]))
    x = np.concatenate([up[:, :, :0:-1].conj(), up], axis=2)
    phases = x[:, 0, g[:h, 0] + top]
    for j in range(1, g.shape[1]):
        phases *= x[:, j, g[:h, j] + top]
    half = phases.reshape(-1, rows, h)
    lhs = np.empty((len(half), 2, rows, k))
    lhs[:, 0, :, :h], lhs[:, 1, :, :h] = half.real, half.imag
    mirror = half[..., : k - h][..., ::-1]
    lhs[:, 0, :, h:], lhs[:, 1, :, h:] = mirror.real, -mirror.imag
    lhs = lhs.reshape(len(half), 2 * rows, k)
    flat = mats.reshape(k, -1)
    acc = lhs[..., :terms] @ flat[:terms]
    for t in range(terms, k, terms):
        acc += lhs[..., t : t + terms] @ flat[t : t + terms]
    out = acc[:, :rows].astype(np.complex128).reshape((len(padded),) + mats.shape[1:])
    out.imag = acc[:, rows:].reshape(out.shape)
    return out[: len(block)] if theta.ndim == 2 else out[0]


def grade_stack(store, n: int) -> np.ndarray:
    """The grade-n stack of ``kernels.FloatCoeffs``, one index of enumerate_Z at a time.

    With D the diagonal of the store's norms, each canonical matrix and each
    tau(w) is taken to the orthonormal convention D^{1/2} M D^{-1/2}, and
    A_gamma = tau(w)^T A_can tau(w) for canonicalize(gamma) = (can, w).
    """
    sqrt_d = np.sqrt(np.array([float(x) for x in store.norms]))

    def ortho(mat: Scaled) -> np.ndarray:
        return sqrt_d[:, None] * mat.floats() / sqrt_d[None, :]

    canon = store.canonical_grade(n)
    out = []
    for gamma in enumerate_Z(store.N, n):
        can, w = canonicalize(gamma)
        tau = ortho(tableaux.rep_matrix(store.shape, w))
        out.append(tau.T @ ortho(canon[can]) @ tau)
    return np.array(out)
