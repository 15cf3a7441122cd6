"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written in the most straightforward way
possible (explicit loops, full linear systems) so that it shares no code
path with the package internals it checks.
"""

import itertools

import numpy as np
import scipy.linalg


def naive_kron(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]),
                   dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def naive_commutant_dim(family, tol=1e-9):
    """Dimension of {X : XF = FX for all F}, via the full linear system."""
    family = np.asarray(family, dtype=complex)
    n = family.shape[1]
    rows = []
    for f in family:
        # row-major vectorization: vec(XF - FX) = (kron(I, F^T) - kron(F, I)) vec(X)
        rows.append(np.kron(np.eye(n), f.T) - np.kron(f, np.eye(n)))
    stacked = np.concatenate(rows, axis=0)
    return stacked.shape[1] - np.linalg.matrix_rank(stacked, tol=tol * 100)


def naive_intertwiner_dim(pi, rho, tol=1e-9):
    pi = np.asarray(pi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    np_, nr = pi.shape[1], rho.shape[1]
    rows = []
    for a, b in zip(pi, rho):
        rows.append(np.kron(b, np.eye(np_)) - np.kron(np.eye(nr), a.T))
    stacked = np.concatenate(rows, axis=0)
    return stacked.shape[1] - np.linalg.matrix_rank(stacked, tol=tol * 100)


def naive_nullspace_dim(m, tol=1e-9):
    m = np.asarray(m, dtype=complex)
    return m.shape[1] - np.linalg.matrix_rank(m, tol=tol)


def scipy_null_space(m, tol=1e-9):
    return scipy.linalg.null_space(np.asarray(m, dtype=complex), rcond=tol)


def ssyt_enumerate(shape, k):
    """All semistandard tableaux of a shape with entries in 1..k, by
    backtracking cell by cell."""
    shape = tuple(shape)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    results = []

    def backtrack(filled):
        if len(filled) == len(cells):
            results.append(dict(filled))
            return
        r, c = cells[len(filled)]
        current = dict(filled)
        for v in range(1, k + 1):
            if c > 0 and v < current[(r, c - 1)]:
                continue
            if r > 0 and v <= current[(r - 1, c)]:
                continue
            backtrack(filled + [((r, c), v)])

    backtrack([])
    return results


def naive_convolution(action, f1, f2):
    """Twisted convolution evaluated directly from its defining sum."""
    grp, alg = action.group, action.algebra
    out = np.zeros_like(f1)
    for g in range(grp.order):
        acc = np.zeros((alg.ambient, alg.ambient), dtype=complex)
        for h in range(grp.order):
            left = alg.embed(f1[h])
            arg = f2[grp.mult[grp.inv[h], g]]
            moved = action.matrix(h) @ arg
            acc = acc + left @ alg.embed(moved)
        out[g] = alg.coefficients(acc, check=False) / grp.order
    return out


def multiset_permutations(ms):
    return set(itertools.permutations(ms))


def permuted_kron(vectors, perm):
    """Tensor product of factor vectors after moving factor t to slot
    perm[t], built with np.kron."""
    slots = [None] * len(vectors)
    for t, v in enumerate(vectors):
        slots[perm[t]] = v
    out = np.ones(1, dtype=complex)
    for v in slots:
        out = np.kron(out, v)
    return out
