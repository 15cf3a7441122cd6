"""Tolerance-aware dense complex linear algebra.

All matrices are plain numpy arrays with complex128 entries.  Functions never
mutate their inputs; equality of matrices is always norm-based.
"""

from __future__ import annotations

import math
import random

import numpy as np

# Default comparison tolerance.  Double precision spectral routines deliver
# residuals around 1e-12 at the matrix sizes used here, so 1e-9 leaves margin.
DEFAULT_TOL = 1e-9

# Gap threshold for grouping eigenvalues into spectral clusters.  Random
# central elements have well separated spectra, so this is deliberately much
# coarser than DEFAULT_TOL.
SPECTRAL_GAP = 1e-6


class Draws:
    """Seeded draws from the stdlib Mersenne Twister (Matsumoto & Nishimura,
    ACM TOMACS 8, 1998): the two methods of numpy's ``Generator`` that this
    package uses, without loading numpy's random package (~13 ms and ~6 MB of
    a fresh process).  Generic elements only have to miss a null set.  Bytes
    are read little-endian, so a seed gives one stream on every platform."""

    def __init__(self, seed: int):
        self._source = random.Random(seed)

    def _uniforms(self, count: int) -> np.ndarray:
        bits = np.frombuffer(self._source.randbytes(8 * count), "<u8")
        return (bits >> 11) * 2.0 ** -53

    def random(self, size=None):
        """Uniforms in [0, 1) with 53 random bits each."""
        u = self._uniforms(_draw_count(size))
        return float(u[0]) if size is None else u.reshape(size)

    def standard_normal(self, size=None):
        """Standard normals by Box-Muller; ``log1p(-u)`` never sees 0."""
        n = _draw_count(size)
        u = self._uniforms(2 * n)
        z = np.sqrt(-2.0 * np.log1p(-u[:n])) * np.cos(2.0 * np.pi * u[n:])
        return float(z[0]) if size is None else z.reshape(size)

    def complex_normal(self, size):
        """``standard_normal(size) + 1j * standard_normal(size)``, the real
        parts drawn first.  It reads only ``standard_normal``, so called
        unbound it serves a numpy ``Generator`` too."""
        return self.standard_normal(size) + 1j * self.standard_normal(size)


def _draw_count(size) -> int:
    """The number of draws of a numpy ``size``: None, an int or a tuple."""
    if isinstance(size, tuple):
        return math.prod(size)
    return 1 if size is None else size


def as_matrix(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {out.shape}")
    return out


def adjoint(m) -> np.ndarray:
    return as_matrix(m).conj().T


def direct_sum(mats) -> np.ndarray:
    """Block-diagonal matrix with the given square blocks on the diagonal."""
    mats = [as_matrix(m) for m in mats]
    for m in mats:
        if m.shape[0] != m.shape[1]:
            raise ValueError("direct_sum requires square blocks")
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at:at + k, at:at + k] = m
        at += k
    return out


def op_norm(m) -> float:
    """Operator norm (largest singular value)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


# Relative margin of the Frobenius screen of ``largest_op_norm``, far above
# the round-off of an SVD or a norm, so that a matrix it skips cannot have
# raised the computed maximum.
SCREEN_MARGIN = 1e-8


def largest_op_norm(mats, floor: float = 0.0) -> float:
    """``max(floor, max(op_norm(m) for m in mats))``, bit for bit, with an
    SVD only for a matrix that can raise the running maximum: the operator
    norm is at most the Frobenius norm, so a matrix whose Frobenius norm
    times ``1 + SCREEN_MARGIN`` is at most the maximum so far is skipped.
    ``mats`` may be any iterable, such as a generator of residuals."""
    best = floor
    for m in mats:
        # written so that a NaN norm takes the SVD, as without the screen
        if not np.linalg.norm(m) * (1 + SCREEN_MARGIN) <= best:
            best = max(best, op_norm(m))
    return best


def nullspace(m, tol: float = DEFAULT_TOL,
              scale: float | None = None) -> np.ndarray:
    """Orthonormal basis, as columns, of the numerical kernel of m, a matrix
    or an iterator of row blocks that stands for their vertical stack.

    A singular direction counts as null when its singular value is at most
    tol times ``scale``, or times the largest singular value when no scale
    is given.  A caller whose system may be numerically zero passes the
    scale of the data it was built from, since a cutoff relative to noise
    would count noise as rank.
    """
    # a tall stack has the singular values and right vectors of its R, which
    # is the R of [R_prev; B] (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM
    # J. Sci. Comput. 34, 2012), so blocks fold in and no Q is built
    r = None
    for b in (m if hasattr(m, "__next__") else (m,)):
        r = as_matrix(b) if r is None else np.concatenate([r, b])
        if r.shape[0] > r.shape[1]:
            r = np.linalg.qr(r, mode="r")
    if r.shape[0] == 0 or r.shape[1] == 0:
        return np.eye(r.shape[1], dtype=complex)
    # a wide input needs the full right factor for its trailing kernel
    _, s, vh = np.linalg.svd(r, full_matrices=r.shape[0] < r.shape[1])
    if scale is None:
        scale = s[0] if s.size else 0.0
    cutoff = tol * scale
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def orthonormal_columns(a, tol: float = DEFAULT_TOL,
                        scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column space of a, as columns; singular
    values count above tol times ``scale`` (by default the largest one), as
    in ``nullspace``."""
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > tol * (s[0] if scale is None else scale)))
    return u[:, :rank]


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and a unitary eigenvector matrix.

    Rejects inputs that fail the Hermiticity test ``|m - m*|_F <= tol *
    max(1, c)``, with c the largest column norm of m.  The Frobenius norm
    bounds the operator norm from above and c bounds it from below, so this
    rejects whatever ``op_norm(m - m*) > tol * max(1, op_norm(m))`` rejects,
    without an SVD.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eig_hermitian requires a square matrix")
    scale = max(1.0, float(np.max(np.linalg.norm(m, axis=0), initial=0.0)))
    if np.linalg.norm(m - adjoint(m)) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return w, v


def cluster_eigenvalues(w, gap: float = SPECTRAL_GAP) -> list[list[int]]:
    """Group ascending real eigenvalues into clusters separated by > gap."""
    clusters: list[list[int]] = []
    for i, x in enumerate(w):
        if clusters and x - w[i - 1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters
