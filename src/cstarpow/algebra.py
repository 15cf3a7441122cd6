"""Finite-dimensional C*-algebras and their tensor and symmetric powers.

An algebra is a direct sum of full matrix blocks, carried by a fixed faithful
embedding into one matrix space.  The linear basis consists of matrix units,
so every basis element is a single-entry 0/1 matrix; elements are coefficient
vectors over that basis.  Products and adjoints are therefore exact: the
span is precisely the set of matrices supported on the basis positions, and
that support set is closed under multiplication.

Tensor products keep this structure, because a Kronecker product of matrix
units is again a single-entry matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BudgetError
from .linalg import DEFAULT_TOL, Draws, orthonormal_columns

# Caps for materializing large coefficient-space objects (entries, not bytes).
MAX_DENSE_ENTRIES = 70_000_000


class FdCStarAlgebra:
    """A direct sum of matrix blocks with a fixed matrix-unit basis.

    Products, adjoints and norms are read on the blocks' unit grids (the
    adjoint E_rc* = E_cr transposes each grid); ``positions`` only embeds
    the units into the carrying matrix space.

    Attributes:
        blocks: sizes of the matrix blocks.
        dim: linear dimension, the sum of the squared block sizes.
        ambient: size of the carrying matrix space.
        positions: (dim, 2) array, the (row, col) of each basis unit.
        block_of: block index of each basis unit.
        local: (dim, 2) within-block (row, col) of each basis unit.
        block_units: per block, the (k, k) grid of basis indices of E_rc.
        star_index: permutation with basis_i* = basis_{star_index[i]}.
    """

    def __init__(self, blocks, ambient, positions, block_of, local):
        self.blocks = tuple(int(k) for k in blocks)
        self.ambient = int(ambient)
        self.dim = int(positions.shape[0])
        self.positions = positions
        self.block_of = block_of
        self.local = local
        if self.dim != sum(k * k for k in self.blocks):
            raise ValueError("basis size does not match block sizes")
        # block_units[j][r, c] -> basis index, at slot start[j] + r k + c
        sizes = np.array(self.blocks, dtype=np.int64)
        start = np.cumsum(sizes ** 2) - sizes ** 2
        slots = np.empty(self.dim, dtype=np.int64)
        slots[start[block_of] + local[:, 0] * sizes[block_of]
              + local[:, 1]] = np.arange(self.dim)
        self.block_units = [slots[a:a + k * k].reshape(k, k)
                            for a, k in zip(start, self.blocks)]
        # block_units stacked per block size: x[units] is a stack of blocks
        self._size_groups = [
            np.stack([u for u in self.block_units if len(u) == k])
            for k in sorted(set(self.blocks))]
        # E_rc* = E_cr: each unit grid transposed
        self.star_index = np.empty(self.dim, dtype=np.int64)
        for units in self._size_groups:
            self.star_index[units] = units.transpose(0, 2, 1)
        if not np.array_equal(positions[self.star_index], positions[:, ::-1]):
            raise ValueError("basis positions are not closed under transpose")

    # -- element arithmetic (elements are complex coefficient vectors) -----

    def unit(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        out[self.positions[:, 0] == self.positions[:, 1]] = 1.0
        return out

    def embed(self, coeffs) -> np.ndarray:
        """The ambient matrix of a coefficient vector, or the stack of
        matrices of a stack of coefficient rows."""
        coeffs = np.asarray(coeffs, dtype=complex)
        out = np.zeros(coeffs.shape[:-1] + (self.ambient, self.ambient),
                       dtype=complex)
        out[..., self.positions[:, 0], self.positions[:, 1]] = coeffs
        return out

    def multiply(self, x, y) -> np.ndarray:
        """The product, one batched matmul per block size; stacks broadcast."""
        x, y = np.asarray(x), np.asarray(y)
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
        for units in self._size_groups:
            out[..., units] = x[..., units] @ y[..., units]
        return out

    def star(self, x) -> np.ndarray:
        """The adjoint of an element, or of each row of a stack."""
        x = np.asarray(x, dtype=complex)
        out = np.empty_like(x)
        out[..., self.star_index] = np.conj(x)
        return out

    def norm(self, x):
        """The operator norm, the largest block norm, from one SVD call per
        size; a stack ``(..., dim)`` gives the norms ``(...)``."""
        x = np.asarray(x)
        out = np.max([np.linalg.svd(x[..., units], compute_uv=False)
                      .max(axis=(-2, -1)) for units in self._size_groups],
                     axis=0)
        return float(out) if x.ndim == 1 else out

    # -- random elements ----------------------------------------------------

    def random_element(self, rng) -> np.ndarray:
        return Draws.complex_normal(rng, self.dim)

    def __repr__(self):
        return f"FdCStarAlgebra(blocks={list(self.blocks)})"


def make_algebra(blocks) -> FdCStarAlgebra:
    """Direct sum of full matrix blocks with its block-diagonal embedding."""
    blocks = tuple(int(k) for k in blocks)
    if not blocks or any(k <= 0 for k in blocks):
        raise ValueError("block sizes must be a non-empty list of positive ints")
    # block by block, each block row-major
    local = np.concatenate([np.stack(np.divmod(np.arange(k * k), k), axis=1)
                            for k in blocks])
    block_of = np.repeat(np.arange(len(blocks)), [k * k for k in blocks])
    offsets = np.cumsum([0, *blocks])
    return FdCStarAlgebra(blocks, offsets[-1],
                          local + offsets[block_of][:, None], block_of, local)


def tensor_algebra(a: FdCStarAlgebra, b: FdCStarAlgebra) -> FdCStarAlgebra:
    """Tensor product, carried by the Kronecker product embedding.

    Blocks multiply pairwise and the basis consists of the pairwise Kronecker
    products of the factor bases, ordered with the first factor major.
    """
    blocks = [ka * kb for ka in a.blocks for kb in b.blocks]
    nb = len(b.blocks)
    ra, ca = a.positions[:, 0], a.positions[:, 1]
    rb, cb = b.positions[:, 0], b.positions[:, 1]
    rows = (ra[:, None] * b.ambient + rb[None, :]).ravel()
    cols = (ca[:, None] * b.ambient + cb[None, :]).ravel()
    block_of = (a.block_of[:, None] * nb + b.block_of[None, :]).ravel()
    kb_of = np.array([b.blocks[j] for j in b.block_of], dtype=np.int64)
    lr = (a.local[:, 0][:, None] * kb_of[None, :] + b.local[:, 0][None, :]).ravel()
    lc = (a.local[:, 1][:, None] * kb_of[None, :] + b.local[:, 1][None, :]).ravel()
    return FdCStarAlgebra(blocks, a.ambient * b.ambient,
                          np.stack([rows, cols], axis=1),
                          block_of, np.stack([lr, lc], axis=1))


def ambient_power_within_budget(blocks, n: int, budget: int) -> bool:
    """Whether (sum of the blocks)^n is at most the budget, without forming
    the power once n passes the budget's bit length (ambient size >= 2)."""
    ambient = sum(blocks)
    return not (ambient > 1 and n > budget.bit_length()) \
        and ambient ** n <= budget


def tensor_power(a: FdCStarAlgebra, n: int) -> FdCStarAlgebra:
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    out = a
    for _ in range(n - 1):
        out = tensor_algebra(out, a)
    return out


def radix_digits(keys, dims) -> np.ndarray:
    """``np.stack(np.unravel_index(keys, dims))`` for flat keys of a tensor
    product basis, first factor most significant, without an array of
    len(dims) axes, which numpy caps at 64."""
    digits = np.empty((len(dims), keys.size), dtype=np.int64)
    for j in range(len(dims) - 1, 0, -1):
        keys, digits[j] = np.divmod(keys, dims[j])
    digits[0] = keys
    return digits


def radix_pack(digits, dims) -> np.ndarray:
    """The keys of digit rows, row t for factor t, the inverse of
    ``radix_digits`` by Horner's rule; the identity matrix packs to the
    place value of each factor."""
    keys = np.zeros(np.shape(digits)[1:], dtype=np.int64)
    for row, k in zip(digits, dims):
        keys *= k
        keys += row
    return keys


# ---------------------------------------------------------------------------
# power maps on tensor powers

def power_map(a: FdCStarAlgebra, x, n: int) -> np.ndarray:
    """The multiplicative power map x -> x tensor ... tensor x (n factors)."""
    x = np.asarray(x, dtype=complex)
    if a.dim ** n > MAX_DENSE_ENTRIES:
        raise BudgetError("tensor power coefficient space too large")
    return reduce(lambda p, _: np.multiply.outer(p, x).ravel(),
                  range(n - 1), x)


def power_map_differential(a: FdCStarAlgebra, x, n: int) -> np.ndarray:
    """Sum over slots of unit tensor ... tensor x tensor ... tensor unit.

    This is the derivative of the power map at the unit; it is linear and
    star-preserving, and its values generate the symmetric part of the power.
    """
    x = np.asarray(x, dtype=complex)
    u = a.unit()
    out = np.zeros(a.dim ** n, dtype=complex)
    for slot in range(n):
        factors = [u] * n
        factors[slot] = x
        out += reduce(np.kron, factors)
    return out


# ---------------------------------------------------------------------------
# the symmetric power basis

@dataclass
class SymmetricPowerBasis:
    """Orbit-sum basis of the permutation-fixed part of a tensor power.

    ``index`` lists the size-n multisets of basis indices of the base algebra
    (sorted tuples, in ``combinations_with_replacement`` order); orbit sum i
    sums the monomials whose factors form ``index[i]``.  S_n only permutes
    the blocks of A^(x)n of one orbit of block sequences, so the projection
    onto the sorted sequences' blocks is faithful on the fixed part, and only
    their monomials are listed: monomial t has the factors ``digits[:, t]``,
    lies in orbit sum ``orbit[t]`` and sits at the flat entry ``entry[t]`` of
    ``ambient`` x ``ambient``, the sorted blocks end to end.  Multiplicities
    read on it count one sorted sequence per orbit, n!/prod q_j! times fewer
    than on A^(x)n for q the block counts."""

    base: FdCStarAlgebra
    n: int
    index: tuple
    orbit: np.ndarray
    entry: np.ndarray
    ambient: int
    digits: np.ndarray

    @property
    def size(self) -> int:
        return len(self.index)


def symmetric_power_count(d: int, n: int) -> int:
    """Multisets of size n from d symbols."""
    return math.comb(d + n - 1, n)


def symmetric_power_basis(a: FdCStarAlgebra, n: int) -> SymmetricPowerBasis:
    """The monomials on sorted block sequences and their orbit sums, on
    which multiplicities count one sorted sequence per orbit (see
    ``SymmetricPowerBasis``), one sequence at a time, each block row-major:
    the radix digits of its row and column are the factors' local rows and
    columns.  Sorted digits a_0 <= ... <= a_{n-1} are the multiset of row
    C(dim + n - 1, n) - 1 - sum_t C(dim + n - 2 - a_t - t, n - t) of
    ``index``, the lexicographic rank of the combination a_t + t.  The guard
    bounds the n digits of the sum_beta prod k_beta_t^2 monomials first."""
    if n < 1:
        raise ValueError("symmetric power requires n >= 1")
    count = [1] + [0] * n  # [d]: the monomials on sorted sequences of length d
    for k in a.blocks:
        for d in range(1, n + 1):
            count[d] += k * k * count[d - 1]
    if count[n] * n > MAX_DENSE_ENTRIES:
        raise BudgetError(f"symmetric power basis needs {count[n]}x{n} digits")
    digits = np.empty((n, count[n]), dtype=np.min_scalar_type(a.dim - 1))
    sizes, at = [], 0
    for beta in itertools.combinations_with_replacement(range(len(a.blocks)),
                                                        n):
        k = [a.blocks[j] for j in beta]
        sizes.append(math.prod(k))
        part, at = slice(at, at + sizes[-1] ** 2), at + sizes[-1] ** 2
        for t, r in enumerate(radix_digits(np.arange(sizes[-1]), k)):
            digits[t, part] = a.block_units[beta[t]][r[:, None], r].ravel()
    ranks = np.array([[math.comb(a.dim + n - 2 - v - t, n - t)
                       for v in range(a.dim)] for t in range(n)])
    orbit = np.full(count[n], symmetric_power_count(a.dim, n) - 1)
    for t, row in enumerate(np.sort(digits, axis=0)):
        orbit -= ranks[t, row]
    ambient = sum(sizes)
    entry = np.concatenate([(ambient * np.arange(s, s + size))[:, None]
                            + np.arange(s, s + size) for s, size in zip(
                                np.cumsum([0, *sizes]), sizes)], axis=None)
    index = tuple(itertools.combinations_with_replacement(range(a.dim), n))
    return SymmetricPowerBasis(a, n, index, orbit, entry, ambient, digits)


# ---------------------------------------------------------------------------
# generated *-algebras and commutativity detection

def generated_star_algebra(seeds, ambient: int,
                           tol: float = DEFAULT_TOL) -> np.ndarray:
    """Basis of the smallest unital subspace containing the seeds that is
    closed under products and adjoints.

    Works degree by degree: multiplies the current span by the generators and
    re-orthonormalizes until the rank is stable for a round.  Returns the
    orthonormalized basis as an array of matrices.
    """
    gens = [np.asarray(s, dtype=complex) for s in seeds]
    gens = gens + [g.conj().T for g in gens]
    span = [np.eye(ambient, dtype=complex)] + [g.copy() for g in gens]
    basis = orthonormal_columns(
        np.stack([m.ravel() for m in span], axis=1), tol)
    while True:
        current = basis.shape[1]
        mats = basis.T.reshape(current, ambient, ambient)
        new = [(mats @ g).reshape(current, ambient * ambient).T for g in gens]
        basis = orthonormal_columns(np.concatenate([basis, *new], axis=1), tol)
        if basis.shape[1] == current:
            break
    return basis.T.reshape(basis.shape[1], ambient, ambient)


def square_map_multiplicativity(a: FdCStarAlgebra, trials: int = 100,
                                seed: int = 0,
                                tol: float = DEFAULT_TOL) -> bool:
    """Whether squaring respects products on random pairs.

    True exactly when the algebra is commutative (all blocks of size one): a
    single random pair in any matrix block of size >= 2 witnesses failure
    with probability one.
    """
    rng = Draws(seed)
    shape = (trials, 2, a.dim)
    pairs = rng.complex_normal(shape)
    pairs = pairs / np.maximum(a.norm(pairs), 1e-12)[..., None]
    x, y = pairs[:, 0], pairs[:, 1]
    xy = a.multiply(x, y)
    rhs = a.multiply(a.multiply(x, x), a.multiply(y, y))
    return not np.any(a.norm(a.multiply(xy, xy) - rhs) > tol)


# ---------------------------------------------------------------------------
# representations with explicit multiplicities

@dataclass
class Representation:
    """A representation of the algebra given by block multiplicities.

    The representation acts on the direct sum of ``multiplicities[j]`` copies
    of the defining space of block j; it is irreducible exactly when one
    multiplicity is 1 and the rest vanish.
    """

    algebra: FdCStarAlgebra
    multiplicities: tuple

    def __post_init__(self):
        self.multiplicities = tuple(int(m) for m in self.multiplicities)
        if len(self.multiplicities) != len(self.algebra.blocks):
            raise ValueError("need one multiplicity per block")
        if any(m < 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be non-negative")

    @property
    def dim(self) -> int:
        return sum(m * k for m, k in zip(self.multiplicities,
                                         self.algebra.blocks))

    @property
    def is_irreducible(self) -> bool:
        return sorted(self.multiplicities) == [0] * (len(self.multiplicities) - 1) + [1]

    def images(self) -> np.ndarray:
        """Images of every basis element, stacked as a (dim, N, N) array."""
        a = self.algebra
        out = np.zeros((a.dim, self.dim, self.dim), dtype=complex)
        offset = 0
        for j, (m, k) in enumerate(zip(self.multiplicities, a.blocks)):
            idx = np.nonzero(a.block_of == j)[0]
            for _ in range(m):
                out[idx, offset + a.local[idx, 0], offset + a.local[idx, 1]] = 1.0
                offset += k
        return out

    def apply(self, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=complex),
                            self.images(), axes=(0, 0))


def algebra_from_json(obj) -> FdCStarAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ValueError('algebra spec must be {"blocks": [...]}')
    return make_algebra(obj["blocks"])
