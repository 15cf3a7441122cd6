"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written in the most straightforward way
possible (explicit loops, full linear systems) so that it shares no code
path with the package internals it checks.
"""

import itertools
from types import SimpleNamespace

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


def embedded_multiply(alg, x, y):
    """Product of two elements through their ambient matrices."""
    return coefficients(alg, alg.embed(x) @ alg.embed(y))


def embedded_norm(alg, x):
    """Operator norm of an element's ambient matrix, by one dense SVD."""
    return float(np.linalg.norm(alg.embed(x), 2))


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


def commutator_coordinates(basis, constraints):
    """The (count * dim, dim) stack of one (dim, dim) block per constraint
    m, holding the coordinates <b_k, b_j m - m b_j> of the commutators of an
    orthonormal basis b, from the dense products."""
    basis = np.asarray(basis, dtype=complex)
    blocks = []
    for m in np.asarray(constraints, dtype=complex):
        comm = basis @ m - m @ basis
        blocks.append(np.einsum("kab,jab->kj", basis.conj(), comm))
    return np.concatenate(blocks)


def center_dimension(basis, tol=1e-9):
    """Dimension of the center of the span of an orthonormal basis, as the
    nullspace of the commutator coordinates of the basis with itself.  A
    singular value counts as rank above tol times the constraints' scale,
    2 max |b|_F, since a commutative span's system is round-off."""
    basis = np.asarray(basis, dtype=complex)
    scale = 2 * np.max(np.linalg.norm(basis, axis=(1, 2)))
    system = commutator_coordinates(basis, basis)
    return system.shape[1] - np.linalg.matrix_rank(system, tol=tol * scale)


def compressed_rank(basis, proj, tol=1e-8):
    """Dimension of the compressions P b P of a family to the range of a
    projection P, as the rank of the stacked compressed members."""
    w, v = np.linalg.eigh(np.asarray(proj, dtype=complex))
    cols = v[:, w > 0.5]
    compressed = np.stack([cols.conj().T @ b @ cols for b in basis])
    return np.linalg.matrix_rank(compressed.reshape(len(basis), -1), tol=tol)


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
        out[g] = coefficients(alg, acc) / grp.order
    return out


def naive_involution(action, f):
    """f*(g) = alpha_g(f(g^{-1}))*, with the adjoint taken as the conjugate
    transpose of the ambient matrix."""
    grp, alg = action.group, action.algebra
    out = np.zeros_like(f)
    for g in range(grp.order):
        moved = action.matrix(g) @ f[grp.inv[g]]
        out[g] = coefficients(alg, alg.embed(moved).conj().T)
    return out


def naive_integrated_form(pi, unitaries, f):
    """sum_g pi(f(g)) U_g / |G| from the image stack and the unitary
    matrices, one group element at a time."""
    out = np.zeros(unitaries.shape[1:], dtype=complex)
    for g in range(len(f)):
        out += np.tensordot(f[g], pi, axes=(0, 0)) @ unitaries[g]
    return out / len(f)


def compositions(n):
    """All ordered ways to write n as a sum of positive parts."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1)
            for rest in compositions(n - first)]


def multiset_permutations(ms):
    return set(itertools.permutations(ms))


def symmetric_power_orbit_sums(dim, n):
    """Multisets of size n from range(dim), in
    ``combinations_with_replacement`` order, and their orbit sums as dense
    rows, filled permutation by permutation."""
    radix = dim ** np.arange(n - 1, -1, -1, dtype=np.int64)
    multisets = list(itertools.combinations_with_replacement(range(dim), n))
    vectors = np.zeros((len(multisets), dim ** n), dtype=complex)
    for row, multiset in enumerate(multisets):
        for perm in set(itertools.permutations(multiset)):
            vectors[row, np.dot(perm, radix)] = 1.0
    return tuple(multisets), vectors


def sorted_row_orbit_labels(dim, n):
    """Orbit labels by ``np.unique`` over the sorted digit rows of every
    monomial: the distinct rows, and the row of each monomial."""
    digits = np.stack(np.unravel_index(np.arange(dim ** n), (dim,) * n),
                      axis=1)
    index, orbit = np.unique(np.sort(digits, axis=1), axis=0,
                             return_inverse=True)
    return tuple(map(tuple, index.tolist())), orbit.reshape(-1)


def full_symmetric_power_basis(a, n):
    """The orbit sums on all dim^n monomials of ``tensor_power(a, n)``:
    ``power``, the multisets ``index`` in ``combinations_with_replacement``
    order, and the row ``orbit[m]`` of ``index`` that holds monomial m."""
    from cstarpow.algebra import tensor_power
    index, orbit = sorted_row_orbit_labels(a.dim, n)
    return SimpleNamespace(base=a, power=tensor_power(a, n), n=n,
                           index=index, orbit=orbit, size=len(index))


def full_symmetric_power_span(a, n):
    """The fixed-point span on the whole ambient (sum k)^n of the tensor
    power: orbit sum i is 1 at the unit position of each of its monomials."""
    from cstarpow.structure import label_span
    sym = full_symmetric_power_basis(a, n)
    ambient = sym.power.ambient
    row, col = sym.power.positions.T
    return label_span(ambient, sym.orbit, row * ambient + col,
                      np.ones(sym.orbit.shape[0]))


def sorted_block_monomials(a, n):
    """The monomials of ``tensor_power(a, n)`` whose block sequence is
    nondecreasing, and the block sequence of every monomial."""
    blocks = np.stack(np.unravel_index(np.arange(a.dim ** n), (a.dim,) * n))
    blocks = a.block_of[blocks]
    return np.flatnonzero(np.all(np.diff(blocks, axis=0) >= 0, axis=0)), \
        blocks


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


def distance_to_span(family, mat):
    """Frobenius distance from a matrix to the linear span of a family, by
    a least-squares solve over the vectorized members."""
    family = np.asarray(family, dtype=complex)
    a = family.reshape(family.shape[0], -1).T
    b = np.asarray(mat, dtype=complex).ravel()
    coef = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.norm(a @ coef - b))


def support_components_bfs(mats):
    """Sets of ambient indices joined by the entries of each matrix, by a
    breadth-first search over index -> matrix -> index, with the members of
    each set; indices no matrix touches are left out."""
    mats = np.asarray(mats)
    touched = [set(np.flatnonzero(np.any(m != 0, axis=0) | np.any(m != 0, axis=1)))
               for m in mats]
    seen, out = set(), []
    for start in sorted(set().union(*touched)):
        if start in seen:
            continue
        comp, members, queue = {start}, set(), [start]
        while queue:
            i = queue.pop()
            for k, t in enumerate(touched):
                if i in t and k not in members:
                    members.add(k)
                    queue.extend(t - comp)
                    comp |= t
        seen |= comp
        out.append((sorted(comp), sorted(members)))
    return out


def induced_unitaries(sub, base_mats):
    """The group unitaries of the representation induced from ``sub``.

    ``base_mats[h]`` is the base unitary of the subgroup element with local
    index h.  In coset-block form, g maps block j to the block k of the coset
    of g g_j and acts there by the base unitary of g_k^{-1} g g_j; filled
    one (g, j) at a time."""
    grp = sub.ambient
    reps = sub.coset_reps
    m = base_mats.shape[1]
    n = len(reps) * m
    umats = np.zeros((grp.order, n, n), dtype=complex)
    for g in range(grp.order):
        for j, gj in enumerate(reps):
            k = int(sub.coset_of[grp.multiply(g, gj)])
            h = grp.multiply(grp.inverse(reps[k]), grp.multiply(g, gj))
            umats[g, k * m:(k + 1) * m, j * m:(j + 1) * m] = \
                base_mats[sub.local[h]]
    return umats


def induced_images(action, sub, base_pi):
    """The induced image stack: block j holds the base images composed
    with the automorphism of g_j^{-1}, applied as its dense coefficient
    matrix, one coset at a time."""
    grp = sub.ambient
    m = base_pi.shape[1]
    n = sub.index * m
    pi = np.zeros((base_pi.shape[0], n, n), dtype=complex)
    for j, gj in enumerate(sub.coset_reps):
        moved = np.tensordot(action.matrix(grp.inverse(gj)), base_pi,
                             axes=(0, 0))
        pi[:, j * m:(j + 1) * m, j * m:(j + 1) * m] = moved
    return pi


def young_unitaries(algebra, desc, sub):
    """The linking unitaries of the Young product pair, one dense matrix
    per subgroup element: the factor permutation on the product carrier,
    Kronecker with the conjugate of the chosen symmetric group irreps, each
    at the element's permutation of its own block of factors.  Returns the
    block of each factor, the stack and the multiplicity dimension."""
    from cstarpow.groups import factor_permutation_index, sn_irrep, \
        symmetric_group

    beta = np.repeat(desc.blocks, desc.q)
    ureps = [sn_irrep(lam) for lam in desc.lambdas]
    offsets = np.cumsum([0, *desc.q])
    perms = [sub.ambient.perms[amb] for amb in sub.elements]
    dests = factor_permutation_index([algebra.blocks[b] for b in beta], perms)
    total = dests.shape[1]
    mats = []
    for dest, p in zip(dests, perms):
        v0 = np.zeros((total, total), dtype=complex)
        v0[dest, np.arange(total)] = 1.0
        u0 = np.eye(1, dtype=complex)
        for u, o, qk in zip(ureps, offsets, desc.q):
            local = symmetric_group(qk).perms.index(
                tuple(x - o for x in p[o:o + qk]))
            u0 = naive_kron(u0, u.mat(local))
        mats.append(naive_kron(v0, np.conj(u0)))
    return beta, np.stack(mats), u0.shape[0]


def dense_realized_images(algebra, n, desc, sym):
    """Images of the realization of a descriptor, built the direct way: the
    Young product's dense unitaries induced to S_n; for each orbit-sum
    vector, the induced algebra action as a dense matrix, filled monomial by
    monomial, compressed to the range of the averaging projection.  Only the
    orthonormalization comes from the package."""
    from cstarpow.groups import symmetric_group, young_subgroup
    from cstarpow.linalg import orthonormal_columns

    group = symmetric_group(n)
    sub = young_subgroup(desc.q, group)
    beta, w1, d_mult = young_unitaries(algebra, desc, sub)
    m_block = w1.shape[1]
    size = sub.index * m_block
    w = orthonormal_columns(np.mean(induced_unitaries(sub, w1), axis=0))
    dims = [algebra.blocks[b] for b in beta]
    out = np.zeros((sym.size, w.shape[1], w.shape[1]), dtype=complex)
    for a, vec in enumerate(orbit_vectors(sym)):
        pi = np.zeros((size, size), dtype=complex)
        for j, gj in enumerate(sub.coset_reps):
            perm = group.perms[group.inverse(gj)]
            for flat in np.flatnonzero(vec):
                digits = np.unravel_index(flat, (algebra.dim,) * n)
                moved = [0] * n
                for t, i in enumerate(digits):
                    moved[perm[t]] = int(i)
                if any(algebra.block_of[i] != b for i, b in zip(moved, beta)):
                    continue
                row = col = 0
                for i, k in zip(moved, dims):
                    row = row * k + int(algebra.local[i, 0])
                    col = col * k + int(algebra.local[i, 1])
                for s in range(d_mult):
                    pi[j * m_block + row * d_mult + s,
                       j * m_block + col * d_mult + s] = vec[flat]
        out[a] = w.conj().T @ pi @ w
    return out


def make_algebra_arrays(blocks):
    """``positions``, ``block_of`` and ``local`` of the block-diagonal
    embedding, filled unit by unit: block by block, each block row-major."""
    positions, block_of, local = [], [], []
    offset = 0
    for j, k in enumerate(blocks):
        for r in range(k):
            for c in range(k):
                positions.append((offset + r, offset + c))
                block_of.append(j)
                local.append((r, c))
        offset += k
    return (np.array(positions, dtype=np.int64),
            np.array(block_of, dtype=np.int64),
            np.array(local, dtype=np.int64))


# ---------------------------------------------------------------------------
# references that tests build systems and expectations from

def coefficients(alg, mat):
    """The coefficients of a matrix on the algebra's matrix-unit basis, read
    at the basis positions."""
    return np.asarray(mat)[alg.positions[:, 0], alg.positions[:, 1]]


def orbit_vectors(sym):
    """The orbit sums of a listing with ``orbit`` and ``size`` as dense rows
    over its monomials, in listing order (the coefficient rows of the power
    algebra for ``full_symmetric_power_basis``), refused above
    MAX_DENSE_ENTRIES entries."""
    from cstarpow import algebra
    from cstarpow.errors import BudgetError
    total = sym.orbit.shape[0]
    if sym.size * total > algebra.MAX_DENSE_ENTRIES:
        raise BudgetError(f"{sym.size}x{total} orbit sum coefficients")
    out = np.zeros((sym.size, total), dtype=complex)
    out[sym.orbit, np.arange(total)] = 1.0
    return out


def symmetrize(a, n, x):
    """Average of an element of the n-th tensor power of ``a`` over all
    permutations of its tensor factors."""
    x = np.asarray(x, dtype=complex).reshape((a.dim,) * n)
    return np.mean([x.transpose(p).ravel()
                    for p in itertools.permutations(range(n))], axis=0)


def random_unitary(alg, rng):
    """Haar unitary element: per-block QR of a complex Gaussian matrix with
    phase-normalized R diagonal."""
    out = np.zeros(alg.dim, dtype=complex)
    for units, k in zip(alg.block_units, alg.blocks):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        out[units.ravel()] = (q * (d / np.abs(d))[None, :]).ravel()
    return out


def trivial_action(algebra, group):
    """The group acting by the identity on every element."""
    from cstarpow.crossed import GroupAction
    maps = np.tile(np.arange(algebra.dim), (group.order, 1))
    return GroupAction(group, algebra, perm_maps=maps, check=False)


def crossed_unit(action):
    """|G| times the indicator of the identity: the unit of the crossed
    product with normalized convolution."""
    from cstarpow.crossed import CrossedElement
    vals = np.zeros((action.group.order, action.algebra.dim), dtype=complex)
    vals[action.group.identity] = action.group.order * action.algebra.unit()
    return CrossedElement(action, vals)


def is_projection(m, tol=1e-9):
    """Idempotent and self-adjoint within tol in the operator norm."""
    m = np.asarray(m, dtype=complex)
    return np.linalg.norm(m @ m - m, 2) <= tol \
        and np.linalg.norm(m - m.conj().T, 2) <= tol


def is_associative(mult):
    """Exhaustive associativity of a multiplication table."""
    return bool(np.array_equal(mult[mult, :], mult[:, mult]))


def central_projections(report):
    """The projections of a WedderburnReport as ambient matrices."""
    out = []
    for idx, proj in report.blocks:
        full = np.zeros((report.ambient, report.ambient), dtype=complex)
        full[idx[:, None], idx] = proj
        out.append(full)
    return out


def every_component_report(s, seed=0, tol=1e-9):
    """The WedderburnReport of a label span with every support component
    solved on its own, however many components are alike."""
    from cstarpow.structure import (WedderburnReport, _component_projections,
                                    _support_components, label_span)
    found = []
    for idx, members, labels in _support_components(s.ambient, s.member,
                                                    s.entry):
        row, col = np.searchsorted(idx, np.divmod(s.entry[labels], s.ambient))
        sub = label_span(len(idx), np.searchsorted(members, s.member[labels]),
                         row * len(idx) + col, s.weight[labels])
        found += [(d, k, (idx, proj)) for proj, d, k
                  in _component_projections(sub, seed, tol)]
    found.sort(key=lambda f: f[:2])
    return WedderburnReport(s.ambient, [f[2] for f in found],
                            [f[0] for f in found], [f[1] for f in found])


def block_units_by_loop(alg):
    """Each block's (k, k) grid of basis indices, one np.nonzero per block."""
    out = []
    for j, k in enumerate(alg.blocks):
        idx = np.nonzero(alg.block_of == j)[0]
        grid = np.empty((k, k), dtype=np.int64)
        grid[alg.local[idx, 0], alg.local[idx, 1]] = idx
        out.append(grid)
    return out


def position_index(alg):
    """Basis index of each (row, col) position of the embedding."""
    return {(r, c): i for i, (r, c) in enumerate(alg.positions.tolist())}


def position_star_index(alg):
    """The basis index of each unit's adjoint, looked up at the transposed
    position."""
    where = position_index(alg)
    return np.array([where[c, r] for r, c in alg.positions.tolist()],
                    dtype=np.int64)


def product_table(alg):
    """(dim, dim) table with basis_i basis_j = basis_{T[i, j]}, -1 for a
    zero product, from the positions: E(r, c) E(c', d) is E(r, d) if c = c'."""
    where = position_index(alg)
    table = np.full((alg.dim, alg.dim), -1, dtype=np.int64)
    for i, (r, c) in enumerate(alg.positions.tolist()):
        for j, (c2, d) in enumerate(alg.positions.tolist()):
            if c == c2:
                table[i, j] = where[r, d]
    return table


def is_multiplicative_by_table(table, p):
    """Whether the unit permutation p, unit j to unit p[j], respects every
    product of units, zero products included."""
    return np.array_equal(table[p][:, p], np.where(table >= 0, p[table], -1))


def isotypic_projection(parts, rep):
    """(d / |G|) sum_g conj(chi(g)) rep(g) for a representation of S_n, with
    chi the character of the irreducible of the partition and d = chi(e)."""
    from cstarpow.groups import sn_irrep
    chi = np.einsum("gii->g", sn_irrep(tuple(parts)).matrices)
    return chi[rep.group.identity].real / rep.group.order \
        * np.einsum("g,gij->ij", chi.conj(), rep.matrices)


def argparse_parser(command=None):
    """The argparse parser of one subcommand, built from the CLI's own table
    (``cli._COMMANDS`` and ``cli._COMMON``); without a known subcommand, one
    that lists them all for help and errors.  The reference for
    ``cli._parse_args``."""
    import argparse

    from cstarpow import cli

    parser = argparse.ArgumentParser(prog="cstarpow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in cli._COMMANDS.items():
        if command not in cli._COMMANDS:
            sub.add_parser(name, help=help_text)
        elif name == command:
            p = sub.add_parser(name, help=help_text)
            for flag, options in arguments + cli._COMMON:
                p.add_argument(flag, **options)
    return parser
