import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cstarpow import structure
from cstarpow.algebra import make_algebra, symmetric_power_count
from cstarpow.classify import symmetric_power_span, wedderburn_comparison
from cstarpow.crossed import (block_permutation_action,
                              tensor_permutation_action, trivial_action)
from cstarpow.errors import BudgetError
from cstarpow.groups import isotypic_projection, permutation_rep, regular_rep, \
    symmetric_group
from cstarpow.linalg import direct_sum, nullspace, op_norm
from cstarpow.structure import (_support_components, commutant,
                                commutant_dimension, equivalent,
                                ergodic_bound_check, essential_subspace,
                                intertwiner_space, is_factor, is_irreducible,
                                minimal_central_projections, quasi_equivalent,
                                spanned_algebra)
from oracles import (distance_to_span, naive_commutant_dim,
                     naive_intertwiner_dim, support_components_bfs)


def test_commutant_of_full_matrix_algebra(m2):
    comm = commutant(m2.basis_matrices())
    assert comm.dim == 1


def test_commutant_of_diagonals():
    diag = np.stack([np.diag(row).astype(complex) for row in np.eye(3)])
    assert commutant(diag).dim == 3


def test_commutant_of_tensor_factor(m2):
    fam = np.stack([np.kron(np.eye(2), b) for b in m2.basis_matrices()])
    comm = commutant(fam)
    assert comm.dim == 4 == naive_commutant_dim(fam)
    # the commutant is the other tensor factor
    other = np.stack([np.kron(b, np.eye(2)) for b in m2.basis_matrices()])
    for b in other:
        assert comm.contains(b, 1e-8)


def test_bicommutant(m2):
    span = symmetric_power_span(m2, 2)
    double = commutant(commutant(span))
    assert double.dim == span.dim
    for b in span.span_basis:
        assert double.contains(b, 1e-8)


def test_commutant_matches_naive_on_random_family(rng):
    fam = np.stack([np.diag([1.0, 1.0, 2.0]).astype(complex),
                    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)])
    fam = np.concatenate([fam, fam.conj().transpose(0, 2, 1)])
    assert commutant(fam).dim == naive_commutant_dim(fam)


def test_commutant_of_identity_and_swap():
    # both constraints are diagonal in the eigenbasis of any combination, so
    # the reduced system is numerically zero and its cutoff must come from
    # the constraints' scale
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    fam = np.stack([np.eye(4, dtype=complex), swap])
    assert commutant(fam).dim == 10 == naive_commutant_dim(fam)


def _block_images(ks, mults, pad, rng, conjugate=True):
    """Images of the matrix units of the sum of the M_k under the sum of
    M_k (x) I_m plus a zero block of size pad, conjugated by a random
    unitary unless ``conjugate`` is false.  Multiplicity 0 sends a block's
    units to zero."""
    n = sum(k * m for k, m in zip(ks, mults)) + pad
    units, at = [], 0
    for k, m in zip(ks, mults):
        for unit in np.eye(k * k).reshape(k * k, k, k):
            member = np.zeros((n, n), dtype=complex)
            member[at:at + k * m, at:at + k * m] = np.kron(unit, np.eye(m))
            units.append(member)
        at += k * m
    if not conjugate:
        return np.stack(units)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(x)[0]
    return np.matmul(q, np.stack(units) @ q.conj().T)


@st.composite
def _block_sum(draw):
    """Sizes k <= 3 and multiplicities m >= 1 of a direct sum of M_k (x) I_m
    plus a zero block of size pad, on ambient <= 12, and a generator."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ks, mults, room = [], [], 12
    while room > 0 and (not ks or draw(st.booleans())):
        ks.append(draw(st.integers(1, min(3, room))))
        mults.append(draw(st.integers(1, room // ks[-1])))
        room -= ks[-1] * mults[-1]
    return ks, mults, draw(st.integers(0, room)), rng


@st.composite
def _star_closed_family(draw):
    """A *-closed family on ambient <= 12 and its commutant dimension: the
    matrix units of a direct sum of M_k (x) I_m plus a zero block, or a
    generic element of that sum with its adjoint, conjugated by a random
    unitary.  The commutant is a sum of M_m, plus M_pad for the zero block."""
    ks, mults, pad, rng = draw(_block_sum())
    fam = _block_images(ks, mults, pad, rng)
    if draw(st.booleans()):
        c = rng.standard_normal(len(fam)) + 1j * rng.standard_normal(len(fam))
        a = np.tensordot(c, fam, axes=(0, 0))
        fam = np.stack([a, a.conj().T])
    return fam, sum(m * m for m in mults) + pad * pad


@settings(max_examples=40, deadline=None)
@given(_star_closed_family())
def test_commutant_dimension_on_star_closed_families(case):
    fam, expected = case
    assert commutant(fam).dim == naive_commutant_dim(fam) == expected


@st.composite
def _block_span(draw):
    """The span of the matrix units of a ``_block_sum``, with its pairs
    (k, m): as drawn it has disjoint supports and is kept as labels, and
    conjugated by a random unitary it is kept as dense rows."""
    ks, mults, pad, rng = draw(_block_sum())
    fam = _block_images(ks, mults, pad, rng, draw(st.booleans()))
    return spanned_algebra(fam, check=False), sorted(zip(ks, mults)), rng


@settings(max_examples=40, deadline=None)
@given(_block_span())
def test_span_coordinates_keep_norms_and_the_center_system(case):
    span, blocks, rng = case
    basis = span.span_basis
    c = rng.standard_normal(span.dim) + 1j * rng.standard_normal(span.dim)
    x = np.tensordot(c, basis, axes=(0, 0))
    assert np.isclose(np.linalg.norm(span.coordinates(x)), np.linalg.norm(x))
    # the center system in span coordinates against the commutator system
    # over all n^2 entries, with the basis or a generic pair as constraints;
    # a commutative span's system is round-off, so the cutoff scales with
    # the constraints
    for constraints in (basis, np.stack([x, x.conj().T])):
        full = np.concatenate([(basis @ m - m @ basis).reshape(span.dim, -1).T
                               for m in constraints])
        scale = 2 * np.max(np.linalg.norm(constraints, axis=(1, 2)))
        assert structure._center_basis(
            span, basis, constraints, 1e-9).shape[0] \
            == nullspace(full, 1e-9, scale).shape[1] == len(blocks)
    report = minimal_central_projections(span)
    assert sorted(zip(report.block_dims, report.multiplicities)) == blocks


@st.composite
def _representation_pair(draw):
    """Two representations of one sum of M_k with multiplicity vectors m and
    n (zeros allowed; the last entry is the zero block, one more type), each
    conjugated by its own random unitary; half the time n = m."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    mults = st.lists(st.integers(0, 2), min_size=len(ks) + 1,
                     max_size=len(ks) + 1)
    m = draw(mults)
    n = m if draw(st.booleans()) else draw(mults)
    assume(sum(m) > 0 and sum(n) > 0)
    pi = _block_images(ks, m[:-1], m[-1], rng)
    rho = _block_images(ks, n[:-1], n[-1], rng)
    return pi, rho, m, n


@settings(max_examples=40, deadline=None)
@given(_representation_pair())
def test_intertwiners_and_equivalence_are_commutant_corners(case):
    pi, rho, m, n = case
    space = intertwiner_space(pi, rho)
    assert space.shape[0] == naive_intertwiner_dim(pi, rho) \
        == sum(a * b for a, b in zip(m, n))
    assert space.shape[1:] == (rho.shape[1], pi.shape[1])
    for t in space:
        assert np.allclose(t @ pi, rho @ t, atol=1e-9)
    assert equivalent(pi, rho) == (m == n)


def test_commutant_falls_back_to_the_dense_system(monkeypatch, m2):
    fam = np.stack([np.kron(np.eye(2), b) for b in m2.basis_matrices()])
    calls = {"verify": 0, "dense": 0}
    dense = structure._commutation_operator

    def counted(m):
        calls["dense"] += 1
        return dense(m)

    monkeypatch.setattr(structure, "_commutation_operator", counted)
    assert commutant(fam).dim == 4
    assert calls["dense"] == 0
    verify = structure._verify_commutant

    def failing_three_draws(cands, f, tol, rng):
        calls["verify"] += 1
        return calls["verify"] > 3 and verify(cands, f, tol, rng)

    monkeypatch.setattr(structure, "_verify_commutant", failing_three_draws)
    assert commutant(fam).dim == 4
    assert calls == {"verify": 3, "dense": fam.shape[0]}


def _inequivalent_irreps(rng):
    """The two irreducibles of M_2 (+) M_2, each conjugated by its own random
    unitary, so that round-off fills every entry of a solve."""
    units = make_algebra([2, 2]).basis_matrices()
    out = []
    for block in (units[:, :2, :2], units[:, 2:, 2:]):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = np.linalg.qr(x)[0]
        out.append(np.matmul(q, block @ q.conj().T))
    return out


def test_zero_intertwiner_corner_after_the_dense_fallback(monkeypatch, rng):
    # the dense system mixes every entry, so the (2, 1) cut of the commutant
    # basis is round-off rather than exact zeros and must not count as rank
    pi, rho = _inequivalent_irreps(rng)
    monkeypatch.setattr(structure, "_verify_commutant",
                        lambda cands, f, tol, gen: False)
    assert intertwiner_space(pi, rho).shape[0] == 0
    assert not equivalent(pi, rho)
    assert equivalent(pi, pi)


def test_zero_intertwiner_corner_when_clusters_couple(monkeypatch, rng):
    # a gap this wide puts every eigenvalue of H in one cluster, as happens
    # by chance when an eigenvalue of pi and one of rho nearly meet: the
    # unknowns then couple the two blocks
    pi, rho = _inequivalent_irreps(rng)
    monkeypatch.setattr(structure, "SPECTRAL_GAP", 1e3)
    assert intertwiner_space(pi, rho).shape[0] == 0
    assert not equivalent(pi, rho)
    assert equivalent(pi, pi)


def test_pair_solves_inherit_the_eigenbasis_guard():
    # [I_21] (+) [I_21] is one eigenvalue cluster of 42: 1764 unknowns on
    # ambient 42 exceed 40^4 entries, so the pair is refused before any
    # system is built
    eye = np.eye(21, dtype=complex)[None]
    with pytest.raises(BudgetError):
        intertwiner_space(eye, eye)
    with pytest.raises(BudgetError):
        equivalent(eye, eye)
    # a lower multiplicity stays within the guard
    assert equivalent(np.eye(10, dtype=complex)[None],
                      np.eye(10, dtype=complex)[None])


def _m6_tensor_identity(rng):
    """The matrix units of M_6 (x) I_7 on ambient 42, conjugated by a random
    unitary: a generic element has six eigenvalue clusters of size 7, so the
    eigenbasis solve has 294 unknowns."""
    x = rng.standard_normal((42, 42)) + 1j * rng.standard_normal((42, 42))
    q = np.linalg.qr(x)[0]
    units = np.eye(36).reshape(36, 6, 6)
    fam = np.stack([np.kron(u, np.eye(7)) for u in units]).astype(complex)
    return np.matmul(q, fam @ q.conj().T), q


def test_commutant_above_the_dense_cap_with_few_unknowns(rng):
    fam, q = _m6_tensor_identity(rng)
    comm = commutant(fam)
    assert comm.dim == 49
    for u in np.eye(49).reshape(49, 7, 7)[:5]:
        assert comm.contains(q @ np.kron(np.eye(6), u) @ q.conj().T, 1e-8)


def test_commutant_fallback_above_the_dense_cap_is_refused(monkeypatch, rng):
    fam, _ = _m6_tensor_identity(rng)
    calls = {"verify": 0, "dense": 0}

    def failing(cands, f, tol, gen):
        calls["verify"] += 1
        return False

    def counted(m):
        calls["dense"] += 1
        return np.zeros((0, 0))

    monkeypatch.setattr(structure, "_verify_commutant", failing)
    monkeypatch.setattr(structure, "_commutation_operator", counted)
    with pytest.raises(BudgetError):
        commutant(fam)
    assert calls == {"verify": 3, "dense": 0}


def test_verification_sees_every_member():
    # 299 diagonal members commute with the candidate; the one member that
    # does not lies outside the fixed-seed sample of 256 members that an
    # earlier verification checked, and must still be seen
    rng = np.random.default_rng(3)
    fam = np.zeros((300, 3, 3), dtype=complex)
    fam[:, [0, 1, 2], [0, 1, 2]] = rng.standard_normal((300, 3))
    sampled = np.random.default_rng(0).choice(300, size=256, replace=False)
    outside = min(set(range(300)) - set(sampled.tolist()))
    fam[outside] = 0.0
    fam[outside, 0, 1] = 1.0
    cand = np.diag([1.0, 2.0, 3.0]).astype(complex)[None]
    tol = structure.DEFAULT_TOL
    assert not structure._verify_commutant(cand, (fam,), tol,
                                           np.random.default_rng(0))
    assert structure._verify_commutant(cand, (np.delete(fam, outside, axis=0),),
                                       tol, np.random.default_rng(0))


def test_commutant_budget_guard():
    big = np.zeros((1, 64, 64), dtype=complex)
    big[0] = np.eye(64)
    with pytest.raises(BudgetError):
        commutant(big)


def test_minimal_central_projections_full_block():
    m4 = make_algebra([4])
    span = spanned_algebra(m4.basis_matrices(), check=False)
    report = minimal_central_projections(span)
    assert report.block_dims == [4]
    assert report.multiplicities == [1]
    assert np.allclose(sum(report.central_projections), np.eye(4))


def test_minimal_central_projections_symmetric_square(m2):
    # independent oracle: the isotypic projections of the factor swap
    span = symmetric_power_span(m2, 2)
    report = minimal_central_projections(span)
    assert sorted(report.block_dims) == [1, 3]
    assert sorted(report.multiplicities) == [1, 1]
    tau = permutation_rep(2, 2)
    from cstarpow.groups import partitions
    iso_ranks = sorted(round(float(np.real(np.trace(
        isotypic_projection(lam, tau))))) for lam in partitions(2))
    assert iso_ranks == sorted(d * k for d, k in
                               zip(report.block_dims, report.multiplicities))


def test_minimal_central_projections_regular_rep():
    g = symmetric_group(3)
    span = spanned_algebra(regular_rep(g).matrices, check=False)
    # permutation matrices of the regular representation have disjoint
    # supports, so the span is kept as entry labels
    assert span.onb is None
    report = minimal_central_projections(span)
    assert sorted(report.block_dims) == [1, 1, 2]
    assert sum(d * d for d in report.block_dims) == 6


def test_minimal_central_projections_seed_independent(m23):
    span = symmetric_power_span(m23, 2)
    r1 = minimal_central_projections(span, seed=1)
    r2 = minimal_central_projections(span, seed=99)
    key1 = sorted(zip(r1.block_dims, r1.multiplicities))
    key2 = sorted(zip(r2.block_dims, r2.multiplicities))
    assert key1 == key2


def test_wedderburn_solve_builds_no_member_stack():
    # S^3 of M_1 (+) M_2 (+) M_2: 165 orbit sums on ambient 125, a 41 MB
    # member stack; the split and the center solve read the labels and
    # build only each support component's basis
    algebra = make_algebra([1, 2, 2])
    stack = symmetric_power_count(algebra.dim, 3) * algebra.ambient ** 6 * 16
    tracemalloc.start()
    try:
        enumerated, spectral = wedderburn_comparison(algebra, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enumerated == spectral
    assert stack >= 30e6 and peak < stack / 2


def test_wedderburn_report_consistency(m23):
    span = symmetric_power_span(m23, 2)
    report = minimal_central_projections(span)
    assert sum(d * d for d in report.block_dims) == span.dim
    assert sum(d * k for d, k in zip(report.block_dims,
                                     report.multiplicities)) == span.ambient
    total = sum(report.central_projections)
    assert np.allclose(total, np.eye(span.ambient))
    for p in report.central_projections:
        for b in span.span_basis[:20]:
            assert op_norm(p @ b - b @ p) < 1e-8


def _embedded(fam, ambient, offset):
    """The family placed on the indices offset, offset + 1, ... of ambient."""
    out = np.zeros((fam.shape[0], ambient, ambient), dtype=complex)
    k = fam.shape[1]
    out[:, offset:offset + k, offset:offset + k] = fam
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 10), st.floats(0.0, 0.2),
       st.integers(0, 2 ** 32 - 1))
def test_support_components_match_bfs_oracle(n, count, density, seed):
    # labels of a family with disjoint supports: each entry is owned, with
    # probability density, by one of count members, renumbered to those
    # that own an entry
    rng = np.random.default_rng(seed)
    owner = np.where(rng.random(n * n) < density,
                     rng.integers(0, count, n * n), -1)
    entry = np.flatnonzero(owner >= 0)
    owner[entry] = np.unique(owner[entry], return_inverse=True)[1]
    mats = np.zeros((owner.max(initial=-1) + 1, n * n), dtype=bool)
    mats[owner[entry], entry] = True
    got = [(list(idx), list(members))
           for idx, members in _support_components(n, owner)]
    assert got == support_components_bfs(mats.reshape(-1, n, n))


def test_split_keeps_a_straddling_member_in_one_component(m2):
    # a ⊕ a on ambient 4: E_01 ⊕ E_01 touches both copies
    span = spanned_algebra(np.stack([direct_sum([b, b])
                                     for b in m2.basis_matrices()]))
    assert len(_support_components(span.ambient, span.owner)) == 1
    report = minimal_central_projections(span)
    assert report.block_dims == [2]
    assert report.multiplicities == [2]
    assert np.allclose(report.central_projections[0], np.eye(4))


def test_split_of_a_direct_sum_is_the_union_of_the_parts(m2):
    m2_fam = m2.basis_matrices()
    reg_fam = regular_rep(symmetric_group(3)).matrices
    parts = [minimal_central_projections(spanned_algebra(f))
             for f in (m2_fam, reg_fam)]
    span = spanned_algebra(np.concatenate([_embedded(m2_fam, 8, 0),
                                           _embedded(reg_fam, 8, 2)]))
    assert len(_support_components(span.ambient, span.owner)) == 2
    report = minimal_central_projections(span)
    assert sorted(zip(report.block_dims, report.multiplicities)) == sorted(
        (d, k) for r in parts for d, k in zip(r.block_dims, r.multiplicities))
    assert report.block_dims == [1, 1, 2, 2]
    projs = report.central_projections
    assert np.allclose(sum(projs), np.eye(8))
    for i, p in enumerate(projs):
        assert span.contains(p, 1e-8)
        for q in projs[i + 1:]:
            assert op_norm(p @ q) < 1e-10


def test_split_skips_indices_no_member_touches(m2):
    # M_2 on the first two of three indices
    span = spanned_algebra(_embedded(m2.basis_matrices(), 3, 0))
    assert not span.contains(np.eye(3))
    report = minimal_central_projections(span)
    assert report.block_dims == [2] and report.multiplicities == [1]
    assert np.allclose(report.central_projections[0], np.diag([1, 1, 0]))
    # a component that is itself non-unital: the span of one rank-one
    # projection whose support block is {0, 1}; index 2 is untouched
    half = np.zeros((1, 3, 3), dtype=complex)
    half[0, :2, :2] = 0.5
    report = minimal_central_projections(spanned_algebra(half))
    assert report.block_dims == [1] and report.multiplicities == [1]
    assert np.allclose(report.central_projections[0], half[0])


@st.composite
def _blocks_and_degree(draw):
    """Block lists and degrees with ambient ** n <= 64.  Blocks are at most
    3 wide: one block of size k is a single support component of size k ** n,
    and k = 4, n = 3 alone takes seconds."""
    n = draw(st.integers(1, 4))
    room = max(a for a in range(1, 9) if a ** n <= 64)
    blocks = [draw(st.integers(1, min(3, room)))]
    room -= blocks[0]
    while room > 0 and draw(st.booleans()):
        blocks.append(draw(st.integers(1, min(3, room))))
        room -= blocks[-1]
    return blocks, n


@settings(max_examples=30, deadline=None)
@given(_blocks_and_degree(), st.integers(0, 1000))
def test_enumerated_blocks_equal_spectral_blocks(case, seed):
    blocks, n = case
    enumerated, spectral = wedderburn_comparison(make_algebra(blocks), n,
                                                 seed=seed)
    assert enumerated == spectral


def test_equivalent_cases(m2, m23, rng):
    pi = m23.block_images(0)
    rho = m23.block_images(1)
    assert equivalent(pi, pi)
    assert not equivalent(pi, rho)  # dimension mismatch
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q = np.linalg.qr(x)[0]
    conj = np.stack([q @ m @ q.conj().T for m in pi])
    assert equivalent(pi, conj)
    assert intertwiner_space(pi, conj).shape[0] == 1 \
        == naive_intertwiner_dim(pi, conj)


def test_equivalent_same_dim_inequivalent(rng):
    # a 2-dim rep of C^2 twice through one character vs once through each
    c2 = make_algebra([1, 1])
    double_first = np.zeros((2, 2, 2), dtype=complex)
    double_first[0] = np.eye(2)
    mixed = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    assert not equivalent(double_first, mixed)
    assert naive_intertwiner_dim(double_first, mixed) == 2  # rank-deficient


def test_irreducible_and_factor(m2, m23):
    assert is_irreducible(m2.basis_matrices())
    doubled = np.stack([np.kron(np.eye(2), b) for b in m2.basis_matrices()])
    assert not is_irreducible(doubled)
    assert is_factor(doubled)
    assert commutant_dimension(doubled) == 4
    defining = m23.basis_matrices()
    assert not is_factor(defining)  # two central summands


def test_essential_subspace():
    c2 = make_algebra([1, 1])
    images = c2.basis_matrices()
    assert np.allclose(essential_subspace(images), np.eye(2))
    # a degenerate rep of the corner of one coordinate
    degenerate = np.zeros((1, 2, 2), dtype=complex)
    degenerate[0, 0, 0] = 1.0
    p = essential_subspace(degenerate)
    assert np.allclose(p, np.diag([1.0, 0.0]))
    zero = np.zeros((1, 2, 2), dtype=complex)
    assert np.allclose(essential_subspace(zero), np.zeros((2, 2)))


def test_quasi_equivalence(m2, rng):
    pi = m2.basis_matrices()
    doubled = np.stack([np.kron(np.eye(2), b) for b in pi])
    assert quasi_equivalent(pi, doubled)
    c2 = make_algebra([1, 1])
    chi0 = np.zeros((2, 1, 1), dtype=complex)
    chi0[0] = 1.0
    chi1 = np.zeros((2, 1, 1), dtype=complex)
    chi1[1] = 1.0
    assert not quasi_equivalent(chi0, chi1)


def test_ergodic_bound_check(c2, m2, c3):
    swap = ergodic_bound_check(
        block_permutation_action(c2, symmetric_group(2)))
    assert swap.is_ergodic and swap.algebra_dim == 2 and swap.group_order == 2

    tensor = ergodic_bound_check(tensor_permutation_action(m2, 2))
    assert not tensor.is_ergodic

    trivial = ergodic_bound_check(trivial_action(c2, symmetric_group(2)))
    assert not trivial.is_ergodic

    full = ergodic_bound_check(block_permutation_action(c3, symmetric_group(3)))
    assert full.is_ergodic and full.algebra_dim <= full.group_order


def test_spanned_algebra_closure_check(m2):
    # a subspace that is not product closed must be rejected
    bad = m2.basis_matrices()[1:3]  # off-diagonal units only
    with pytest.raises(ValueError):
        spanned_algebra(np.concatenate([bad, bad.conj().transpose(0, 2, 1)]))


def test_span_closure_sees_every_product():
    # 25 diagonal units on the indices 2..26 and the Hermitian
    # a = E_00 + E_01 + E_10: adjoints stay in the span, and of the 26^2
    # products only a @ a = [[2, 1], [1, 1]] (on indices 0, 1) falls outside
    n = 27
    fam = np.zeros((26, n, n), dtype=complex)
    fam[np.arange(1, 26), np.arange(2, n), np.arange(2, n)] = 1
    fam[0, 0, 0] = fam[0, 0, 1] = fam[0, 1, 0] = 1
    spanned_algebra(fam[1:])
    with pytest.raises(ValueError, match="products"):
        spanned_algebra(fam)


@st.composite
def _disjoint_family(draw):
    """Members on disjoint random sets of entries of an ambient <= 8 matrix,
    1-6 members with at least one entry each, random complex values."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, n * n))
    count = draw(st.integers(1, min(6, size)))
    entries = rng.permutation(n * n)[:size]
    # every member gets one entry, the rest go to random members
    owner = np.concatenate([np.arange(count),
                            rng.integers(0, count, size - count)])
    fam = np.zeros((count, n * n), dtype=complex)
    fam[owner, entries] = rng.standard_normal(size) \
        + 1j * rng.standard_normal(size)
    return fam.reshape(count, n, n), rng


def _span_answers(span, fam, rng, tol=1e-9):
    """Membership of the members, of a generic combination and of the
    identity, and of a random matrix at 2x and 0.5x its oracle distance."""
    c = rng.standard_normal(fam.shape[0]) + 1j * rng.standard_normal(fam.shape[0])
    answers = [span.contains(m, tol) for m in fam]
    answers.append(span.contains(np.tensordot(c, fam, axes=(0, 0)), tol))
    answers.append(span.contains(np.eye(span.ambient), tol))
    mat = rng.standard_normal(fam.shape[1:]) \
        + 1j * rng.standard_normal(fam.shape[1:])
    dist = distance_to_span(fam, mat)
    answers.append(span.contains(mat, tol, scale=2 * dist / tol)
                   if dist > 1e-6 else span.contains(mat, tol))
    answers.append(dist > 1e-6
                   and span.contains(mat, tol, scale=0.5 * dist / tol))
    return answers


@settings(max_examples=60, deadline=None)
@given(_disjoint_family())
def test_disjoint_family_is_kept_as_labels(case):
    fam, rng = case
    span = spanned_algebra(fam, check=False)
    norms = np.linalg.norm(fam, axis=(1, 2))
    assert span.onb is None
    assert np.allclose(span.span_basis, fam / norms[:, None, None])
    assert span.owner.shape == span.normalized.shape == (fam[0].size,)
    state = rng.bit_generator.state
    answers = _span_answers(span, fam, rng)
    assert all(answers[:fam.shape[0] + 1]) and answers[-2] and not answers[-1]
    # one member also nonzero on an entry of another: the same span, solved
    # by the SVD, gives the same answers on the same draws
    if fam.shape[0] >= 2:
        shared = fam.copy()
        shared[1] += 0.5 * fam[0]
        other = spanned_algebra(shared, check=False)
        assert other.onb is not None and other.owner is None
        rng.bit_generator.state = state
        assert _span_answers(other, fam, rng) == answers


def test_symmetric_power_span_and_its_components_keep_labels(monkeypatch):
    algebra = make_algebra([2, 1])
    span = symmetric_power_span(algebra, 3)
    assert span.onb is None
    assert span.owner.shape == (span.ambient ** 2,)
    subs = []
    solve = structure._component_projections

    def record(sub, *args):
        subs.append(sub)
        return solve(sub, *args)

    monkeypatch.setattr(structure, "_component_projections", record)
    report = minimal_central_projections(span)
    assert len(subs) == len(_support_components(span.ambient, span.owner)) > 1
    for sub in subs:
        assert sub.onb is None and sub.owner.shape == (sub.ambient ** 2,)
    enumerated, _ = wedderburn_comparison(algebra, 3)
    assert sorted(report.block_dims) == enumerated
