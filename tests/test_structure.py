import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cstarpow import structure
from cstarpow.algebra import (Representation, make_algebra,
                              symmetric_power_basis, symmetric_power_count)
from cstarpow.classify import (enumerate_sn_irreps, realize_sn_irrep,
                               symmetric_power_span, wedderburn_comparison)
from cstarpow.crossed import (block_permutation_action,
                              tensor_permutation_action)
from cstarpow.errors import BudgetError, DegenerateDrawError
from cstarpow.groups import UnitaryRep, permutation_rep, symmetric_group
from cstarpow.linalg import direct_sum, op_norm
from cstarpow.structure import (_support_components, commutant, equivalent,
                                ergodic_bound_check, intertwiner_space,
                                minimal_central_projections, spanned_algebra)
from oracles import (center_dimension, central_projections, compressed_rank,
                     distance_to_span, every_component_report,
                     full_symmetric_power_basis, full_symmetric_power_span,
                     isotypic_projection, naive_commutant_dim,
                     naive_intertwiner_dim, support_components_bfs,
                     trivial_action)


def test_commutant_of_full_matrix_algebra(m2):
    comm = commutant(m2.embed(np.eye(m2.dim)))
    assert comm.dim == 1


def test_commutant_of_diagonals():
    diag = np.stack([np.diag(row).astype(complex) for row in np.eye(3)])
    assert commutant(diag).dim == 3


def test_commutant_of_tensor_factor(m2):
    fam = np.stack([np.kron(np.eye(2), b) for b in m2.embed(np.eye(m2.dim))])
    comm = commutant(fam)
    assert comm.dim == 4 == naive_commutant_dim(fam)
    # the commutant is the other tensor factor
    other = np.stack([np.kron(b, np.eye(2)) for b in m2.embed(np.eye(m2.dim))])
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
    return _conjugated(np.stack(units), rng) if conjugate else np.stack(units)


def _conjugated(fam, rng):
    """A family conjugated by one random unitary."""
    n = fam.shape[1]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(x)[0]
    return np.matmul(q, fam @ q.conj().T)


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


@functools.cache
def _realized_irreps():
    """For a few small A and n, the generator images dGamma(e_i) of the
    irreducibles of S^n(A) of dimension <= 6, one list per algebra."""
    cases = []
    for blocks, n in (([2], 2), ([2], 3), ([1, 1], 3), ([2, 1], 2), ([3], 2)):
        algebra = make_algebra(blocks)
        cases.append([realize_sn_irrep(algebra, n, d).images
                      for d in enumerate_sn_irreps(algebra, n) if d.dim <= 6])
    return cases


@st.composite
def _realized_family(draw):
    """The generator images of a direct sum of realized irreducibles pi of
    one S^n(A), each as pi (x) I_m, on ambient <= 12 and conjugated by a
    random unitary, and its commutant dimension: distinct irreducibles are
    inequivalent, so the commutant is a sum of M_m."""
    irreps = draw(st.sampled_from(_realized_irreps()))
    mults, room = [], 12
    for images in irreps:
        mults.append(draw(st.integers(0 if mults else 1,
                                      room // images.shape[1])))
        room -= mults[-1] * images.shape[1]
    fam = np.stack([direct_sum([np.kron(image, np.eye(m))
                                for image, m in zip(member, mults) if m])
                    for member in zip(*irreps)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _conjugated(fam, rng), sum(m * m for m in mults)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_star_closed_family(), _realized_family()))
def test_commutant_dimension_on_star_closed_families(case):
    # every family, of one or two members as of many, passes on its first
    # generic combination: one verification and no dense system
    fam, expected = case
    verify, calls = structure._verify_commutant, []

    def counted(*args):
        calls.append(args)
        return verify(*args)

    def refuse(m):
        raise AssertionError("the dense system was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "_verify_commutant", counted)
        patch.setattr(structure, "_commutation_operator", refuse)
        assert commutant(fam).dim == naive_commutant_dim(fam) == expected
    assert len(calls) == 1


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
    # the center solved from the commutators of the whole basis has one
    # dimension per minimal central projection the engine finds
    report = minimal_central_projections(span)
    assert center_dimension(basis) == len(report.blocks) == len(blocks)
    assert sorted(zip(report.block_dims, report.multiplicities)) == blocks


def _phased(span, rng):
    """The label span with each member times a random phase, so that its
    weights are complex and differ between members."""
    phase = np.exp(2j * np.pi * rng.random(span.dim))
    return structure.label_span(span.ambient, span.member, span.entry,
                                span.weight * phase[span.member])


@st.composite
def _wedderburn_span(draw):
    """A ``_block_span``, or the symmetric power span of a block list on
    ambient <= 27; labels get random member phases, and a symmetric power
    conjugated by a random unitary is kept as dense rows."""
    if draw(st.booleans()):
        span, _, rng = draw(_block_span())
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        blocks = draw(st.sampled_from([[1], [2], [3], [1, 1], [2, 1],
                                       [1, 1, 1]]))
        n = draw(st.integers(1, max(a for a in (1, 2, 3)
                                    if sum(blocks) ** a <= 27)))
        span = symmetric_power_span(make_algebra(blocks), n)
        if draw(st.booleans()):
            x = rng.standard_normal((span.ambient,) * 2) \
                + 1j * rng.standard_normal((span.ambient,) * 2)
            q = np.linalg.qr(x)[0]
            span = spanned_algebra(
                np.matmul(q, span.span_basis @ q.conj().T), check=False)
    if span.onb is None:
        span = _phased(span, rng)
    return span, rng


@settings(max_examples=40, deadline=None)
@given(_wedderburn_span())
def test_center_system_and_trace_block_dims_match_dense_oracles(case):
    span, _ = case
    basis = span.span_basis
    gram = structure._basis_gram(span)
    projs = central_projections(minimal_central_projections(span))
    # one minimal central projection per dimension of the center solved
    # from the commutators of the whole basis
    assert center_dimension(basis) == len(projs)
    # the trace tr(P G) against the rank of the compressed family, on each
    # minimal central projection and on their sum
    for proj in projs + [sum(projs)]:
        assert abs(np.real(np.vdot(gram, proj))
                   - compressed_rank(basis, proj)) <= 1e-9


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


def _gram(span):
    basis = span.span_basis
    return np.tensordot(basis.conj(), basis, axes=([1, 2], [1, 2]))


def test_commutant_falls_back_to_the_dense_system(monkeypatch, m2):
    fam = np.stack([np.kron(np.eye(2), b) for b in m2.embed(np.eye(m2.dim))])
    calls = {"verify": 0, "dense": 0}
    dense = structure._commutation_operator

    def counted(m):
        calls["dense"] += 1
        return dense(m)

    monkeypatch.setattr(structure, "_commutation_operator", counted)
    comm = commutant(fam)
    assert comm.dim == 4 and np.allclose(_gram(comm), np.eye(4), atol=1e-12)
    assert calls["dense"] == 0
    verify = structure._verify_commutant

    def failing_three_draws(cands, f, tol, rng):
        calls["verify"] += 1
        return calls["verify"] > 3 and verify(cands, f, tol, rng)

    monkeypatch.setattr(structure, "_verify_commutant", failing_three_draws)
    comm = commutant(fam)
    assert comm.dim == 4 and np.allclose(_gram(comm), np.eye(4), atol=1e-12)
    assert calls == {"verify": 3, "dense": fam.shape[0]}


def _inequivalent_irreps(rng):
    """The two irreducibles of M_2 (+) M_2, each conjugated by its own random
    unitary, so that round-off fills every entry of a solve."""
    units = make_algebra([2, 2]).embed(np.eye(8))
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


def test_equivalence_takes_no_svd_beyond_the_solve(monkeypatch, rng):
    # the corner dimensions are traces of the orthonormal commutant basis,
    # so the one SVD is that of the eigenbasis solve's nullspace
    pi, rho = _inequivalent_irreps(rng)
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    structure._commutant_basis((pi, rho), structure.DEFAULT_TOL, 0)
    assert len(calls) == 1
    assert not equivalent(pi, rho)
    assert len(calls) == 2


def test_equivalence_refuses_a_non_integer_corner_trace(monkeypatch):
    # a unit member split between the (1, 1) and (2, 1) corners is no
    # commutant basis: each of those cuts has trace 1/2
    split = np.zeros((1, 2, 2), dtype=complex)
    split[0, 0, 0] = split[0, 1, 0] = np.sqrt(0.5)
    monkeypatch.setattr(structure, "_commutant_basis",
                        lambda blocks, tol, seed: split)
    one = np.ones((1, 1, 1), dtype=complex)
    with pytest.raises(DegenerateDrawError, match="not an integer"):
        equivalent(one, one)


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


def test_dense_fallback_of_many_members_is_refused(monkeypatch):
    # 500 diagonal members on ambient 20 <= MAX_COMMUTANT_AMBIENT: their
    # dense system has 500 x 20^4 = 80M entries, over MAX_DENSE_ENTRIES
    fam = np.zeros((500, 20, 20), dtype=complex)
    fam[:, np.arange(20), np.arange(20)] = \
        np.random.default_rng(0).standard_normal((500, 20))
    assert 500 * 20 ** 4 > structure.MAX_DENSE_ENTRIES
    calls = {"verify": 0, "dense": 0}

    def failing(cands, f, tol, gen):
        calls["verify"] += 1
        return False

    def counted(m):
        calls["dense"] += 1
        return np.zeros((0, 0))

    monkeypatch.setattr(structure, "_verify_commutant", failing)
    monkeypatch.setattr(structure, "_commutation_operator", counted)
    with pytest.raises(BudgetError, match="500 members"):
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


@pytest.fixture(scope="module")
def s3_m4_pair():
    """The two inequivalent irreducibles of dimension 20 of S^3(M_4), on
    the 16 generators dGamma(e_i)."""
    m4 = make_algebra([4])
    return [realize_sn_irrep(m4, 3, d).images
            for d in enumerate_sn_irreps(m4, 3) if d.dim == 20]


def test_pair_solve_probe_has_a_simple_spectrum(monkeypatch, s3_m4_pair):
    # a combination of the dGamma(e_i) alone lies in a Lie algebra, whose
    # eigenvalues repeat by weight (88 unknowns); with the product term H
    # is a generic member of M_20 (+) M_20, with 20 + 20 simple eigenvalues
    unknowns = []
    clusters = structure.cluster_eigenvalues

    def counted(w, gap):
        out = clusters(w, gap)
        unknowns.append(sum(len(c) ** 2 for c in out))
        return out

    monkeypatch.setattr(structure, "cluster_eigenvalues", counted)
    assert not equivalent(*s3_m4_pair)
    assert unknowns == [40]


def _traced_peak(solve):
    """The result of ``solve()`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return solve(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commutant_solves_hold_one_slice_of_their_system(s3_m4_pair):
    # the system is folded into its R factor slice by slice: the largest
    # irreducible of S^4(M_5), on ambient 105, once held its whole system
    # (two constraints' 105^2 rows by 195 unknowns) and a QR copy, 209 MB
    m5 = make_algebra([5])
    desc = max(enumerate_sn_irreps(m5, 4), key=lambda d: d.dim)
    images = realize_sn_irrep(m5, 4, desc).images
    dim, peak = _traced_peak(lambda: commutant(images).dim)
    assert desc.dim == 105 and dim == 1 and peak < 32e6
    verdict, peak = _traced_peak(lambda: equivalent(*s3_m4_pair))
    assert not verdict and peak < 6e6


def test_eigenbasis_system_slices_stack_to_the_dense_system(monkeypatch, rng):
    # the columns of the unknowns E_rc of the dense commutation system in
    # the eigenbasis, whatever the slicing
    n, sizes = 7, (3, 1, 2, 1)
    clusters = np.split(np.arange(n), np.cumsum(sizes)[:-1])
    rows = np.concatenate([np.repeat(c, len(c)) for c in clusters])
    cols = np.concatenate([np.tile(c, len(c)) for c in clusters])
    constraints = rng.standard_normal((2, n, n)) \
        + 1j * rng.standard_normal((2, n, n))
    v = _conjugated(np.eye(n)[None], rng)[0]
    want = np.concatenate([
        structure._commutation_operator(v.conj().T @ m @ v)[:, rows * n + cols]
        for m in constraints])
    for chunk in (1, 2 * n * rows.size + 1, structure._SYSTEM_CHUNK):
        monkeypatch.setattr(structure, "_SYSTEM_CHUNK", chunk)
        slices = list(structure._eigenbasis_system(constraints, v, rows, cols))
        assert all(s.size <= max(chunk, n * rows.size) for s in slices)
        assert np.allclose(np.concatenate(slices), want, rtol=0, atol=1e-12)


def test_chunked_solves_match_unchunked(monkeypatch, s3_m4_pair):
    pi, rho = s3_m4_pair
    both = np.stack([direct_sum(p) for p in zip(pi, rho)])

    def results():
        return (commutant(pi).dim, commutant(both).dim,
                equivalent(pi, rho), equivalent(pi, pi))

    whole = results()
    system = structure._eigenbasis_system
    shapes = []

    def counted(constraints, v, rows, cols):
        for block in system(constraints, v, rows, cols):
            shapes.append(block.shape)
            yield block

    def refuse(m):
        raise AssertionError("the dense system was built")

    # (pi, rho): 40 unknowns, 1600 entries a row, slices of 6 rows and a
    # last one of 4; (pi, pi): 80 unknowns, slices of 3 rows and one of 1
    monkeypatch.setattr(structure, "_SYSTEM_CHUNK", 10000)
    monkeypatch.setattr(structure, "_eigenbasis_system", counted)
    monkeypatch.setattr(structure, "_commutation_operator", refuse)
    assert results() == whole == (1, 2, False, True)
    assert all(r * c <= 10000 for r, c in shapes)
    assert {(r // 40, c) for r, c in shapes} >= {(6, 40), (4, 40), (3, 80),
                                                 (1, 80)}


def test_minimal_central_projections_full_block():
    m4 = make_algebra([4])
    span = spanned_algebra(m4.embed(np.eye(m4.dim)), check=False)
    report = minimal_central_projections(span)
    assert report.block_dims == [4]
    assert report.multiplicities == [1]
    assert np.allclose(sum(central_projections(report)), np.eye(4))


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
    regular = UnitaryRep(g, dest=g.mult, check=False)
    span = spanned_algebra(regular.matrices, check=False)
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
    # S^3 of M_1 (+) M_2 (+) M_2 on the full ambient: 165 orbit sums on
    # ambient 125, a 41 MB member stack; the split, the draws and the block
    # dimensions read the labels and build no basis
    algebra = make_algebra([1, 2, 2])
    stack = symmetric_power_count(algebra.dim, 3) * algebra.ambient ** 6 * 16
    span = full_symmetric_power_span(algebra, 3)
    tracemalloc.start()
    try:
        report = minimal_central_projections(span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(report.block_dims) == \
        sorted(d.dim for d in enumerate_sn_irreps(algebra, 3))
    assert stack >= 30e6 and peak < stack / 2


def test_wedderburn_solve_of_s3_m2_m3_stays_small(m23):
    # the draws and the trace block dimensions form no product with a
    # component's basis, here on the full ambient 125
    span = full_symmetric_power_span(m23, 3)
    tracemalloc.start()
    try:
        report = minimal_central_projections(span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(d * d for d in report.block_dims) == span.dim
    assert peak < 20e6


def test_wedderburn_report_consistency(m23):
    span = symmetric_power_span(m23, 2)
    report = minimal_central_projections(span)
    assert sum(d * d for d in report.block_dims) == span.dim
    assert sum(d * k for d, k in zip(report.block_dims,
                                     report.multiplicities)) == span.ambient
    total = sum(central_projections(report))
    assert np.allclose(total, np.eye(span.ambient))
    for p in central_projections(report):
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
    comps = _support_components(n, owner[entry], entry)
    got = [(list(idx), list(members)) for idx, members, _ in comps]
    assert got == support_components_bfs(mats.reshape(-1, n, n))
    # each label falls in the component of its member
    assert sorted(t for _, _, lab in comps for t in lab) \
        == list(range(entry.size))
    for _, members, lab in comps:
        assert set(owner[entry[lab]]) == set(members)


def _components(span):
    return _support_components(span.ambient, span.member, span.entry)


def test_split_keeps_a_straddling_member_in_one_component(m2):
    # a ⊕ a on ambient 4: E_01 ⊕ E_01 touches both copies
    span = spanned_algebra(np.stack([direct_sum([b, b])
                                     for b in m2.embed(np.eye(m2.dim))]))
    assert len(_components(span)) == 1
    report = minimal_central_projections(span)
    assert report.block_dims == [2]
    assert report.multiplicities == [2]
    assert np.allclose(central_projections(report)[0], np.eye(4))


def test_split_of_a_direct_sum_is_the_union_of_the_parts(m2):
    m2_fam = m2.embed(np.eye(m2.dim))
    s3 = symmetric_group(3)
    reg_fam = UnitaryRep(s3, dest=s3.mult, check=False).matrices
    parts = [minimal_central_projections(spanned_algebra(f))
             for f in (m2_fam, reg_fam)]
    span = spanned_algebra(np.concatenate([_embedded(m2_fam, 8, 0),
                                           _embedded(reg_fam, 8, 2)]))
    assert len(_components(span)) == 2
    report = minimal_central_projections(span)
    assert sorted(zip(report.block_dims, report.multiplicities)) == sorted(
        (d, k) for r in parts for d, k in zip(r.block_dims, r.multiplicities))
    assert report.block_dims == [1, 1, 2, 2]
    projs = central_projections(report)
    assert np.allclose(sum(projs), np.eye(8))
    for i, p in enumerate(projs):
        assert span.contains(p, 1e-8)
        for q in projs[i + 1:]:
            assert op_norm(p @ q) < 1e-10


def test_split_skips_indices_no_member_touches(m2):
    # M_2 on the first two of three indices
    span = spanned_algebra(_embedded(m2.embed(np.eye(m2.dim)), 3, 0))
    assert not span.contains(np.eye(3))
    report = minimal_central_projections(span)
    assert report.block_dims == [2] and report.multiplicities == [1]
    assert np.allclose(central_projections(report)[0], np.diag([1, 1, 0]))
    # a component that is itself non-unital: the span of one rank-one
    # projection whose support block is {0, 1}; index 2 is untouched
    half = np.zeros((1, 3, 3), dtype=complex)
    half[0, :2, :2] = 0.5
    report = minimal_central_projections(spanned_algebra(half))
    assert report.block_dims == [1] and report.multiplicities == [1]
    assert np.allclose(central_projections(report)[0], half[0])


def test_alike_components_are_solved_once(monkeypatch):
    # S^4(C^4) on the full ambient splits into 35 support components, of 5
    # distinct label spans; in block form, into 35 blocks of size 1, alike
    algebra = make_algebra([1, 1, 1, 1])
    span = full_symmetric_power_span(algebra, 4)
    assert len(_components(span)) == 35
    calls = []
    solve = structure._component_projections
    monkeypatch.setattr(structure, "_component_projections",
                        lambda *a: calls.append(a) or solve(*a))
    minimal_central_projections(span)
    assert len(calls) == 5
    block_form = symmetric_power_span(algebra, 4)
    assert len(_components(block_form)) == 35
    minimal_central_projections(block_form)
    assert len(calls) == 5 + 1


def test_components_alike_in_size_are_compared_by_their_labels(monkeypatch):
    # M_2, span{I, X} and span{I, Y} on ambients 2 each, with 4 labels each:
    # one (ambient, label count), three distinct label spans; the last two
    # differ in their weights alone
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    fams = [np.eye(4, dtype=complex).reshape(4, 2, 2),
            np.stack([np.eye(2), x]), np.stack([np.eye(2), y])]
    span = spanned_algebra(np.concatenate([_embedded(f, 6, 2 * i)
                                           for i, f in enumerate(fams)]))
    assert span.onb is None
    assert [(len(idx), len(labels)) for idx, _, labels
            in _components(span)] == [(2, 4)] * 3
    calls = []
    solve = structure._component_projections
    monkeypatch.setattr(structure, "_component_projections",
                        lambda *a: calls.append(a) or solve(*a))
    report = minimal_central_projections(span)
    assert len(calls) == 3
    assert (report.block_dims, report.multiplicities) == ([1] * 4 + [2],
                                                          [1] * 5)
    for idx, proj in report.blocks:
        assert distance_to_span(fams[idx[0] // 2], proj) < 1e-9


@pytest.mark.parametrize("blocks, n", [([1, 1, 1, 1], 4), ([2, 2, 2], 4),
                                       ([2, 3], 3)])
def test_report_equals_solving_every_component(blocks, n):
    span = symmetric_power_span(make_algebra(blocks), n)
    report = minimal_central_projections(span, seed=3)
    want = every_component_report(span, seed=3)
    assert (report.ambient, report.block_dims, report.multiplicities) == (
        want.ambient, want.block_dims, want.multiplicities)
    assert len(report.blocks) == len(want.blocks)
    for (idx, proj), (want_idx, want_proj) in zip(report.blocks, want.blocks):
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(proj, want_proj)


def test_shared_projections_are_read_only():
    span = symmetric_power_span(make_algebra([1, 1, 1, 1]), 4)
    report = minimal_central_projections(span)
    projs = [proj for _, proj in report.blocks]
    assert len({id(p) for p in projs}) < len(projs)
    for proj in projs:
        assert not proj.flags.writeable
        with pytest.raises(ValueError):
            proj[0, 0] = 2.0


@st.composite
def _blocks_and_degree(draw):
    """Block lists and degrees with ambient ** n <= 64, blocks at most 3
    wide; single wide blocks, one support component of size k ** n, are
    explicit examples."""
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
@example(([8], 2), 0)
@example(([4], 3), 0)
def test_enumerated_blocks_equal_spectral_blocks(case, seed):
    blocks, n = case
    enumerated, spectral = wedderburn_comparison(make_algebra(blocks), n,
                                                 seed=seed)
    assert enumerated == spectral


@settings(max_examples=30, deadline=None)
@given(_blocks_and_degree(), st.integers(0, 1000))
@example(([2, 1], 3), 0)
@example(([1, 1, 1], 3), 0)
def test_block_form_keeps_the_wedderburn_data_of_the_full_ambient(case, seed):
    # one sorted block sequence per orbit: the same block dimensions, and
    # each multiplicity divided by the orbit size n!/prod q_j! of the block
    # counts q of its sequence
    blocks, n = case
    algebra = make_algebra(blocks)
    sym, full = symmetric_power_basis(algebra, n), \
        full_symmetric_power_basis(algebra, n)
    assert (sym.index, sym.size) == (full.index, full.size)
    report = minimal_central_projections(
        symmetric_power_span(algebra, n, sym), seed=seed)
    want = minimal_central_projections(full_symmetric_power_span(algebra, n),
                                       seed=seed)
    assert sorted(report.block_dims) == sorted(want.block_dims) == \
        sorted(d.dim for d in enumerate_sn_irreps(algebra, n))
    # the blocks of the sorted sequences lie end to end in listing order
    betas = list(itertools.combinations_with_replacement(range(len(blocks)),
                                                         n))
    starts = np.cumsum([0] + [math.prod(blocks[j] for j in b) for b in betas])
    assert starts[-1] == sym.ambient
    scaled = []
    for (idx, _), d, m in zip(report.blocks, report.block_dims,
                              report.multiplicities):
        at = int(np.searchsorted(starts, idx[0], side="right")) - 1
        assert idx[-1] < starts[at + 1]
        orbit = math.factorial(n) // math.prod(
            math.factorial(betas[at].count(j)) for j in set(betas[at]))
        scaled.append((d, m * orbit))
    assert sorted(scaled) == sorted(zip(want.block_dims, want.multiplicities))


def test_equivalent_cases(m2, m23, rng):
    pi = Representation(m23, (1, 0)).images()
    rho = Representation(m23, (0, 1)).images()
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
    assert commutant(m2.embed(np.eye(m2.dim))).dim == 1
    doubled = np.stack([np.kron(np.eye(2), b)
                        for b in m2.embed(np.eye(m2.dim))])
    assert commutant(doubled).dim == 4

    def central_blocks(fam):
        # with the identity, the span of a *-closed family is the generated
        # von Neumann algebra, a factor iff it has one central block
        eye = np.eye(fam.shape[1], dtype=complex)[None]
        span = spanned_algebra(np.concatenate([fam, eye]))
        return len(minimal_central_projections(span).blocks)

    assert central_blocks(doubled) == 1
    assert central_blocks(m23.embed(np.eye(m23.dim))) == 2
    e00 = np.zeros((1, 2, 2), dtype=complex)
    e00[0, 0, 0] = 1.0
    assert central_blocks(e00) == 2  # with I it spans the diagonals of C^2
    assert central_blocks(np.zeros((1, 2, 2), dtype=complex)) == 1


def _zero_links_for(monkeypatch, failing):
    """Makes x2, the second member of each draw of the Wedderburn engine,
    zero for the first ``failing`` draws; returns the list of draws."""
    combine = structure.SpannedAlgebra.combine
    draws = []

    def zero_second(self, coeffs):
        out = combine(self, coeffs)
        if out.shape[0] == 3:  # x1, x2 and the commutation probe
            draws.append(out)
            if len(draws) <= failing:
                out[1] = 0
        return out

    monkeypatch.setattr(structure.SpannedAlgebra, "combine", zero_second)
    return draws


def test_degenerate_draws_are_redrawn(monkeypatch, m2):
    # a zero x2 links no clusters, so the 3-dim summand of S^2(M_2) falls
    # apart into rank-one projections of trace 3, which is not 1^2
    span = symmetric_power_span(m2, 2)
    assert len(_components(span)) == 1
    draws = _zero_links_for(monkeypatch, 1)
    report = minimal_central_projections(span)
    assert len(draws) == 2 and sorted(report.block_dims) == [1, 3]
    monkeypatch.undo()
    draws = _zero_links_for(monkeypatch, 5)
    with pytest.raises(DegenerateDrawError, match="after 5 draws"):
        minimal_central_projections(span)
    assert len(draws) == 5


def test_commutation_probe_rejects_links_across_summands():
    # M_2 (+) M_2 with H = diag(1, 2, 3, 4): a generic x2 of the span links
    # the clusters 0, 1 and 2, 3.  Links 0-2 and 1-3 instead give
    # diag(1, 0, 1, 0) and diag(0, 1, 0, 1), which lie in the span, have
    # trace 4 = 2^2 against G = 2 I, even rank and squares summing to 8:
    # only the commutation probe sees that they are not central
    span = spanned_algebra(make_algebra([2, 2]).embed(np.eye(8)))
    gram = structure._basis_gram(span)
    h = np.diag(np.arange(1.0, 5.0)).astype(complex)
    rng = np.random.default_rng(0)
    x2, probe = span.combine(rng.standard_normal((2, span.dim))
                             + 1j * rng.standard_normal((2, span.dim)))
    found = structure._projections_from_spectrum(span, gram, h, x2, probe,
                                                 1e-9)
    assert [(d, m) for _, d, m in found] == [(2, 1), (2, 1)]
    crossed = np.zeros((4, 4), dtype=complex)
    crossed[0, 2] = crossed[1, 3] = 1.0
    with pytest.raises(DegenerateDrawError, match="not central"):
        structure._projections_from_spectrum(span, gram, h, crossed, probe,
                                             1e-9)


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
    bad = m2.embed(np.eye(m2.dim))[1:3]  # off-diagonal units only
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
    labels = np.count_nonzero(fam)
    assert span.member.shape == span.entry.shape == span.weight.shape \
        == (labels,)
    state = rng.bit_generator.state
    answers = _span_answers(span, fam, rng)
    assert all(answers[:fam.shape[0] + 1]) and answers[-2] and not answers[-1]
    # one member also nonzero on an entry of another: the same span, solved
    # by the SVD, gives the same answers on the same draws
    if fam.shape[0] >= 2:
        shared = fam.copy()
        shared[1] += 0.5 * fam[0]
        other = spanned_algebra(shared, check=False)
        assert other.onb is not None and other.member is None
        rng.bit_generator.state = state
        assert _span_answers(other, fam, rng) == answers


def test_label_path_allocates_nothing_of_the_ambient_size():
    # S^4(C^6) on the full ambient 1296: 126 orbit sums, one label per
    # diagonal entry; one ambient^2 array of 8-byte entries would be 13.4 MB
    span = full_symmetric_power_span(make_algebra([1] * 6), 4)
    assert span.ambient == 1296
    tracemalloc.start()
    try:
        report = minimal_central_projections(span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.block_dims == [1] * 126
    assert peak < 1296 ** 2 * 8


def test_symmetric_power_span_and_its_components_keep_labels(monkeypatch):
    algebra = make_algebra([2, 1])
    span = symmetric_power_span(algebra, 3)
    assert span.onb is None
    # one label per monomial on a sorted block sequence: 4^3 + 4^2 + 4 + 1
    assert span.member.shape == span.entry.shape == span.weight.shape \
        == (85,)
    subs = []
    solve = structure._component_projections

    def record(sub, *args):
        subs.append(sub)
        return solve(sub, *args)

    monkeypatch.setattr(structure, "_component_projections", record)
    report = minimal_central_projections(span)
    assert len(subs) == len(_components(span)) > 1
    for sub in subs:
        assert sub.onb is None
        assert sub.member.shape == sub.entry.shape == sub.weight.shape
    assert sum(sub.member.size for sub in subs) == span.member.size
    enumerated, _ = wedderburn_comparison(algebra, 3)
    assert sorted(report.block_dims) == enumerated
