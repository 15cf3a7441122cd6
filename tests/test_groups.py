import math
import tracemalloc

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarpow.errors import BudgetError
from cstarpow.groups import (FiniteGroup, ProjectiveRep, Subgroup, UnitaryRep,
                             adjacent_transposition_matrices,
                             cyclic_group, factor_permutation_index,
                             hook_lengths, partitions, permutation_rep,
                             sn_irrep, ssyt_count, standard_tableaux,
                             symmetric_group, syt_dimension, trivial_subgroup,
                             young_subgroup)
from cstarpow.linalg import op_norm
from cstarpow.structure import minimal_central_projections, spanned_algebra
from oracles import (is_associative, isotypic_projection, permuted_kron,
                     ssyt_enumerate)


def test_symmetric_group_sizes_and_laws():
    assert symmetric_group(1).order == 1
    assert symmetric_group(3).order == 6
    g = symmetric_group(4)
    assert g.order == 24
    assert is_associative(g.mult)
    for a in range(g.order):
        assert g.mult[a, g.inv[a]] == g.identity
        assert g.mult[g.inv[a], a] == g.identity


def test_symmetric_group_range():
    with pytest.raises(ValueError):
        symmetric_group(0)
    # a table past the largest built is a size refusal
    with pytest.raises(BudgetError, match="S_8"):
        symmetric_group(8)


def test_cyclic_group():
    g = cyclic_group(5)
    assert g.order == 5 and is_associative(g.mult)
    assert g.identity == 0


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])


def test_int64_table_is_not_copied():
    table = cyclic_group(5).mult.copy()
    assert np.shares_memory(FiniteGroup(table).mult, table)


def test_group_json_round_trip():
    from cstarpow.groups import group_from_json
    assert group_from_json({"symmetric": 3}) is symmetric_group(3)
    g = cyclic_group(3)
    again = group_from_json({"table": g.mult.tolist(), "inv": g.inv.tolist()})
    assert np.array_equal(again.mult, g.mult)
    with pytest.raises(ValueError):
        group_from_json({"table": g.mult.tolist(), "inv": [0, 1, 2]})
    with pytest.raises(ValueError):
        group_from_json({"order": 6})


def test_young_subgroup_cosets():
    g = symmetric_group(3)
    sub = young_subgroup([2, 1], g)
    assert sub.order == 2
    assert sub.index == 3
    # coset enumeration oracle: distinct left cosets, each of subgroup size
    seen = set()
    for rep in sub.coset_reps:
        coset = frozenset(g.multiply(rep, h) for h in sub.elements)
        assert len(coset) == sub.order
        assert coset not in seen
        seen.add(coset)
    assert len(seen) * sub.order == g.order

    assert Subgroup(g, range(g.order)).index == 1
    assert trivial_subgroup(g).index == g.order
    assert young_subgroup([3], g).order == 6
    assert young_subgroup([1, 1, 1], g).order == 1


def test_subgroup_closure_validation():
    g = symmetric_group(3)
    with pytest.raises(ValueError, match="multiplication"):
        Subgroup(g, [g.identity, 1, 2])  # two transpositions don't close
    # a 3-cycle without its inverse, the other 3-cycle
    cycle = g.perms.index((1, 2, 0))
    with pytest.raises(ValueError, match="inverses"):
        Subgroup(g, [g.identity, cycle])
    assert Subgroup(g, [g.identity, cycle, g.inverse(cycle)]).order == 3


def test_partitions_and_tableaux():
    assert len(partitions(5)) == 7
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    for n in range(1, 6):
        for lam in partitions(n):
            assert syt_dimension(lam) == len(standard_tableaux(lam))
        assert sum(syt_dimension(lam) ** 2 for lam in partitions(n)) \
            == math.factorial(n)


def test_sn_irrep_basics():
    triv = sn_irrep((3,))
    assert triv.dim == 1 and np.allclose(triv.matrices, 1.0)
    sign = sn_irrep((1, 1, 1))
    g = symmetric_group(3)
    for idx, p in enumerate(g.perms):
        parity = np.linalg.det(np.eye(3)[list(p)])
        assert np.isclose(sign.mat(idx)[0, 0], parity)
    assert sn_irrep((2, 1)).dim == 2


def test_generators_satisfy_the_coxeter_relations():
    # s_i^2 = 1, (s_i s_(i+1))^3 = 1 and (s_i s_j)^2 = 1 for |i - j| >= 2,
    # which present S_n (Coxeter & Moser, 1957)
    for n in range(2, 9):
        for lam in partitions(n):
            gens = adjacent_transposition_matrices(lam)
            eye = np.eye(syt_dimension(lam))
            assert len(gens) == n - 1
            for i, s in enumerate(gens):
                for j, t in enumerate(gens[i:], start=i):
                    # the Coxeter matrix: (s_i s_j)^m = 1
                    m = {0: 1, 1: 3}.get(j - i, 2)
                    word = np.linalg.matrix_power(s @ t, m)
                    assert np.allclose(word, eye, rtol=0, atol=1e-12), \
                        (lam, i, j)


def test_sn_irrep_homomorphism_exhaustive():
    for n in (3, 4):
        g = symmetric_group(n)
        for lam in partitions(n):
            rep = sn_irrep(lam)
            eye = np.eye(rep.dim)
            for a in range(g.order):
                m = rep.mat(a)
                assert op_norm(m @ m.conj().T - eye) < 1e-10
                assert np.max(np.abs(m.imag)) < 1e-12  # real orthogonal
                for b in range(g.order):
                    assert op_norm(rep.mat(a) @ rep.mat(b)
                                   - rep.mat(g.mult[a, b])) < 1e-10


def test_character_orthogonality():
    for n in range(2, 6):
        g = symmetric_group(n)
        lams = partitions(n)
        chars = {lam: np.einsum("gii->g", sn_irrep(lam).matrices)
                 for lam in lams}
        for lam in lams:
            for mu in lams:
                inner = np.sum(chars[lam] * np.conj(chars[mu])) / g.order
                assert abs(inner - (1.0 if lam == mu else 0.0)) < 1e-10


def test_hook_dimensions_match_regular_representation_blocks():
    g = symmetric_group(3)
    reg = UnitaryRep(g, dest=g.mult, check=False)
    # the index form against the permutation matrices built entry by entry
    loop = np.zeros((g.order, g.order, g.order), dtype=complex)
    for a in range(g.order):
        for b in range(g.order):
            loop[a, g.multiply(a, b), b] = 1.0
    assert np.array_equal(reg.matrices, loop)
    span = spanned_algebra(reg.matrices, check=False)
    report = minimal_central_projections(span)
    assert sorted(report.block_dims) == [1, 1, 2]
    assert sorted(report.block_dims) == sorted(
        syt_dimension(lam) for lam in partitions(3))


def test_ssyt_count_against_enumeration():
    for n in range(1, 5):
        for lam in partitions(n):
            for k in range(1, 4):
                assert ssyt_count(lam, k) == len(ssyt_enumerate(lam, k))
    assert ssyt_count((2,), 2) == 3
    assert ssyt_count((1, 1), 1) == 0
    assert ssyt_count((2, 1), 2) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_factor_permutation_index_matches_kron_oracle(data):
    n = data.draw(st.integers(1, 4))
    perm = data.draw(st.permutations(range(n)))
    # one dimension per cycle of perm, so that perm preserves the dimensions
    dims = [0] * n
    for start in range(n):
        if dims[start]:
            continue
        k, t = data.draw(st.integers(1, 3)), start
        while dims[t] == 0:
            dims[t] = k
            t = perm[t]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    vectors = [rng.standard_normal(k) + 1j * rng.standard_normal(k)
               for k in dims]
    dest = factor_permutation_index(dims, [perm])
    assert dest.shape == (1, math.prod(dims))
    x = reduce(np.kron, vectors)
    y = np.empty_like(x)
    y[dest[0]] = x
    assert np.allclose(y, permuted_kron(vectors, perm), rtol=1e-14, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_factor_permutation_index_composition(data):
    n = data.draw(st.integers(1, 4))
    q = data.draw(st.sampled_from(_compositions(n)))
    dims = []
    for size in q:
        dims.extend([data.draw(st.integers(1, 3))] * size)
    sub = young_subgroup(q)
    dest = factor_permutation_index(
        dims, [sub.ambient.perms[e] for e in sub.elements])
    for p in range(sub.order):
        for r in range(sub.order):
            assert np.array_equal(dest[sub.group.mult[p, r]], dest[p][dest[r]])


def _compositions(n):
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1)
            for rest in _compositions(n - first)]


def test_factor_permutation_index_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_permutation_index([2, 3], [(1, 0)])  # moves 2 onto 3
    with pytest.raises(ValueError):
        factor_permutation_index([2, 2], [(0, 0)])
    # refused before allocating: 10^8 entries
    with pytest.raises(BudgetError):
        factor_permutation_index([10] * 8, [tuple(range(8))])


def test_permutation_rep_swap_and_table():
    tau = permutation_rep(2, 2)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1.0
    swap[1, 2] = swap[2, 1] = 1.0
    g = symmetric_group(2)
    swap_idx = g.perms.index((1, 0))
    assert np.allclose(tau.mat(swap_idx), swap)

    tau3 = permutation_rep(3, 2)
    g3 = symmetric_group(3)
    for a in range(6):
        for b in range(6):
            assert np.allclose(tau3.mat(a) @ tau3.mat(b),
                               tau3.mat(g3.mult[a, b]))


def test_permutation_rep_intertwines_coefficient_action(rng):
    from cstarpow.algebra import make_algebra
    from cstarpow.crossed import tensor_permutation_action
    act = tensor_permutation_action(make_algebra([2]), 2)
    power = act.algebra
    tau = permutation_rep(2, 2)
    x = power.random_element(rng)
    for idx in range(act.group.order):
        lhs = power.embed(act.apply(idx, x))
        u = tau.mat(idx)
        assert op_norm(lhs - u @ power.embed(x) @ u.conj().T) < 1e-10


def test_isotypic_projections():
    tau = permutation_rep(3, 2)
    total = sum(isotypic_projection(lam, tau) for lam in partitions(3))
    assert np.allclose(total, np.eye(8))
    for lam in partitions(3):
        p = isotypic_projection(lam, tau)
        for m in tau.matrices:
            assert op_norm(p @ m - m @ p) < 1e-10

    tau2 = permutation_rep(2, 2)
    p_anti = isotypic_projection((1, 1), tau2)
    assert round(float(np.real(np.trace(p_anti)))) == 1
    p_sym = isotypic_projection((2,), tau2)
    assert round(float(np.real(np.trace(p_sym)))) == 3


def test_isotypic_rank_ratio_equals_ssyt_count():
    for n in (2, 3):
        for k in (2, 3):
            tau = permutation_rep(n, k)
            for lam in partitions(n):
                p = isotypic_projection(lam, tau)
                rank = round(float(np.real(np.trace(p))))
                d = syt_dimension(lam)
                assert rank % d == 0
                assert rank // d == ssyt_count(lam, k)


def test_unitary_rep_validation():
    g = symmetric_group(2)
    bad = np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex)
    with pytest.raises(ValueError):
        UnitaryRep(g, bad)
    not_hom = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    swapped = np.stack([np.eye(2), np.array([[0, 1], [1, 0]])]).astype(complex)
    UnitaryRep(g, swapped)  # fine
    with pytest.raises(ValueError):
        UnitaryRep(g, np.stack([np.array([[0, 1], [1, 0]]), np.eye(2)]).astype(complex))
    assert not_hom is not None


def test_homomorphism_check_sees_every_pair():
    # permutation_rep(6, 2) with one non-identity matrix row-rotated: still a
    # permutation matrix, so only products involving element 6 fail
    rep = permutation_rep(6, 2)
    mats = rep.matrices.copy()
    mats[6] = np.roll(mats[6], 1, axis=0)
    with pytest.raises(ValueError, match="multiplication table"):
        UnitaryRep(rep.group, mats)


def test_projective_rep_cocycle_identity():
    g = cyclic_group(2)
    mats = np.stack([np.eye(1), 1j * np.eye(1)]).astype(complex)
    # V(1)V(1) = -I = sigma(1,1) V(0) with sigma(1,1) = -1
    sigma = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    rep = ProjectiveRep(g, mats, sigma)
    assert rep.cocycle_identity_residual() < 1e-12
    with pytest.raises(ValueError):
        ProjectiveRep(g, mats, np.ones((2, 2), dtype=complex))


def test_permutation_form_matches_its_matrices():
    tau = permutation_rep(3, 2)
    dense = UnitaryRep(tau.group, tau.matrices)
    assert tau.dest is not None and dense.dest is None
    assert np.array_equal(np.einsum("gii->g", tau.matrices),
                          np.einsum("gii->g", dense.matrices))
    assert np.array_equal(tau.mean(), dense.mean())
    # the index form checks its table exactly: one row rotated breaks it
    UnitaryRep(tau.group, dest=tau.dest)
    bad = tau.dest.copy()
    bad[3] = np.roll(bad[3], 1)
    with pytest.raises(ValueError, match="multiplication table"):
        UnitaryRep(tau.group, dest=bad)
    # dense matrices are built only when read, within the budget
    big = permutation_rep(2, 100)
    assert big.dim == 10_000
    with pytest.raises(BudgetError):
        big.matrices


def test_dense_permutation_matrices_are_refused_by_entries():
    # 8 shifts of dimension 3000 are 72M entries, over the budget though
    # the dimension is small; the refusal allocates none of them
    shifts = (np.arange(8)[:, None] + np.arange(3000)) % 3000
    rep = UnitaryRep(cyclic_group(8), dest=shifts, check=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="8 matrices on dimension 3000"):
            rep.matrices
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_projective_law_sees_every_pair():
    # the standard irrep of S_4 with one matrix negated, under the trivial
    # cocycle: only pairs involving that element break the law
    rep = sn_irrep((3, 1))
    mats = rep.matrices.copy()
    mats[5] = -mats[5]
    ones = np.ones((rep.group.order,) * 2, dtype=complex)
    ProjectiveRep(rep.group, rep.matrices, ones)
    with pytest.raises(ValueError, match="projective multiplication"):
        ProjectiveRep(rep.group, mats, ones)


def test_cocycle_identity_residual_matches_loop():
    g = symmetric_group(3)
    rng = np.random.default_rng(5)
    sigma = np.exp(2j * np.pi * rng.random((g.order, g.order)))
    rep = ProjectiveRep(g, sn_irrep((2, 1)).matrices, sigma, check=False)
    worst = max(abs(sigma[t, s] * sigma[g.mult[t, s], r]
                    - sigma[s, r] * sigma[t, g.mult[s, r]])
                for t in range(g.order) for s in range(g.order)
                for r in range(g.order))
    assert rep.cocycle_identity_residual() == worst


def test_restricted_rep_keeps_the_subgroup_rows():
    g = symmetric_group(3)
    sub = young_subgroup([2, 1], g)
    rows = list(sub.elements)
    indexed = permutation_rep(3, 2)
    dense = UnitaryRep(g, indexed.matrices)
    for rep in (indexed, dense):
        part = rep.restrict(sub)
        assert part.group is sub.group
        assert np.array_equal(part.matrices, indexed.matrices[rows])
    assert indexed.restrict(sub).dest is not None
    assert dense.restrict(sub).dest is None
    with pytest.raises(ValueError):
        indexed.restrict(young_subgroup([1, 1], symmetric_group(2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.one_of(st.none(), st.integers(0, 14)))
def test_row_bounded_partitions_are_the_filtered_list(n, rows):
    bound = n if rows is None else rows
    assert partitions(n, rows) == [lam for lam in partitions(n)
                                   if len(lam) <= bound]
