import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cstarpow.algebra import (Representation, SymmetricPowerBasis,
                              make_algebra, power_map, power_map_differential,
                              tensor_power)
from cstarpow import classify
from cstarpow.classify import (_descriptor, direct_sum_of_power_maps, enumerate_sn_irreps,
                               homogeneous_components, intertwining_cocycle,
                               isotropy_group, non_schur_weyl_witness,
                               realize_sn_irrep, schur_weyl_injectivity_check,
                               schur_weyl_family, schur_weyl_labels,
                               schur_weyl_rep, wedderburn_comparison)
from cstarpow.crossed import spatial_pair, tensor_permutation_action
from cstarpow.errors import BudgetError, VerificationError
from cstarpow import groups
from cstarpow.groups import partitions, symmetric_group
from cstarpow.linalg import op_norm
from cstarpow.structure import commutant, equivalent, intertwiner_space
from oracles import (dense_realized_images, full_symmetric_power_basis,
                     trivial_action)


# ---------------------------------------------------------------------------
# descriptors and enumeration

def test_descriptor_validation(m23):
    desc = _descriptor(m23, (0, 1), (1, 1), ((1,), (1,)))
    assert desc.dim == 6
    assert desc.to_json() == {"blocks": [0, 1], "q": [1, 1],
                              "lambdas": [[1], [1]], "dim": 6}
    with pytest.raises(ValueError):
        _descriptor(m23, (1, 0), (1, 1), ((1,), (1,)))  # not ascending
    with pytest.raises(ValueError):
        _descriptor(m23, (0,), (2,), ((1, 1, 1),))  # wrong partition sum
    with pytest.raises(ValueError):
        _descriptor(m23, (0,), (3,), ((1, 1, 1),))  # too many rows for M_2


def test_enumerate_m2_degree2(m2):
    descs = enumerate_sn_irreps(m2, 2)
    assert sorted(d.dim for d in descs) == [1, 3]
    assert sum(d.dim ** 2 for d in descs) == 10
    lambdas = {d.lambdas[0] for d in descs}
    assert lambdas == {(2,), (1, 1)}


def test_enumerate_c2_degree3(c2):
    descs = enumerate_sn_irreps(c2, 3)
    assert len(descs) == 4
    assert all(d.dim == 1 for d in descs)
    assert sum(d.dim ** 2 for d in descs) == 4 == math.comb(4, 3)


def test_enumerate_m23_degree2(m23):
    descs = enumerate_sn_irreps(m23, 2)
    assert sorted(d.dim for d in descs) == [1, 3, 3, 6, 6]
    assert sum(d.dim ** 2 for d in descs) == 91 == math.comb(14, 2)


def test_enumerate_degree_one_gives_blocks(m23):
    descs = enumerate_sn_irreps(m23, 1)
    assert sorted(d.dim for d in descs) == [2, 3]
    assert all(d.q == (1,) and d.lambdas == ((1,),) for d in descs)


# ---------------------------------------------------------------------------
# realization

def test_realize_m2_symmetric_square(m2):
    descs = enumerate_sn_irreps(m2, 2)
    by_dim = {d.dim: d for d in descs}
    top = realize_sn_irrep(m2, 2, by_dim[3])
    assert top.dim == 3
    assert commutant(top.images).dim == 1
    sign = realize_sn_irrep(m2, 2, by_dim[1])
    assert sign.dim == 1
    assert not equivalent(top.images, sign.images)


def test_realized_reps_are_homomorphisms(m2, m23):
    # dGamma is a Lie homomorphism and a *-map: within a block,
    # [dG(E_ij), dG(E_kl)] = d_jk dG(E_il) - d_li dG(E_kj) and
    # dG(E_ij)* = dG(E_ji); units of different blocks commute
    for algebra, n in ((m2, 2), (m2, 3), (m23, 2)):
        for desc in enumerate_sn_irreps(algebra, n):
            images = realize_sn_irrep(algebra, n, desc).images
            for b, units in enumerate(algebra.block_units):
                g = images[units]
                eye = np.eye(len(g))
                lhs = np.einsum("ijab,klbc->ijklac", g, g) \
                    - np.einsum("klab,ijbc->ijklac", g, g)
                rhs = np.einsum("jk,ilac->ijklac", eye, g) \
                    - np.einsum("li,kjac->ijklac", eye, g)
                assert np.max(np.abs(lhs - rhs)) < 1e-9, (desc, b)
                assert np.allclose(g.conj().transpose(1, 0, 3, 2), g,
                                   rtol=0, atol=1e-12), (desc, b)
                for other in algebra.block_units[b + 1:]:
                    h = images[other].reshape(-1, desc.dim, desc.dim)
                    for x in g.reshape(-1, desc.dim, desc.dim):
                        assert np.max(np.abs(x @ h - h @ x)) < 1e-9, desc


def test_realize_product_descriptor_is_tensor_of_blocks(m23):
    # the mixed descriptor acts like the tensor product of the two block
    # representations: dGamma(e) = e (x) 1 + 1 (x) e goes to
    # pi1(e) (x) I + I (x) pi2(e)
    desc = _descriptor(m23, (0, 1), (1, 1), ((1,), (1,)))
    rep = realize_sn_irrep(m23, 2, desc)
    assert rep.dim == 6
    pi1 = Representation(m23, (1, 0)).images()
    pi2 = Representation(m23, (0, 1)).images()
    direct = [np.kron(p1, np.eye(3)) + np.kron(np.eye(2), p2)
              for p1, p2 in zip(pi1, pi2)]
    assert equivalent(rep.images, np.stack(direct))


def _distance_up_to_a_unitary(got, want):
    """max |T got T* - want| for the unitary T spanning the one-dimensional
    intertwiner space of two irreducibles; infinite when that space is not
    one-dimensional."""
    space = intertwiner_space(got, want)
    if space.shape[0] != 1:
        return np.inf
    t = space[0]
    t = t / np.sqrt(np.real(np.trace(t.conj().T @ t)) / t.shape[0])
    return float(np.max(np.abs(t @ got @ t.conj().T - want)))


def _generator_images(algebra, n, desc):
    """The dense oracle's orbit-sum images combined into those of the
    dGamma(e_i), by the coefficients of ``power_map_differential``, which is
    constant on each orbit."""
    sym = full_symmetric_power_basis(algebra, n)
    coeffs = np.zeros((algebra.dim, sym.size), dtype=complex)
    for i, e in enumerate(np.eye(algebra.dim)):
        coeffs[i, sym.orbit] = power_map_differential(algebra, e, n)
    return np.tensordot(coeffs, dense_realized_images(algebra, n, desc, sym),
                        axes=1)


@pytest.mark.parametrize("blocks", [[2], [1, 1], [2, 1], [2, 2], [4]])
def test_realized_images_match_dense_oracle(blocks):
    # the orthonormal basis of the fixed vectors is free, so the images are
    # compared up to one unitary
    algebra = make_algebra(blocks)
    for n in range(1, 4):
        if algebra.ambient ** n > 200:
            continue
        for desc in enumerate_sn_irreps(algebra, n):
            got = realize_sn_irrep(algebra, n, desc).images
            want = _generator_images(algebra, n, desc)
            assert _distance_up_to_a_unitary(got, want) <= 1e-10, (n, desc)


def test_unitary_comparison_rejects_transposed_images():
    # transposing every image is an anti-representation, equivalent to no
    # irreducible of dimension above one
    algebra = make_algebra([2, 1])
    for desc in enumerate_sn_irreps(algebra, 2):
        want = _generator_images(algebra, 2, desc)
        got = realize_sn_irrep(algebra, 2, desc).images
        if desc.dim > 1:
            assert _distance_up_to_a_unitary(
                got.transpose(0, 2, 1), want) > 1e-10, desc


def test_schur_weyl_family_stays_small():
    # no stack indexed by group elements: degree 5 of M_2 needs S_5's
    # (120, N, N) unitaries on the carrier of N = 160 if built densely
    algebra = make_algebra([2])
    tracemalloc.start()
    try:
        family = schur_weyl_family(algebra, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rep.dim for _, _, rep in family] == [6, 4, 2]
    assert peak < 10 * 2 ** 20


def test_warm_realization_builds_no_accumulator():
    # a dense (orbits, N*d, dim) accumulator of the images takes 33 MB here
    algebra = make_algebra([4])
    desc = _descriptor(algebra, (0,), (3,), ((2, 1),))
    realize_sn_irrep(algebra, 3, desc)
    tracemalloc.start()
    try:
        rep = realize_sn_irrep(algebra, 3, desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dim == 20
    assert peak < 12 * 2 ** 20


def test_image_stack_over_the_dense_bound_is_refused(monkeypatch):
    # M_2 has 4 generators, and (3) of block 0 has dimension 4: a cap one
    # entry below the 4 x 4 x 4 images refuses before any solve
    algebra = make_algebra([2])
    desc = _descriptor(algebra, (0,), (3,), ((3,),))
    assert algebra.dim == 4 and desc.dim == 4

    def refuse(*args):
        raise AssertionError("solved before the budget check")

    monkeypatch.setattr(classify, "_weight_space", refuse)
    monkeypatch.setattr(classify, "MAX_DENSE_ENTRIES", 4 * 4 * 4 - 1)
    with pytest.raises(BudgetError, match="4 generator images on dimension 4"):
        realize_sn_irrep(algebra, 3, desc)
    monkeypatch.undo()
    assert realize_sn_irrep(algebra, 3, desc).dim == 4


def test_family_over_the_dense_bound_is_refused_before_the_basis(
        monkeypatch):
    # degree 4 of C + M_2: the range finder of (4) on block 0 has
    # 1 x (1 + 4) = 5 entries, and that of (4) on block 1, the second label,
    # 16 x (5 + 4) = 144, while its 5 generator images on dimension 5 have
    # 125; a cap one entry below 144 refuses the family before the first
    # label is realized, and no orbit basis is built at all
    def refuse(*args):
        raise AssertionError("built or solved before the budget check")

    monkeypatch.setattr(classify, "symmetric_power_basis", refuse)
    monkeypatch.setattr(classify, "_weight_space", refuse)
    monkeypatch.setattr(classify, "MAX_DENSE_ENTRIES", 144 - 1)
    with pytest.raises(BudgetError, match="range finder blocks of 16 x 9 "):
        schur_weyl_family(make_algebra([1, 2]), 4)


def test_family_checks_each_label_once(monkeypatch):
    # every label passes the pre-flight once, and all of them before the
    # first realization
    calls = []
    check, realize = classify._check_image_budget, classify._weight_space

    def counted_check(algebra, desc):
        calls.append(("check", desc.lambdas))
        return check(algebra, desc)

    def counted_realize(algebra, desc, *args):
        calls.append(("realize", desc.lambdas))
        return realize(algebra, desc, *args)

    monkeypatch.setattr(classify, "_check_image_budget", counted_check)
    monkeypatch.setattr(classify, "_weight_space", counted_realize)
    family = schur_weyl_family(make_algebra([2, 1]), 3)
    labels = [(lam,) for _, lam, _ in family]
    assert calls == [("check", lam) for lam in labels] \
        + [("realize", lam) for lam in labels]


def test_degree_seven_family_builds_no_dense_mean():
    # the mean over S_7 as one (N*d)^2 matrix is 1792 x 1792 for (4, 3)
    algebra = make_algebra([2])
    tracemalloc.start()
    try:
        family = schur_weyl_family(algebra, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rep.dim for _, _, rep in family] == [8, 6, 4, 2]
    assert peak < 32 * 2 ** 20


def test_degree_eight_family_builds_no_group_table(monkeypatch):
    # S_8 is past the tables the package builds; the weight spaces need no
    # group element, and each realization is irreducible
    monkeypatch.setattr(groups, "symmetric_group", lambda *args: pytest.fail(
        "built a symmetric group table"))
    family = schur_weyl_family(make_algebra([2]), 8)
    assert [lam for _, lam, _ in family] == partitions(8, 2)
    assert [rep.dim for _, _, rep in family] == [9, 7, 5, 3, 1]
    assert all(commutant(rep.images).dim == 1 for _, _, rep in family)


def test_realize_all_dims_one_for_commutative(c3):
    descs = enumerate_sn_irreps(c3, 2)
    assert len(descs) == 6
    for d in descs:
        rep = realize_sn_irrep(c3, 2, d)
        assert rep.dim == 1


def test_realized_descriptors_are_separating(m23):
    reps = [realize_sn_irrep(m23, 2, d)
            for d in enumerate_sn_irreps(m23, 2)]
    assert all(commutant(r.images).dim == 1 for r in reps)
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            assert not equivalent(reps[a].images, reps[b].images)


def test_realize_rejects_mismatched_degree(m2):
    desc = enumerate_sn_irreps(m2, 2)[0]
    with pytest.raises(ValueError):
        realize_sn_irrep(m2, 3, desc)


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("blocks,q,lambdas", [
    ((0,), (3,), ((2, 1),)), ((0, 1), (2, 1), ((2,), (1,)))])
def test_descriptor_dimension_off_by_one_is_refused(shift, blocks, q, lambdas):
    algebra = make_algebra([2, 2])
    desc = _descriptor(algebra, blocks, q, lambdas)
    wrong = dataclasses.replace(desc, dim=desc.dim + shift)
    with pytest.raises(VerificationError, match="rank"):
        realize_sn_irrep(algebra, 3, wrong)


@pytest.mark.parametrize("mutate, message", [
    # the projector of a shifted content still has the right range, so
    # only the check of the contents on the columns found sees it
    (lambda steps: [*steps[:-1], (*steps[-1][:2], steps[-1][2] + 1,
                                  steps[-1][3])], "contents"),
    # without its last projector the range finder keeps all 6 columns
    (lambda steps: steps[:-1], "rank 6"),
], ids=["shifted content", "skipped step"])
def test_mutated_weight_steps_are_refused(m2, monkeypatch, mutate, message):
    steps = classify._weight_steps
    monkeypatch.setattr(classify, "_weight_steps",
                        lambda *args: mutate(steps(*args)))
    desc = _descriptor(m2, (0,), (3,), ((2, 1),))
    with pytest.raises(VerificationError, match=message):
        realize_sn_irrep(m2, 3, desc)


# ---------------------------------------------------------------------------
# crosscheck

def test_wedderburn_crosscheck_cases(m2, c3):
    assert wedderburn_comparison(m2, 2) == ([1, 3], [1, 3])
    assert wedderburn_comparison(c3, 2) == ([1] * 6, [1] * 6)
    enum, spec = wedderburn_comparison(m2, 3)
    assert enum == spec == [2, 4]
    assert sum(d * d for d in enum) == 20 == math.comb(6, 3)


def test_library_reads_orbit_labels_not_dense_vectors(monkeypatch):
    def refuse(self):
        raise AssertionError("dense orbit-sum vectors were read")

    # the package defines no dense reader; one added later must stay unread
    monkeypatch.setattr(SymmetricPowerBasis, "vectors", property(refuse),
                        raising=False)
    a = make_algebra([2, 1])
    enum, spec = wedderburn_comparison(a, 2)
    assert enum == spec
    family = schur_weyl_family(a, 3)
    assert [(j, lam, rep.dim) for j, lam, rep in family] == \
        [(0, (3,), 4), (0, (2, 1), 2), (1, (3,), 1)]


# ---------------------------------------------------------------------------
# Schur-Weyl representations

def test_schur_weyl_dims(m2):
    top = schur_weyl_rep(m2, 0, (2,))
    assert top.dim == 3
    sign = schur_weyl_rep(m2, 0, (1, 1))
    assert sign.dim == 1
    with pytest.raises(ValueError):
        schur_weyl_rep(m2, 0, (1, 1, 1))  # more rows than the block size


def test_schur_weyl_alternating_is_one_dimensional():
    m3 = make_algebra([3])
    rep = schur_weyl_rep(m3, 0, (1, 1, 1))
    assert rep.dim == 1


def test_schur_weyl_matches_realization(m2, m23):
    for lam in [(2,), (1, 1)]:
        sw = schur_weyl_rep(m2, 0, lam)
        desc = _descriptor(m2, (0,), (2,), (lam,))
        assert equivalent(sw.images, realize_sn_irrep(m2, 2, desc).images)
    sw = schur_weyl_rep(m23, 1, (2,))
    desc = _descriptor(m23, (1,), (2,), ((2,),))
    assert equivalent(sw.images, realize_sn_irrep(m23, 2, desc).images)


def test_schur_weyl_injectivity(m2, m23):
    assert schur_weyl_injectivity_check(m2, 3)
    assert schur_weyl_injectivity_check(m23, 2)
    point = make_algebra([1])
    # one block: a single label per degree, nothing to collide
    assert schur_weyl_injectivity_check(point, 3)
    assert [lam for _, lam in schur_weyl_labels(point, 2)] == [(2,)]


def test_non_schur_weyl_witness_two_characters(c2):
    cert = non_schur_weyl_witness(c2, 0, 1)
    assert cert.witness.dim == 1
    assert cert.is_valid
    # evaluation oracle: the witness is the character x (x) y -> x_0 y_1 on
    # the symmetric square, so it sends dGamma(e_i) to the coefficient of
    # the monomial e_0 (x) e_1 in it
    values = [cert.witness.images[i][0, 0] for i in range(c2.dim)]
    expected = [power_map_differential(c2, e, 2)[1] for e in np.eye(c2.dim)]
    assert np.allclose(values, expected) and np.allclose(expected, [1, 1])


def test_non_schur_weyl_witness_mixed_blocks():
    m2c = make_algebra([2, 1])
    cert = non_schur_weyl_witness(m2c, 0, 1)
    assert cert.witness.dim == 2
    assert cert.is_valid
    with pytest.raises(ValueError):
        non_schur_weyl_witness(m2c, 1, 1)


# ---------------------------------------------------------------------------
# isotropy groups and cocycles

def test_isotropy_full_for_power_of_one_block(m2):
    action = tensor_permutation_action(m2, 3)
    pi = spatial_pair(action, check=False).pi
    iso = isotropy_group(pi, action)
    assert iso.order == 6


def test_isotropy_trivial_for_distinct_blocks(m23):
    action = tensor_permutation_action(m23, 2)
    power = action.algebra
    pi1 = Representation(m23, (1, 0)).images()
    pi2 = Representation(m23, (0, 1)).images()
    images = np.stack([np.kron(pi1[i], pi2[j])
                       for i in range(m23.dim) for j in range(m23.dim)])
    iso = isotropy_group(images, action)
    assert iso.order == 1


def test_isotropy_partial_repeat(c2):
    # two copies of one character and one of the other: the swap of the
    # first two factors is the only symmetry
    action = tensor_permutation_action(c2, 3)
    images = np.zeros((8, 1, 1), dtype=complex)
    images[int(np.ravel_multi_index((0, 0, 1), (2, 2, 2))), 0, 0] = 1.0
    iso = isotropy_group(images, action)
    assert iso.order == 2
    swap_first_two = action.group.perms.index((1, 0, 2))
    assert swap_first_two in iso.elements


def test_intertwining_cocycle_permutation_case(m2):
    action = tensor_permutation_action(m2, 2)
    pair = spatial_pair(action, check=False)
    iso = isotropy_group(pair.pi, action)
    assert iso.order == 2
    data = intertwining_cocycle(pair.pi, action, iso)
    assert np.allclose(data.sigma, 1.0)
    assert data.rep.cocycle_identity_residual() < 1e-9
    # the intertwiners realize the factor swap up to the fixed phase
    tau = pair.unitary
    for local, amb in enumerate(iso.elements):
        v = data.rep.matrices[local]
        assert op_norm(v - tau.mat(amb)) < 1e-8


def test_intertwining_cocycle_trivial_action(c2):
    m2 = make_algebra([2])
    action = trivial_action(m2, symmetric_group(2))
    pi = m2.embed(np.eye(m2.dim))
    iso = isotropy_group(pi, action)
    assert iso.order == 2
    data = intertwining_cocycle(pi, action, iso)
    for v in data.rep.matrices:
        assert op_norm(v - np.eye(2)) < 1e-9
    assert np.allclose(data.sigma, 1.0)


# ---------------------------------------------------------------------------
# homogeneous components

def test_homogeneous_pure_degree(m2, rng):
    power = tensor_power(m2, 2)

    def phi(x):
        return power_map(m2, x, 2)

    comps = homogeneous_components(phi, m2, power, 2)
    x = m2.random_element(rng)
    x = x / m2.norm(x)
    c0, c1, c2 = comps(x)
    assert power.norm(c2 - phi(x)) < 1e-9
    assert power.norm(c0) < 1e-9
    assert power.norm(c1) < 1e-9


def test_power_map_sum_blocks_are_diagonal_blocks_of_the_powers(rng):
    for blocks, degrees in [([2, 3], [1, 2, 3]), ([1, 1, 2], [3, 1])]:
        algebra = make_algebra(blocks)
        phi, target = direct_sum_of_power_maps(algebra, degrees)
        x = algebra.random_element(rng)
        value = phi(x)
        j = 0
        for d in degrees:
            power = tensor_power(algebra, d)
            dense = power.embed(power_map(algebra, x, d))
            for units in power.block_units:
                rows = power.positions[units[:, 0], 0]
                assert np.array_equal(value[target.block_units[j]],
                                      dense[np.ix_(rows, rows)])
                j += 1
        assert j == len(target.blocks)


def test_homogeneous_block_sum(m2, rng):
    phi, target = direct_sum_of_power_maps(m2, [1, 2])
    assert target.blocks == (2, 4)
    comps = homogeneous_components(phi, m2, target, 2)
    _, p1, p2 = comps(m2.unit())
    assert np.allclose(target.embed(p1), np.diag([1, 1, 0, 0, 0, 0]))
    assert np.allclose(target.embed(p2), np.diag([0, 0, 1, 1, 1, 1]))
    assert target.norm(target.multiply(p1, p2)) < 1e-12
    for _ in range(10):
        x = m2.random_element(rng)
        x = x / m2.norm(x)
        y = m2.random_element(rng)
        y = y / m2.norm(y)
        cx, cy, cxy = comps(x), comps(y), comps(m2.multiply(x, y))
        z = np.exp(0.7j)
        czx = comps(z * x)
        for deg in (1, 2):
            assert target.norm(
                cxy[deg] - target.multiply(cx[deg], cy[deg])) < 1e-9
            assert target.norm(czx[deg] - z ** deg * cx[deg]) < 1e-9
        assert target.norm(sum(cx) - phi(x)) < 1e-9


def test_homogeneous_constant_on_point():
    point = make_algebra([1])

    def phi(x):
        return np.ones(1, dtype=complex)

    c0, c1 = homogeneous_components(phi, point, point, 1)(
        np.array([0.3 + 0.1j]))
    assert point.norm(c0 - np.ones(1)) < 1e-12
    assert point.norm(c1) < 1e-12


def test_homogeneous_components_evaluate_phi_once_per_point(m2):
    inner, target = direct_sum_of_power_maps(m2, [1, 2])
    calls = []

    def phi(x):
        calls.append(1)
        return inner(x)

    comps = homogeneous_components(phi, m2, target, 3, samples=5)
    assert len(calls) == 5 * (2 * 4 + 1)
    del calls[:]
    assert len(comps(m2.unit())) == 4 and len(calls) == 4


def test_homogeneous_degree_bound_too_small(m2):
    phi, target = direct_sum_of_power_maps(m2, [1, 2])
    with pytest.raises(VerificationError):
        homogeneous_components(phi, m2, target, 1)


def _counting_norm(target):
    calls = []
    norm = target.norm

    def counted(x):
        calls.append(1)
        return norm(x)

    target.norm = counted
    return calls


def test_homogeneous_check_takes_no_svd_when_the_screen_passes(m2):
    phi, target = direct_sum_of_power_maps(m2, [1, 2])
    calls = _counting_norm(target)
    homogeneous_components(phi, m2, target, 2)
    assert calls == []


def test_homogeneous_check_falls_back_to_the_operator_norm():
    # a term of degree 2 aliases onto degree 0 when n_max = 1: it moves the
    # degree-0 component by eps (z^2 - 1) u^2 on all 100 one-by-one blocks,
    # Frobenius norm up to 20 eps > tol, operator norm at most 2 eps <= tol
    point, target = make_algebra([1]), make_algebra([1] * 100)
    tol, eps = 1e-6, 0.5e-6

    def phi(x):
        u = x[0] / abs(x[0])
        return target.unit() + eps * u ** 2

    calls = _counting_norm(target)
    homogeneous_components(phi, point, target, 1, tol=tol)
    assert calls
    with pytest.raises(VerificationError):
        homogeneous_components(phi, point, target, 1, tol=eps / 2)


def test_homogeneous_check_builds_no_stacked_residual():
    # the residual rows are screened one by one: stacking them in one
    # array adds ~0.6 MB to this peak, which was 1.29 MB (numpy 2.4) before
    # the screen
    algebra = make_algebra([3, 3])
    phi, target = direct_sum_of_power_maps(algebra, [1, 2, 3])
    homogeneous_components(phi, algebra, target, 3)
    tracemalloc.start()
    try:
        homogeneous_components(phi, algebra, target, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6
