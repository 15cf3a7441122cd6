"""Named verification suites behind the ``verify`` subcommand.

Each suite runs a batch of numerical checks with explicit tolerances and
returns a JSON-ready report with one entry per assertion.  The checks pit
independent computations against each other: combinatorial counts against
numerical ranks, enumerated dimensions against spectral block data, closed
formulas against brute-force averages.
"""

from __future__ import annotations

import numpy as np

from .algebra import (generated_star_algebra, make_algebra,
                      square_map_multiplicativity, symmetric_power_basis,
                      symmetric_power_count)
from .classify import (direct_sum_of_power_maps, homogeneous_components,
                       non_schur_weyl_witness, schur_weyl_injectivity_check,
                       symmetric_power_span, wedderburn_comparison)
from .crossed import (CovariantPair, block_permutation_action,
                      corner_embedding, corner_projection, convolve,
                      group_average_projection, integrated_form, involution,
                      spatial_pair, tensor_permutation_action)
from .groups import (UnitaryRep, cyclic_group, partitions, ssyt_count,
                     symmetric_group, trivial_subgroup, young_subgroup)
from .induction import commutant_restriction, fixed_point_unitary, induce
from .linalg import DEFAULT_TOL, op_norm, orthonormal_columns
from .structure import ergodic_bound_check, minimal_central_projections

DIMENSION_CASES = [[1, 1], [1, 1, 1], [2], [2, 1], [2, 3]]
DEGREES = [1, 2, 3]


def _assertion(name, passed, **detail):
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _case_within_budget(blocks, n, budget):
    return sum(blocks) ** n <= budget


def suite_dimensions(tol, seed, budget):
    """Exact multiset-count law for the dimension of each symmetric power."""
    assertions = []
    for blocks in DIMENSION_CASES:
        algebra = make_algebra(blocks)
        for n in DEGREES:
            if not _case_within_budget(blocks, n, budget):
                continue
            sym = symmetric_power_basis(algebra, n)
            expected = symmetric_power_count(algebra.dim, n)
            rank = np.linalg.matrix_rank(sym.vectors, tol=1e-8)
            assertions.append(_assertion(
                f"dim S^{n} of blocks {blocks} = C({algebra.dim}+{n}-1,{n})",
                sym.size == expected and int(rank) == expected,
                count=sym.size, rank=int(rank), expected=expected))
    return assertions


def suite_blocks(tol, seed, budget):
    """Tableau-count block structure of symmetric powers of one full block."""
    assertions = []
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        span = symmetric_power_span(make_algebra([k]), n)
        report = minimal_central_projections(span, seed=seed, tol=tol)
        expected = sorted(ssyt_count(lam, k) for lam in partitions(n)
                          if len(lam) <= k)
        assertions.append(_assertion(
            f"blocks of S^{n}(M_{k}) equal tableau counts",
            sorted(report.block_dims) == expected,
            spectral=sorted(report.block_dims), expected=expected))
    return assertions


def suite_classification(tol, seed, budget):
    """Enumerated descriptor dimensions match the spectral block data."""
    assertions = []
    for blocks in DIMENSION_CASES:
        algebra = make_algebra(blocks)
        for n in DEGREES:
            if not _case_within_budget(blocks, n, budget):
                continue
            enumerated, spectral = wedderburn_comparison(
                algebra, n, tol=tol, seed=seed)
            total = sum(d * d for d in enumerated)
            expected = symmetric_power_count(algebra.dim, n)
            assertions.append(_assertion(
                f"classification of blocks {blocks}, degree {n}",
                enumerated == spectral and total == expected,
                enumerated=enumerated, spectral=spectral,
                sum_of_squares=total, expected=expected))
    return assertions


def suite_crossed(tol, seed, budget, samples: int = 50):
    """Corner identities of the crossed product on random fixed elements."""
    assertions = []
    rng = np.random.default_rng(seed)
    for blocks, n in [([1, 1], 2), ([1, 1], 3), ([2], 2), ([2], 3)]:
        action = tensor_permutation_action(make_algebra(blocks), n)
        pair = spatial_pair(action, check=False)
        p = corner_projection(action)
        worst = max(
            float(np.max(np.abs(convolve(p, p).values - p.values))),
            float(np.max(np.abs(involution(p).values - p.values))))
        pu = group_average_projection(pair)
        worst = max(worst, op_norm(pu @ pu - pu), op_norm(pu - pu.conj().T))
        fixed = action.fixed_space(tol)
        for _ in range(samples):
            c = rng.standard_normal(fixed.shape[0]) \
                + 1j * rng.standard_normal(fixed.shape[0])
            x = fixed.T @ c
            y = fixed.T @ (rng.standard_normal(fixed.shape[0])
                           + 1j * rng.standard_normal(fixed.shape[0]))
            ix, iy = corner_embedding(action, x), corner_embedding(action, y)
            alg = action.algebra
            xy = alg.multiply(x, y)
            worst = max(worst, float(np.max(np.abs(
                convolve(ix, iy).values - corner_embedding(action, xy).values))))
            worst = max(worst, float(np.max(np.abs(
                involution(ix).values
                - corner_embedding(action, alg.star(x)).values))))
            worst = max(worst, op_norm(
                integrated_form(pair, ix) - pair.apply(x) @ pu))
            worst = max(worst, op_norm(
                integrated_form(pair, ix) - pu @ pair.apply(x)))
        # the averaging projection has exactly the joint fixed vectors as range
        u_fixed = orthonormal_columns(pu, tol)
        res = u_fixed - np.stack([pair.unitary.mat(g) @ u_fixed
                                  for g in range(action.group.order)]).mean(axis=0)
        worst = max(worst, float(np.max(np.abs(res))))
        assertions.append(_assertion(
            f"corner identities for blocks {blocks}, degree {n}",
            worst < tol, worst_residual=worst, samples=samples))
    return assertions


def _character_orbit_base(action, sub, indices, mult, rng):
    """Covariant pair of a restricted system whose algebra representation is
    a direct sum of characters of a commutative power, permuted among each
    other by the subgroup, with a random multiplicity twist on C^mult.

    ``indices`` are flat coefficient indices of the characters; the subgroup
    must permute that set.
    """
    indices = list(indices)
    k = len(indices)
    lookup = {f: i for i, f in enumerate(indices)}
    d = action.algebra.dim
    pi = np.zeros((d, k, k), dtype=complex)
    for i, f in enumerate(indices):
        pi[f, i, i] = 1.0
    vmats = np.zeros((sub.order, k, k), dtype=complex)
    for local in range(sub.order):
        for i, f in enumerate(indices):
            vmats[local, lookup[int(action.restrict(sub).perm_maps[local][f])], i] = 1.0
    gauge = np.linalg.qr(rng.standard_normal((mult, mult))
                         + 1j * rng.standard_normal((mult, mult)))[0]
    twist = np.zeros((sub.order, mult, mult), dtype=complex)
    for local, amb in enumerate(sub.elements):
        perm = sub.ambient.perms[amb]
        sign = float(np.linalg.det(np.eye(len(perm))[list(perm)]))
        twist[local] = gauge @ np.diag([1.0] + [sign] * (mult - 1)) @ gauge.conj().T
    pi_full = np.kron(pi, np.eye(mult))
    umats = np.stack([np.kron(vmats[i], twist[i]) for i in range(sub.order)])
    return CovariantPair(action.restrict(sub), pi_full,
                         UnitaryRep(sub.group, umats, check=False))


def suite_induction(tol, seed, budget):
    """Commutant dimensions transfer to coset blocks; fixed ranks agree."""
    assertions = []
    rng = np.random.default_rng(seed)
    group = symmetric_group(3)

    # evaluation character of the commutative cube, trivial subgroup;
    # the character images are 1x1 matrices picking the (0,1,2) coefficient
    c3 = make_algebra([1, 1, 1])
    action = tensor_permutation_action(c3, 3)
    sub = trivial_subgroup(group)
    char = np.zeros((action.algebra.dim, 1, 1), dtype=complex)
    char[np.ravel_multi_index((0, 1, 2), (3, 3, 3)), 0, 0] = 1.0
    base = CovariantPair(action.restrict(sub), char,
                         UnitaryRep(sub.group, np.eye(1, dtype=complex)[None]))
    ind = induce(base, action, sub, tol=tol)
    rest = commutant_restriction(ind, 0, tol)
    iso = fixed_point_unitary(ind, tol)
    induced_fixed = orthonormal_columns(
        group_average_projection(ind.pair), tol).shape[1]
    assertions.append(_assertion(
        "trivial-subgroup induction over the 3-point algebra",
        rest.source_dim == rest.target_dim == 1
        and iso.shape[1] == induced_fixed,
        source_dim=rest.source_dim, target_dim=rest.target_dim,
        base_fixed=int(iso.shape[1]), induced_fixed=int(induced_fixed)))

    # character pair swapped by the two-one Young subgroup, with and without
    # a random multiplicity twist
    c2 = make_algebra([1, 1])
    action2 = tensor_permutation_action(c2, 3)
    sub2 = young_subgroup([2, 1], group)
    orbit = [int(np.ravel_multi_index((0, 1, 0), (2, 2, 2))),
             int(np.ravel_multi_index((1, 0, 0), (2, 2, 2)))]
    for mult in (1, 2):
        base = _character_orbit_base(action2, sub2, orbit, mult, rng)
        ind = induce(base, action2, sub2, tol=tol)
        ok = ind.pair.dim == sub2.index * base.dim
        dims = []
        for j in range(ind.num_blocks):
            rest = commutant_restriction(ind, j, tol)
            dims.append((rest.source_dim, rest.target_dim))
            ok = ok and rest.source_dim == rest.target_dim
        iso = fixed_point_unitary(ind, tol)
        induced_fixed = orthonormal_columns(
            group_average_projection(ind.pair), tol).shape[1]
        ok = ok and iso.shape[1] == induced_fixed
        assertions.append(_assertion(
            f"character orbit over the two-one Young subgroup, "
            f"multiplicity {mult}",
            ok, commutant_dims=dims, base_fixed=int(iso.shape[1]),
            induced_fixed=int(induced_fixed)))

    # spatial pair of the full matrix power restricted to the Young subgroup:
    # the base is a factor representation with full isotropy, so the induced
    # and base integrated forms must have commutants of equal dimension
    m2 = make_algebra([2])
    action3 = tensor_permutation_action(m2, 3)
    sub3 = young_subgroup([2, 1], group)
    base = spatial_pair(action3, check=False).restrict(sub3)
    ind = induce(base, action3, sub3, tol=tol)
    rest = commutant_restriction(ind, 0, tol)
    iso = fixed_point_unitary(ind, tol)
    induced_fixed = orthonormal_columns(
        group_average_projection(ind.pair), tol).shape[1]
    assertions.append(_assertion(
        "matrix power spatial pair over the two-one Young subgroup",
        ind.pair.dim == 24 and rest.source_dim == rest.target_dim
        and iso.shape[1] == induced_fixed,
        source_dim=rest.source_dim, target_dim=rest.target_dim,
        base_fixed=int(iso.shape[1]), induced_fixed=int(induced_fixed)))
    return assertions


def suite_generation(tol, seed, budget):
    """The derivative elements generate the whole fixed-point span."""
    assertions = []
    for blocks, n in [([2], 2), ([2], 3), ([1, 1, 1], 3)]:
        span = symmetric_power_span(make_algebra(blocks), n)
        generated = generated_star_algebra(span.generators, span.ambient,
                                           tol=1e-8)
        combined = np.concatenate(
            [generated.reshape(generated.shape[0], -1),
             span.span_basis.reshape(span.dim, -1)])
        combined_rank = np.linalg.matrix_rank(combined, tol=1e-8)
        assertions.append(_assertion(
            f"generated algebra equals fixed span for blocks {blocks}, "
            f"degree {n}",
            generated.shape[0] == span.dim == int(combined_rank),
            generated_dim=int(generated.shape[0]), fixed_dim=span.dim,
            combined_rank=int(combined_rank)))
    return assertions


def suite_ergodic(tol, seed, budget):
    """Dimension bound for ergodic actions, with equality on the coordinate
    swap of the two-point algebra."""
    assertions = []
    swap = ergodic_bound_check(
        block_permutation_action(make_algebra([1, 1]), symmetric_group(2)))
    assertions.append(_assertion(
        "coordinate swap is ergodic and attains the bound",
        swap.is_ergodic and swap.algebra_dim == swap.group_order == 2,
        report=vars(swap)))
    c3 = make_algebra([1, 1, 1])
    full = ergodic_bound_check(
        block_permutation_action(c3, symmetric_group(3)))
    rotation = ergodic_bound_check(block_permutation_action(
        c3, cyclic_group(3), block_perms=[(0, 1, 2), (1, 2, 0), (2, 0, 1)]))
    assertions.append(_assertion(
        "three-point actions are ergodic within the bound",
        full.is_ergodic and full.algebra_dim <= full.group_order
        and rotation.is_ergodic
        and rotation.algebra_dim == rotation.group_order == 3,
        permutations=vars(full), rotation=vars(rotation)))
    tensor = ergodic_bound_check(
        tensor_permutation_action(make_algebra([2]), 2))
    assertions.append(_assertion(
        "factor permutation action is not ergodic",
        not tensor.is_ergodic and tensor.algebra_dim == 16,
        report=vars(tensor)))
    return assertions


def suite_schur_weyl(tol, seed, budget):
    """Injectivity of the tableau-labelled family and the product witness."""
    algebra = make_algebra([2, 3])
    injective = schur_weyl_injectivity_check(algebra, 3, tol)
    assertions = [_assertion("pairwise inequivalence up to degree 3",
                             injective)]
    cert = non_schur_weyl_witness(algebra, 0, 1, tol)
    assertions.append(_assertion(
        "degree-2 product witness lies outside the labelled family",
        cert.is_valid and cert.witness.dim == 6,
        witness_dim=cert.witness.dim, commutant_dim=cert.commutant_dim,
        intertwiner_dims=sorted(cert.intertwiner_dims.values())))
    return assertions


def suite_homog(tol, seed, budget, samples: int = 100):
    """Homogeneous splitting of a two-degree power map sum."""
    algebra = make_algebra([2])
    phi = direct_sum_of_power_maps(algebra, [1, 2])
    comps = homogeneous_components(phi, algebra, 2, tol=tol, seed=seed)
    rng = np.random.default_rng(seed + 1)
    unit = algebra.unit()
    projs = [c(unit) for c in comps]
    worst = 0.0
    for i in range(len(projs)):
        worst = max(worst, op_norm(projs[i] @ projs[i] - projs[i]))
        for j in range(len(projs)):
            if i != j:
                worst = max(worst, op_norm(projs[i] @ projs[j]))
    for _ in range(samples):
        x = algebra.random_element(rng)
        x = x / max(algebra.norm(x), 1e-12)
        y = algebra.random_element(rng)
        y = y / max(algebra.norm(y), 1e-12)
        xy = algebra.multiply(x, y)
        total = sum(c(x) for c in comps)
        worst = max(worst, op_norm(total - phi(x)))
        z = np.exp(2j * np.pi * rng.random())
        for deg, comp in enumerate(comps):
            worst = max(worst, op_norm(comp(xy) - comp(x) @ comp(y)))
            worst = max(worst, op_norm(comp(z * x) - z ** deg * comp(x)))
    assertions = [_assertion(
        "components are multiplicative, homogeneous, and sum back",
        worst < tol, worst_residual=worst, samples=samples)]
    return assertions


def suite_commutativity(tol, seed, budget, trials: int = 100):
    """Squaring respects products exactly on commutative algebras."""
    cases = [([1, 1, 1], True), ([2], False), ([2, 1], False)]
    assertions = []
    for blocks, expected in cases:
        got = square_map_multiplicativity(make_algebra(blocks), trials=trials,
                                          seed=seed, tol=tol)
        assertions.append(_assertion(
            f"square map multiplicative on blocks {blocks}: {expected}",
            got == expected, observed=got, expected=expected))
    return assertions


_SUITES = {
    "dimensions": suite_dimensions,
    "blocks": suite_blocks,
    "classification": suite_classification,
    "crossed": suite_crossed,
    "induction": suite_induction,
    "generation": suite_generation,
    "ergodic": suite_ergodic,
    "schur-weyl": suite_schur_weyl,
    "homog": suite_homog,
    "commutativity": suite_commutativity,
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str, tol: float = DEFAULT_TOL, seed: int = 0,
              budget: int = 2000) -> dict:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    assertions = _SUITES[name](tol, seed, budget)
    return {"suite": name, "assertions": assertions,
            "passed": all(a["passed"] for a in assertions)}
