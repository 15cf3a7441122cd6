"""The benchmark's workloads: fixed lists of CLI jobs.

Each job is the argument list of one ``cstarpow`` invocation, without
``--seed`` and ``--json``, which the runner appends.  No job passes
``--tol`` or ``--budget``, so every job runs at the CLI defaults.  Why each
workload exists is written in README.md next to this file.
"""

from __future__ import annotations


WORKLOADS: dict[str, list[list[str]]] = {
    # Wedderburn cross-check at the largest sizes that finish in seconds:
    # structure.minimal_central_projections dominates.
    "sympow-spectral": [j.split() for j in [
        "sympow --blocks 2,3 --n 3",
        "sympow --blocks 1,1,1,1 --n 4",
        "sympow --blocks 2,1 --n 4",
    ]],
    # Twisted convolution and integrated forms; structure does no work.
    "crossed-corner": [j.split() for j in [
        "crossed --blocks 2,1 --n 4 --samples 20",
        "crossed --blocks 1,1 --n 5 --samples 200",
        "crossed --blocks 2 --n 5 --samples 20",
        "crossed --blocks 1,1,1 --n 4 --samples 100",
        "verify crossed",
    ]],
    # Many small dense commutant solves, the opposite use of structure.
    "induce-small": [j.split() for j in [
        "induce --blocks 2 --n 3 --q 2,1",
        "induce --blocks 1,1 --n 3 --q 2,1",
        "induce --blocks 3 --n 2 --q 1,1",
        "induce --blocks 2,1 --n 2 --q 1,1",
        "induce --blocks 2,2 --n 2 --q 1,1",
        "induce --blocks 1,1,1,1 --n 2 --q 1,1",
        "induce --blocks 1,1 --n 4 --q 4",
        "induce --blocks 2,1 --n 3 --q 3",
        "schur-weyl --blocks 2,3 --n 3 --injectivity-nmax 3",
        "schur-weyl --blocks 4 --n 3 --injectivity-nmax 3",
        "schur-weyl --blocks 2,2 --n 3 --injectivity-nmax 2",
        "verify induction",
        "verify schur-weyl",
        "verify blocks",
        "verify generation",
        "verify ergodic",
    ]],
    # Element arithmetic and power maps; structure does no work.
    "power-maps": [j.split() for j in [
        "homog --blocks 2 --degrees 1,2,3,4,5",
        "homog --blocks 1,1,2 --degrees 1,2,3",
        "homog --blocks 2,2 --degrees 1,2,3",
        "homog --blocks 4 --degrees 1,2,3",
        "homog --blocks 3,3 --degrees 1,2,3",
        "homog --blocks 2,3 --degrees 1,2,3",
        "verify homog",
        "verify commutativity",
    ]],
}


def job_key(job: list[str]) -> str:
    """The name of a job in the reference file and in reports."""
    return " ".join(job)


def job_argv(job: list[str], seed: int) -> list[str]:
    """The full ``cli.main`` argument list of a job."""
    return [*job, "--seed", str(seed), "--json"]
