"""Randomized invariance suites, runnable from the CLI.

Each suite draws seeded fixtures and checks an invariance that the rest of
the package relies on: congruence invariance of the classical invariants
and of Witt classes, Hilbert reciprocity, hyperbolic stabilization, the
vanishing of the skew sector, and agreement of the two independent Witt
equality oracles (residues vs stabilized Hasse data).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .cobordism import (
    acyclic_extension,
    cobordism_class,
    random_gram,
    random_integer_matrix,
    random_invertible,
    random_nondegenerate_form,
)
from .core import Record, hilbert_symbol, relevant_places
from .forms import (
    HYPERBOLIC_PLANE,
    SKEW,
    BlockMetabolicForm,
    invariants,
    metabolic_reduce,
)
from .witt import (
    classes_equal_hasse_route,
    classes_equal_residue_route,
    witt_class_of,
)


class SuiteResult(Record):
    """A suite's verdict over its trials, with one entry per failed trial."""

    def __init__(self, name: str, trials: int, passed: bool, failures: list):
        self.name = name
        self.trials = trials
        self.passed = passed
        self.failures = failures


def suite_congruence_invariance(rng: Random, trials: int) -> SuiteResult:
    failures = []
    for t in range(trials):
        n = rng.randint(1, 5)
        f = random_nondegenerate_form(rng, n)
        p = random_invertible(rng, n, bound=1)
        g = f.congruent_by(p)
        inv_f, inv_g = invariants(f), invariants(g)
        if (inv_f.rank, inv_f.signature, inv_f.discriminant) != (inv_g.rank, inv_g.signature, inv_g.discriminant):
            failures.append({"trial": t, "reason": "rank/signature/discriminant changed"})
            continue
        if not classes_equal_hasse_route(f, g):
            failures.append({"trial": t, "reason": "Hasse symbols changed under congruence"})
            continue
        if witt_class_of(f) != witt_class_of(g):
            failures.append({"trial": t, "reason": "Witt class changed under congruence"})
    return SuiteResult("congruence_invariance", trials, not failures, failures)


def suite_hilbert_product_formula(rng: Random, trials: int) -> SuiteResult:
    failures = []
    for t in range(trials):
        a = Fraction(rng.choice([x for x in range(-30, 31) if x]),
                     rng.choice([x for x in range(1, 16)]))
        b = Fraction(rng.choice([x for x in range(-30, 31) if x]),
                     rng.choice([x for x in range(1, 16)]))
        product = 1
        for place in relevant_places([a, b]):
            product *= hilbert_symbol(a, b, place)
        if product != 1:
            failures.append({"trial": t, "a": str(a), "b": str(b)})
    return SuiteResult("hilbert_product_formula", trials, not failures, failures)


def suite_hyperbolic_stabilization(rng: Random, trials: int) -> SuiteResult:
    failures = []
    for t in range(trials):
        n = rng.randint(0, 5)
        f = random_nondegenerate_form(rng, n)
        if witt_class_of(f.direct_sum(HYPERBOLIC_PLANE)) != witt_class_of(f):
            failures.append({"trial": t, "reason": "hyperbolic plane moved the class"})
            continue
        if n:
            k = rng.randint(1, 2)
            a = random_gram(rng, k, 2)
            b = random_integer_matrix(rng, n, k, 2)
            block = BlockMetabolicForm(f, a, b)
            reduction = metabolic_reduce(block)
            if witt_class_of(block.assemble()) != witt_class_of(reduction.core):
                failures.append({"trial": t, "reason": "metabolic reduction moved the class"})
    return SuiteResult("hyperbolic_stabilization", trials, not failures, failures)


def suite_skew_vanishing(rng: Random, trials: int) -> SuiteResult:
    failures = []
    for t in range(trials):
        n = 2 * rng.randint(1, 3)
        f = random_nondegenerate_form(rng, n, symmetry=SKEW)
        if not witt_class_of(f).is_zero():
            failures.append({"trial": t, "reason": "skew form has nonzero class"})
            continue
        cpx = acyclic_extension(f, rng, rng.randint(1, 2))
        if not cobordism_class(cpx).is_zero():
            failures.append({"trial": t, "reason": "skew complex has nonzero class"})
    return SuiteResult("skew_sector_vanishing", trials, not failures, failures)


def suite_two_oracle_agreement(rng: Random, trials: int) -> SuiteResult:
    failures = []
    for t in range(trials):
        f = random_nondegenerate_form(rng, rng.randint(1, 6), bound=4)
        if rng.random() < 0.5:
            g = f.direct_sum(HYPERBOLIC_PLANE).congruent_by(
                random_invertible(rng, f.gram.n + 2, bound=1))
        else:
            g = random_nondegenerate_form(rng, rng.randint(1, 6), bound=4)
        by_residue = classes_equal_residue_route(f, g)
        by_hasse = classes_equal_hasse_route(f, g)
        if by_residue != by_hasse:
            failures.append({
                "trial": t,
                "f": [[str(x) for x in r] for r in f.gram.rows],
                "g": [[str(x) for x in r] for r in g.gram.rows],
                "residue_route": by_residue,
                "hasse_route": by_hasse,
            })
    return SuiteResult("two_oracle_agreement", trials, not failures, failures)


def run_all(seed: int, trials: int) -> list[SuiteResult]:
    if trials < 0:
        raise ValueError(f"the trial count must be nonnegative, not {trials}")
    suites = [
        suite_congruence_invariance,
        suite_hilbert_product_formula,
        suite_hyperbolic_stabilization,
        suite_skew_vanishing,
        suite_two_oracle_agreement,
    ]
    return [suite(Random(seed + k), trials) for k, suite in enumerate(suites)]
