"""Seeded inputs and by-construction checks for the four benchmark workloads.

Each workload is an endless stream of distinct items made from its seed
(``stream``) and a check of one item (``run``).  ``run`` returns None when
the verdict matches the one known by construction and a short reason string
when it does not; an exception escaping ``run`` is a raised verdict.  Items
carry ``planted`` when the construction expects the program to refuse them
with ``FactorBoundExceeded`` (that refusal, or the correct verdict, is
accepted).
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import comb
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent

# Criterion 4 cycles through these (weight, dimension) shapes.
SHAPES = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
          (1, 2), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)]


def seeded(seed: int, part: int) -> Random:
    """The root generator of one part of a workload's seeded stream.  Part 0
    holds the timed items; the extra set-ups make the first items of parts
    1, 2, ..., so their median time covers more of the generators' cost,
    which has a heavy tail."""
    return Random(seed if part == 0 else f"{seed}/{part}")


@dataclass
class Item:
    index: int  # position in the seeded pool
    data: object
    planted: bool = False
    expect: dict = field(default_factory=dict)


# -- witness_chains -------------------------------------------------------


# Criterion 3 draws core rank 1-5 and 1-3 steps.
CHAIN_SHAPES = [(rank, steps) for rank in range(1, 6) for steps in range(1, 4)]
VERIFY_EVERY = 10  # every 10th chain also has its witnesses verified
# random_witness_chain makes each step metabolic with probability 1/3 while
# fewer than two are: the weights of 0, 1, 2 metabolic links for 1-3 steps.
METABOLIC_MIX = {1: [2, 1], 2: [4, 4, 1], 3: [8, 12, 7]}


def shuffled_blocks(rng: Random, shapes: list):
    """Endless stream of ``shapes``, each block of len(shapes) a seeded permutation.

    The mix of shapes is then the same at every seed, so a run's figures do
    not move with how many large items a seed happens to draw."""
    while True:
        block = list(shapes)
        rng.shuffle(block)
        yield from block


def chain_shapes(rng: Random):
    """Endless stream of (rank, steps) shapes.  Every block of 30 chains takes
    each shape twice, in a seeded order, and its chains 0, 10 and 20, the
    verified ones, take the next three of a seeded walk through all 15
    shapes, so every 150 chains verify each shape once.  A verified chain
    of the largest shape costs some 40 times one of the smallest."""
    verified = shuffled_blocks(rng, CHAIN_SHAPES)
    size = 2 * len(CHAIN_SHAPES)
    while True:
        picked = [next(verified) for _ in range(size // VERIFY_EVERY)]
        rest = 2 * CHAIN_SHAPES
        for shape in picked:
            rest.remove(shape)
        rng.shuffle(rest)
        for i in range(size):
            yield picked.pop(0) if i % VERIFY_EVERY == 0 else rest.pop()


def stream_witness_chains(seed: int, workdir: Path, part: int = 0):
    """Chains in the shapes of ``chain_shapes``.  A metabolic link makes a
    chain cost 3-5 times more, so the number of them is stratified too: each
    shape's chains take their metabolic-link counts from seeded blocks in the
    proportions of METABOLIC_MIX.  Chains are made in the generator's own
    order and kept until their count comes up."""
    from wittpoint.cobordism import random_witness_chain

    rng = seeded(seed, part)
    order = Random(rng.random())
    shapes = chain_shapes(order)
    wanted = {shape: shuffled_blocks(order, [m for m, w in enumerate(METABOLIC_MIX[shape[1]])
                                             for _ in range(w)])
              for shape in CHAIN_SHAPES}
    spare = defaultdict(deque)  # (shape, metabolic links) -> chains made, not yet used
    for i in count():
        shape = next(shapes)
        key = (shape, next(wanted[shape]))
        while not spare[key]:
            chain = random_witness_chain(rng, *shape)
            spare[shape, sum(link.step == "metabolic" for link in chain.links)].append(chain)
        yield Item(i, spare[key].popleft())


def run_witness_chains(item: Item):
    from wittpoint.cobordism import SelfDualComplex, cobordism_class, verify_witness
    from wittpoint.forms import metabolic_reduce
    from wittpoint.witt import witt_class_of

    chain = item.data
    expected = witt_class_of(chain.core)
    for k, link in enumerate(chain.links):
        got = (cobordism_class(link.obj) if isinstance(link.obj, SelfDualComplex)
               else witt_class_of(link.obj))
        if got != expected:
            return f"link {k} ({link.step}) class differs from the core's"
        if link.block is not None:
            red = metabolic_reduce(link.block)
            if witt_class_of(red.core) != expected:
                return f"link {k} metabolic core class differs from the core's"
            if red.hyperbolic_count != link.block.isotropic_rank:
                return f"link {k} split {red.hyperbolic_count} planes, expected {link.block.isotropic_rank}"
    if item.index % VERIFY_EVERY == 0:
        for k, link in enumerate(chain.links):
            if not verify_witness(link.witness).ok:
                return f"link {k} witness does not verify"
    return None


# -- polarization_pairs ---------------------------------------------------


def stream_polarization_pairs(seed: int, workdir: Path, part: int = 0):
    from wittpoint.hodge import random_polarization_pair

    rng = seeded(seed, part)  # part 0 is the criterion-4 stream
    for i in count():
        yield Item(i, random_polarization_pair(rng, *SHAPES[i % len(SHAPES)]))


def run_polarization_pairs(item: Item):
    from wittpoint.hodge import compare_polarizations

    pair = compare_polarizations(*item.data)
    if not (pair.sturm.all_real_positive and pair.semisimple and pair.identity_chain_ok
            and pair.preserves_bigrading and pair.signature_s == pair.signature_s_prime):
        return "comparison not certified"
    return None


# -- oracle_heights -------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PLANT_EVERY = 16  # one item in 16 carries two primes above the trial-division bound


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact below 3.2e9."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\0\0"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]]


def _big_prime(rng: Random) -> int:
    n = rng.randrange(10**6 + 1, 10**8) | 1
    while not _is_prime(n):
        n += 2
    return n


def _value(sign: int, primes: list[int]) -> int:
    v = sign
    for p in primes:
        v *= p
    return v


def _discriminant(entries: list[tuple[int, list[int]]]) -> int:
    """Signed squarefree part of the product of the entries, from their factors."""
    sign, odd = 1, set()
    for s, primes in entries:
        sign *= s
        odd ^= {p for p in primes if primes.count(p) % 2}
    return _value(sign, sorted(odd))


def stream_oracle_heights(seed: int, workdir: Path, part: int = 0):
    """Each entry of f, and the b of the hyperbolic pair, carries a prime in
    [1e3, 1e5) half the time, and factoring those primes is most of an
    item's cost.  So how many of f's n entries carry one is stratified (per
    rank, seeded blocks in the binomial proportions C(n, k)), as are whether
    b does, how an unequal g is made and the primes' sizes: each is drawn
    from one of eight equal slices of the primes, in seeded blocks.  Equal
    and unequal items alternate, and each kind takes the ranks 2-5 in seeded
    blocks of its own."""
    from wittpoint.forms import BilinearForm

    rng = seeded(seed, part)
    order = Random(rng.random())
    ranks = [shuffled_blocks(order, [2, 3, 4, 5]) for _ in range(2)]  # equal, unequal
    carriers = {n: shuffled_blocks(order, [k for k in range(n + 1) for _ in range(comb(n, k))])
                for n in (2, 3, 4, 5)}
    b_carries = shuffled_blocks(order, [True, False])
    flips = shuffled_blocks(order, [True, False])
    mids = _primes_between(10**3, 10**5)
    sizes = shuffled_blocks(order, [mids[k * len(mids) // 8:(k + 1) * len(mids) // 8]
                                    for k in range(8)])
    for i in count():
        n = next(ranks[i % 2])
        carrying = set(rng.sample(range(n), next(carriers[n])))
        entries = []  # (sign, prime factors) per diagonal entry of f
        for j in range(n):
            primes = [rng.choice(SMALL_PRIMES)]
            if j in carrying:
                primes.append(rng.choice(next(sizes)))
            entries.append((rng.choice((1, -1)), primes))
        planted = i % PLANT_EVERY == PLANT_EVERY - 1
        if planted:
            for j in rng.sample(range(n), 2):
                entries[j] = (entries[j][0], [entries[j][1][0], _big_prime(rng)])
        f_vals = [_value(s, p) for s, p in entries]
        g_vals = [Fraction(v) * Fraction(rng.randint(1, 6), rng.randint(1, 6)) ** 2 for v in f_vals]
        equal = i % 2 == 0
        if not equal:
            j = rng.randrange(n)
            if next(flips):
                g_vals[j] = -g_vals[j]  # signature moves by 2
            else:
                g_vals[j] *= rng.choice(next(sizes))  # discriminant moves by a prime
        b = rng.choice((1, -1)) * rng.choice(SMALL_PRIMES) * (rng.choice(next(sizes)) if next(b_carries) else 1)
        g_vals += [Fraction(b), Fraction(-b)]
        rng.shuffle(g_vals)
        expect = {
            "equivalent": equal,
            "rank": n,
            "signature": (sum(s > 0 for s, _ in entries), sum(s < 0 for s, _ in entries)),
            "discriminant": _discriminant(entries),
        }
        pair = (BilinearForm.from_diagonal(f_vals), BilinearForm.from_diagonal(g_vals))
        yield Item(i, pair, planted=planted, expect=expect)


def run_oracle_heights(item: Item):
    from wittpoint.forms import invariants
    from wittpoint.witt import equivalent

    f, g = item.data
    if equivalent(f, g) != item.expect["equivalent"]:
        return f"equivalent() returned {not item.expect['equivalent']}"
    inv = invariants(f)
    got = (inv.rank, inv.signature, inv.discriminant.representative)
    want = (item.expect["rank"], item.expect["signature"], item.expect["discriminant"])
    if got != want:
        return f"invariants {got} != {want}"
    return None


# -- cli_oneshot ----------------------------------------------------------

SHIM = HERE / "cli_shim.py"
CLI_TIMEOUT_S = 60


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def stream_cli_oneshot(seed: int, workdir: Path, part: int = 0):
    """Fixture sets written as JSON, each giving one call of every covered command."""
    from wittpoint import jsonio
    from wittpoint.cobordism import (
        acyclic_extension,
        random_invertible,
        random_nondegenerate_form,
        truncation_witness,
    )
    from wittpoint.forms import HYPERBOLIC_PLANE, BilinearForm, BlockMetabolicForm
    from wittpoint.hodge import random_polarization_pair
    from wittpoint.linalg import Mat
    from wittpoint.witt import witt_class_of

    rng = seeded(seed, part)
    index = count()
    for k in count():
        calls = []
        d = workdir / f"set{k}"
        d.mkdir(parents=True, exist_ok=True)
        n = rng.randint(2, 4)
        core = random_nondegenerate_form(rng, n)
        core_class = jsonio.witt_class_to_json(witt_class_of(core))
        core_path = _write(d / "core.json", jsonio.form_to_json(core))

        moved = core.congruent_by(random_invertible(rng, n, bound=1))
        calls.append((["witt-class", _write(d / "moved.json", jsonio.form_to_json(moved))], core_class))

        entries = [(rng.choice((1, -1)), [rng.choice(SMALL_PRIMES)]) for _ in range(rng.randint(2, 4))]
        diag = BilinearForm.from_diagonal([_value(s, p) for s, p in entries])
        calls.append((["invariants", _write(d / "diag.json", jsonio.form_to_json(diag))], {
            "rank": len(entries),
            "signature": {"positive": sum(s > 0 for s, _ in entries),
                          "negative": sum(s < 0 for s, _ in entries)},
            "discriminant": _discriminant(entries),
        }))

        stable = core.direct_sum(HYPERBOLIC_PLANE).congruent_by(random_invertible(rng, n + 2, bound=1))
        calls.append((["equivalent", core_path, _write(d / "stable.json", jsonio.form_to_json(stable))],
                      {"equivalent": True}))

        cpx = acyclic_extension(core, rng, rng.randint(1, 2))
        calls.append((["complex-class", _write(d / "complex.json", jsonio.complex_to_json(cpx))],
                      {"witt_class": core_class}))
        calls.append((["verify-witness",
                       _write(d / "witness.json", jsonio.witness_to_json(truncation_witness(cpx)))],
                      {"ok": True}))

        iso = rng.randint(1, 2)
        a = Mat.zeros(iso, iso)
        for i in range(iso):
            for j in range(i + 1):
                a.rows[i][j] = a.rows[j][i] = Fraction(rng.randint(-2, 2))
        b = Mat(n, iso, [[Fraction(rng.randint(-2, 2)) for _ in range(iso)] for _ in range(n)])
        block = BlockMetabolicForm(core, a, b)
        block_doc = {"s": jsonio.form_to_json(core), "a": jsonio.format_matrix(a),
                     "b": jsonio.format_matrix(b)}
        calls.append((["metabolic-reduce", _write(d / "block.json", block_doc)],
                      {"hyperbolic_count": block.isotropic_rank}))

        h, s, s2 = random_polarization_pair(rng, *SHAPES[k % len(SHAPES)])
        calls.append((["hodge-compare", _write(d / "hodge.json", jsonio.hodge_to_json(h)),
                       _write(d / "s.json", jsonio.form_to_json(s)),
                       _write(d / "s2.json", jsonio.form_to_json(s2))],
                      {"certified": True}))

        calls.append((["selfcheck", "--seed", str(seed + k), "--trials", "2"], {"all_passed": True}))
        for argv, want in calls:
            yield Item(next(index), argv, expect=want)


def run_cli_oneshot(item: Item, trace_out: str | None = None):
    shim = [sys.executable, str(SHIM)] + (["--trace-out", trace_out] if trace_out else [])
    proc = subprocess.run(shim + ["--", "--json", *item.data], capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:  # every call is built to give a true verdict
        return f"{item.data[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    payload = json.loads(proc.stdout)
    for key, want in item.expect.items():
        if payload.get(key) != want:
            return f"{item.data[0]} payload {key}={payload.get(key)!r}, expected {want!r}"
    return None


class Workload(NamedTuple):
    stream: Callable  # (seed, workdir, part) -> endless iterator of Items
    run: Callable  # Item -> None, or the reason its verdict is wrong
    setup_items: int  # items made in set-up
    pass_items: int  # items of a fixed (traced) pass
    smoke_items: int  # items of a smoke pass
    rate: float  # items per reference second, about; sizes the saved items of a timed run


WORKLOADS = {
    "witness_chains": Workload(stream_witness_chains, run_witness_chains, 45, 300, 6, 55),
    "polarization_pairs": Workload(stream_polarization_pairs, run_polarization_pairs, 56, 280, 14, 40),
    "oracle_heights": Workload(stream_oracle_heights, run_oracle_heights, 128, 640, 32, 36),
    "cli_oneshot": Workload(stream_cli_oneshot, run_cli_oneshot, 8, 24, 8, 6),
}
