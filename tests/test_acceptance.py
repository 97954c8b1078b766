"""Acceptance suite.

Every check is exact (integer or rational arithmetic, no tolerances) and
prints one pass/fail line.  The random corpus is fully determined by
MASTER_SEED: 200 subgroups of F_2 and F_3 with at most 4 generators of
length at most 8; finite-index draws are set aside and reused by the
dichotomy criterion.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from corefree import (
    AlternatingFunction,
    FiniteIndexError,
    SubgroupPresentation,
    Word,
    coboundary1,
    coboundary2,
    core,
    counting_qm,
    defect_z,
    embed_support,
    find_power_free_basis,
    fold,
    make_relative_qm,
    nontriviality_witness,
    parse_word,
    split_defect,
    transformed_syllables,
    verify_certificate,
)
from corefree.sampling import (
    InstanceSpec,
    random_alternating,
    random_presentation,
    random_reduced_word,
    random_split_qm,
    random_subgroup_element,
)

from helpers import PermutationInstance, conjugate_power_sweep, subgroup_products

MASTER_SEED = 20260810
N_DRAWS = 200


def _report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    """Seeded instance corpus with certificates and end-to-end checks."""
    rng = random.Random(MASTER_SEED)
    infinite, finite = [], []
    t0 = time.time()
    for t in range(N_DRAWS):
        rank = 2 if t % 2 == 0 else 3
        p = random_presentation(rng, InstanceSpec(rank, rng.randint(1, 4), 8))
        if fold(p).index() is not None:
            finite.append(p)
        else:
            infinite.append((p, find_power_free_basis(p)))
    find_time = time.time() - t0
    t0 = time.time()
    reports = [verify_certificate(p, cert, sample_count=0) for p, cert in infinite]
    sweeps = [conjugate_power_sweep(fold(p), cert.basis) for p, cert in infinite]
    check_time = time.time() - t0
    return {
        "instances": infinite,
        "finite": finite,
        "reports": reports,
        "sweeps": sweeps,
        "elapsed": find_time + check_time,
    }


def test_criterion_1_basis_end_to_end(corpus):
    """Every infinite-index draw yields a certificate that verifies: its
    fields match their recomputation, the transformed core has no
    single-label cycles, and no conjugate of H contains a power of a basis
    word.  Independently, the brute-force sweep finds no conjugate
    g H g^-1 with |g| <= 4 containing y_i^m for 1 <= m <= 6.  Finding,
    verifying and the sweep take below 60 s."""
    assert len(corpus["instances"]) + len(corpus["finite"]) == N_DRAWS
    structural = all(r.structural_ok for r in corpus["reports"])
    conjugate = all(r.conjugate_ok for r in corpus["reports"])
    sweep = not any(corpus["sweeps"])
    ok = structural and conjugate and sweep and corpus["elapsed"] < 60.0
    _report(
        1,
        "power-free basis end to end",
        ok,
        f"{len(corpus['instances'])} certificates, {corpus['elapsed']:.1f}s",
    )


def test_criterion_2_monotone_termination(corpus):
    """Loop-vertex counts strictly decrease along every trace and bound
    the iteration count."""
    ok = True
    for _, cert in corpus["instances"]:
        before = [s.loops_before for s in cert.trace]
        ok &= all(a > b for a, b in zip(before, before[1:]))
        for t, step in enumerate(cert.trace):
            nxt = cert.trace[t + 1].loops_before if t + 1 < len(cert.trace) else 0
            ok &= step.loops_after == nxt
        if cert.trace:
            ok &= len(cert.trace) <= cert.trace[0].loops_before
    _report(2, "monotone termination", ok)


def test_criterion_3_power_bound_soundness(corpus):
    """1000 random subgroup elements per certificate stay strictly below
    the power bound in transformed coordinates; the bound itself is at
    most vertex count + 1 of the final folded graph."""
    rng = random.Random(MASTER_SEED + 3)
    ok = True
    for p, cert in corpus["instances"]:
        final = fold(SubgroupPresentation(cert.rank, cert.transformed_generators))
        ok &= cert.power_bound <= final.num_vertices + 1
        for _ in range(1000):
            h = random_subgroup_element(rng, p, 10)
            if any(abs(e) >= cert.power_bound for _, e in transformed_syllables(cert, h)):
                ok = False
                break
        if not ok:
            break
    _report(3, "power bound soundness", ok)


def test_criterion_4_relative_vanishing(corpus):
    """For 20 random factor tuples supported on multiples of the power
    bound, the relative quasimorphism is exactly 0 on 1000 sampled
    subgroup elements and nonzero on a pulled-back witness power."""
    rng = random.Random(MASTER_SEED + 4)
    ok = True
    for p, cert in corpus["instances"]:
        m0 = cert.power_bound
        # transform the samples once; factor values depend only on the
        # syllable multiset, and off-support syllables contribute exactly 0
        sample_counts = [
            Counter(transformed_syllables(cert, random_subgroup_element(rng, p, 10)))
            for _ in range(1000)
        ]
        pair_index: dict = {}
        for sid, cnt in enumerate(sample_counts):
            for pair in cnt:
                pair_index.setdefault(pair, []).append(sid)
        for _ in range(20):
            factors = [
                random_alternating(rng, max_support=3, multiple_of=m0, allow_zero=False)
                for _ in range(cert.rank)
            ]
            if all(f.is_zero() for f in factors):
                factors[0] = AlternatingFunction({m0: 1})
            rel = make_relative_qm(cert, factors)
            suspects = set()
            for i, f in enumerate(factors, start=1):
                for s in f.support:
                    suspects.update(pair_index.get((i, s), []))
                    suspects.update(pair_index.get((i, -s), []))
            for sid in suspects:
                total = sum(
                    (factors[i - 1](e) * mult for (i, e), mult in sample_counts[sid].items()),
                    Fraction(0),
                )
                ok &= total == 0
            # spot-check the indexed evaluation against the evaluator itself
            h = random_subgroup_element(rng, p, 10)
            direct = rel(h)
            ok &= direct == sum(
                (factors[i - 1](e) for i, e in transformed_syllables(cert, h)), Fraction(0)
            )
            witness = nontriviality_witness(rel)
            ok &= witness is not None and witness[1] != 0
            if witness is not None:
                ok &= not fold(p).membership(witness[0])
        if not ok:
            break
    _report(4, "relative vanishing + witness", ok)


def test_criterion_5_defect_norm_shadow():
    """Sampled coboundary values never exceed the max factor defect, and
    the single-factor witness pair attains it exactly (10^3 random split
    quasimorphisms, 10^4 sampled pairs in total)."""
    rng = random.Random(MASTER_SEED + 5)
    ok = True
    for _ in range(1000):
        rank = rng.choice([2, 3])
        q = random_split_qm(rng, rank, max_support=6)
        d = split_defect(q)
        for _ in range(10):
            g = random_reduced_word(rng, rank, rng.randint(0, 12))
            h = random_reduced_word(rng, rank, rng.randint(0, 12))
            ok &= abs(coboundary1(q, g, h)) <= d
        g, h = q.defect_witness()
        ok &= abs(coboundary1(q, g, h)) == d
        if not ok:
            break
    _report(5, "defect equals max factor defect", ok)


def test_criterion_6_support_embedding_isometry():
    """defect_z(embed_support(f, m)) == defect_z(f) for 10^3 random f and
    m in {1, 2, 3, 5}."""
    rng = random.Random(MASTER_SEED + 6)
    ok = True
    for _ in range(1000):
        f = random_alternating(rng, max_support=8)
        base = defect_z(f).value
        ok &= all(defect_z(embed_support(f, m)).value == base for m in (1, 2, 3, 5))
        if not ok:
            break
    _report(6, "support embedding is isometric", ok)


def test_criterion_7_stallings_oracles():
    """Membership accepts every enumerated product on 100 small random
    instances; on 20 coset-table instances membership coincides with the
    permutation action and the core rank is d(n-1)+1; folding is
    independent of generator order and orientation."""
    rng = random.Random(MASTER_SEED + 7)
    ok = True
    for _ in range(100):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(1, 3), 5))
        g = fold(p)
        ok &= all(g.membership(u) for u in subgroup_products(p, 4))
        gens = list(p.generators)
        rng.shuffle(gens)
        gens = [~u if rng.random() < 0.5 else u for u in gens]
        ok &= fold(SubgroupPresentation(p.rank, tuple(gens))) == g
        if not ok:
            break
    for _ in range(20):
        inst = PermutationInstance(rng, rng.randint(2, 3), rng.randint(2, 6))
        g = fold(inst.presentation)
        d = g.index()
        ok &= d == inst.degree
        ok &= core(g).rank_of_subgroup() == d * (inst.rank - 1) + 1
        for _ in range(50):
            u = random_reduced_word(rng, inst.rank, rng.randint(0, 10))
            ok &= g.membership(u) == inst.member(u)
        if not ok:
            break
    _report(7, "graph layer vs oracles", ok)


def test_criterion_8_finite_index_dichotomy(corpus):
    """Every finite-index input is rejected with FiniteIndexError and
    never yields a certificate."""
    rng = random.Random(MASTER_SEED + 8)
    inputs = list(corpus["finite"])
    inputs.append(
        SubgroupPresentation(2, tuple(parse_word(t, 2) for t in ("x1", "x2^2", "x2 x1 x2^-1")))
    )
    for _ in range(10):
        inputs.append(PermutationInstance(rng, rng.randint(2, 3), rng.randint(2, 5)).presentation)
    ok = True
    rejected = 0
    for p in inputs:
        try:
            find_power_free_basis(p)
            ok = False
        except FiniteIndexError as err:
            rejected += 1
            ok &= err.index == fold(p).index()
    _report(8, "finite index rejected", ok, f"{rejected} inputs")


def test_criterion_9_cocycle_identity():
    """d2(d1 f) vanishes identically on 10^4 random triples for split and
    counting quasimorphisms."""
    rng = random.Random(MASTER_SEED + 9)
    ok = True
    checked = 0
    while checked < 10_000 and ok:
        rank = rng.choice([2, 3])
        split = random_split_qm(rng, rank, max_support=4)
        pattern = random_reduced_word(rng, rank, rng.randint(1, 3))
        counting = lambda w: Fraction(counting_qm(pattern, w))
        for f in (split, counting):
            d1 = lambda g, h: coboundary1(f, g, h)
            g, h, k = (random_reduced_word(rng, rank, rng.randint(0, 8)) for _ in range(3))
            ok &= coboundary2(d1, g, h, k) == 0
            checked += 1
    _report(9, "cocycle identity", ok, f"{checked} triples")
