"""Seeded input generators for the benchmark.

Everything here is plain Python with no import of corefree, so a change to
the library (or to its own samplers in ``corefree.sampling`` and the test
helpers) cannot shift the inputs: the same seed always gives the same
JSON.  Words are emitted in the library's JSON form, a list of
``[index, exponent]`` syllable pairs, and handed to the program only
through its public loaders.
"""

from __future__ import annotations

import random
from fractions import Fraction


def reduce_letters(letters):
    """Free reduction of a letter list (``+i`` is x_i, ``-i`` its inverse)."""
    out = []
    for s in letters:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return out


def to_syllables(letters):
    """Letter list to JSON syllable pairs; the input must be reduced."""
    out = []
    for s in letters:
        i, e = abs(s), (1 if s > 0 else -1)
        if out and out[-1][0] == i:
            out[-1][1] += e
        else:
            out.append([i, e])
    return out


def from_syllables(sylls):
    return [i if e > 0 else -i for i, e in sylls for _ in range(abs(e))]


def walk(rng: random.Random, rank: int, length: int):
    """Uniform non-backtracking walk of the given length: a reduced word."""
    letters = []
    for _ in range(length):
        options = [s for i in range(1, rank + 1) for s in (i, -i)]
        if letters:
            options.remove(-letters[-1])
        letters.append(rng.choice(options))
    return letters


def presentation(rng: random.Random, rank: int, count: int, max_length: int) -> dict:
    """A subgroup presentation of ``count`` walks of length 1..max_length."""
    gens = [to_syllables(walk(rng, rank, rng.randint(1, max_length))) for _ in range(count)]
    return {"rank": rank, "generators": gens}


def products(rng: random.Random, p: dict, count: int, max_factors: int):
    """``count`` subgroup elements: reduced products of 1..max_factors
    generators of ``p`` or their inverses."""
    gens = [from_syllables(g) for g in p["generators"]]
    out = []
    for _ in range(count):
        letters = []
        if gens:
            for _ in range(rng.randint(1, max_factors)):
                g = gens[rng.randrange(len(gens))]
                letters.extend(g if rng.random() < 0.5 else [-s for s in reversed(g)])
        out.append(to_syllables(reduce_letters(letters)))
    return out


def alternating(rng: random.Random, points: int, max_point: int) -> dict:
    """Alternating-function JSON with ``points`` support points drawn from
    1..max_point and nonzero values p/q, |p| <= 8, 1 <= q <= 4."""
    support = sorted(rng.sample(range(1, max_point + 1), points))
    values = []
    for m in support:
        q = Fraction(rng.choice([n for n in range(-8, 9) if n]), rng.randint(1, 4))
        values.append([m, str(q)])
    return {"support": values}


def _transitive_action(rng: random.Random, rank: int, degree: int):
    """``rank`` random permutations of range(degree) whose Schreier graph
    is connected."""
    while True:
        perms = []
        for _ in range(rank):
            image = list(range(degree))
            rng.shuffle(image)
            perms.append(image)
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for perm in perms:
                for u in (perm[v], perm.index(v)):
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        if len(seen) == degree:
            return perms


def punctured_graph(rng: random.Random, rank: int, degree: int, deleted: int) -> dict:
    """Schreier graph of a random transitive action with ``deleted`` edges
    removed, kept connected; generators are read off a breadth-first
    spanning tree (path in, edge, path out) over x1, x1^-1, x2, ...  The
    graph is never complete, so the subgroup has infinite index."""
    while True:
        perms = _transitive_action(rng, rank, degree)
        edges = [(v, i + 1, perm[v]) for i, perm in enumerate(perms) for v in range(degree)]
        for e in rng.sample(edges, deleted):
            edges.remove(e)
        succ = [dict() for _ in range(rank)]
        pred = [dict() for _ in range(rank)]
        for v, i, u in edges:
            succ[i - 1][v] = u
            pred[i - 1][u] = v
        path = {0: []}
        queue = [0]
        tree = set()
        for v in queue:
            for i in range(1, rank + 1):
                for letter, table in ((i, succ[i - 1]), (-i, pred[i - 1])):
                    u = table.get(v)
                    if u is None or u in path:
                        continue
                    path[u] = path[v] + [letter]
                    tree.add((v, i, u) if letter > 0 else (u, i, v))
                    queue.append(u)
        if len(path) == degree:
            break
    gens = []
    for v, i, u in sorted(edges):
        if (v, i, u) in tree:
            continue
        letters = reduce_letters(path[v] + [i] + [-s for s in reversed(path[u])])
        if letters:
            gens.append(to_syllables(letters))
    return {"rank": rank, "generators": gens}


# --- workload inputs -----------------------------------------------------
#
# Instance t of every seed has the same shape (rank, generator count,
# support size, ...), taken from a fixed cycle over the shapes the workload
# covers; the seed draws everything else.  The shapes are what the cost of
# an operation mostly depends on, so stratifying them keeps a run's mix of
# cheap and expensive operations the same from seed to seed.

# Instances per seed.  A run goes over its items in rounds.  Each list
# gives at least 100 items (qm-defect makes four items of an instance and
# cli seven), so that ten lie beyond p90, and at least three rounds in a
# 35-second run at the speed of the seed library.  certify-corpus and
# basis-scale are sized to outlast a run instead.
CORPUS_SIZE = {"certify": 144, "certify-corpus": 900, "basis-scale": 2000, "qm-defect": 25,
               "cli": 15}

# (rank, generator count) shapes of certify: the acceptance-corpus shapes
# whose operations all take well under a second, one F_2 draw to two F_3
# draws.  Over 3000 probe draws of the corpus every word blow-up had F_2
# with 3-4 generators or F_3 with 4, and F_3 with 3 generators took up to
# 2.4 s, twenty times its median, so one draw of it could set a seed's
# throughput.  certify-corpus keeps all the corpus shapes (two F_2 draws
# to each F_3 draw, 1-4 generators), blow-ups included.
CERTIFY_SHAPES = ((2, 1), (3, 1), (3, 2), (2, 2), (3, 1), (3, 2))
CORPUS_SHAPES = tuple((3 if t % 3 == 2 else 2, 1 + (t // 3) % 4) for t in range(12))


def _certify(rng: random.Random, t: int, shapes=CERTIFY_SHAPES) -> dict:
    """Generators of length 1..8 in the shape ``shapes[t % len(shapes)]``,
    with subgroup elements to evaluate on and base factors (support in
    1..3) to be pushed onto multiples of m0."""
    rank, count = shapes[t % len(shapes)]
    p = presentation(rng, rank, count, 8)
    return {
        "p": p,
        "elements": products(rng, p, 20, 10),
        "factors": [alternating(rng, rng.randint(1, 3), 3) for _ in range(rank)],
        "seed": rng.randrange(2**32),
    }


def _certify_corpus(rng: random.Random, t: int) -> dict:
    return _certify(rng, t, CORPUS_SHAPES)


def _basis_scale(rng: random.Random, t: int) -> dict:
    """Punctured Schreier graphs: rank 2-3, degree 3-5, 1-2 edges deleted."""
    return {"p": punctured_graph(rng, 2 + t % 2, 3 + (t // 2) % 3, 1 + (t // 6) % 2)}


def _qm_defect(rng: random.Random, t: int) -> dict:
    """Rank 2-3; factor j has k = 1..16 support points, the largest at
    S = k..16 (both cycled), the others drawn from 1..S-1."""
    rank = 2 + t % 2
    factors = []
    for j in range(rank):
        k = 1 + (5 * t + 7 * j) % 16
        top = k + (3 * t + 11 * j) % (17 - k)
        f = alternating(rng, k - 1, top - 1) if k > 1 else {"support": []}
        value = Fraction(rng.choice([n for n in range(-8, 9) if n]), rng.randint(1, 4))
        f["support"].append([top, str(value)])
        factors.append(f)
    return {"rank": rank, "factors": factors}


def _cli(rng: random.Random, t: int) -> dict:
    """Small inputs for one round of every CLI command: a rank-2
    presentation and a split quasimorphism.  Both generators have even
    length, so H lies in the index-2 subgroup of even words and never has
    finite index (a 2-generated finite-index subgroup of F_2 is F_2).

    The presentation is instance t of a fixed list, carried to an
    equivalent one by the seed: each label may be swapped for its inverse
    (x_i -> x_i^-1, an automorphism that keeps the label order), each
    generator may be inverted and the two may trade places (neither
    changes H).  Folding, the basis search and the verify sweep do the
    same work on every such image, so the seed changes the inputs but not
    what the commands cost.  A seeded draw of the words themselves made
    the slowest command, verify, range over a factor of two between
    inputs, and with it the run's p90."""
    base = random.Random(f"cli-base:{t}")
    gens = [walk(base, 2, base.choice((2, 4))) for _ in range(2)]
    flip = {i: rng.choice((1, -1)) for i in (1, 2)}
    gens = [[s * flip[abs(s)] for s in g] for g in gens]
    gens = [g if rng.random() < 0.5 else [-s for s in reversed(g)] for g in gens]
    rng.shuffle(gens)
    gens = [to_syllables(g) for g in gens]
    return {
        "p": {"rank": 2, "generators": gens},
        "factors": [alternating(rng, rng.randint(1, 3), 3) for _ in range(2)],
        "qm": [alternating(rng, rng.randint(1, 4), 6) for _ in range(2)],
    }


_MAKERS = {"certify": _certify, "certify-corpus": _certify_corpus, "basis-scale": _basis_scale,
           "qm-defect": _qm_defect, "cli": _cli}


def make_instances(workload: str, seed, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [_MAKERS[workload](rng, t) for t in range(count)]
