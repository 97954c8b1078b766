"""Independent oracles shared across the test modules.

Everything here is deliberately naive: dense scans, exhaustive products,
permutation actions.  The library is checked against these, never the
other way round.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from corefree import FoldedGraph, SubgroupPresentation, Word, free_reduce, syllables
from corefree.words import Syllable


def dense_defect(f, window=None) -> tuple[Fraction, tuple[int, int]]:
    """Full window scan of |f(m+n)-f(m)-f(n)| in canonical pair order."""
    S = f.support_bound
    W = window if window is not None else 2 * S + 2

    def key(p):
        m, n = p
        return (abs(m) + abs(n), abs(m), 0 if m > 0 else 1, 0 if n > 0 else 1, m, n)

    best, wit = Fraction(0), (0, 0)
    pairs = ((m, n) for m in range(-W, W + 1) for n in range(-W, W + 1))
    for m, n in sorted(pairs, key=key):
        d = abs(f(m + n) - f(m) - f(n))
        if d > best:
            best, wit = d, (m, n)
    return best, wit


def subgroup_products(p: SubgroupPresentation, max_factors: int) -> set[Word]:
    """All products of at most max_factors generators and inverses."""
    gens = list(p.generators) + [~w for w in p.generators]
    elements = {Word.identity(p.rank)}
    frontier = {Word.identity(p.rank)}
    for _ in range(max_factors):
        nxt = set()
        for w in frontier:
            for g in gens:
                u = w * g
                if u not in elements:
                    elements.add(u)
                    nxt.add(u)
        frontier = nxt
    return elements


def naive_core_vertices(graph) -> set[int]:
    """Fixpoint of valence-1 trimming by repeated full scans.  The result
    (the maximal min-valence-2 subgraph) is deletion-order independent."""
    alive = set(range(graph.num_vertices))
    while True:
        valence = {v: 0 for v in alive}
        for m in graph.succ:
            for v, u in m.items():
                if v in alive and u in alive:
                    valence[v] += 1
                    valence[u] += 1
        doomed = {v for v in alive if valence[v] <= 1}
        if not doomed:
            return alive
        alive -= doomed


class PermutationInstance:
    """A finite-index subgroup built from a transitive permutation action:
    the stabiliser of the point 0, presented by its Schreier generators.
    The action itself is an exact membership oracle for arbitrary words."""

    def __init__(self, rng: random.Random, rank: int, degree: int):
        while True:
            perms = []
            for _ in range(rank):
                perm = list(range(degree))
                rng.shuffle(perm)
                perms.append(perm)
            if self._transitive(perms, degree):
                break
        self.rank = rank
        self.degree = degree
        self.perms = perms
        self.inv_perms = [self._invert(p) for p in perms]
        self.presentation = self._schreier_presentation()

    @staticmethod
    def _invert(perm: list[int]) -> list[int]:
        out = [0] * len(perm)
        for i, j in enumerate(perm):
            out[j] = i
        return out

    @staticmethod
    def _transitive(perms, degree) -> bool:
        # permutations have finite order, so the forward orbit is the orbit
        seen = {0}
        stack = [0]
        while stack:
            s = stack.pop()
            for p in perms:
                if p[s] not in seen:
                    seen.add(p[s])
                    stack.append(p[s])
        return len(seen) == degree

    def act(self, state: int, letter: int) -> int:
        if letter > 0:
            return self.perms[letter - 1][state]
        return self.inv_perms[-letter - 1][state]

    def act_word(self, w: Word, state: int = 0) -> int:
        for s in w.letters:
            state = self.act(state, s)
        return state

    def member(self, w: Word) -> bool:
        return self.act_word(w) == 0

    def _schreier_presentation(self) -> SubgroupPresentation:
        transversal = {0: ()}
        queue = [0]
        while queue:
            s = queue.pop(0)
            for i in range(1, self.rank + 1):
                for letter in (i, -i):
                    t = self.act(s, letter)
                    if t not in transversal:
                        transversal[t] = transversal[s] + (letter,)
                        queue.append(t)
        gens = []
        for s in range(self.degree):
            for i in range(1, self.rank + 1):
                t = self.act(s, i)
                letters = (
                    transversal[s]
                    + (i,)
                    + tuple(-x for x in reversed(transversal[t]))
                )
                w = free_reduce(self.rank, letters)
                if not w.is_identity():
                    gens.append(w)
        return SubgroupPresentation(self.rank, tuple(gens))


# --- free-group action on the completed Schreier graph ----------------------


State = tuple[int, tuple[tuple[int, int], ...]]


class SchreierAction:
    """Exact free-group action on the full Schreier graph of the subgroup.

    The folded graph completes to the (usually infinite) Schreier graph by
    growing a tree at every missing edge slot.  A state is (vertex, sigma)
    where sigma is the run-length-encoded reduced path of an excursion
    into such a tree (empty when standing on a graph vertex).  Every
    letter acts bijectively, so applying any spelling of a group element
    gives the element's action; the stabiliser of the base state is
    exactly the subgroup.  Long runs are shortcut with cycle detection,
    making powers cheap.
    """

    def __init__(self, graph: FoldedGraph):
        self.graph = graph
        self.base_state: State = (graph.basepoint, ())

    def _walk(self, v: int, letter: int, count: int) -> tuple[int, int]:
        """Follow `letter` up to `count` times inside the graph; return
        (vertex reached, steps NOT taken)."""
        step = self.graph.step
        seen = {v: 0}
        path = [v]
        for t in range(1, count + 1):
            nxt = step(v, letter)
            if nxt is None:
                return v, count - (t - 1)
            v = nxt
            if v in seen:
                period = t - seen[v]
                rem = (count - t) % period
                return path[seen[v] + rem], 0
            seen[v] = t
            path.append(v)
        return v, 0

    def apply_syllable(self, state: State, index: int, exponent: int) -> State:
        v, sigma_t = state
        sigma = list(sigma_t)
        letter = index if exponent > 0 else -index
        count = abs(exponent)
        while count:
            if sigma:
                top_letter, top_count = sigma[-1]
                if top_letter == -letter:
                    c = min(top_count, count)
                    count -= c
                    if top_count - c:
                        sigma[-1] = (top_letter, top_count - c)
                    else:
                        sigma.pop()
                elif top_letter == letter:
                    sigma[-1] = (letter, top_count + count)
                    count = 0
                else:
                    sigma.append((letter, count))
                    count = 0
            else:
                v, remaining = self._walk(v, letter, count)
                if remaining:
                    sigma.append((letter, remaining))
                count = 0
        return (v, tuple(sigma))

    def apply(self, state: State, sylls: Iterable[Syllable]) -> State:
        for i, e in sylls:
            state = self.apply_syllable(state, i, e)
        return state

    def stabilizes_base(self, sylls: Iterable[Syllable]) -> bool:
        return self.apply(self.base_state, sylls) == self.base_state


def reduced_ball(act: SchreierAction, rank: int, radius: int):
    """All reduced words of length <= radius, as letter tuples, with their
    action on the base state, in breadth-first order."""
    frontier = [((), act.base_state)]
    yield frontier[0]
    for _ in range(radius):
        new = []
        for letters, state in frontier:
            last = letters[-1] if letters else 0
            for i in range(1, rank + 1):
                for s in (i, -i):
                    if s == -last:
                        continue
                    nxt = act.apply_syllable(state, i, 1 if s > 0 else -1)
                    item = (letters + (s,), nxt)
                    yield item
                    new.append(item)
        frontier = new


def conjugate_power_sweep(
    graph: FoldedGraph, words: Iterable[Word], g_bound: int = 4, power_bound: int = 6
) -> list[tuple[Word, int, int]]:
    """Brute force: every (g, i, m) with |g| <= g_bound, 1 <= m <= power_bound
    and g^-1 y_i^m g in H, y_i being the i-th of `words`.

    The ball enumerates g^-1 with its state s0 = base.g^-1.  The action is
    a bijection and g maps s0 back to the base state, so g^-1 y^m g fixes
    the base state exactly when y^m fixes s0.
    """
    act = SchreierAction(graph)
    y_sylls = [syllables(y) for y in words]
    memos: list[dict] = [dict() for _ in y_sylls]
    hits = []
    for letters, state in reduced_ball(act, graph.rank, g_bound):
        g_word = ~free_reduce(graph.rank, letters)
        for i, (sylls, memo) in enumerate(zip(y_sylls, memos), start=1):
            s = state
            for m in range(1, power_bound + 1):
                nxt = memo.get(s)
                if nxt is None:
                    nxt = memo[s] = act.apply(s, sylls)
                s = nxt
                if s == state:
                    hits.append((g_word, i, m))
    return hits
