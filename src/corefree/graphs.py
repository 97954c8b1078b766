"""Folded basepointed graphs for finitely generated subgroups of F_n.

A folded graph stores, for each generator label, a partial injection on
the vertex set (succ_i).  Tracing a reduced word from the basepoint
decides membership; the core (no valence-1 vertices) carries the
single-label cycle structure used by the basis algorithm.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .words import (
    Word,
    cyclically_reduce,
    free_reduce,
    json_value,
    word_from_json,
    word_to_json,
)

_SENTINEL = -1


@dataclass(frozen=True)
class SubgroupPresentation:
    """A subgroup of F_rank given by finitely many generator words.

    Identity generators are discarded; the empty list presents the
    trivial subgroup.
    """

    rank: int
    generators: tuple[Word, ...]

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("ambient rank must be at least 2")
        for w in self.generators:
            if w.rank != self.rank:
                raise ValueError(f"generator rank {w.rank} != ambient rank {self.rank}")
        object.__setattr__(
            self, "generators", tuple(w for w in self.generators if not w.is_identity())
        )

    def to_json(self) -> dict:
        return {"rank": self.rank, "generators": [word_to_json(w) for w in self.generators]}

    @staticmethod
    def from_json(data: dict) -> "SubgroupPresentation":
        data = json_value(data, dict, "presentation")
        rank = json_value(data.get("rank"), int, "rank")
        gens = json_value(data.get("generators", []), list, "generators")
        return SubgroupPresentation(rank, tuple(word_from_json(rank, g) for g in gens))


class FoldedGraph:
    """Immutable folded graph with canonical vertex numbering (basepoint 0).

    succ[i-1] maps v to the endpoint of the x_i-edge leaving v; pred[i-1]
    is its inverse.  Both are partial injections.
    """

    def __init__(self, rank: int, succ: Sequence[dict[int, int]]):
        self.rank = rank
        self.basepoint = 0
        self.succ: tuple[dict[int, int], ...] = tuple(dict(m) for m in succ)
        self.pred: tuple[dict[int, int], ...] = tuple(
            {u: v for v, u in m.items()} for m in self.succ
        )
        verts = {0}
        for m in self.succ:
            verts.update(m)
            verts.update(m.values())
        self.num_vertices = max(verts) + 1 if verts else 1

    # -- queries ----------------------------------------------------------

    def step(self, v: int, letter: int) -> Optional[int]:
        """Endpoint of the edge labelled `letter` at v, or None if absent."""
        if letter > 0:
            return self.succ[letter - 1].get(v)
        return self.pred[-letter - 1].get(v)

    def trace(self, v: int, letters: Iterable[int]) -> Optional[int]:
        for s in letters:
            nxt = self.step(v, s)
            if nxt is None:
                return None
            v = nxt
        return v

    def membership(self, w: Word) -> bool:
        """True iff w lies in the subgroup this graph encodes."""
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        return self.trace(self.basepoint, w.letters) == self.basepoint

    def num_edges(self) -> int:
        return sum(len(m) for m in self.succ)

    def index(self) -> Optional[int]:
        """Subgroup index: the vertex count if the graph is 2n-regular
        (then it is the whole Schreier graph), otherwise None (infinite)."""
        if all(len(m) == self.num_vertices for m in self.succ):
            return self.num_vertices
        return None

    def edges(self) -> list[tuple[int, int, int]]:
        """Sorted (from, label, to) triples."""
        out = []
        for i, m in enumerate(self.succ, start=1):
            for v, u in m.items():
                out.append((v, i, u))
        out.sort()
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FoldedGraph)
            and self.rank == other.rank
            and self.succ == other.succ
        )

    def __repr__(self) -> str:
        return f"FoldedGraph(rank={self.rank}, vertices={self.num_vertices}, edges={self.num_edges()})"


# --- folding ---------------------------------------------------------------


class _Builder:
    """Union-find folding with a conflict worklist.

    Vertices are allocated while tracing generator loops; identifying two
    vertices merges their edge slots and queues any label conflicts, so
    the graph stays folded (up to stale labels) at all times.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.parent: list[int] = []
        self.neighbors: list[list[int]] = []  # 2*rank slots: x_i-out, x_i-in
        self.base = self.add_vertex()

    def add_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.neighbors.append([_SENTINEL] * (2 * self.rank))
        return v

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    @staticmethod
    def _slot(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def follow(self, v: int, letter: int) -> int:
        """Step along `letter`, creating the edge (and endpoint) if absent."""
        v = self.find(v)
        slot = self._slot(letter)
        w = self.neighbors[v][slot]
        if w == _SENTINEL:
            w = self.add_vertex()
            self.neighbors[v][slot] = w
            self.neighbors[w][slot ^ 1] = v
            return w
        return self.find(w)

    def unify(self, a: int, b: int) -> None:
        work = [(a, b)]
        while work:
            a, b = work.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.parent[b] = a
            na, nb = self.neighbors[a], self.neighbors[b]
            for slot in range(2 * self.rank):
                if nb[slot] == _SENTINEL:
                    continue
                if na[slot] == _SENTINEL:
                    na[slot] = nb[slot]
                else:
                    work.append((na[slot], nb[slot]))

    def finish(self) -> FoldedGraph:
        """Renumber breadth-first from the basepoint, exploring
        x_1, x_1^-1, x_2, x_2^-1, ... in order."""
        find = self.find
        start = find(self.base)
        number = {start: 0}
        order = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            row = self.neighbors[v]
            for slot in range(2 * self.rank):
                w = row[slot]
                if w == _SENTINEL:
                    continue
                w = find(w)
                if w not in number:
                    number[w] = len(order)
                    order.append(w)
                    queue.append(w)
        roots = sum(1 for v in range(len(self.parent)) if find(v) == v)
        if len(order) != roots:
            raise RuntimeError("graph is not connected to the basepoint")
        succ: list[dict[int, int]] = [dict() for _ in range(self.rank)]
        for v in order:
            row = self.neighbors[v]
            for i in range(self.rank):
                w = row[2 * i]
                if w != _SENTINEL:
                    succ[i][number[v]] = number[find(w)]
        return FoldedGraph(self.rank, succ)


def fold(p: SubgroupPresentation) -> FoldedGraph:
    """Stallings graph of the subgroup: fold the wedge of generator loops."""
    b = _Builder(p.rank)
    for w in p.generators:
        v = b.base
        for letter in w.letters:
            v = b.follow(v, letter)
        b.unify(v, b.base)
    return b.finish()


def membership(g: FoldedGraph, w: Word) -> bool:
    return g.membership(w)


# --- core ------------------------------------------------------------------


class CoreGraph:
    """The valence->=2 core of a folded graph, sharing its vertex ids.

    `attachment` is the core vertex nearest the basepoint (the basepoint
    itself when it survives trimming), or None for the empty core.
    """

    def __init__(self, graph: FoldedGraph, vertices: frozenset[int], attachment: Optional[int]):
        self.graph = graph
        self.rank = graph.rank
        self.vertices = vertices
        self.attachment = attachment
        self.succ: tuple[dict[int, int], ...] = tuple(
            {v: u for v, u in m.items() if v in vertices and u in vertices}
            for m in graph.succ
        )
        self.pred: tuple[dict[int, int], ...] = tuple(
            {u: v for v, u in m.items()} for m in self.succ
        )

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_edges(self) -> int:
        return sum(len(m) for m in self.succ)

    def step(self, v: int, letter: int) -> Optional[int]:
        if letter > 0:
            return self.succ[letter - 1].get(v)
        return self.pred[-letter - 1].get(v)

    def rank_of_subgroup(self) -> int:
        """Free rank of the encoded subgroup: E - V + 1, or 0 when empty."""
        if not self.vertices:
            return 0
        return self.num_edges() - self.num_vertices + 1

    def loop_set(self, index: int) -> frozenset[int]:
        """Vertices lying on an x_index-cycle.

        succ_index restricted to the core is a partial injection, so its
        functional graph splits into disjoint paths and cycles; trimming
        vertices whose successor chain dies leaves exactly the cycles.
        """
        succ = self.succ[index - 1]
        alive = set(succ)
        pred = {u: v for v, u in succ.items()}
        stack = [v for v in alive if succ[v] not in alive]
        while stack:
            v = stack.pop()
            if v not in alive:
                continue
            alive.remove(v)
            w = pred.get(v)
            if w is not None and w in alive:
                stack.append(w)
        return frozenset(alive)

    def xi_cycles(self, index: int) -> list[list[int]]:
        """The vertex-disjoint x_index-cycles, each listed from its
        smallest vertex; their union is loop_set(index)."""
        succ = self.succ[index - 1]
        remaining = set(self.loop_set(index))
        cycles = []
        for start in sorted(remaining):
            if start not in remaining:
                continue
            cycle = [start]
            v = succ[start]
            while v != start:
                cycle.append(v)
                v = succ[v]
            remaining.difference_update(cycle)
            cycles.append(cycle)
        return cycles

    def exit_time(self, index: int, v: int) -> int:
        """Least t >= 1 with the t-th succ iterate of v undefined in the
        core; requires v off every x_index-cycle, and is at most the
        vertex count since an injective orbit cannot revisit."""
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in core")
        if v in self.loop_set(index):
            raise ValueError(f"vertex {v} lies on an x{index}-cycle")
        succ = self.succ[index - 1]
        t = 1
        while v in succ:
            v = succ[v]
            t += 1
        return t

    def as_folded_graph(self) -> FoldedGraph:
        """The core as a standalone graph, renumbered from the attachment."""
        if not self.vertices:
            raise ValueError("empty core has no graph form")
        b = _Builder(self.rank)
        number = {self.attachment: b.base}
        for v in sorted(self.vertices):
            if v not in number:
                number[v] = b.add_vertex()
        for i, m in enumerate(self.succ, start=1):
            for v, u in m.items():
                b.neighbors[number[v]][b._slot(i)] = number[u]
                b.neighbors[number[u]][b._slot(-i)] = number[v]
        return b.finish()


def core(g: FoldedGraph) -> CoreGraph:
    """Iteratively delete valence-1 vertices (basepoint included); the
    empty core presents the trivial subgroup."""
    valence = [0] * g.num_vertices
    for m in g.succ:
        for v, u in m.items():
            valence[v] += 1
            valence[u] += 1
    removed = [False] * g.num_vertices
    succ = [dict(m) for m in g.succ]
    pred = [dict(m) for m in g.pred]
    queue = deque(v for v in range(g.num_vertices) if valence[v] <= 1)
    while queue:
        v = queue.popleft()
        if removed[v]:
            continue
        removed[v] = True
        for i in range(g.rank):
            u = succ[i].pop(v, None)
            if u is not None and not removed[u]:
                del pred[i][u]
                valence[u] -= 1
                if valence[u] <= 1:
                    queue.append(u)
            w = pred[i].pop(v, None)
            if w is not None and not removed[w]:
                del succ[i][w]
                valence[w] -= 1
                if valence[w] <= 1:
                    queue.append(w)
    kept = frozenset(v for v in range(g.num_vertices) if not removed[v])
    attachment = None
    if kept:
        if g.basepoint in kept:
            attachment = g.basepoint
        else:
            seen = {g.basepoint}
            bfs = deque([g.basepoint])
            while bfs and attachment is None:
                v = bfs.popleft()
                for letter in _letter_order(g.rank):
                    u = g.step(v, letter)
                    if u is None or u in seen:
                        continue
                    if u in kept:
                        attachment = u
                        break
                    seen.add(u)
                    bfs.append(u)
    return CoreGraph(g, kept, attachment)


def _letter_order(rank: int) -> list[int]:
    out = []
    for i in range(1, rank + 1):
        out.extend((i, -i))
    return out


def loop_union(c: CoreGraph) -> frozenset[int]:
    """Union of all single-generator loop sets."""
    out: set[int] = set()
    for i in range(1, c.rank + 1):
        out.update(c.loop_set(i))
    return frozenset(out)


# --- spanning-tree generators ----------------------------------------------


def spanning_paths(g: FoldedGraph) -> dict[int, tuple[int, ...]]:
    """The letters of the path from the basepoint to each vertex along the
    breadth-first spanning tree (exploring x_1, x_1^-1, x_2, ... in order).
    Tree paths are geodesics, so their letters are freely reduced."""
    path: dict[int, tuple[int, ...]] = {g.basepoint: ()}
    queue = deque([g.basepoint])
    while queue:
        v = queue.popleft()
        for letter in _letter_order(g.rank):
            u = g.step(v, letter)
            if u is not None and u not in path:
                path[u] = path[v] + (letter,)
                queue.append(u)
    return path


def generators_from_graph(g: FoldedGraph) -> list[Word]:
    """Free generators of the encoded subgroup: one word per edge off a
    breadth-first spanning tree (tree path in, edge, tree path out).  The
    word of a tree edge reduces to the identity and is skipped."""
    path = spanning_paths(g)
    gens = []
    for v, i, u in g.edges():
        w = free_reduce(g.rank, path[v] + (i,) + tuple(-s for s in reversed(path[u])))
        if not w.is_identity():
            gens.append(w)
    return gens


# --- powers in conjugates ----------------------------------------------------


def conjugate_power(g: FoldedGraph, y: Word) -> Optional[tuple[Word, int]]:
    """(c, m) with y^m in c H c^-1 for the least m >= 1, H the subgroup g
    encodes, or None when no power of y lies in a conjugate of H.

    With y = u w u^-1 and w cyclically reduced, reading w from each vertex
    gives a partial injection f (g is folded).  w^m reads a closed path at
    v, i.e. lies in a conjugate of H (Stallings 1983; Kapovich-Myasnikov
    2002), exactly when f^m(v) = v.  So m is the shortest cycle length of
    f, and for its first vertex v, with tree path q, c = u q^-1.
    """
    if y.is_identity():
        return Word.identity(g.rank), 1
    w, u = cyclically_reduce(y)
    f = {v: g.trace(v, w.letters) for v in range(g.num_vertices)}
    cycles = []  # (length, first vertex); f is injective, so walks close at their start
    seen: set[int] = set()
    for v in range(g.num_vertices):
        length, x = 0, v
        while f[x] is not None and x not in seen:
            seen.add(x)
            x = f[x]
            length += 1
        if x == v and length:
            cycles.append((length, v))
    if not cycles:
        return None
    m, v = min(cycles)
    return u * ~Word(g.rank, spanning_paths(g)[v]), m


# --- exports -----------------------------------------------------------------


def graph_to_json(g: FoldedGraph) -> dict:
    return {
        "rank": g.rank,
        "basepoint": g.basepoint,
        "vertices": g.num_vertices,
        "edges": [{"from": v, "to": u, "label": i} for v, i, u in g.edges()],
    }


def graph_from_json(data: dict) -> FoldedGraph:
    rank = int(data["rank"])
    succ: list[dict[int, int]] = [dict() for _ in range(rank)]
    pred_seen: list[set[int]] = [set() for _ in range(rank)]
    for e in data.get("edges", []):
        v, u, i = int(e["from"]), int(e["to"]), int(e["label"])
        if not 1 <= i <= rank:
            raise ValueError(f"edge label {i} out of range")
        if v in succ[i - 1] or u in pred_seen[i - 1]:
            raise ValueError("graph is not folded")
        succ[i - 1][v] = u
        pred_seen[i - 1].add(u)
    g = FoldedGraph(rank, succ)
    verts = {0}
    for m in succ:
        verts.update(m)
        verts.update(m.values())
    if verts != set(range(g.num_vertices)):
        raise ValueError("vertex numbering must be contiguous from 0")
    reach = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for letter in _letter_order(rank):
            u = g.step(v, letter)
            if u is not None and u not in reach:
                reach.add(u)
                queue.append(u)
    if len(reach) != g.num_vertices:
        raise ValueError("graph is not connected to the basepoint")
    return g


def export_dot(g: FoldedGraph) -> str:
    lines = ["digraph corefree {", "  rankdir=LR;"]
    for v in range(g.num_vertices):
        shape = "doublecircle" if v == g.basepoint else "circle"
        lines.append(f"  {v} [shape={shape}];")
    for v, i, u in g.edges():
        lines.append(f'  {v} -> {u} [label="x{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: FoldedGraph) -> str:
    return json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"
