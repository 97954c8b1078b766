"""Elementary Nielsen moves and the power-free basis construction.

The move phi_{i,k} fixes x_i and sends x_j to x_j x_i^k.  For a subgroup
H of infinite index, repeatedly applying phi_{i,-k} with a suitable k
strictly shrinks the set of core vertices lying on single-generator
cycles, and after finitely many steps no conjugate of H meets any cyclic
subgroup generated by a basis element y_i = psi^{-1}(x_i).  The folded
graph of the transformed subgroup then bounds every syllable exponent
occurring in H, which is the power bound reported in the certificate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .graphs import (
    CoreGraph,
    FoldedGraph,
    SubgroupPresentation,
    conjugate_power,
    core,
    fold,
    orbits,
)
from .words import (
    Syllable,
    Word,
    json_int_pair,
    json_value,
    push_syllable,
    random_product,
    syllable_length,
    syllables,
    word_from_json,
    word_from_syllables,
    word_to_json,
)

DEFAULT_LENGTH_CAP = 10**6


class FiniteIndexError(ValueError):
    """The subgroup has finite index, so no power-free basis exists."""

    def __init__(self, index: int):
        super().__init__(f"subgroup has finite index {index}")
        self.index = index


class WordBlowupError(RuntimeError):
    """Word growth exceeded the configured letter cap."""


class UnboundedRunError(ValueError):
    """A single-generator cycle survives, so runs are unbounded."""


@dataclass(frozen=True)
class ElementaryMove:
    """x_index is fixed; every other x_j maps to x_j * x_index^power."""

    index: int
    power: int

    def __post_init__(self):
        if self.power == 0:
            raise ValueError("move power must be nonzero")
        if self.index < 1:
            raise ValueError("move index must be a generator index")

    def inverse(self) -> "ElementaryMove":
        return ElementaryMove(self.index, -self.power)


def apply_move(w: Word, move: ElementaryMove) -> Word:
    """The image of w under the move, reduced."""
    return word_from_syllables(w.rank, _move_on_syllables(syllables(w), move.index, move.power))


def _move_on_syllables(sylls: Iterable[Syllable], index: int, k: int) -> list[Syllable]:
    """Image of a reduced syllable sequence under x_j -> x_j x_index^k
    (j != index), reduced.  Only the first two syllables of a syllable's
    image can merge with what precedes them; the rest alternate x_j and
    x_index, as in the letter-level image."""
    out: list[Syllable] = []
    for j, e in sylls:
        if j == index:
            push_syllable(out, (j, e))
        elif e > 0:
            push_syllable(out, (j, 1))
            push_syllable(out, (index, k))
            out.extend(((j, 1), (index, k)) * (e - 1))
        else:
            push_syllable(out, (index, -k))
            push_syllable(out, (j, -1))
            out.extend(((index, -k), (j, -1)) * (-e - 1))
    return out


@dataclass(frozen=True)
class Automorphism:
    """A composition of elementary moves, applied left to right."""

    rank: int
    moves: tuple[ElementaryMove, ...] = ()

    def __post_init__(self):
        for m in self.moves:
            if m.index > self.rank:
                raise ValueError(f"move index {m.index} exceeds rank {self.rank}")

    def inverse(self) -> "Automorphism":
        return Automorphism(self.rank, tuple(m.inverse() for m in reversed(self.moves)))

    def apply_syllables(
        self, sylls: Sequence[Syllable], max_letters: int = DEFAULT_LENGTH_CAP
    ) -> list[Syllable]:
        out = list(sylls)
        for m in self.moves:
            out = _move_on_syllables(out, m.index, m.power)
            if syllable_length(out) > max_letters:
                raise WordBlowupError(
                    f"image exceeds {max_letters} letters while applying {m}"
                )
        return out

    def apply(self, w: Word, max_letters: int = DEFAULT_LENGTH_CAP) -> Word:
        return word_from_syllables(w.rank, self.apply_syllables(syllables(w), max_letters))


@dataclass
class IterationStep:
    """One round of the basis iteration: the chosen label, the computed
    cycle-killing exponent, loop-vertex counts before/after, core size."""

    index: int
    power: int
    loops_before: int
    loops_after: int
    core_vertices: int

    def to_json(self) -> dict:
        return {
            "i": self.index,
            "k": self.power,
            "L_before": self.loops_before,
            "L_after": self.loops_after,
            "core_vertices": self.core_vertices,
        }

    @staticmethod
    def from_json(data: dict) -> "IterationStep":
        data = json_value(data, dict, "trace step")
        return IterationStep(
            *(json_value(data.get(key), int, key)
              for key in ("i", "k", "L_before", "L_after", "core_vertices"))
        )


@dataclass(frozen=True)
class BasisCertificate:
    """Output of the basis search: the automorphism psi, the transformed
    generators of psi(H), the basis words y_i = psi^{-1}(x_i), and the
    power bound m0 (every syllable exponent of an H-element, written in
    transformed coordinates, is strictly below it)."""

    rank: int
    original_generators: tuple[Word, ...]
    automorphism: Automorphism
    transformed_generators: tuple[Word, ...]
    basis: tuple[Word, ...]
    power_bound: int
    trace: tuple[IterationStep, ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "original_generators": [word_to_json(w) for w in self.original_generators],
            "moves": [[m.index, m.power] for m in self.automorphism.moves],
            "basis": [word_to_json(w) for w in self.basis],
            "transformed_generators": [word_to_json(w) for w in self.transformed_generators],
            "m0": self.power_bound,
            "trace": [t.to_json() for t in self.trace],
        }

    @staticmethod
    def from_json(data: dict) -> "BasisCertificate":
        """Decode a certificate, raising ValueError on any malformed field."""
        data = json_value(data, dict, "certificate")
        rank = json_value(data.get("rank"), int, "rank")

        def words(key: str) -> tuple[Word, ...]:
            return tuple(word_from_json(rank, w) for w in json_value(data.get(key), list, key))

        moves = json_value(data.get("moves"), list, "moves")
        m0 = json_value(data.get("m0"), int, "m0")
        if m0 < 1:
            raise ValueError(f"m0 must be positive, got {m0}")
        return BasisCertificate(
            rank=rank,
            original_generators=words("original_generators"),
            automorphism=Automorphism(
                rank, tuple(ElementaryMove(*json_int_pair(m, "move")) for m in moves)
            ),
            transformed_generators=words("transformed_generators"),
            basis=words("basis"),
            power_bound=m0,
            trace=tuple(
                IterationStep.from_json(t)
                for t in json_value(data.get("trace", []), list, "trace")
            ),
        )


def choose_index(loop_sets: Mapping[int, frozenset[int]]) -> int:
    """The label whose loop set is smallest among those strictly below the
    union; ties go to the smallest label."""
    union: set[int] = set()
    for vs in loop_sets.values():
        union.update(vs)
    if not union:
        raise ValueError("all loop sets are empty; nothing to choose")
    best = None
    for i in sorted(loop_sets):
        size = len(loop_sets[i])
        if size < len(union) and (best is None or size < len(loop_sets[best])):
            best = i
    if best is None:
        raise ValueError("no label has a proper loop set (finite index?)")
    return best


def compute_k(c: CoreGraph, index: int) -> int:
    """Smallest multiple of the lcm of x_index-cycle lengths that exceeds
    the core size.  Such a power fixes every cycle vertex and pushes every
    other core vertex out of the core (exit times never exceed the vertex
    count, and an orbit that leaves the core cannot re-enter: it would
    have to traverse a hanging tree's unique attachment edge against its
    orientation)."""
    lengths = [len(cycle) for cycle in c.xi_cycles(index)]
    lcm = math.lcm(*lengths) if lengths else 1
    n = -((c.num_vertices + 1) // -lcm)  # ceil((V+1)/lcm)
    return lcm * max(n, 1)


def compute_power_bound(g: FoldedGraph) -> int:
    """1 + the longest single-label run in the graph: every syllable
    exponent of a subgroup element is strictly below it (see orbits).
    Raises UnboundedRunError when some label's edges contain a cycle."""
    longest = 0
    for i, succ in enumerate(g.succ, start=1):
        paths, cycles = orbits(succ)
        if cycles:
            raise UnboundedRunError(f"label x{i} still has a cycle")
        longest = max([longest] + [len(path) - 1 for path in paths])
    return longest + 1


def _iterate(
    p: SubgroupPresentation,
    graph: FoldedGraph,
    next_move: Callable[[CoreGraph, dict[int, frozenset[int]], int], Optional[ElementaryMove]],
    max_total_length: int,
) -> tuple[list[ElementaryMove], list[IterationStep], list[Word], FoldedGraph]:
    """The basis iteration from graph = fold(p).  Each round reads the core
    of the current graph and its loop sets, and asks next_move(core, loop
    sets, size of their union) for a move; None ends the run.  The move is
    applied to the generators, its letter count checked against the cap
    before any word is expanded, and the result refolded.  Returns the
    moves, their trace steps, the final generators and their graph."""
    gens = list(p.generators)
    moves: list[ElementaryMove] = []
    trace: list[IterationStep] = []
    while True:
        c = core(graph)
        loop_sets = {i: c.loop_set(i) for i in range(1, p.rank + 1)}
        union_size = len(frozenset().union(*loop_sets.values()))
        if trace:
            trace[-1].loops_after = union_size
        move = next_move(c, loop_sets, union_size)
        if move is None:
            return moves, trace, gens, graph
        # measured before expanding: one move can multiply the letter count by k
        images = [_move_on_syllables(syllables(w), move.index, move.power) for w in gens]
        total = sum(syllable_length(s) for s in images)
        if total > max_total_length:
            raise WordBlowupError(
                f"generators reached {total} letters (cap {max_total_length})"
            )
        gens = [word_from_syllables(p.rank, s) for s in images]
        moves.append(move)
        trace.append(IterationStep(move.index, -move.power, union_size, 0, c.num_vertices))
        graph = fold(SubgroupPresentation(p.rank, tuple(gens)))


def find_power_free_basis(
    p: SubgroupPresentation, max_total_length: int = DEFAULT_LENGTH_CAP
) -> BasisCertificate:
    """Iterate: fold, read off loop sets, kill the smallest proper one
    with phi_{i,-k}.  The loop-vertex count strictly decreases, so the
    loop terminates; it then reports psi, the basis y_i = psi^{-1}(x_i),
    and the power bound of the final folded graph."""
    g = fold(p)
    idx = g.index()
    if idx is not None:
        raise FiniteIndexError(idx)

    def next_move(c: CoreGraph, loop_sets: dict[int, frozenset[int]], union_size: int):
        if union_size == 0:
            return None
        i = choose_index(loop_sets)
        return ElementaryMove(i, -compute_k(c, i))

    moves, trace, gens, graph = _iterate(p, g, next_move, max_total_length)
    psi = Automorphism(p.rank, tuple(moves))
    inv = psi.inverse()
    basis = tuple(
        inv.apply(Word.generator(p.rank, i), max_letters=max_total_length)
        for i in range(1, p.rank + 1)
    )
    return BasisCertificate(
        rank=p.rank,
        original_generators=p.generators,
        automorphism=psi,
        transformed_generators=tuple(gens),
        basis=basis,
        power_bound=compute_power_bound(graph),
        trace=tuple(trace),
    )


def transformed_syllables(
    cert: BasisCertificate, w: Word, max_letters: int = DEFAULT_LENGTH_CAP
) -> list[Syllable]:
    """Syllable form of psi(w), the expression of w in the new basis,
    computed without expanding to letters."""
    return cert.automorphism.apply_syllables(syllables(w), max_letters=max_letters)


# --- certificate verification -------------------------------------------


@dataclass
class VerificationReport:
    """Three verdicts, each with its failures: (a) structural: the original
    generators present H, y_i = psi^-1(x_i), the transformed generators
    present psi(H) with no single-label cycle, the trace is that of the
    moves replayed from H, and m0 is the power bound;
    (b) exactly, for all g and all m >= 1, no g H g^-1 contains y_i^m: the
    cyclic reduction of y_i, traced from every vertex of fold(p), gives a
    vertex map without cycles (see verify_certificate).  conjugates_checked
    counts those vertex traces; a failure (g, i, m) puts y_i^m in g H g^-1
    with m least; (c) sampled H-elements respect m0."""

    structural_failures: list[str] = field(default_factory=list)
    conjugate_failures: list[tuple[Word, int, int]] = field(default_factory=list)
    conjugates_checked: int = 0
    subword_failures: list[tuple[Word, Syllable]] = field(default_factory=list)
    samples_checked: int = 0

    @property
    def structural_ok(self) -> bool:
        return not self.structural_failures

    @property
    def conjugate_ok(self) -> bool:
        return not self.conjugate_failures

    @property
    def subword_ok(self) -> bool:
        return not self.subword_failures

    @property
    def all_ok(self) -> bool:
        return self.structural_ok and self.conjugate_ok and self.subword_ok

    def summary_lines(self) -> list[str]:
        return [
            f"structural (basis, generators, trace, m0, no single-label cycles): "
            f"{'PASS' if self.structural_ok else 'FAIL (' + self.structural_failures[0] + ')'}",
            f"conjugate powers ({self.conjugates_checked} checks): "
            f"{'PASS' if self.conjugate_ok else 'FAIL ' + _fmt_conj(self.conjugate_failures)}",
            f"power bound on {self.samples_checked} samples: "
            f"{'PASS' if self.subword_ok else 'FAIL ' + _fmt_sub(self.subword_failures)}",
        ]


def _fmt_conj(failures: list[tuple[Word, int, int]]) -> str:
    w, i, m = failures[0]
    g = str(w) or "identity"
    return f"(y{i}^{m} lies in gHg^-1 for g = {g})"


def _fmt_sub(failures: list[tuple[Word, Syllable]]) -> str:
    w, (i, e) = failures[0]
    return f"(sample {w} maps to exponent {e} on x{i})"


def _structural_failures(
    p: SubgroupPresentation, cert: BasisCertificate, h: FoldedGraph
) -> list[str]:
    """Recompute every certificate field from p, given h = fold(p).
    Replaying the moves from h gives psi(p), its graph and the trace.
    Equal generator tuples present equal subgroups, so a fold is needed
    only when the words differ."""
    psi, rank = cert.automorphism, p.rank
    pending = iter(psi.moves)
    _, trace, moved, moved_graph = _iterate(
        p, h, lambda *_: next(pending, None), DEFAULT_LENGTH_CAP
    )

    def graph_of(gens: tuple[Word, ...], known: tuple[Word, ...], graph: FoldedGraph):
        return graph if gens == known else fold(SubgroupPresentation(rank, gens))

    transformed = graph_of(cert.transformed_generators, tuple(moved), moved_graph)
    inv = psi.inverse()
    checks = [
        (graph_of(cert.original_generators, p.generators, h) != h,
         "original generators do not present H"),
        (cert.basis != tuple(inv.apply(Word.generator(rank, i)) for i in range(1, rank + 1)),
         "basis is not psi^-1(x_1), ..., psi^-1(x_n)"),
        (transformed != moved_graph, "transformed generators do not present psi(H)"),
        (tuple(trace) != cert.trace, "trace does not match the replayed moves"),
    ]
    failures = [message for failed, message in checks if failed]
    try:
        m0 = compute_power_bound(transformed)
    except UnboundedRunError as exc:
        return failures + [str(exc)]
    if cert.power_bound != m0:
        failures.append(f"m0 is {cert.power_bound}, the power bound is {m0}")
    return failures


def verify_certificate(
    p: SubgroupPresentation,
    cert: BasisCertificate,
    sample_count: int = 1000,
    rng: Optional[random.Random] = None,
) -> VerificationReport:
    """Check a certificate against the original presentation p; see
    VerificationReport for the three verdicts.

    The conjugate-power verdict is exact.  Write y_i = u w u^-1 with w
    cyclically reduced; y_i^m lies in a conjugate of H exactly when w^m
    does.  A cyclically reduced word lies in a conjugate of H exactly when
    it reads a closed path at some vertex of fold(p) (Stallings, *Topology
    of finite graphs*, 1983; Kapovich-Myasnikov, *Stallings foldings and
    subgroups of free groups*, 2002).  Reading w from every vertex gives a
    partial injection f, and w^m reads a closed path at v exactly when
    f^m(v) = v; so some power of y_i lies in a conjugate of H exactly when
    f has a cycle.  A cycle of length m through v, with tree path q from
    the basepoint to v, puts y_i^m in g H g^-1 for g = u q^-1.  A trivial
    y_i fails with g = 1 and m = 1.  The decision is conjugate_power.
    """
    if cert.rank != p.rank:
        raise ValueError(f"certificate rank {cert.rank} != presentation rank {p.rank}")
    rng = rng if rng is not None else random.Random(0)

    h = fold(p)
    structural_failures = _structural_failures(p, cert, h)

    conjugate_failures: list[tuple[Word, int, int]] = []
    for i, y in enumerate(cert.basis, start=1):
        hit = conjugate_power(h, y)
        if hit is not None:
            conjugate_failures.append((hit[0], i, hit[1]))

    samples: list[Word] = list(p.generators)
    if p.generators:
        samples += [random_product(rng, p.rank, p.generators, 10) for _ in range(sample_count)]
    subword_failures: list[tuple[Word, Syllable]] = []
    for w in samples:
        for i, e in transformed_syllables(cert, w):
            if abs(e) >= cert.power_bound:
                subword_failures.append((w, (i, e)))
                break

    return VerificationReport(
        structural_failures=structural_failures,
        conjugate_failures=conjugate_failures,
        conjugates_checked=h.num_vertices * sum(1 for y in cert.basis if y),
        subword_failures=subword_failures,
        samples_checked=len(samples),
    )
