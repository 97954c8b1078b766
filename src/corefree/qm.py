"""Split and relative quasimorphisms with exact rational defects.

Building blocks are finitely supported alternating functions on the
integers.  A split quasimorphism attaches one to each generator and sums
factor values over the syllable form of a word; its defect is the
maximum of the factor defects, and that value is computed exactly by a
finite window search.  Pulling a split quasimorphism back through the
basis automorphism, with all supports on multiples of the power bound,
gives a quasimorphism vanishing on the subgroup.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .basis import BasisCertificate, transformed_syllables
from .graphs import SubgroupPresentation
from .words import Word, json_pair, json_value, random_product, syllables


class AlternatingFunction:
    """Finitely supported f: Z -> Q with f(0) = 0 and f(-m) = -f(m),
    stored by its values on positive support points."""

    def __init__(self, values: Mapping[int, Fraction | int | str]):
        vals = {}
        for m, q in values.items():
            if not isinstance(m, int) or m <= 0:
                raise ValueError(f"support point {m!r} must be a positive integer")
            q = Fraction(q)
            if q != 0:
                vals[int(m)] = q
        self._values = vals
        self._items = tuple(sorted(vals.items()))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self._items)

    @property
    def support_bound(self) -> int:
        return self._items[-1][0] if self._items else 0

    def __call__(self, m: int) -> Fraction:
        if m >= 0:
            return self._values.get(m, Fraction(0))
        return -self._values.get(-m, Fraction(0))

    def is_zero(self) -> bool:
        return not self._items

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self._items

    def __eq__(self, other) -> bool:
        return isinstance(other, AlternatingFunction) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{m}: {q}" for m, q in self._items)
        return f"AlternatingFunction({{{body}}})"

    def to_json(self) -> dict:
        return {"support": [[m, str(q)] for m, q in self._items]}

    @staticmethod
    def from_json(data: dict) -> "AlternatingFunction":
        support = json_value(json_value(data, dict, "factor").get("support", []), list, "support")
        values = {}
        for entry in support:
            m, q = json_pair(entry, "support entry")
            values[json_value(m, int, "support point")] = _rational_from_json(q)
        return AlternatingFunction(values)


_RATIONAL_RE = re.compile(r"-?\d+(/\d*[1-9]\d*)?")


def _rational_from_json(value) -> Fraction:
    """A support value: an integer, or a rational string "p" or "p/q"."""
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value) or (
        isinstance(value, int) and not isinstance(value, bool)
    ):
        return Fraction(value)
    raise ValueError(f"support value must be an integer or a string p/q, got {value!r:.40}")


@dataclass(frozen=True)
class DefectReport:
    value: Fraction
    witness: tuple[int, int]


def _pair_key(pair: tuple[int, int]) -> tuple:
    m, n = pair
    return (abs(m) + abs(n), abs(m), 0 if m > 0 else 1, 0 if n > 0 else 1, m, n)


def defect_z(f: AlternatingFunction) -> DefectReport:
    """Exact defect sup |f(m+n) - f(m) - f(n)| with the _pair_key-least
    witness pair.

    The search window W = 2S+2 (S the support bound) is exhaustive: a
    nonzero term needs one of m, n, m+n in the support, and every such
    value pattern is already realised with |m|, |n| <= W.  Only pairs
    that can contribute are enumerated (all others are exactly zero),
    and values are scaled to integers over a common denominator.  One
    pass keeps the maximum with the pairs that attain it, and the
    witness is the least of those.
    """
    W = 2 * f.support_bound + 2
    denom = math.lcm(*(q.denominator for _, q in f.items())) if not f.is_zero() else 1
    scaled: dict[int, int] = {}
    for m, q in f.items():
        v = int(q * denom)
        scaled[m] = v
        scaled[-m] = -v
    candidates: set[tuple[int, int]] = set()
    for s in scaled:
        for t in range(-W, W + 1):
            candidates.add((s, t))
            candidates.add((t, s))
            if -W <= s - t <= W:
                candidates.add((t, s - t))
    get = scaled.get
    best, ties = 0, [(0, 0)]
    for m, n in candidates:
        d = abs(get(m + n, 0) - get(m, 0) - get(n, 0))
        if d > best:
            best, ties = d, [(m, n)]
        elif d == best:
            ties.append((m, n))
    return DefectReport(Fraction(best, denom), min(ties, key=_pair_key))


def factors_from_json(data: dict) -> list[AlternatingFunction]:
    """The alternating functions listed under "factors" in a JSON object."""
    factors = json_value(json_value(data, dict, "factors file").get("factors"), list, "factors")
    return [AlternatingFunction.from_json(f) for f in factors]


def embed_support(f: AlternatingFunction, m0: int) -> AlternatingFunction:
    """Push f onto the subgroup m0*Z: the result g has g(m0*t) = f(t) and
    vanishes off multiples of m0.  The defect is unchanged."""
    if m0 < 1:
        raise ValueError("m0 must be positive")
    return AlternatingFunction({m0 * m: q for m, q in f.items()})


class SplitQuasimorphism:
    """One alternating factor per generator; the value of a word is the
    sum of factor values over its syllable exponents."""

    def __init__(self, rank: int, factors: Sequence[AlternatingFunction]):
        if len(factors) != rank:
            raise ValueError(f"need {rank} factors, got {len(factors)}")
        self.rank = rank
        self.factors = tuple(factors)

    def __call__(self, w: Word) -> Fraction:
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        return sum((self.factors[i - 1](e) for i, e in syllables(w)), Fraction(0))

    def defect(self) -> Fraction:
        """max over factors of the integer defect; this equals the true
        defect of the word evaluator over all pairs."""
        return max((defect_z(f).value for f in self.factors), default=Fraction(0))

    def defect_witness(self) -> tuple[Word, Word]:
        """A word pair attaining the defect, built from the worst factor's
        integer witness."""
        best_i, best = 1, DefectReport(Fraction(0), (0, 0))
        for i, f in enumerate(self.factors, start=1):
            rep = defect_z(f)
            if rep.value > best.value:
                best_i, best = i, rep
        m, n = best.witness
        return (
            Word.generator(self.rank, best_i, m) if m else Word.identity(self.rank),
            Word.generator(self.rank, best_i, n) if n else Word.identity(self.rank),
        )

    def to_json(self) -> dict:
        return {"rank": self.rank, "factors": [f.to_json() for f in self.factors]}

    @staticmethod
    def from_json(data: dict) -> "SplitQuasimorphism":
        data = json_value(data, dict, "split quasimorphism")
        return SplitQuasimorphism(
            json_value(data.get("rank"), int, "rank"), factors_from_json(data)
        )


def coboundary1(f: Callable[[Word], Fraction], g: Word, h: Word) -> Fraction:
    """d1 f (g, h) = f(g) + f(h) - f(gh)."""
    return f(g) + f(h) - f(g * h)


# --- quasimorphisms vanishing on the subgroup ------------------------------


class RelativeQuasimorphism:
    """A split quasimorphism in the transformed coordinates of a basis
    certificate, with every factor supported on multiples of the power
    bound.  Subgroup elements only realise smaller exponents, so the
    function vanishes identically on the subgroup."""

    def __init__(self, certificate: BasisCertificate, base_factors: Sequence[AlternatingFunction]):
        if len(base_factors) != certificate.rank:
            raise ValueError(f"need {certificate.rank} factors")
        m0 = certificate.power_bound
        for i, f in enumerate(base_factors, start=1):
            for m in f.support:
                if m % m0 != 0:
                    raise ValueError(
                        f"factor {i} supported at {m}, not a multiple of the power bound {m0}"
                    )
        self.certificate = certificate
        self.base_factors = tuple(base_factors)

    def __call__(self, w: Word) -> Fraction:
        total = Fraction(0)
        for i, e in transformed_syllables(self.certificate, w):
            total += self.base_factors[i - 1](e)
        return total

    def to_json(self) -> dict:
        return {
            "certificate": self.certificate.to_json(),
            "factors": [f.to_json() for f in self.base_factors],
        }

    @staticmethod
    def from_json(data: dict) -> "RelativeQuasimorphism":
        data = json_value(data, dict, "relative quasimorphism")
        return RelativeQuasimorphism(
            BasisCertificate.from_json(data.get("certificate")), factors_from_json(data)
        )


def make_relative_qm(
    cert: BasisCertificate, base_factors: Sequence[AlternatingFunction]
) -> RelativeQuasimorphism:
    return RelativeQuasimorphism(cert, base_factors)


def nontriviality_witness(r: RelativeQuasimorphism) -> Optional[tuple[Word, Fraction]]:
    """A word outside the subgroup where r is provably nonzero: pull a
    supported power x_i^(m0 t) back through the inverse automorphism."""
    cert = r.certificate
    inv = cert.automorphism.inverse()
    for i, f in enumerate(r.base_factors, start=1):
        for m, _ in f.items():
            w = inv.apply(Word.generator(cert.rank, i, m))
            value = r(w)
            if value != 0:
                return w, value
    return None


@dataclass
class VanishingReport:
    samples_checked: int
    failures: list[tuple[Word, Fraction]]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_vanishing(
    r: RelativeQuasimorphism,
    p: Optional[SubgroupPresentation] = None,
    samples: int = 1000,
    length: int = 20,
    rng: Optional[random.Random] = None,
) -> VanishingReport:
    """Evaluate r on random products of the subgroup generators; every
    value must be zero.  p defaults to the certificate's presentation."""
    rng = rng if rng is not None else random.Random(0)
    cert = r.certificate
    gens = p.generators if p is not None else cert.original_generators
    failures: list[tuple[Word, Fraction]] = []
    for _ in range(samples):
        w = random_product(rng, cert.rank, gens, length)
        value = r(w)
        if value != 0:
            failures.append((w, value))
    return VanishingReport(max(samples, 0), failures)

