"""Exact arithmetic on freely reduced words of a free group F_n.

A letter is a nonzero integer: ``+i`` is the generator x_i, ``-i`` its
inverse.  Words are immutable and always stored freely reduced.  The
syllable form (maximal runs of one generator) is a derived view; words
themselves keep the flat letter sequence because graph folding consumes
letters one at a time.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

Syllable = tuple[int, int]  # (generator index >= 1, nonzero exponent)


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_letters(rank: int, letters: Iterable[int]) -> list[int]:
    out = []
    for s in letters:
        if not isinstance(s, int) or s == 0 or abs(s) > rank:
            raise ValueError(f"letter {s!r} out of range for rank {rank}")
        out.append(s)
    return out


def _reduce_list(letters: Iterable[int]) -> list[int]:
    stack: list[int] = []
    for s in letters:
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    return stack


@dataclass(frozen=True)
class Word:
    """A freely reduced word over x_1..x_rank; the empty word is the identity."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    @staticmethod
    def identity(rank: int) -> "Word":
        return Word(rank, ())

    @staticmethod
    def generator(rank: int, index: int, exponent: int = 1) -> "Word":
        if not 1 <= index <= rank:
            raise ValueError(f"generator index {index} out of range for rank {rank}")
        sign = 1 if exponent >= 0 else -1
        return Word(rank, (sign * index,) * abs(exponent))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")
        # only the seam can cancel, both factors being reduced
        left = list(self.letters)
        right = list(other.letters)
        i = 0
        while left and i < len(right) and left[-1] == -right[i]:
            left.pop()
            i += 1
        return Word(self.rank, tuple(left) + tuple(right[i:]))

    def __invert__(self) -> "Word":
        return Word(self.rank, tuple(-s for s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word.identity(self.rank)
        if n < 0:
            return (~self) ** (-n)
        core, conj = cyclically_reduce(self)
        powered = Word(self.rank, core.letters * n)
        return conj * powered * ~conj

    def __str__(self) -> str:
        return format_word(self)

    def is_identity(self) -> bool:
        return not self.letters


def free_reduce(rank: int, letters: Iterable[int]) -> Word:
    """Build the unique freely reduced word from a raw letter sequence."""
    return Word(rank, tuple(_reduce_list(_check_letters(rank, letters))))


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced.

    The returned concatenation is reduced as written: no letter cancels
    across either junction.
    """
    letters = w.letters
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return Word(w.rank, letters[lo:hi]), Word(w.rank, letters[:lo])


def random_product(rng: random.Random, rank: int, gens: Sequence[Word], max_factors: int) -> Word:
    """A product of 1 to max_factors generators and inverses drawn with rng
    (possibly collapsing to the identity); the identity, with no draws,
    when gens is empty."""
    w = Word.identity(rank)
    if not gens:
        return w
    for _ in range(rng.randint(1, max_factors)):
        h = gens[rng.randrange(len(gens))]
        w = w * (h if rng.random() < 0.5 else ~h)
    return w


def syllables(w: Word) -> tuple[Syllable, ...]:
    """Maximal runs (index, signed exponent); adjacent indices are distinct."""
    out: list[Syllable] = []
    for s in w.letters:
        i = abs(s)
        e = 1 if s > 0 else -1
        if out and out[-1][0] == i:
            out[-1] = (i, out[-1][1] + e)
        else:
            out.append((i, e))
    return tuple(out)


def word_from_syllables(rank: int, sylls: Iterable[Syllable]) -> Word:
    """Expand (index, exponent) pairs and reduce."""
    letters: list[int] = []
    for i, e in sylls:
        if not 1 <= i <= rank:
            raise ValueError(f"generator index {i} out of range for rank {rank}")
        s = i if e > 0 else -i
        letters.extend([s] * abs(e))
    return Word(rank, tuple(_reduce_list(letters)))


def contains_power_subword(w: Word, index: int, m: int) -> bool:
    """True iff some syllable of w is x_index^e with |e| >= m.

    Inverse powers count: x_i^-m is the m-th power of x_i^-1.
    """
    if m <= 0:
        raise ValueError("power bound m must be positive")
    return any(i == index and abs(e) >= m for i, e in syllables(w))


# --- text and JSON forms -------------------------------------------------

_TOKEN_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?$")


def format_word(w: Word) -> str:
    """Canonical x-notation, e.g. ``x1 x2^-1 x1^3``; identity prints as ''."""
    parts = []
    for i, e in syllables(w):
        parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return " ".join(parts)


def parse_word(text: str, rank: Optional[int]) -> Word:
    """Parse x-notation (``x2^-3``, separated by whitespace or '.') or, for
    rank <= 26, the letter shorthand a-z / A-Z.  The result is reduced.
    With rank None the word's rank is its largest generator index."""
    letters: list[int] = []
    pos = 0
    for token in re.split(r"[\s.]+", text):
        if not token:
            continue
        pos = text.index(token, pos)
        m = _TOKEN_RE.match(token)
        if m:
            i = int(m.group(1))
            e = int(m.group(2)) if m.group(2) is not None else 1
            if i == 0:
                raise WordSyntaxError("generator x0 does not exist", pos)
            if rank is not None and i > rank:
                raise WordSyntaxError(f"generator x{i} exceeds rank {rank}", pos)
            s = i if e > 0 else -i
            letters.extend([s] * abs(e))
        elif token.isalpha():
            if rank is not None and rank > 26:
                raise WordSyntaxError("letter shorthand needs rank <= 26", pos)
            for off, ch in enumerate(token):
                i = ord(ch.lower()) - ord("a") + 1
                if rank is not None and i > rank:
                    raise WordSyntaxError(f"letter {ch!r} exceeds rank {rank}", pos + off)
                letters.append(i if ch.islower() else -i)
        else:
            raise WordSyntaxError(f"cannot parse token {token!r}", pos)
        pos += len(token)
    if rank is None:
        rank = max((abs(s) for s in letters), default=0)
    return Word(rank, tuple(_reduce_list(letters)))


def word_to_json(w: Word) -> list[list[int]]:
    """JSON form: array of [index, exponent] syllable pairs."""
    return [[i, e] for i, e in syllables(w)]


def word_from_json(rank: int, data: list) -> Word:
    sylls = [json_int_pair(pair, "syllable") for pair in json_value(data, list, "word")]
    return word_from_syllables(rank, sylls)


_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer"}


def json_value(value, kind: type, what: str):
    """Return a decoded JSON value if it has the given kind (dict, list or
    int; booleans are not integers), else raise ValueError naming it."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r:.40}")


def json_pair(value, what: str) -> tuple:
    """A decoded two-element array, as a tuple."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{what} must be a pair, got {value!r:.40}")
    return tuple(value)


def json_int_pair(value, what: str) -> tuple[int, int]:
    """A decoded two-element array of integers, as a tuple."""
    a, b = json_pair(value, what)
    return json_value(a, int, what), json_value(b, int, what)


# --- syllable-sequence algebra -------------------------------------------
#
# Nielsen moves multiply letter counts but only double syllable counts, so
# the heavy transforms run on syllable sequences and expand at the end.

def push_syllable(stack: list[Syllable], syll: Syllable) -> None:
    """Append one syllable to a reduced syllable stack, merging runs."""
    i, e = syll
    if e == 0:
        return
    if stack and stack[-1][0] == i:
        e2 = stack[-1][1] + e
        stack.pop()
        if e2 != 0:
            stack.append((i, e2))
    else:
        stack.append((i, e))


def syllable_length(sylls: Iterable[Syllable]) -> int:
    """Letter length of the expanded word."""
    return sum(abs(e) for _, e in sylls)
