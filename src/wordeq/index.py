"""Index over the input word: canonical factor identities, concatenation
lookup and per-factor regex membership.

Factor ids canonicalize factor equality: two spans get the same id exactly
when they spell the same word, and each id keeps the leftmost span it
occurs at.  Ids are handed out lazily by `_register`, which looks the factor
up by its string; the whole word, single lookups (`id_of_word`, `factor_id`)
and regex matches (`regex_members`) go this way and cost no more than the
factors they touch, so they also serve long words.

Operations that need every distinct factor (`all_factor_ids`, relations of
non-grounded atoms) first build the factor table: `table[i][k]` is the id of
`w[i:i+k]` (0-based), numbered through `_register` in one pass over all
n(n+1)/2 spans, so ids handed out before keep their numbers.  It holds about
n^2/2 ints (~2k for |w| = 64, ~8M for |w| = 4000) and is never built by the
constructor; `factor_at` reads it once it exists and falls back to
registering the slice before.  `splits` cuts a factor into parts: with the
table built, a binary cut is two table reads, with no string slicing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Optional

from .model import Alphabet, InvalidSpanError, RegexAst
from .nfa import thompson

EPSILON_ID = 0


@dataclass(frozen=True)
class Span:
    """1-based, half-open interval of the input word; (i, i) denotes epsilon."""

    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise InvalidSpanError(f"bad span [{self.start},{self.end})")


class WordIndex:
    """Factor ids and the factor table are filled in on first use, so an
    index is not safe to share between threads."""

    def __init__(self, word: str, alphabet: Optional[Alphabet] = None):
        if alphabet is not None:
            for i, ch in enumerate(word):
                if ch not in alphabet:
                    raise ValueError(f"input byte {ch!r} at offset {i} is outside the alphabet")
        self.word = word
        self.n = len(word)
        self._ids: dict[str, int] = {"": EPSILON_ID}
        self._canonical: list[Span] = [Span(1, 1)]
        self._words: list[str] = [""]
        self._table: Optional[list[list[int]]] = None

    # -- identity -------------------------------------------------------------

    def _register(self, factor: str) -> int:
        fid = self._ids.get(factor)
        if fid is not None:
            return fid
        at = self.word.find(factor)
        if at < 0:
            raise ValueError(f"{factor!r} is not a factor of the input word")
        fid = len(self._words)
        self._ids[factor] = fid
        self._canonical.append(Span(at + 1, at + 1 + len(factor)))
        self._words.append(factor)
        return fid

    def check_span(self, s: Span) -> None:
        if s.end > self.n + 1:
            raise InvalidSpanError(f"span [{s.start},{s.end}) exceeds the word (n={self.n})")

    def factor_id(self, s: Span) -> int:
        """Equal factors yield equal ids; the id of epsilon is 0."""
        self.check_span(s)
        return self.factor_at(s.start - 1, s.end - 1)

    def factor_at(self, i: int, j: int) -> int:
        """Id of w[i:j], 0-based and half-open; the caller keeps
        0 <= i <= j <= n (`factor_id` is the validating form)."""
        if self._table is not None:
            return self._table[i][j - i]
        return self._register(self.word[i:j])

    def id_of_word(self, factor: str) -> Optional[int]:
        fid = self._ids.get(factor)
        if fid is not None:
            return fid
        if factor and self.word.find(factor) < 0:
            return None
        return self._register(factor)

    def word_of(self, fid: int) -> str:
        return self._words[fid]

    def canonical_span(self, fid: int) -> Span:
        """Leftmost occurrence (smallest start, then smallest end)."""
        return self._canonical[fid]

    def whole_word_id(self) -> int:
        return self._register(self.word)

    def factor_count(self) -> int:
        self._materialize_all()
        return len(self._words)

    def _materialize_all(self) -> None:
        if self._table is not None:
            return
        word, n, register = self.word, self.n, self._register
        self._table = [[EPSILON_ID] + [register(word[i:j]) for j in range(i + 1, n + 1)]
                       for i in range(n + 1)]

    def all_factor_ids(self) -> list[int]:
        self._materialize_all()
        return list(range(len(self._words)))

    # -- concatenation ----------------------------------------------------------

    def concat_id(self, a: int, b: int) -> Optional[int]:
        """Id of word(a)+word(b) when that word occurs in w, else None."""
        return self.id_of_word(self._words[a] + self._words[b])

    def splits(self, fid: int, parts: int) -> Iterable[tuple[int, ...]]:
        """Every way to write factor `fid` as a concatenation of `parts`
        factors, as id tuples.  Each cut of its canonical occurrence gives
        one tuple, and distinct cuts give distinct tuples."""
        if parts == 1:
            return [(fid,)]
        start = self._canonical[fid].start - 1
        end = start + len(self._words[fid])
        table = self._table
        if parts == 2 and table is not None:
            row = table[start]
            length = end - start
            return [(row[k], table[start + k][length - k]) for k in range(length + 1)]
        at = self.factor_at
        return (tuple(at(b[t], b[t + 1]) for t in range(parts))
                for b in ((start, *cuts, end) for cuts in
                          combinations_with_replacement(range(start, end + 1), parts - 1)))

    def enumerate_concat_triples(self) -> Iterator[tuple[int, int, int]]:
        """All (z, x, y) over distinct factors with word(z) = word(x)+word(y);
        there are no duplicates (see `splits`)."""
        for z in self.all_factor_ids():
            for x, y in self.splits(z, 2):
                yield z, x, y

    # -- regex membership ---------------------------------------------------------

    def regex_members(self, regex: RegexAst) -> set[int]:
        """Ids of exactly those distinct factors the regex accepts."""
        nfa = thompson(regex)
        out: set[int] = set()
        if nfa.is_accepting(nfa.initial()):
            out.add(EPSILON_ID)
        for i in range(self.n):
            states = nfa.initial()
            for j in range(i, self.n):
                states = nfa.step(states, self.word[j])
                if not states:
                    break
                if nfa.is_accepting(states):
                    out.add(self.factor_at(i, j + 1))
        return out


def build_index(word: str, alphabet: Optional[Alphabet] = None) -> WordIndex:
    """Build the factor index for an input word."""
    return WordIndex(word, alphabet)
