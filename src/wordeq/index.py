"""Index over the input word: canonical factor identities, concatenation
lookup and per-factor regex membership.

Factor ids canonicalize factor equality: two spans get the same id exactly
when they spell the same word.  A factor's id is its leftmost occurrence,
`start * (n + 1) + length`, so the index stores neither factor strings nor
ids: `occurrence` is one `divmod`, epsilon is 0, the whole word is n.
The prefix of length k is its own leftmost occurrence, id k.  The leftmost
starts of the suffixes (`suffix_ids`, built on first use) come from a few
`str.find` calls: each finds the leftmost end of one suffix, and the ids of
the longer suffixes that first end there too are one `range`, filled in with
one slice assignment.
Most words need only a handful of finds; a periodic word like a^n needs one
per letter, so after 2 * n.bit_length() + 8 finds the index falls back to one
Z-function pass over the reversed word (Gusfield 1997, ch. 1), O(n) in
Python.  So the cuts of the whole word (`splits(whole_word_id())`), all a
grounded binary atom needs, are integer arithmetic on those starts with no
factor table: O(n) memory.
`splits` is binary only: the planner's normal form has no longer atom.
Other single lookups (`id_of_word`, `factor_id` before the table, and the one
middle cut of `square_root`) find the leftmost start with one `str.find`.

`regex_members(regex, among)` checks only the given ids: the lazy DFA runs
once from each distinct start among them, up to their farthest end, and an
accepted span is a member iff its key is among them.  The evaluator roots
its join tree at the first grounded equation, else at the regular constraint
with the fewest members, else at node 0, and passes each constraint below the
root the ids its parent allows.  So a constraint on `u` is one run over the
word, and one on the prefixes of the word (`u = x.y, x in /a*b/`) is one run
from offset 0 that stops where the DFA dies.  With no `among` (a constraint
sized for the root choice) the DFA runs from every start, O(n^2) steps, and
reads each accepted span's id from the factor table.

`factor_table()` builds the table of every span: `table[i][k]` is the id of
`w[i:i+k]` (0-based).  A trie over (parent id, letter) visits the spans in
order of start, so a factor's first visit is its leftmost occurrence, and the
new node is its id; the nodes made are the distinct factors.  O(n^2) work in
all.  The table holds about n^2/2 ints (~2k for |w| = 64, ~8M for |w| = 4000)
and is never built by the constructor or for grounded atoms; `splits` of any
factor but the whole word builds it, and with it a cut is two list reads.
Relations of non-grounded equations read it: a left side restricted to m
factors costs their cuts, sum |z| + 1 <= m (n + 1); a free left side with one
right side restricted to ids of k distinct lengths walks the table from
their occurrences, O(n^2 k).  The evaluator asks for the cuts only of an atom
that keeps two or more of its variables; one that keeps at most one lists
factors, O(n^2), and so does not call `splits` at all.  An atom whose parent
fixes two of its variables needs no cut and no table: per parent row one
`occurs_at` (a `startswith`, or one list read once the table exists) and at
most one `factor_at` or `id_of_word`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, floordiv, mul
from typing import AbstractSet, Optional

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


def z_function(s: str) -> list[int]:
    """z[p] = length of the longest common prefix of s and s[p:]; z[0] = |s|."""
    n = len(s)
    z = [0] * n
    if n:
        z[0] = n
    left = right = 0
    for p in range(1, n):
        k = 0
        if p < right:
            k = z[p - left]
            if k < right - p:       # short of the Z-box's edge: a copy, no compare
                z[p] = k
                continue
            k = right - p
        while p + k < n and s[k] == s[p + k]:
            k += 1
        z[p] = k
        if p + k > right:
            left, right = p, p + k
    return z


def _z_suffix_starts(word: str) -> list[int]:
    """`leftmost_suffix_starts` by one Z-function pass, O(n) in Python.

    On the reversed word, z[n - e] is the longest common suffix of `word` and
    `word[:e]`; the suffix of length m first ends at the smallest e where that
    reaches m, and the smallest such e only grows with m."""
    n = len(word)
    z = z_function(word[::-1])
    starts = [0] * (n + 1)
    reach = 0
    for end in range(1, n + 1):
        common = z[n - end]
        while reach < common:
            reach += 1
            starts[reach] = end - reach
    return starts


def _suffix_runs(word: str) -> Optional[list[tuple[int, int, int]]]:
    """The runs (m, L, E) of suffix lengths m..L that all first end at E, in
    order of m from 1, the last one up to L = n at E = n; or None once
    2 * n.bit_length() + 8 finds have not found them all.

    The leftmost end of the suffix of length m never decreases as m grows.
    One `str.find` from the previous end gives it, E; a gallop and a binary
    search with `str.endswith` give the longest common suffix L of `word[:E]`
    and `word`, and every length from m to L first ends at E.  At E = n no
    longer suffix repeats, and it starts where it stands.  So each find, a
    scan in C, covers a run of lengths; a word with many runs (a^n has n)
    runs out of finds."""
    n = len(word)
    runs = []
    finds = 2 * n.bit_length() + 8
    m, end = 1, 0
    while m <= n:
        finds -= 1
        if finds < 0:
            return None
        end = word.find(word[n - m:], max(end - m, 0)) + m
        if end == n:
            runs.append((m, n, n))
            break
        # The longest common suffix of word[:end] and word: the suffix of
        # length lo is common, and once the gallop stops that of hi is not.
        lo, hi = m, 2 * m
        while hi <= end and word.endswith(word[n - hi:], 0, end):
            lo, hi = hi, 2 * hi
        hi = min(hi, end + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if word.endswith(word[n - mid:], 0, end):
                lo = mid
            else:
                hi = mid
        runs.append((m, lo, end))
        m = lo + 1
    return runs


def leftmost_suffix_starts(word: str) -> list[int]:
    """starts[m] = the leftmost start of the suffix of length m, read off
    `WordIndex.suffix_ids`."""
    return list(map(floordiv, WordIndex(word).suffix_ids(), repeat(len(word) + 1)))


class WordIndex:
    """The suffix ids, the whole word's cuts and the factor table are filled
    in on first use, so an index is not safe to share between threads."""

    def __init__(self, word: str, alphabet: Optional[Alphabet] = None):
        if alphabet is not None and not set(word) <= set(alphabet):
            i, ch = next((i, ch) for i, ch in enumerate(word) if ch not in alphabet)
            raise ValueError(f"input byte {ch!r} at offset {i} is outside the alphabet")
        self.word = word
        self.n = len(word)
        self._stride = self.n + 1
        self._suffixes: Optional[list[int]] = None
        self._word_cuts: Optional[list[tuple[int, int]]] = None
        self._table: Optional[list[list[int]]] = None
        self._factors: list[int] = []       # distinct ids, filled with the table

    # -- identity -------------------------------------------------------------

    def occurrence(self, fid: int) -> tuple[int, int]:
        """Leftmost occurrence as 0-based, half-open (start, end)."""
        start, length = divmod(fid, self._stride)
        return start, start + length

    def suffix_ids(self) -> list[int]:
        """`suffix_ids()[m]` is the id of the suffix of length m, built once;
        callers must not modify it.  Each of `_suffix_runs` is one slice
        assignment of a `range`; a word with too many runs falls back to the
        Z-function pass."""
        if self._suffixes is None:
            n, stride = self.n, self._stride
            runs = _suffix_runs(self.word)
            if runs is None:
                starts = _z_suffix_starts(self.word)
                ids = list(map(add, map(mul, starts, repeat(stride)), range(n + 1)))
            else:
                # The id of the suffix of length m at E - m is E * (n + 1) - m * n,
                # so each run's ids step down by n.
                ids = [0] * (n + 1)
                for m, last, end in runs:
                    ids[m:last + 1] = range(end * stride - m * n, end * stride - (last + 1) * n, -n)
            self._suffixes = ids
        return self._suffixes

    def _whole_word_cuts(self) -> list[tuple[int, int]]:
        """(prefix id, suffix id) at each cut of the whole word, built once."""
        if self._word_cuts is None:
            self._word_cuts = list(zip(range(self.n + 1), reversed(self.suffix_ids())))
        return self._word_cuts

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
        return self.word.find(self.word[i:j], 0, j) * self._stride + j - i

    def occurs_at(self, fid: int, i: int) -> bool:
        """Whether word(fid) occurs at offset i (0-based): one list read with
        the factor table, one `str.startswith` without it."""
        start, end = self.occurrence(fid)
        if self._table is not None:
            return end - start <= self.n - i and self._table[i][end - start] == fid
        return self.word.startswith(self.word[start:end], i)

    def id_of_word(self, factor: str) -> Optional[int]:
        at = self.word.find(factor)
        return None if at < 0 else at * self._stride + len(factor)

    def word_of(self, fid: int) -> str:
        start, end = self.occurrence(fid)
        return self.word[start:end]

    def canonical_span(self, fid: int) -> Span:
        """Leftmost occurrence (smallest start, then smallest end)."""
        start, end = self.occurrence(fid)
        return Span(start + 1, end + 1)

    def whole_word_id(self) -> int:
        return self.n

    def factor_table(self) -> list[list[int]]:
        """`table[i][k]` is the id of w[i:i+k], built on first use; callers
        must not modify it."""
        if self._table is not None:
            return self._table
        n = self.n
        codes = {ch: c for c, ch in enumerate(dict.fromkeys(self.word))}
        sigma = max(len(codes), 1)
        letters = [codes[ch] for ch in self.word]
        child: dict[int, int] = {}          # parent id * sigma + letter -> id
        factors = [EPSILON_ID]
        table = []
        for i in range(n + 1):
            row = [EPSILON_ID]
            node = EPSILON_ID
            key = i * n                         # + j + 1: the key of w[i:j+1]
            for j in range(i, n):
                edge = node * sigma + letters[j]
                node = child.get(edge, -1)
                if node < 0:
                    # First visit in order of start: w[i:j+1] is leftmost here.
                    node = child[edge] = key + j + 1
                    factors.append(node)
                row.append(node)
            table.append(row)
        self._factors = factors
        self._table = table
        return table

    def all_factor_ids(self) -> list[int]:
        """Every distinct id once, epsilon first; callers must not modify it."""
        self.factor_table()
        return self._factors

    # -- concatenation ----------------------------------------------------------

    def splits(self, fid: int) -> list[tuple[int, int]]:
        """(x, y) with word(fid) = word(x).word(y), one pair per cut of the
        canonical occurrence; distinct cuts give distinct pairs.  The whole
        word's cuts before the factor table are one list kept by the index;
        any other factor's are read from the table.  Callers must not modify
        the result."""
        start, end = self.occurrence(fid)
        length = end - start
        table = self._table
        if table is None:
            if length == self.n:
                return self._whole_word_cuts()
            table = self.factor_table()
        row = table[start]
        return [(row[k], table[start + k][length - k]) for k in range(length + 1)]

    def square_root(self, fid: int) -> Optional[int]:
        """Id of r with word(fid) = r.r, else None: one cut, at the middle."""
        start, end = self.occurrence(fid)
        if (end - start) % 2:
            return None
        half = (start + end) // 2
        root = self.factor_at(start, half)
        return root if root == self.factor_at(half, end) else None

    # -- regex membership ---------------------------------------------------------

    def regex_members(self, regex: RegexAst, among: Optional[AbstractSet[int]] = None) -> set[int]:
        """Ids of exactly those distinct factors the regex accepts; with
        `among`, only those among the given ids.  The NFA runs as a lazy DFA,
        each (state set, letter) step taken once: from every start, reading
        ids from the factor table, or with `among` only from the starts of
        its ids, up to their farthest end."""
        nfa = thompson(regex)
        initial = nfa.initial()
        moves: dict[tuple[frozenset[int], str], frozenset[int]] = {}
        out: set[int] = set()
        word, n, stride, accept = self.word, self.n, self._stride, nfa.accept
        if among is None:
            table = self.factor_table()
            farthest = dict.fromkeys(range(n), n)           # start -> end
        else:
            # In sorted order the last key of a start is its longest; the dict keeps it.
            keys = sorted(among)
            longest = dict(zip(map(floordiv, keys, repeat(stride)), keys))
            farthest = {i: last - i * n for i, last in longest.items()}
        if accept in initial and (among is None or EPSILON_ID in among):
            out.add(EPSILON_ID)
        for i, end in farthest.items():
            key = i * n                     # + j + 1: the key of w[i:j+1]
            row = table[i] if among is None else None
            states = initial
            for j in range(i, end):
                move = (states, word[j])
                states = moves.get(move)
                if states is None:
                    states = moves[move] = nfa.step(*move)
                if not states:
                    break
                if accept in states:
                    if row is not None:
                        out.add(row[j + 1 - i])
                    elif key + j + 1 in among:
                        out.add(key + j + 1)
        return out


def build_index(word: str, alphabet: Optional[Alphabet] = None) -> WordIndex:
    """Build the factor index for an input word."""
    return WordIndex(word, alphabet)
