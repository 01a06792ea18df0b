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
grounded binary atom needs, are integer arithmetic on those starts, with or
without the factor table: O(n) memory.
`splits` is binary only: the planner's normal form has no longer atom.
Single lookups answer one way, whatever was built before them: `id_of_word`,
`factor_at` and the root of `square_root` (once one `startswith` has found
equal halves) find the leftmost start with one `str.find`, and `occurs_at` is
one `startswith`.  `factor_id(start, end)`, 1-based like the paper's
`w[u1,u2]`, is `factor_at(start - 1, end - 1)` after a bounds check.

The longest previous factor array (Crochemore & Ilie 2008), built on first
use, is the source of factor identity for everything that lists factors:
LPF[i] is the length of the longest prefix of `w[i:]` that also starts
before i, so `w[i:i+k]` is its own leftmost occurrence, and its key is its
id, exactly when k > LPF[i].  Since LPF[i] >= LPF[i-1] - 1, extending the
previous match, with a `str.find` for a longer one wherever it stops, gives
all of it in at most about 3n finds, with one previous start `prev[i]` of
each longest match: O(n) memory.

`regex_members(regex, among)` checks only the given ids: the lazy DFA runs
once from each distinct start among them, up to their farthest end, and an
accepted span is a member iff its key is among them.  The evaluator roots
its join tree at the first grounded equation, else at the regular constraint
with the fewest members, else at node 0, and passes each constraint below the
root the ids its parent allows.  So a constraint on `u` is one run over the
word, and one on the prefixes of the word (`u = x.y, x in /a*b/`) is one run
from offset 0 that stops where the DFA dies.  With no `among` (a constraint
sized for the root choice) the DFA runs from every start, at most O(n^2)
steps, and keeps the accepted spans longer than LPF at their start, keys
computed with no table; a start stops early where the DFA dies, or where it
reaches a state set from which every reachable one accepts.  A constraint
whose node keeps no variable asks only whether some factor is accepted
(`has_member`), and any accepted span answers that: its scan builds no LPF
and stops at the first member, so it reads only the letters up to it.

`factor_table()` builds the table of every span: `table[i][k]` is the id of
`w[i:i+k]` (0-based).  Up to LPF[i], row i is a prefix of row prev[i], an
earlier row; past it every key is row i's own.  So each row is one slice and
one `range`, with no Python step per span: O(n^2) work in C.  The table
holds about n^2/2 ints (~2k for |w| = 64, ~8M for |w| = 4000) and is built
only to cut factors: by `splits` of any factor but the whole word, after
which a cut is two list reads, and by the evaluator's walks of a free left
side.  No other lookup reads it.  `all_factor_ids()` is the LPF ranges, with
no table.
Relations of non-grounded equations read the table: a left side restricted
to m factors costs their cuts, sum |z| + 1 <= m (n + 1); a free left side
with one right side restricted to ids of k distinct lengths walks the table
from their occurrences, O(n^2 k).  The evaluator asks for the cuts only of an
atom that keeps two or more of its variables; one that keeps at most one
lists factors, O(n^2), and so does not call `splits` at all, and neither does
a square, whose one middle cut `square_root` finds.  An atom whose parent
fixes two of its variables needs no cut and no table: per parent row one
`occurs_at` (a `startswith`) and at most one `factor_at` or `id_of_word`.
"""
from __future__ import annotations

from itertools import repeat
from operator import add, floordiv, mul
from typing import AbstractSet, Iterable, Iterator, Optional

from .model import Alphabet, InvalidSpanError, RegexAst
from .nfa import Nfa, thompson

EPSILON_ID = 0


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
    """starts[m] = the leftmost start of the suffix of length m, by one
    Z-function pass, O(n) in Python.

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


def longest_previous_factors(word: str) -> tuple[list[int], list[int]]:
    """(lpf, prev): lpf[i] is the length of the longest prefix of `word[i:]`
    that also starts before i, and prev[i] one such start (0 where lpf[i] is
    0).  So `word[i:i+k]` is its own leftmost occurrence exactly when
    k > lpf[i] (Crochemore & Ilie 2008).

    lpf[i] >= lpf[i - 1] - 1, the previous match moved one letter on.  From
    there the match is extended a letter at a time, and a `str.find` over
    `word[:i + k]` looks for a start before i of one letter more; each find
    that succeeds adds a letter, so all of lpf takes at most about 3n finds."""
    n = len(word)
    lpf, prev = [0] * n, [0] * n
    k = j = 0
    for i in range(1, n):
        if k:
            k, j = k - 1, j + 1
        while i + k < n:
            if word[j + k] != word[i + k] or not k:
                at = word.find(word[i:i + k + 1], 0, i + k)
                if at < 0:
                    break
                j = at
            k += 1
        lpf[i], prev[i] = k, j
    return lpf, prev


class WordIndex:
    """The suffix ids, the whole word's cuts, the previous factors and the
    factor table are filled in on first use, so an index is not safe to
    share between threads."""

    def __init__(self, word: str, alphabet: Optional[Alphabet] = None):
        if alphabet is not None and not set(word) <= set(alphabet):
            i, ch = next((i, ch) for i, ch in enumerate(word) if ch not in alphabet)
            raise ValueError(f"input byte {ch!r} at offset {i} is outside the alphabet")
        self.word = word
        self.n = len(word)
        self._stride = self.n + 1
        self._suffixes: Optional[list[int]] = None
        self._word_cuts: Optional[list[tuple[int, int]]] = None
        self._lpf: Optional[tuple[list[int], list[int]]] = None
        self._table: Optional[list[list[int]]] = None

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

    def factor_id(self, start: int, end: int) -> int:
        """Id of the 1-based, half-open span [start, end); (i, i) is epsilon,
        id 0.  Raises `InvalidSpanError` unless 1 <= start <= end <= n + 1."""
        if not 1 <= start <= end <= self.n + 1:
            raise InvalidSpanError(f"bad span [{start},{end}) of a word of length {self.n}")
        return self.factor_at(start - 1, end - 1)

    def factor_at(self, i: int, j: int) -> int:
        """Id of w[i:j], 0-based and half-open, by one `str.find` bounded at
        j; the caller keeps 0 <= i <= j <= n (`factor_id(i + 1, j + 1)` is
        the validating, 1-based form)."""
        return self.word.find(self.word[i:j], 0, j) * self._stride + j - i

    def occurs_at(self, fid: int, i: int) -> bool:
        """Whether word(fid) occurs at offset i (0-based): one `str.startswith`."""
        start, end = self.occurrence(fid)
        return self.word.startswith(self.word[start:end], i)

    def id_of_word(self, factor: str) -> Optional[int]:
        at = self.word.find(factor)
        return None if at < 0 else at * self._stride + len(factor)

    def word_of(self, fid: int) -> str:
        start, end = self.occurrence(fid)
        return self.word[start:end]

    def whole_word_id(self) -> int:
        return self.n

    def _previous_factors(self) -> tuple[list[int], list[int]]:
        """`longest_previous_factors` of the word, built once."""
        if self._lpf is None:
            self._lpf = longest_previous_factors(self.word)
        return self._lpf

    def factor_table(self) -> list[list[int]]:
        """`table[i][k]` is the id of w[i:i+k], built on first use; callers
        must not modify it.  Up to LPF[i] row i is a prefix of row prev[i],
        and past it every key is w[i:]'s own: one slice and one `range`."""
        if self._table is None:
            n, stride = self.n, self._stride
            lpf, prev = self._previous_factors()
            table = []
            for i, (longest, p) in enumerate(zip(lpf, prev)):
                row = table[p][:longest + 1] if longest else [EPSILON_ID]
                row += range(i * stride + longest + 1, i * stride + n - i + 1)
                table.append(row)
            table.append([EPSILON_ID])
            self._table = table
        return self._table

    def all_factor_ids(self) -> list[int]:
        """Every distinct id once, epsilon first, then in order of start and
        length: w[i:i+k] for k > LPF[i].  A new list on each call, one
        `range` per start."""
        n, stride = self.n, self._stride
        factors = [EPSILON_ID]
        for i, longest in enumerate(self._previous_factors()[0]):
            factors += range(i * stride + longest + 1, i * stride + n - i + 1)
        return factors

    # -- concatenation ----------------------------------------------------------

    def splits(self, fid: int) -> list[tuple[int, int]]:
        """(x, y) with word(fid) = word(x).word(y), one pair per cut of the
        canonical occurrence; distinct cuts give distinct pairs.  The whole
        word's cuts are one list kept by the index, whether or not the factor
        table exists; any other factor's are read from the table, built on
        first use.  Callers must not modify the result."""
        start, end = self.occurrence(fid)
        length = end - start
        if length == self.n:
            return self._whole_word_cuts()
        table = self.factor_table()
        row = table[start]
        return [(row[k], table[start + k][length - k]) for k in range(length + 1)]

    def square_root(self, fid: int) -> Optional[int]:
        """Id of r with word(fid) = r.r, else None: one cut, at the middle.
        One `startswith` compares the halves, and only equal ones cost a
        `factor_at` for the root's id."""
        start, end = self.occurrence(fid)
        if (end - start) % 2:
            return None
        half = (start + end) // 2
        word = self.word
        return self.factor_at(start, half) if word.startswith(word[start:half], half) else None

    # -- regex membership ---------------------------------------------------------

    def regex_members(self, regex: RegexAst, among: Optional[AbstractSet[int]] = None) -> set[int]:
        """Ids of exactly those distinct factors the regex accepts; with
        `among`, only those among the given ids.  The NFA runs as a lazy DFA,
        each (state set, letter) step taken once, from the starts of the ids
        in `among` up to their farthest end; with no `among`, from every
        start, keeping an accepted w[i:j] iff j - i > LPF[i], where it is its
        own leftmost occurrence, so its id is its key.  No factor table is
        read.  A start stops where the DFA dies, or once it reaches a state
        set from which every state set reachable over the word's letters
        accepts: the rest of that start's leftmost keys are then one `range`.
        That search is memoised per state set and explores no more state sets
        than the letters left to scan."""
        out: set[int] = set()
        for run in self._accepted(regex, among):
            out.update(run)
        return out

    def has_member(self, regex: RegexAst, among: Optional[AbstractSet[int]] = None) -> bool:
        """Whether `regex_members(regex, among)` is not empty: the first
        accepted span of the scan decides it.  Any accepted span answers, so
        with no `among` the scan keeps every one, leftmost or not, and builds
        no LPF: it reads only up to the first member."""
        return next(self._accepted(regex, among, leftmost=False), None) is not None

    def _accepted(self, regex: RegexAst, among: Optional[AbstractSet[int]],
                  leftmost: bool = True) -> Iterator[Iterable[int]]:
        """Runs of the ids `regex_members` returns, in scan order: epsilon,
        then by start.  With `leftmost` false and no `among`, every accepted
        span is yielded under its key, which is then not always an id."""
        moves = _Moves(thompson(regex))
        initial = moves.nfa.initial()
        word, n, stride, accept = self.word, self.n, self._stride, moves.nfa.accept
        if accept in initial and (among is None or EPSILON_ID in among):
            yield (EPSILON_ID,)
        if among is not None:
            # In sorted order the last key of a start is its longest; the dict keeps it.
            keys = sorted(among)
            longest = dict(zip(map(floordiv, keys, repeat(stride)), keys))
            for i, last in longest.items():
                key = i * n                     # + j + 1: the key of w[i:j+1]
                states = initial
                for j in range(i, last - key):
                    states = moves[states, word[j]]
                    if not states:
                        break
                    if accept in states and key + j + 1 in among:
                        yield (key + j + 1,)
            return
        letters = tuple(dict.fromkeys(word))
        universal: dict[frozenset[int], bool] = {}
        for i, longest in enumerate(self._previous_factors()[0] if leftmost else repeat(0, n)):
            key = i * n                         # + j + 1: the key of w[i:j+1]
            first = i + longest                 # w[i:j+1] is leftmost iff j >= first
            states = initial
            for j in range(i, n):
                states = moves[states, word[j]]
                if not states:
                    break
                if accept in states:
                    if j >= first:
                        yield (key + j + 1,)
                    if j + 1 < n and _universal(moves, letters, universal, states, n - j - 1):
                        rest = range(key + max(j + 1, first) + 1, key + n + 1)
                        if rest:
                            yield rest
                        break


class _Moves(dict):
    """The lazy DFA of an NFA: `moves[states, letter]` is the state set
    after `letter`, each (state set, letter) step taken once."""

    def __init__(self, nfa: Nfa):
        super().__init__()
        self.nfa = nfa

    def __missing__(self, move: tuple[frozenset[int], str]) -> frozenset[int]:
        self[move] = after = self.nfa.step(*move)
        return after


def _universal(moves: _Moves, letters: tuple[str, ...], verdicts: dict[frozenset[int], bool],
               states: frozenset[int], budget: int) -> bool:
    """Whether every state set reachable from `states` over `letters`
    accepts, by a depth-first search through `moves` that explores at most
    `budget` state sets.  The verdict is memoised in `verdicts`; a search cut
    by its budget counts as no."""
    verdict = verdicts.get(states)
    if verdict is not None:
        return verdict
    accept = moves.nfa.accept
    seen = {states}
    stack = [states]
    while stack:
        at = stack.pop()
        for ch in letters:
            to = moves[at, ch]
            if to in seen:
                continue
            verdict = verdicts.get(to)
            if accept not in to or verdict is False or len(seen) >= budget:
                verdicts[states] = False
                return False
            seen.add(to)
            if verdict is None:         # a known universal set needs no walk
                stack.append(to)
    verdicts.update(dict.fromkeys(seen, True))
    return True


def build_index(word: str, alphabet: Optional[Alphabet] = None) -> WordIndex:
    """Build the factor index for an input word."""
    return WordIndex(word, alphabet)
