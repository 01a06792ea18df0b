from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import AB, all_words, random_regex
from wordeq.index import (
    EPSILON_ID,
    WordIndex,
    _z_suffix_starts,
    build_index,
    longest_previous_factors,
    z_function,
)
from wordeq.model import InvalidSpanError
from wordeq.nfa import Nfa, thompson


def scramble_table(ix: WordIndex) -> None:
    """Reverse every row of a built factor table in place, so a lookup that
    reads the table gets ids of other spans."""
    for row in ix._table:
        row.reverse()


def brute_distinct_factors(w: str) -> set[str]:
    return {""} | {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}


def trie_factor_table(w: str) -> tuple[list[list[int]], list[int]]:
    """The factor table and the distinct ids in order of first visit, built
    by a trie over (parent id, letter) that visits the spans in order of
    start: a factor's first visit is its leftmost occurrence, and the new
    node is its key.  The reference for `factor_table` and `all_factor_ids`."""
    n = len(w)
    child: dict[tuple[int, str], int] = {}
    factors = [EPSILON_ID]
    table = []
    for i in range(n + 1):
        row = [EPSILON_ID]
        node = EPSILON_ID
        for j in range(i, n):
            edge = (node, w[j])
            node = child.get(edge, -1)
            if node < 0:
                node = child[edge] = i * (n + 1) + j + 1 - i
                factors.append(node)
            row.append(node)
        table.append(row)
    return table, factors


def concat_id(ix, a: int, b: int):
    """Id of word(a)+word(b) when that word occurs in the word, else None."""
    return ix.id_of_word(ix.word_of(a) + ix.word_of(b))


def concat_triples(ix):
    """All (z, x, y) over distinct factors with word(z) = word(x)+word(y),
    one per binary cut of each factor."""
    for z in ix.all_factor_ids():
        for x, y in ix.splits(z):
            yield z, x, y


class TestFactorIdentity:
    def test_letter_outside_the_alphabet(self):
        build_index("abba", AB)
        with pytest.raises(ValueError, match=r"^input byte 'c' at offset 2 is outside the alphabet$"):
            build_index("abca", AB)

    def test_banana_equal_spans(self):
        ix = build_index("banana")
        assert ix.factor_id(2, 4) == ix.factor_id(4, 6)
        assert ix.word_of(ix.factor_id(2, 4)) == "an"

    def test_epsilon_is_zero(self):
        ix = build_index("banana")
        for i in range(1, 8):
            assert ix.factor_id(i, i) == EPSILON_ID

    def test_distinct_letters(self):
        ix = build_index("ab")
        assert ix.factor_id(1, 2) != ix.factor_id(2, 3)

    def test_invalid_span(self):
        # Start 0, start past end, end past n + 1.
        bad = {"": [(0, 0), (0, 1), (2, 1), (1, 2), (2, 2)],
               "ab": [(0, 1), (0, 3), (3, 2), (2, 1), (1, 4), (1, 9), (4, 4)]}
        for w, bounds in bad.items():
            ix = build_index(w)
            for start, end in bounds:
                with pytest.raises(InvalidSpanError):
                    ix.factor_id(start, end)
            n = len(w)
            assert ix.factor_id(n + 1, n + 1) == EPSILON_ID

    @given(st.text(alphabet="ab", max_size=32))
    @settings(max_examples=120)
    def test_ids_mirror_word_equality(self, w):
        ix = build_index(w)
        spans = [(i, j) for i in range(1, len(w) + 2) for j in range(i, len(w) + 2)]
        ids = {}
        for i, j in spans:
            fid = ix.factor_id(i, j)
            ids.setdefault(w[i - 1:j - 1], set()).add(fid)
        for factor, fids in ids.items():
            assert len(fids) == 1
        assert len({next(iter(s)) for s in ids.values()}) == len(ids)
        n = len(w)
        assert len(ix.all_factor_ids()) <= n * (n + 1) // 2 + 1

    def test_counts(self):
        for w, expect in [("aa", 3), ("", 1), ("ab", 4)]:
            assert len(build_index(w).all_factor_ids()) == expect

    def test_occurrence_is_leftmost(self):
        ix = build_index("banana")
        fid = ix.id_of_word("an")
        assert ix.occurrence(fid) == (1, 3)


class TestFactorTable:
    """The table built by `factor_table` against the span-validating
    `factor_id`, on every word over {a, b} of length <= 7."""

    def test_table_matches_factor_id(self):
        for w in all_words("ab", 7):
            n = len(w)
            ix = build_index(w)
            ix.factor_table()
            # A second index numbered through factor_id alone, in the table's
            # row-major order, hands out the same ids.
            ref = build_index(w)
            for i in range(n + 1):
                for j in range(i, n + 1):
                    assert ix.factor_at(i, j) == ref.factor_id(i + 1, j + 1), (w, i, j)
            for fid in ix.all_factor_ids():
                start, end = ix.occurrence(fid)
                assert start == w.find(ix.word_of(fid)), (w, fid)
                assert ix.factor_at(start, end) == fid
            # factor_at never reads the table.
            scramble_table(ix)
            for i in range(n + 1):
                for j in range(i, n + 1):
                    assert ix.factor_at(i, j) == ref.factor_id(i + 1, j + 1), (w, i, j)

    def test_ids_before_the_table_keep_their_numbers(self, ab):
        from wordeq.frontend import parse_regex
        regex = parse_regex("b(a|b)*", ab)
        for w in all_words("ab", 7):
            ix = build_index(w)
            early = {w: ix.whole_word_id()}
            for factor in sorted(brute_distinct_factors(w), reverse=True)[::2]:
                early[factor] = ix.id_of_word(factor)
            early.update((ix.word_of(fid), fid) for fid in ix.regex_members(regex))
            assert len(set(early.values())) == len(early)
            ix.factor_table()
            for factor, fid in early.items():
                assert ix.id_of_word(factor) == fid, (w, factor)
                at = w.find(factor)
                assert ix.factor_at(at, at + len(factor)) == fid, (w, factor)
            n = len(w)
            assert all(ix.word_of(ix.factor_at(i, j)) == w[i:j]
                       for i in range(n + 1) for j in range(i, n + 1)), w

    def test_occurs_at(self):
        """`occurs_at` with and without the factor table agrees with slicing
        the word, for every factor at every offset, also once the table's
        rows hold wrong ids: it never reads the table."""
        for w in all_words("ab", 6):
            ix, bare = build_index(w), build_index(w)
            n = len(w)
            ix.factor_table()
            for scrambled in (False, True):
                if scrambled:
                    scramble_table(ix)
                for fid in ix.all_factor_ids():
                    word = ix.word_of(fid)
                    for i in range(n + 1):
                        expected = w[i:i + len(word)] == word
                        assert ix.occurs_at(fid, i) == bare.occurs_at(fid, i) == expected, (w, fid, i)


def brute_previous_factor(w: str, i: int) -> int:
    """The longest prefix of w[i:] that also starts before i, by comparing
    w[i:] with every earlier suffix."""
    best = 0
    for j in range(i):
        k = 0
        while i + k < len(w) and w[j + k] == w[i + k]:
            k += 1
        best = max(best, k)
    return best


def find_previous_factor(w: str, i: int) -> int:
    """The same length by a binary search over `str.find`: a prefix of w[i:]
    starts before i iff its leftmost occurrence does, and every shorter
    prefix then does too."""
    lo, hi = 0, len(w) - i
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if w.find(w[i:i + mid]) < i:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestLongestPreviousFactors:
    """`longest_previous_factors` against a scan of every earlier start, and
    each prev[i] against the word."""

    @staticmethod
    def check(w: str, reference) -> None:
        lpf, prev = longest_previous_factors(w)
        assert len(lpf) == len(prev) == len(w), w
        for i, (k, p) in enumerate(zip(lpf, prev)):
            assert k == reference(w, i), (w, i)
            assert 0 <= p < max(i, 1) and w[p:p + k] == w[i:i + k], (w, i)

    def test_every_short_word(self):
        for w in all_words("ab", 12):
            self.check(w, brute_previous_factor)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_periodic_words(self, n):
        h = "".join(random.Random(n).choice("ab") for _ in range(n // 3))
        for w in ("a" * n, ("ab" * n)[:n], "b" + "a" * (n - 1), "a" * (n - 1) + "b",
                  fibonacci_word(n), h + h + h):
            self.check(w, find_previous_factor)


class TestTableFromPreviousFactors:
    """`factor_table` and `all_factor_ids`, built from the previous factors,
    equal the trie's table and its ids in order of first visit."""

    @staticmethod
    def check(w: str) -> None:
        table, factors = trie_factor_table(w)
        assert build_index(w).factor_table() == table, w
        assert build_index(w).all_factor_ids() == factors, w
        ix = build_index(w)
        ix.factor_table()
        assert ix.all_factor_ids() == factors, w

    def test_every_short_word(self):
        for w in all_words("ab", 10):
            self.check(w)

    def test_long_words(self):
        rng = random.Random(200)
        for _ in range(5):
            self.check("".join(rng.choice("ab") for _ in range(200)))
        self.check("".join(rng.choice("abc") for _ in range(200)))
        for n in (1, 2, 99, 200):
            self.check("a" * n)
            self.check("ab" * n)


class TestIdsAreKeys:
    """An id is the key of its factor's leftmost occurrence, start * (n + 1)
    + length, however the ids were first asked for."""

    def test_ids_are_leftmost_keys(self, ab):
        from wordeq.frontend import parse_regex
        regex = parse_regex("b(a|b)*", ab)
        for w in all_words("ab", 7):
            n = len(w)
            spans = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
            expected = {(i, j): w.find(w[i:j]) * (n + 1) + (j - i) for i, j in spans}
            for early in (False, True):
                ix = build_index(w)
                if early:
                    ix.id_of_word(w[1:3])
                    ix.regex_members(regex)
                    ix.splits(ix.whole_word_id())
                    assert all(ix.factor_at(i, j) == key for (i, j), key in expected.items()), w
                ids = ix.all_factor_ids()
                assert all(ix.factor_at(i, j) == key for (i, j), key in expected.items()), w
                assert len(ids) == len(set(ids)) == len(brute_distinct_factors(w)), w
                assert set(ids) == set(expected.values()), w
                assert ix.whole_word_id() == n and ix.factor_at(0, 0) == EPSILON_ID


class TestZFunction:
    """`z_function` against a longest-common-prefix scan."""

    @staticmethod
    def check(s: str) -> None:
        n = len(s)
        z = z_function(s)
        assert len(z) == n
        for p in range(n):
            k = 0
            while p + k < n and s[k] == s[p + k]:
                k += 1
            assert z[p] == k, (s, p)

    def test_every_short_word(self):
        for w in all_words("ab", 10):
            self.check(w)

    def test_long_words(self):
        rng = random.Random(3)
        for n in (500, 1300, 2000):
            self.check("a" * n)
            self.check(("ab" * n)[:n])
            half = "".join(rng.choice("ab") for _ in range(n // 2))
            self.check(half + half)
            self.check("".join(rng.choice("ab") for _ in range(n)))


def fibonacci_word(n: int) -> str:
    """The first n letters of the Fibonacci word abaababaab..."""
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def leftmost_suffix_starts(w: str) -> list[int]:
    return [f // (len(w) + 1) for f in WordIndex(w).suffix_ids()]


class TestSuffixStarts:
    """`leftmost_suffix_starts` against `str.find` on every suffix and against
    the Z-function pass it falls back to."""

    @staticmethod
    def check(w: str) -> None:
        n = len(w)
        starts = leftmost_suffix_starts(w)
        assert len(starts) == n + 1
        for k in range(n + 1):
            assert starts[n - k] == w.find(w[k:]), (w, k)
        assert starts == _z_suffix_starts(w), w

    def test_every_short_word(self):
        for w in all_words("ab", 14):
            self.check(w)

    def test_random_long_words(self):
        rng = random.Random(11)
        for t in range(20):
            n = rng.randint(500, 2000)
            if t % 2:
                # A repeated block: long suffixes recur far to the left.
                block = "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
                w = (block * (n // len(block) + 1))[:n]
            else:
                w = "".join(rng.choice("ab") for _ in range(n))
            self.check(w)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_periodic_words(self, n):
        """Words with a run of leftmost ends per letter, past the find
        budget, and their near misses."""
        h = "".join(random.Random(n).choice("ab") for _ in range(n // 3))
        for w in ("a" * n, ("ab" * n)[:n], "b" + "a" * (n - 1), "a" * (n - 1) + "b",
                  fibonacci_word(n), h + h + h):
            self.check(w)

    @staticmethod
    def check_ids(w: str) -> None:
        """The suffix ids, filled a run at a time, against one `str.find`
        per suffix."""
        n = len(w)
        ix = build_index(w)
        assert ix.suffix_ids() == [ix.factor_at(n - m, n) for m in range(n + 1)], w

    def test_suffix_ids_of_every_short_word(self):
        for w in all_words("ab", 14):
            self.check_ids(w)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_suffix_ids_of_periodic_words(self, n):
        h = "".join(random.Random(n).choice("ab") for _ in range(n // 3))
        for w in ("a" * n, ("ab" * n)[:n], "b" + "a" * (n - 1), "a" * (n - 1) + "b",
                  fibonacci_word(n), h + h + h):
            self.check_ids(w)

    def test_z_function_only_past_the_budget(self, monkeypatch):
        """A uniform word and its square take only the finds; a^n, one run
        per letter, falls back to the Z-function pass."""
        from wordeq import index
        calls = []
        original = index.z_function

        def counted(s):
            calls.append(len(s))
            return original(s)

        monkeypatch.setattr(index, "z_function", counted)
        rng = random.Random(15)
        w = "".join(rng.choice("ab") for _ in range(4000))
        leftmost_suffix_starts(w)
        leftmost_suffix_starts(w + w)
        assert calls == []
        leftmost_suffix_starts("a" * 4000)
        assert calls == [4000]


class TestWholeWordSplits:
    """Grounded cuts read prefix and suffix ids with no factor table."""

    def test_cuts_match_factor_ids(self):
        for w in all_words("ab", 8):
            n = len(w)
            ix = build_index(w)
            wid = ix.whole_word_id()
            cuts = list(ix.splits(wid))
            # A second index numbered through factor_id alone, cut by cut.
            ref = build_index(w)
            assert ref.factor_id(1, n + 1) == wid
            expected = [(ref.factor_id(1, k + 1), ref.factor_id(k + 1, n + 1))
                        for k in range(n + 1)]
            assert cuts == expected, w
            assert cuts == [(ix.factor_at(0, k), ix.factor_at(k, n)) for k in range(n + 1)], w
            # The same kept list once the factor table exists.
            kept = ix.splits(wid)
            ix.factor_table()
            assert ix.splits(wid) is kept, w
            for x, y in cuts:
                assert ix.word_of(x) + ix.word_of(y) == w
                for fid in (x, y):
                    assert ix.occurrence(fid)[0] == w.find(ix.word_of(fid)), (w, fid)

    def test_square_root(self):
        """The middle cut by `startswith`, also once the factor table's rows
        hold wrong ids: it never reads the table."""
        for w in all_words("ab", 8):
            for build_table in (False, True):
                ix = build_index(w)
                if build_table:
                    ix.factor_table()
                    scramble_table(ix)
                    fids = ix.all_factor_ids()
                else:
                    fids = [ix.whole_word_id()]
                for fid in fids:
                    word = ix.word_of(fid)
                    half = word[:len(word) // 2]
                    expect = ix.id_of_word(half) if half + half == word else None
                    assert ix.square_root(fid) == expect, (w, word)

    def test_earlier_ids_keep_their_numbers(self, ab):
        from wordeq.frontend import parse_regex
        regex = parse_regex("b(a|b)*", ab)
        for w in all_words("ab", 7):
            ix = build_index(w)
            early = {factor: ix.id_of_word(factor)
                     for factor in sorted(brute_distinct_factors(w))[::2]}
            early.update((ix.word_of(fid), fid) for fid in ix.regex_members(regex))
            cuts = list(ix.splits(ix.whole_word_id()))
            for factor, fid in early.items():
                assert ix.id_of_word(factor) == fid, (w, factor)
            for k, (x, y) in enumerate(cuts):
                assert ix.word_of(x) == w[:k] and ix.word_of(y) == w[k:], (w, k)
                assert early.get(w[:k], x) == x and early.get(w[k:], y) == y, (w, k)

    def test_long_word_builds_no_table(self):
        from wordeq.evaluator import materialize_atom
        from wordeq.model import SmallEquation, UNIVERSE, Variable
        x, y = Variable("x"), Variable("y")
        w = "ab" * 2000
        ix = build_index(w)
        rel = materialize_atom(ix, SmallEquation(UNIVERSE, (x, y)))
        assert len(rel.rows) == len(w) + 1
        square = materialize_atom(ix, SmallEquation(UNIVERSE, (x, x)))
        assert {ix.word_of(r) for r, in square.rows} == {"ab" * 1000}
        assert ix._table is None


def periodic(rng: random.Random, n: int, period: int, mutations: int = 2) -> str:
    """A random primitive block of both letters repeated to length n, with a
    few letters flipped near fixed fractions of the word: the benchmark's
    periodic words, made the same way."""
    while True:
        block = "".join(rng.choice("ab") for _ in range(period))
        if "a" in block and "b" in block and all(
                block != block[:d] * (period // d) for d in range(1, period) if period % d == 0):
            break
    w = list((block * (n // period + 1))[:n])
    for k in range(1, mutations + 1):
        pos = n * k // (mutations + 1) + rng.randint(-2, 2)
        w[pos] = "b" if w[pos] == "a" else "a"
    return "".join(w)


class TestSquareIds:
    """`square_ids` against the factors whose middle cut has equal halves."""

    @staticmethod
    def check(w: str) -> None:
        ix = build_index(w)
        got = ix.square_ids()
        assert len(got) == len(set(got)), w
        assert set(got) == {f for f in ix.all_factor_ids() if ix.square_root(f) is not None}, w

    def test_every_short_word(self):
        for w in all_words("ab", 12):
            self.check(w)

    @pytest.mark.parametrize("letters", ["abc", "a\xe9€\U0001F600", "a\u0161\u2161\U0001F661", "a\0"])
    def test_seeded_words(self, letters):
        """Letters above U+00FF fill more than one byte of their lane (the
        third set's letters share their low byte, 0x61), and NUL is a zero
        lane of its own."""
        rng = random.Random(7)
        for _ in range(200):
            self.check("".join(rng.choice(letters) for _ in range(rng.randint(0, 80))))

    def test_periodic_words(self):
        rng = random.Random(11)
        for n in (64, 100, 257, 600, 1000):
            for period in (2, 3, 4, 5, 7):
                self.check(periodic(rng, n, period))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 301])
    def test_one_letter(self, n):
        self.check("a" * n)
        assert len(build_index("a" * n).square_ids()) == n // 2 + 1

    def test_epsilon_and_built_once(self):
        ix = build_index("abaabaab")
        squares = ix.square_ids()
        assert squares[0] == EPSILON_ID
        assert ix.square_ids() is squares


class TestConcat:
    def test_banana(self):
        ix = build_index("banana")
        assert concat_id(ix, ix.id_of_word("an"), ix.id_of_word("a")) == ix.id_of_word("ana")

    def test_epsilon_identity(self):
        ix = build_index("abab")
        for fid in ix.all_factor_ids():
            assert concat_id(ix, EPSILON_ID, fid) == fid
            assert concat_id(ix, fid, EPSILON_ID) == fid

    def test_not_a_factor(self):
        ix = build_index("ab")
        b = ix.id_of_word("b")
        assert concat_id(ix, b, b) is None

    @given(st.text(alphabet="ab", min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_associativity_where_defined(self, w):
        ix = build_index(w)
        fids = ix.all_factor_ids()
        for a in fids:
            for b in fids:
                ab_ = concat_id(ix, a, b)
                for c in fids:
                    bc = concat_id(ix, b, c)
                    left = concat_id(ix, ab_, c) if ab_ is not None else None
                    right = concat_id(ix, a, bc) if bc is not None else None
                    if left is not None and right is not None:
                        assert left == right


class TestTriples:
    @pytest.mark.parametrize("w", ["", "a", "aa", "ab", "abab", "banana", "aabbaab", "abaabbbaabab"])
    def test_matches_brute_force(self, w):
        ix = build_index(w)
        got = set(concat_triples(ix))
        facs = sorted(brute_distinct_factors(w))
        ids = {f: ix.id_of_word(f) for f in facs}
        expected = {(ids[z], ids[x], ids[y])
                    for z in facs for x in facs for y in facs if x + y == z}
        assert got == expected

    def test_aa_has_six(self):
        assert len(set(concat_triples(build_index("aa")))) == 6

    def test_every_triple_concats(self):
        ix = build_index("abab")
        for z, x, y in concat_triples(ix):
            assert concat_id(ix, x, y) == z


class TestRegexMembers:
    def test_empty_and_epsilon(self, ab):
        from wordeq.model import REmpty, REpsilon
        ix = build_index("abab")
        assert ix.regex_members(REmpty()) == set()
        assert ix.regex_members(REpsilon()) == {EPSILON_ID}

    def test_matches_per_factor_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            regex = random_regex(rng, depth=3)
            ix = build_index(w)
            nfa = thompson(regex)
            expected = {ix.id_of_word(f) for f in brute_distinct_factors(w) if nfa.accepts(f)}
            assert ix.regex_members(regex) == expected

    def test_fixed_regexes_on_abab(self, ab):
        from wordeq.frontend import parse_regex
        ix = build_index("abab")
        members = {ix.word_of(f) for f in ix.regex_members(parse_regex("a('b')*", ab))}
        assert members == {"a", "ab"}
        members = {ix.word_of(f) for f in ix.regex_members(parse_regex("a(b|ba)*", ab))}
        assert members == {"a", "ab", "aba", "abab"}

    def test_among_is_an_intersection(self):
        """regex_members(r, among) == regex_members(r) & among, with and
        without the factor table, for sets with and without epsilon and the
        whole word."""
        rng = random.Random(9)
        for k in range(80):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 10)))
            regex = random_regex(rng, depth=3)
            ix = build_index(w)
            if k % 2:
                ids = ix.all_factor_ids()
            else:
                ids = sorted({ix.factor_at(i, j) for i in range(len(w) + 1)
                              for j in range(i, len(w) + 1) if rng.random() < 0.3})
            full = ix.regex_members(regex)
            some = set(rng.sample(ids, rng.randint(0, len(ids))))
            for among in (set(), {EPSILON_ID}, {ix.whole_word_id()}, some, some | {EPSILON_ID}):
                assert ix.regex_members(regex, among) == full & among, (w, regex, among)

    def test_each_step_taken_once(self, ab, monkeypatch):
        from wordeq.frontend import parse_regex
        calls = []
        step = Nfa.step

        def counted(self, states, symbol):
            calls.append(symbol)
            return step(self, states, symbol)

        monkeypatch.setattr(Nfa, "step", counted)
        ix = build_index("ab" * 500)
        members = {ix.word_of(f) for f in ix.regex_members(parse_regex("a*b", ab))}
        assert members == {"b", "ab"}
        # a*b takes a handful of (state set, letter) steps, however long the word.
        assert len(calls) <= 8

    @pytest.mark.parametrize("text", ["(a|b)*", "a(a|b)*", "b*", "(a|b)*a", "a+", "''", None])
    def test_leftmost_keys_without_the_table(self, ab, monkeypatch, text):
        """With no `among`, the members are the leftmost keys of the accepted
        factors, computed with no factor table (None: the empty language)."""
        from wordeq.frontend import parse_regex
        from wordeq.index import WordIndex
        from wordeq.model import REmpty

        def no_table(self):
            raise AssertionError("the factor table was built")

        monkeypatch.setattr(WordIndex, "factor_table", no_table)
        regex = REmpty() if text is None else parse_regex(text, ab)
        nfa = thompson(regex)
        for w in all_words("ab", 8):
            expected = {w.find(f) * (len(w) + 1) + len(f)
                        for f in brute_distinct_factors(w) if nfa.accepts(f)}
            assert build_index(w).regex_members(regex) == expected, (w, text)

    @pytest.mark.parametrize("text", ["ab*a", "a(a|b)*", "(a|b)*a", "a+", "bb", "b*", "''",
                                      "(a|b)*", None])
    def test_first_member_scan(self, ab, monkeypatch, text):
        """`has_member` agrees with `bool(regex_members(...))` on every word
        up to 10 letters, for regexes that accept epsilon and that do not,
        and builds no longest previous factor array."""
        from wordeq import index
        from wordeq.frontend import parse_regex
        from wordeq.model import REmpty

        built = []
        lpf = index.longest_previous_factors
        monkeypatch.setattr(index, "longest_previous_factors",
                            lambda word: built.append(word) or lpf(word))
        regex = REmpty() if text is None else parse_regex(text, ab)
        for w in all_words("ab", 10):
            ix = build_index(w)
            got = ix.has_member(regex)
            assert not built, (w, text)
            assert got == bool(ix.regex_members(regex)), (w, text)
            among = set(ix.all_factor_ids()[::3])
            assert ix.has_member(regex, among) == bool(ix.regex_members(regex, among)), (w, text)
            built.clear()

    @pytest.mark.parametrize("k, head_steps", [(6, 97), (10, 215), (14, 338)])
    def test_universality_search_stays_bounded(self, ab, monkeypatch, k, head_steps):
        """`(a|b)*a(a|b)^k` has a DFA of 2^k states and no state set from
        which every reachable one accepts.  The search for one explores at
        most the letters left to scan, so it adds no more steps than the
        scan takes without it (`head_steps`, counted before the search)."""
        from wordeq.frontend import parse_regex
        calls = []
        step = Nfa.step

        def counted(self, states, symbol):
            calls.append(symbol)
            return step(self, states, symbol)

        monkeypatch.setattr(Nfa, "step", counted)
        rng = random.Random(5)
        w = "".join(rng.choice("ab") for _ in range(64))
        regex = parse_regex("(a|b)*a" + "(a|b)" * k, ab)
        members = build_index(w).regex_members(regex)
        assert len(calls) <= 2 * head_steps
        nfa = thompson(regex)
        assert members == {w.find(f) * 65 + len(f) for f in brute_distinct_factors(w) if nfa.accepts(f)}

    def test_universality_search_keeps_its_budget(self, ab, monkeypatch):
        """Every word of at most 20 letters is in ('' | a | b)^20, so a search
        from the start finds a rejecting state set only 21 sets deep; with a
        budget of 5 it gives up after at most 5 sets, one step per letter
        each.  From after the a of a(a|b)*, every reachable set accepts."""
        from wordeq.frontend import parse_regex
        from wordeq.index import _Moves, _universal
        calls = []
        step = Nfa.step

        def counted(self, states, symbol):
            calls.append(symbol)
            return step(self, states, symbol)

        def search(nfa, states, budget):
            return _universal(_Moves(nfa), ("a", "b"), {}, states, budget)

        monkeypatch.setattr(Nfa, "step", counted)
        nfa = thompson(parse_regex("(''|a|b)" * 20, ab))
        assert not search(nfa, nfa.initial(), 5)
        assert len(calls) <= 2 * 5
        assert not search(nfa, nfa.initial(), 100)
        nfa = thompson(parse_regex("a(a|b)*", ab))
        after_a = nfa.step(nfa.initial(), "a")
        assert not search(nfa, after_a, 1)
        assert search(nfa, after_a, 100)
