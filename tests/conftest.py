"""Shared fixtures and generators for the test suite."""
from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional

import pytest

from wordeq.model import (
    Alphabet,
    FcCq,
    RConcat,
    REpsilon,
    RLit,
    RStar,
    RUnion,
    RegexAst,
    RegularConstraint,
    SmallEquation,
    TwoFcCq,
    UNIVERSE,
    Variable,
    WordEquation,
)

AB = Alphabet(("a", "b"))


def v(name: str) -> Variable:
    return UNIVERSE if name == "u" else Variable(name)


def pat(text: str):
    """Terminal-free pattern from space-separated names, e.g. 'x1 x2 x1'."""
    return tuple(v(n) for n in text.split())


@pytest.fixture
def ab() -> Alphabet:
    return AB


# --- structural equality up to renaming of introduced variables -----------------


def alpha_equivalent(a: TwoFcCq, b: TwoFcCq) -> bool:
    """Equation sets equal under some bijection of the introduced variables."""
    if len(a.equations) != len(b.equations):
        return False
    if len(a.introduced) != len(b.introduced):
        return False

    a_intro = sorted(a.introduced, key=lambda x: x.name)

    def translate(eq: SmallEquation, mapping: dict[Variable, Variable]) -> Optional[tuple]:
        out = []
        for var in (eq.lhs, *eq.rhs):
            if var in a.introduced:
                if var not in mapping:
                    return None
                out.append(mapping[var])
            else:
                out.append(var)
        return tuple(out)

    b_eqs = {(eq.lhs, *eq.rhs) for eq in b.equations}

    for perm in itertools.permutations(sorted(b.introduced, key=lambda x: x.name)):
        mapping = dict(zip(a_intro, perm))
        keys = {translate(eq, mapping) for eq in a.equations}
        if keys == b_eqs:
            return True
    return not a_intro and {(eq.lhs, *eq.rhs) for eq in a.equations} == b_eqs


def two_from_text(text: str, introduced: str = "") -> TwoFcCq:
    """Small-equation query from lines like 'z1 = x1.x2'; introduced names
    are space-separated."""
    eqs = []
    for line in text.strip().splitlines():
        lhs_txt, rhs_txt = line.split("=")
        eqs.append(SmallEquation(v(lhs_txt.strip()),
                                 tuple(v(t.strip()) for t in rhs_txt.strip().split("."))))
    return TwoFcCq(head=(), equations=tuple(eqs),
                   introduced=frozenset(v(n) for n in introduced.split()))


# --- pattern enumeration ----------------------------------------------------------


def canonical_patterns(max_len: int, max_vars: int) -> list[tuple[Variable, ...]]:
    """All terminal-free patterns up to variable renaming (restricted-growth
    strings), lengths 1..max_len over at most max_vars variables."""
    pool = [Variable(f"x{i}") for i in range(1, max_vars + 1)]
    out: list[tuple[Variable, ...]] = []

    def rec(seq: list[int], used: int) -> None:
        if seq:
            out.append(tuple(pool[i] for i in seq))
        if len(seq) == max_len:
            return
        for nxt in range(min(used + 1, max_vars - 1) + 1):
            seq.append(nxt)
            rec(seq, max(used, nxt))
            seq.pop()

    rec([], -1)
    return out


# --- random queries -----------------------------------------------------------------


def random_regex(rng: random.Random, depth: int = 2) -> RegexAst:
    if depth == 0 or rng.random() < 0.4:
        return RLit(rng.choice("ab")) if rng.random() < 0.85 else REpsilon()
    kind = rng.randrange(3)
    if kind == 0:
        return RUnion(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if kind == 1:
        return RConcat(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    return RStar(random_regex(rng, depth - 1))


def random_fccq(rng: random.Random, max_atoms: int = 3, max_rhs: int = 5,
                max_constraints: int = 2, allow_terminals: bool = True,
                var_pool: Iterable[str] = ("x", "y", "z", "v")) -> FcCq:
    pool = [Variable(n) for n in var_pool]
    n_atoms = rng.randint(1, max_atoms)
    equations = []
    for _ in range(n_atoms):
        lhs = UNIVERSE if rng.random() < 0.45 else rng.choice(pool)
        rhs = []
        for _ in range(rng.randint(1, max_rhs)):
            if allow_terminals and rng.random() < 0.2:
                rhs.append(rng.choice("ab"))
            else:
                cand = rng.choice(pool)
                if cand == lhs or cand.is_universe:
                    cand = rng.choice([p for p in pool if p != lhs])
                rhs.append(cand)
        equations.append(WordEquation(lhs, tuple(rhs)))
    constraints = []
    body_vars = set().union(*(eq.variables() for eq in equations)) - {UNIVERSE}
    for _ in range(rng.randint(0, max_constraints)):
        if not body_vars:
            break
        constraints.append(RegularConstraint(rng.choice(sorted(body_vars, key=str)),
                                             random_regex(rng)))
    head_pool = sorted(body_vars, key=str)
    rng.shuffle(head_pool)
    head = tuple(head_pool[:rng.randint(0, min(2, len(head_pool)))])
    q = FcCq(head, tuple(equations), tuple(constraints))
    q.validate()
    return q


def random_fccq_wide(rng: random.Random) -> FcCq:
    """Random queries with the shapes `random_fccq` never emits: `u` on a
    right side, empty right sides, a left side repeated on its own right
    side, variables that occur only in constraints, and constraints on `u`.
    Up to 3 equations with right sides of up to 5 symbols over x, y, z."""
    pool = [Variable(n) for n in ("x", "y", "z")]
    equations = []
    for _ in range(rng.randint(1, 3)):
        lhs = UNIVERSE if rng.random() < 0.4 else rng.choice(pool)
        rhs: list = []
        for _ in range(0 if rng.random() < 0.15 else rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.15:
                rhs.append(rng.choice("ab"))
            elif roll < 0.25:
                rhs.append(UNIVERSE)
            elif roll < 0.35:
                rhs.append(lhs)
            else:
                rhs.append(rng.choice(pool))
        equations.append(WordEquation(lhs, tuple(rhs)))
    body_vars = set().union(*(eq.variables() for eq in equations))
    targets = sorted(body_vars | {UNIVERSE, Variable("c")}, key=str)
    constraints = [RegularConstraint(rng.choice(targets), random_regex(rng))
                   for _ in range(rng.randint(0, 2))]
    head_pool = sorted(({c.var for c in constraints} | body_vars) - {UNIVERSE}, key=str)
    rng.shuffle(head_pool)
    q = FcCq(tuple(head_pool[:rng.randint(0, min(2, len(head_pool)))]),
             tuple(equations), tuple(constraints))
    q.validate()
    return q


def all_words(alphabet: Iterable[str], max_len: int) -> list[str]:
    out = [""]
    for w in out:
        if len(w) < max_len:
            out.extend(w + a for a in alphabet)
    return out
