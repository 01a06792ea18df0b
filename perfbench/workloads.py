"""Seeded inputs of the three workloads.

Every input is plain text (a query, a pattern literal or a SERCQ, and a
word), so the engine receives only strings.  The same workload name and seed
always give the same list of ops, in the same order; `digest` fingerprints it.

Sizes are stratified, not drawn: each pass over a workload holds every size
of its grid equally often, and only the contents (letters, variable names,
shapes) come from the seed.  That keeps the latency distribution of one seed
close to that of another, which the run-to-run spread bound needs.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Optional

ALPHABET = "ab"

# kind: "check" / "enum" take a word; "plan", "pattern", "convert" do not.
WORD_KINDS = ("check", "enum")
PLAN_KINDS = ("plan", "pattern", "convert")


@dataclass(frozen=True)
class OpSpec:
    kind: str
    family: str
    size: int                     # |w| for word ops, |p| or atom count otherwise
    text: str                     # .fcq query, pattern literal or .sercq text
    word: str = ""
    limit: Optional[int] = None   # enum --limit
    mode: str = ""                # pattern: acyclic|decompose; convert: plain|acyclic


# --- dense -------------------------------------------------------------------

DENSE_QUERIES = {
    "xyz": ("ans(x,y,z) :- u = x.y.z", None),
    "square": ("ans(x) :- x = y.y, x in /a(a|b)*/", None),
    "join": ("ans(x,y) :- x = z1.z2, y = z1.z3, x in /a(a|b)*/, z1 in /a+/", 100),
    "xyx": ("ans() :- u = x.y.x", None),
}
DENSE_SIZES = (32, 40, 48, 56, 64)
DENSE_PASSES = 6


def _uniform(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(n))


def _periodic(rng: random.Random, n: int, period: int, mutations: int = 2) -> str:
    """A random primitive block of both letters repeated to length n, with a
    few letters flipped.  The flips sit near fixed fractions of the word: the
    count of distinct factors, and with it the cost, depends on where they
    are, so only their exact place is left to the seed."""
    while True:
        block = _uniform(rng, period)
        if "a" in block and "b" in block and all(
                block != block[:d] * (period // d) for d in range(1, period) if period % d == 0):
            break
    w = list((block * (n // period + 1))[:n])
    for k in range(1, mutations + 1):
        pos = n * k // (mutations + 1) + rng.randint(-2, 2)
        w[pos] = "b" if w[pos] == "a" else "a"
    return "".join(w)


def _dense(rng: random.Random) -> list[OpSpec]:
    ops: list[OpSpec] = []
    for p in range(DENSE_PASSES):
        batch: list[OpSpec] = []
        for si, n in enumerate(DENSE_SIZES):
            for qi, (family, (text, limit)) in enumerate(DENSE_QUERIES.items()):
                slot = p + si + qi
                if slot % 2 == 0:
                    word = _uniform(rng, n)
                else:
                    word = _periodic(rng, n, period=2 + (slot // 2) % 4)
                for kind in WORD_KINDS:
                    batch.append(OpSpec(kind, family, n, text, word,
                                        limit if kind == "enum" else None))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


# --- long --------------------------------------------------------------------

LONG_QUERIES = {
    "conjugate": "ans() :- u = x.y, u = y.x",
    "copy": "ans(x) :- u = x.x",
    "prefix_regex": "ans(x,y) :- u = x.y, x in /a*b/",
}
LONG_SIZES = (1000, 1750, 2500, 3250, 4000)
LONG_PASSES = 12


def _long(rng: random.Random) -> list[OpSpec]:
    ops: list[OpSpec] = []
    for p in range(LONG_PASSES):
        batch: list[OpSpec] = []
        for si, n in enumerate(LONG_SIZES):
            for qi, (family, text) in enumerate(LONG_QUERIES.items()):
                if (p + si + qi) % 2 == 0:
                    word = _uniform(rng, n)
                else:
                    half = _uniform(rng, n // 2)
                    word = half + half
                for kind in WORD_KINDS:
                    batch.append(OpSpec(kind, family, n, text, word))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


# --- plan --------------------------------------------------------------------

PLAN_FAMILY_SIZES = (24, 42, 60, 78)      # multiples of 2 and 3
PATTERN_SIZES = (30, 60, 90, 120)         # multiples of 2 and 3
SHORT_PATTERN_SIZES = (5, 6, 7, 8)      # brute_acyclic stays under ~0.1 s
MULTI_ATOM_COUNTS = (4, 8, 16, 32)
SERCQ_FORMULAS = (1, 2, 3, 4)
PLAN_PASSES = 12

_SERCQ_PIECES = ("'a'", "'b'", "S", "'ab'", "('a'|'b')", "'a'*", "S*", "'b'+", "''")


def _names(rng: random.Random, k: int, letters: str = "xyv") -> list[str]:
    """k distinct short variable names (a letter plus digits, as pattern
    literals require)."""
    pool = [f"{c}{i}" for c in letters for i in range(1, 40)]
    return rng.sample(pool, k)


def block_pattern(names: list[str], length: int) -> list[str]:
    """The block of distinct variables repeated to exactly `length` items;
    acyclic by construction (see reference.block_bracketing)."""
    k = max(1, length // len(names))
    return names * k


def _family_query(rng: random.Random, length: int, m: int, prefix: bool) -> str:
    names = _names(rng, m)
    body = ".".join(block_pattern(names, length))
    if prefix:
        body = "'ab'." + body
    return f"ans({names[0]}) :- u = {body}"


def _multi_atom_query(rng: random.Random, atoms: int, reuse: float) -> str:
    """A concatenation tree of `atoms` equations over fresh variables; with
    reuse > 0 some right-hand slots name an existing variable instead, which
    may make the query cyclic."""
    counter = iter(range(1, 10_000))
    defined: list[str] = []
    frontier = ["u"]
    used: list[str] = []
    eqs: list[str] = []
    for _ in range(atoms):
        lhs = frontier.pop(rng.randrange(len(frontier))) if frontier else rng.choice(used)
        rhs: list[str] = []
        for _ in range(rng.choice((2, 2, 3))):
            if used and rng.random() < reuse:
                rhs.append(rng.choice(used))
            else:
                v = f"x{next(counter)}"
                used.append(v)
                frontier.append(v)
                rhs.append(v)
        if rng.random() < 0.2:
            rhs.insert(rng.randrange(len(rhs) + 1), "'a'")
        defined.append(lhs)
        eqs.append(f"{lhs} = {'.'.join(rhs)}")
    head = [v for v in used if v not in defined][:2]
    return f"ans({','.join(head)}) :- " + ", ".join(eqs)


def _sercq(rng: random.Random, formulas: int, pseudo: bool) -> str:
    def piece() -> str:
        return rng.choice(_SERCQ_PIECES)

    bound: list[str] = []
    parts: list[str] = []
    for i in range(1, formulas + 1):
        x = f"x{i}"
        bound.append(x)
        if pseudo or rng.random() < 0.5:
            parts.append(f"{piece()}.{x}{{{piece()}}}.{piece()}")
        else:
            y = f"y{i}"
            bound.append(y)
            parts.append(f"{piece()}.{x}{{{piece()}}}.{piece()}.{y}{{{piece()}}}")
    eqs = ""
    for _ in range(rng.randint(0, 2)):
        if len(bound) >= 2:
            a, b = rng.sample(bound, 2)
            eqs += f" eq{{{a},{b}}}"
    proj = sorted(rng.sample(bound, rng.randint(0, min(2, len(bound)))))
    return f"pi{{{','.join(proj)}}}{eqs} ( {' join '.join(parts)} )"


def _random_pattern(rng: random.Random, length: int, nvars: int = 3) -> str:
    names = _names(rng, nvars)
    return "".join(rng.choice(names) for _ in range(length))


def _plan(rng: random.Random) -> list[OpSpec]:
    ops: list[OpSpec] = []
    for p in range(PLAN_PASSES):
        batch: list[OpSpec] = []
        for i, length in enumerate(PLAN_FAMILY_SIZES):
            for m in (2, 3):
                batch.append(OpSpec("plan", f"block{m}", length,
                                    _family_query(rng, length, m, prefix=(p + i + m) % 2 == 0)))
        for atoms in MULTI_ATOM_COUNTS:
            batch.append(OpSpec("plan", "tree", atoms, _multi_atom_query(rng, atoms, 0.0)))
            batch.append(OpSpec("plan", "reuse", atoms, _multi_atom_query(rng, atoms, 0.15)))
        for k in SERCQ_FORMULAS:
            batch.append(OpSpec("convert", "sercq", k, _sercq(rng, k, pseudo=False), mode="plain"))
            batch.append(OpSpec("convert", "sercq_pseudo", k, _sercq(rng, k, pseudo=True),
                                mode="acyclic"))
        for i, length in enumerate(PATTERN_SIZES):
            m = 2 + (p + i) % 2
            literal = "".join(block_pattern(_names(rng, m), length))
            mode = "acyclic" if (p + i) % 2 == 0 else "decompose"
            batch.append(OpSpec("pattern", f"block{m}", length, literal, mode=mode))
            batch.append(OpSpec("pattern", "random", length, _random_pattern(rng, length),
                                mode="acyclic"))
        for length in SHORT_PATTERN_SIZES:
            batch.append(OpSpec("pattern", "short", length, _random_pattern(rng, length),
                                mode="acyclic"))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


GENERATORS = {"dense": _dense, "long": _long, "plan": _plan}
PASSES = {"dense": DENSE_PASSES, "long": LONG_PASSES, "plan": PLAN_PASSES}

# Why each workload exists; printed with the report.
WHY = {
    "dense": "n^3 factor x split expansion of non-grounded concatenations, regexes that never "
             "stop early; |w| 32-64, uniform and periodic words",
    "long": "grounded or copy atoms over |w| 1000-4000: sparse factor_id lookups, O(n) "
            "semi-joins, a regex that stops early",
    "plan": "parse + plan + pattern decisions + SERCQ conversion with no word; index and "
            "evaluator idle",
}


def generate(workload: str, seed: int) -> list[OpSpec]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def pass_length(workload: str, ops: list[OpSpec]) -> int:
    """Ops in one pass: one of each size, family and kind of the workload."""
    return len(ops) // PASSES[workload]


def digest(ops: list[OpSpec]) -> str:
    blob = json.dumps([asdict(o) for o in ops], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
