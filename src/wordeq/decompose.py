"""Pattern acyclicity and acyclic decompositions into short word equations.

A terminal-free pattern is acyclic when some full bracketing of it decomposes
into a query with a join tree.  The decision procedure grows a derivation
graph of acyclic subintervals bottom-up; a concatenation tree carved out of
that graph yields the decomposition itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, product
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .index import longest_previous_factors
from .model import (
    BLeaf,
    BNode,
    Bracketing,
    FreshVars,
    NotTerminalFreeError,
    Pattern,
    SmallEquation,
    TwoFcCq,
    UNIVERSE,
    Variable,
    WordEquation,
    is_terminal_free,
    vars_of,
)

def terminal_free_core(p: Pattern, fresh: Optional[FreshVars] = None) -> tuple[Pattern, dict[Variable, str]]:
    """Replace each maximal terminal block with a fresh variable.

    Returns the core pattern and the block map; callers re-impose the blocks
    as regular constraints.  ``fresh`` names the block variables; by default
    the names avoid the pattern's own variables.
    """
    if fresh is None:
        fresh = FreshVars(v.name for v in vars_of(p))
    core: list[Variable] = []
    blocks: dict[Variable, str] = {}
    for is_var, run in groupby(p, lambda item: isinstance(item, Variable)):
        if is_var:
            core.extend(run)
        else:
            z = fresh.fresh("t")
            blocks[z] = "".join(run)
            core.append(z)
    return tuple(core), blocks


def _require_terminal_free(p: Pattern) -> tuple[Variable, ...]:
    if not is_terminal_free(p):
        raise NotTerminalFreeError("pattern contains terminal symbols; take its terminal-free core first")
    return p  # type: ignore[return-value]


class _Intervals:
    """Factor ids of all intervals of a pattern, and the variable masks of
    its acyclic factors.

    ``fid`` is a flat list indexed by ``i * (n + 1) + j`` for the interval
    [i..j].  Equal factors share an id wherever they sit: the key
    ``s * (n + 1) + length`` of the factor's leftmost occurrence, s its
    0-based start, as ``WordIndex.factor_table`` keys the factors of a word.
    ``mask`` maps a factor id to the bits of its variable codes; it holds
    every single variable, and a longer factor once a search finds it
    acyclic (or localized).
    """

    def __init__(self, pat: Sequence[Variable]):
        self.pat = tuple(pat)
        n = self.n = len(pat)
        w = n + 1
        number: dict[Variable, int] = {}
        self.codes = codes = [number.setdefault(v, len(number)) for v in pat]
        # [i..j] first occurs at i exactly when j - i + 1 > lpf[i - 1].  Up to
        # there row i repeats the row of an earlier occurrence, past it each
        # id is a new key: one slice and one range per row, after i unread
        # entries that keep the rows i * (n + 1) apart.
        lpf, prev = longest_previous_factors("".join(map(chr, codes)))
        self.lpf = lpf
        self.fid = fid = [-1] * w
        self.mask = mask = {}
        # joins[L]: the rows whose first new factor longer than 1 has length L.
        self.joins = joins = {}
        i = 0
        for longest, p, c in zip(lpf, prev, codes):
            i += 1
            fid += fid[:i]
            if longest:
                at = (p + 1) * (w + 1)
                fid += fid[at:at + longest]
                if i + longest <= n:
                    joins.setdefault(longest + 1, []).append(i)
            else:   # the variable's first occurrence
                mask[i * w - w + 1] = 1 << c
                if i < n:
                    joins.setdefault(2, []).append(i)
            fid += range(i * w - w + longest + 1, i * w - i + 1)

    def fid_of(self, i: int, j: int) -> int:
        return self.fid[i * (self.n + 1) + j]

    def leftmost(self) -> Iterator[tuple[int, list[int], Sequence[int]]]:
        """For each length L = 2..n: L, the starts i at which a factor of
        length L first occurs (those with lpf[i - 1] < L), and those of them
        that were not listed at L - 1.  Every distinct factor comes once,
        shorter ones first."""
        n, lpf, joins = self.n, self.lpf, self.joins
        rows: list[int] = []
        for length in range(2, n + 1):
            # Row n + 2 - L, if it ever joined, ran out of symbols at L - 1.
            if length > 2 and lpf[n + 1 - length] <= length - 2:
                rows.remove(n + 2 - length)
            joined = joins.get(length, ())
            rows += joined
            yield length, rows, joined


class _Derivation:
    """Result of the bottom-up pass: where every factor first splits.

    ``first[f]`` is the lowest ``a`` such that cutting factor ``f`` after its
    ``a``-th symbol is an edge; ``first`` holds the acyclic factors longer
    than one symbol, every single variable is acyclic too, and any other
    factor has no split.  Any other split bit is decided on demand by
    ``split`` and memoised.  The pass visited the factors of length up to
    ``reached``; no longer one can be acyclic.  ``partner`` is as in
    ``_solve_binary``.
    """

    def __init__(self, ivs: _Intervals, partner: Optional[list[int]]):
        self.ivs = ivs
        self.partner = partner
        self.first: dict[int, int] = {}
        self.memo: dict[int, bool] = {}   # bits above first[f], keyed f * (n + 1) + a
        self.reached = 1

    def acyclic(self, i: int, k: int) -> bool:
        return i == k or self.first.get(self.ivs.fid_of(i, k), 0) > 0

    def split(self, i: int, k: int, a: int) -> bool:
        """Whether cutting [i..k] after its ``a``-th symbol is an edge.

        A bit can wait on bits of shorter factors, which can wait on shorter
        ones in turn, so the bits still open are kept on an explicit stack,
        not the call stack."""
        got = self._known(i, k, a)
        if got is not None:
            return got
        todo = [(i, k, a)]
        while todo:
            need = self._decide(*todo[-1])
            if need is None:
                todo.pop()
            else:
                todo.append(need)
        return self.memo[self.ivs.fid_of(i, k) * (self.ivs.n + 1) + a]

    def _known(self, i: int, k: int, a: int) -> Optional[bool]:
        """The bit if ``first`` or the memo has it, else None: bits below
        ``first[f]`` are unset, and a factor with no split has none."""
        w = self.ivs.n + 1
        f = self.ivs.fid[i * w + k]
        b = self.first.get(f, 0)
        if a <= b or b == 0:
            return a == b
        return self.memo.get(f * w + a)

    def _decide(self, i: int, k: int, a: int) -> Optional[tuple[int, int, int]]:
        """Memoise the bit of ``split``, or return an open bit it waits on.

        The edge condition of ``_solve_binary``: both halves acyclic, then
        equal halves, disjoint variables, or one half equal to an edge child
        of the other, a prefix or a suffix of its length."""
        ivs = self.ivs
        w = ivs.n + 1
        fid, mask = ivs.fid, ivs.mask
        j = i + a - 1
        la, lb = a, k - j
        lf, rf = fid[i * w + j], fid[(j + 1) * w + k]
        edge = False
        if (self.acyclic(i, j) and self.acyclic(j + 1, k)
                and (self.partner is None or _pair_ok(ivs, self.partner, i, j, k))):
            edge = lf == rf or mask[lf] & mask[rf] == 0
            tries: tuple = ()
            if lb < la:
                tries = ((i, j, lb, fid[i * w + i + lb - 1] == rf),
                         (i, j, la - lb, fid[(j + 1 - lb) * w + j] == rf))
            elif la < lb:
                tries = ((j + 1, k, la, fid[(j + 1) * w + j + la] == lf),
                         (j + 1, k, lb - la, fid[(k + 1 - la) * w + k] == lf))
            for p, q, c, same in tries:
                if same and not edge:
                    bit = self._known(p, q, c)
                    if bit is None:
                        return p, q, c
                    edge = bit
        self.memo[fid[i * w + k] * w + a] = edge
        return None


def _solve_binary(ivs: _Intervals, partner: Optional[list[int]] = None) -> _Derivation:
    """Grow acyclic factors in increasing length order.

    Children of an edge are strictly shorter than its parent, so a single
    ordered pass reaches the fixed point.  Whether an interval is acyclic,
    and where it splits, depends only on the factor it spells, so the pass
    visits each distinct factor once, at its leftmost occurrence.  It tries
    the candidate splits in ascending order and stops at the first edge.
    The candidates are one AND of two bitsets: its acyclic prefixes, kept
    per row, and the acyclic parts of its suffix one symbol shorter, kept
    per factor.  Other split bits are left to
    ``_Derivation.split``, which an edge condition here calls only for a
    child whose factor matches the sibling.

    An acyclic factor of length m >= 2 has two acyclic children, one at
    least m/2 long.  So once no factor of length L..2L-2 is acyclic, no
    longer one is, and the pass stops.
    ``partner`` holds, per variable code, the variable mask of the required
    pair the variable is in, or 0 (the constrained variant; see
    ``_pair_ok``).
    """
    n = ivs.n
    w = n + 1
    fid, mask = ivs.fid, ivs.mask
    deriv = _Derivation(ivs, partner)
    first, split = deriv.first, deriv.split
    # Bit a of pre[i]: [i..i+a-1] is acyclic, for the lengths a reached.  A
    # row that joins at length L takes the bits of the row of the leftmost
    # occurrence of its prefix of length L - 1, which has been a row since.
    pre = [2] * w
    # Bit a of suf[f]: factor f less its first a symbols is acyclic.
    suf = dict.fromkeys(mask, 1)
    top = 1   # the longest acyclic factor so far
    for length, rows, joined in ivs.leftmost():
        if length > 2 * top:
            break
        deriv.reached = length
        if length > 2:
            for i in joined:
                pre[i] = pre[fid[i * w + i + length - 2] // w + 1]
        for i in rows:
            at = i * w
            k = i + length - 1
            after = suf[fid[at + w + k]] << 1   # suf of this factor, less its own bit
            s = 0
            candidates = pre[i] & after
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                la = low.bit_length() - 1
                j = i + la - 1
                lb = length - la
                lf, rf = fid[at + j], fid[(j + 1) * w + k]
                # Equal halves, disjoint variables, or one half equal to an
                # edge child of the other: a child of length l is the prefix
                # or the suffix of that length.  A bit at or below the
                # child's first split is known without a call.
                if (lf == rf or mask[lf] & mask[rf] == 0
                        or lb < la and (fid[at + i + lb - 1] == rf
                                        and (first[lf] == lb or first[lf] < lb and split(i, j, lb))
                                        or fid[(j + 1 - lb) * w + j] == rf
                                        and (first[lf] == la - lb
                                             or first[lf] < la - lb and split(i, j, la - lb)))
                        or la < lb and (fid[(j + 1) * w + j + la] == lf
                                        and (first[rf] == la or first[rf] < la and split(j + 1, k, la))
                                        or fid[(k + 1 - la) * w + k] == lf
                                        and (first[rf] == lb - la
                                             or first[rf] < lb - la and split(j + 1, k, lb - la)))):
                    if partner is None or _pair_ok(ivs, partner, i, j, k):
                        s = la
                        break
            f = at - w + length
            if s:
                first[f] = s
                mask[f] = mask[lf] | mask[rf]
                pre[i] |= 1 << length
                suf[f] = after | 1
                top = length
            else:
                suf[f] = after

    return deriv


def _pair_ok(ivs: _Intervals, partner: list[int], i: int, j: int, k: int) -> bool:
    """Whether splitting [i..k] after j keeps every paired variable next to
    its partner: a length-2 seed is a required pair or two unpaired
    variables, and a paired single variable is concatenated only to a part
    over exactly its pair.  Depends on the factor's contents alone."""
    w = ivs.n + 1
    fid, mask = ivs.fid, ivs.mask
    a, b = partner[ivs.codes[i - 1]], partner[ivs.codes[k - 1]]
    if i + 1 == k:
        return a == b == 0 or a == mask[fid[i * w + i]] | mask[fid[k * w + k]]
    if i == j:
        return a == 0 or a == mask[fid[(j + 1) * w + k]]
    if j + 1 == k:
        return b == 0 or b == mask[fid[i * w + j]]
    return True


def is_acyclic_pattern(p: Pattern) -> bool:
    """Decide whether some binary bracketing of the pattern is acyclic."""
    pat = _require_terminal_free(p)
    if not pat:
        raise ValueError("the empty pattern has no bracketing")
    ivs = _Intervals(pat)
    return _solve_binary(ivs).acyclic(1, ivs.n)


# --- carving a concatenation tree out of the derivation graph -----------------


# Bracketings are built and walked with explicit stacks, not recursion: a
# derivation nests as deep as the pattern is long (x1^n nests n deep).

def _bracketing_of(deriv: _Derivation, n: int) -> Bracketing:
    """Top-down edge selection with the three guarded cases.

    When one sibling is justified by an edge child of the other, that edge is
    committed so the sibling is expanded the same way.  A committed split
    still runs the guard logic so that sharing constraints propagate to its
    own children.
    """
    chosen: list[tuple[int, int]] = []      # (i, j) in pre-order; j = 0 for a leaf
    todo: list[tuple[int, int, Optional[int]]] = [(1, n, None)]
    while todo:
        i, k, committed = todo.pop()
        if i == k:
            chosen.append((i, 0))
            continue
        j, commitment = _choose_split(deriv, i, k, forced=committed)
        side, x = commitment if commitment is not None else (None, None)
        chosen.append((i, j))
        todo.append((j + 1, k, x if side == "right" else None))
        todo.append((i, j, x if side == "left" else None))
    built: list[Bracketing] = []
    for i, j in reversed(chosen):
        built.append(BNode((built.pop(), built.pop())) if j else BLeaf(deriv.ivs.pat[i - 1]))
    return built[0]


def _choose_split(deriv: _Derivation, i: int, k: int,
                  forced: Optional[int] = None) -> tuple[int, Optional[tuple[str, int]]]:
    """The split j of the acyclic [i..k] and its witness: the first split,
    or the one its parent committed.  Either is an edge, so its edge
    condition names the witness: the lowest split x of one half whose part
    equals the other half, found among the two cuts of that length."""
    ivs = deriv.ivs
    w = ivs.n + 1
    fid = ivs.fid
    j = forced if forced is not None else i + deriv.first[fid[i * w + k]] - 1
    lf, rf = fid[i * w + j], fid[(j + 1) * w + k]
    if lf == rf or ivs.mask[lf] & ivs.mask[rf] == 0:
        return j, None
    la, lb = j + 1 - i, k - j
    if lb < la:
        for x in sorted((i + lb - 1, j - lb)):
            if (fid[i * w + x] == rf or fid[(x + 1) * w + j] == rf) and deriv.split(i, j, x + 1 - i):
                return j, ("left", x)
    elif la < lb:
        for x in sorted((j + la, k - la)):
            if (lf == fid[(j + 1) * w + x] or lf == fid[(x + 1) * w + k]) and deriv.split(j + 1, k, x - j):
                return j, ("right", x)
    raise AssertionError(f"the edge [{i}..{j}][{j + 1}..{k}] has no witness")


def _expanded(labels: Sequence[Variable], children: Sequence[Sequence[int]]) -> list[int]:
    """The non-leaf nodes that keep their children, innermost first, then
    left to right.  Of the non-leaf nodes carrying one label only the
    deepest, leftmost on ties, keeps them; the others lose their subtrees.

    Nodes are numbered in pre-order from the root 0, and nodes sharing a
    label span equal factors, so none of them lies below another.  Settling
    labels by decreasing width decides every ancestor before its
    descendants, so one pass suffices.
    """
    n = len(labels)
    depth = [0] * n
    groups: dict[Variable, list[int]] = {}
    for v in range(n):
        if children[v]:
            groups.setdefault(labels[v], []).append(v)
            for c in children[v]:
                depth[c] = depth[v] + 1
    keep = [v for v in range(n) if children[v]]
    clashes = [vs for vs in groups.values() if len(vs) > 1]
    if clashes:
        end = list(range(1, n + 1))  # one past the last node of each subtree
        width = [1] * n              # leaves below each node
        for v in range(n - 1, -1, -1):
            if children[v]:
                end[v] = end[children[v][-1]]
                width[v] = sum(width[c] for c in children[v])
        dead = [False] * n
        cut: set[int] = set()
        for vs in sorted(clashes, key=lambda vs: -width[vs[0]]):
            alive = [v for v in vs if not dead[v]]
            if len(alive) < 2:
                continue
            keeper = max(alive, key=lambda v: (depth[v], -v))
            for v in alive:
                if v != keeper:
                    cut.add(v)
                    dead[v + 1:end[v]] = [True] * (end[v] - v - 1)
        keep = [v for v in keep if not dead[v] and v not in cut]
    return sorted(keep, key=lambda v: (-depth[v], v))


def _decomposition_of(b: Bracketing, ivs: _Intervals, root: Variable, fresh: FreshVars) -> TwoFcCq:
    """The decomposition of a bracketing that a search found in ``ivs``.

    Nodes spanning equal factors share one introduced variable, named in
    pre-order; of the nodes carrying one label only the deepest, leftmost
    keeps its children, and the equations are read off innermost first.
    ``b`` is a node: a single leaf is an atom already.
    """
    # Pre-order: leaves come left to right, so a node starts at the next
    # leaf and ends where its last child ends.
    labels: list[Variable] = []
    start: list[int] = []
    children: list[list[int]] = []
    leaves = 0
    todo: list[tuple[Bracketing, int]] = [(b, -1)]
    while todo:
        node, parent = todo.pop()
        if parent >= 0:
            children[parent].append(len(labels))
        start.append(leaves + 1)
        children.append([])
        if isinstance(node, BLeaf):
            labels.append(node.var)
            leaves += 1
        else:
            todo.extend((c, len(labels)) for c in reversed(node.children))  # type: ignore[union-attr]
            labels.append(root)
    end = list(start)
    for v in range(len(labels) - 1, -1, -1):
        if children[v]:
            end[v] = end[children[v][-1]]
    by_fid: dict[int, Variable] = {}
    for v in range(1, len(labels)):
        if children[v]:
            f = ivs.fid_of(start[v], end[v])
            if f not in by_fid:
                by_fid[f] = fresh.fresh("z")
            labels[v] = by_fid[f]
    equations = tuple(SmallEquation(labels[v], tuple(labels[c] for c in children[v]))
                      for v in _expanded(labels, children))
    # The root is the only node at depth 0, so its equation comes last.
    return TwoFcCq(head=(), equations=equations, introduced=frozenset(eq.lhs for eq in equations[:-1]))


def find_acyclic_decomposition(p: Pattern, root: Variable = UNIVERSE,
                               fresh: Optional[FreshVars] = None) -> Optional[TwoFcCq]:
    """Acyclic decomposition of a terminal-free pattern, or None if cyclic:
    `decompose_atom_with_constraints` of ``root = p`` with no pair."""
    if not p:
        raise ValueError("the empty pattern has no bracketing")
    return decompose_atom_with_constraints(WordEquation(root, p), (), fresh)


# --- constrained decomposition (pairs that must share an atom) ------------------


def constrained_acyclic_bracketing(p: Pattern, pairs: Iterable[frozenset[Variable]]) -> Optional[Bracketing]:
    """An acyclic bracketing with x and y adjacent for each required pair, or None.

    Adjacent length-2 seeds are admitted only when both variables form a
    required pair or neither occurs in any pair; a paired variable may only be
    concatenated to a sub-bracketing whose variable set is exactly the pair.
    """
    found = _constrained_search(p, pairs)
    return None if found is None else found[0]


def _constrained_search(p: Pattern, pairs: Iterable[frozenset[Variable]]
                        ) -> Optional[tuple[Bracketing, _Intervals]]:
    """The bracketing of ``constrained_acyclic_bracketing`` plus the interval
    table it was found in."""
    pat = _require_terminal_free(p)
    pair_set = {frozenset(c) for c in pairs}
    for c in pair_set:
        if len(c) != 2:
            raise ValueError(f"constraint {set(c)} is not a pair of distinct variables")
    # Two pairs sharing a variable would force that variable to sit next to
    # two different partners, giving two x-parents whose meeting point is not
    # one: always cyclic.
    pool = set().union(*pair_set)
    if pool and (len(pool) < 2 * len(pair_set) or not pool <= vars_of(p)):
        return None
    if not pat:
        return None
    ivs = _Intervals(pat)
    partner: Optional[list[int]] = None
    if pair_set:
        code = dict(zip(pat, ivs.codes))
        partner = [0] * len(code)
        for pr in pair_set:
            for x in pr:
                partner[code[x]] = sum(1 << code[y] for y in pr)
    deriv = _solve_binary(ivs, partner)
    if not deriv.acyclic(1, ivs.n):
        return None
    return _bracketing_of(deriv, ivs.n), ivs


def decompose_atom_with_constraints(eq: WordEquation, pairs: Iterable[frozenset[Variable]],
                                    fresh: Optional[FreshVars] = None) -> Optional[TwoFcCq]:
    """Acyclic decomposition of one equation with an atom covering each pair.

    The one place that turns a right side into its decomposition.  A right
    side of one or two symbols is an atom already: the equation itself,
    which covers every pair of its variables, with nothing introduced.  On a
    longer one, pairs involving the left-hand side must be covered by the
    root atom; that forces the right side into the shape y..y core y..y with
    the core free of y, and rules out two such pairs.  Remaining pairs need
    their variables adjacent somewhere and go to the constrained bracketing
    search.
    """
    pat = _require_terminal_free(eq.rhs)
    if eq.lhs in vars_of(eq.rhs):
        raise ValueError("equation is not normalized: left-hand side occurs on the right")
    pair_set = {frozenset(c) for c in pairs}
    for c in pair_set:
        if not c <= eq.variables() or len(c) != 2:
            return None
    if 0 < len(pat) <= 2:
        return TwoFcCq(head=(), equations=(SmallEquation(eq.lhs, tuple(pat)),), introduced=frozenset())
    if fresh is None:
        fresh = FreshVars(v.name for v in eq.variables())

    partners = {x for c in pair_set if eq.lhs in c for x in c if x != eq.lhs}
    rhs_pairs = {c for c in pair_set if eq.lhs not in c}

    if len(partners) >= 2:
        # The root atom is the only one containing the left side, and its two
        # right slots cannot both be partners of a longer right side.
        return None

    if not partners:
        found = _constrained_search(pat, rhs_pairs)
        return None if found is None else _decomposition_of(*found, eq.lhs, fresh)
    # Peel the leading and trailing y's off the core.  A pair of y with a
    # right-side variable needs a leaf partner: only a one-variable core can
    # sit next to the nested run of y's.
    (y,) = partners
    lead = next((k for k, x in enumerate(pat) if x != y), len(pat))
    trail = next((k for k, x in enumerate(reversed(pat)) if x != y), 0)
    core = pat[lead:len(pat) - trail]
    if y in core or any(y in c and (len(core) != 1 or c != {y, core[0]}) for c in rhs_pairs):
        return None
    if not core:
        # The right side is y^lead: its last y is the innermost leaf.
        lead -= 1
        core = (y,)
    node = constrained_acyclic_bracketing(core, {c for c in rhs_pairs if y not in c})
    if node is None:
        return None
    for _ in range(lead):
        node = BNode((BLeaf(y), node))
    for _ in range(trail):
        node = BNode((node, BLeaf(y)))
    return _decomposition_of(node, _Intervals(pat), eq.lhs, fresh)


# --- k-ary decompositions --------------------------------------------------------


@dataclass
class _KaryDerivation:
    """Result of the k-ary fixed point, per factor id.

    ``tuples[f]`` lists the localized tuples of factor ``f`` as tuples of
    part factor ids, fewer parts first, then lexicographically by cut
    points; a longer factor is k-ary local iff its list is not empty.
    ``masks`` maps each factor to its variable bits, and ``leaves`` each
    single-variable factor to its variable.
    """

    tuples: dict[int, list[tuple[int, ...]]]
    masks: dict[int, int]
    leaves: dict[int, Variable]


def _solve_kary(ivs: _Intervals, arity: int) -> _KaryDerivation:
    """Grow localized factors in increasing length order, each distinct
    factor once, at its leftmost occurrence: it tries all its compositions
    into 2..arity localized parts.  Unlike ``_solve_binary`` it keeps every
    tuple, not just the first, since the derivation may backtrack to any of
    them.  Siblings must be equal, share no variable, or one must be a part
    of a tuple of the other."""
    n = ivs.n
    w = n + 1
    fid, mask = ivs.fid, ivs.mask
    tuples: dict[int, list[tuple[int, ...]]] = {}
    leaves: dict[int, Variable] = {}
    for i in range(1, n + 1):
        f = fid[i * w + i]
        tuples[f], leaves[f] = [], ivs.pat[i - 1]
    local = set(leaves)
    # The parts of the tuples of each localized factor.
    kids: dict[int, Collection[int]] = dict.fromkeys(leaves, ())
    for length, rows, _ in ivs.leftmost():
        for i in rows:
            k = i + length - 1
            f = i * w - w + length
            found = tuples[f] = []
            for parts in range(2, min(arity, length) + 1):
                for cuts in combinations(range(i, k), parts - 1):
                    bounds = (i - 1,) + cuts + (k,)
                    comp = tuple(fid[(a + 1) * w + b] for a, b in zip(bounds, bounds[1:]))
                    if local.issuperset(comp) and all(
                            u == v or mask[u] & mask[v] == 0 or u in kids[v] or v in kids[u]
                            for x, u in enumerate(comp) for v in comp[x + 1:]):
                        found.append(comp)
            if found:
                kids[f] = set().union(*found)
                mask[f] = 0
                for u in found[0]:
                    mask[f] |= mask[u]
                local.add(f)
    return _KaryDerivation(tuples, mask, leaves)


def k_ary_local_decomposition(p: Pattern, k: int, root: Variable = UNIVERSE,
                              fresh: Optional[FreshVars] = None) -> Optional[TwoFcCq]:
    """Localized k-ary decomposition, or None when the pattern is not k-ary local.

    Sufficient but not necessary for k-ary acyclicity when k exceeds 2: some
    acyclic k-ary decompositions are not localized.  At k = 2 localization
    is acyclicity, and the binary search answers; it also answers for one
    or two symbols, which are an atom already.
    """
    if k < 2:
        raise ValueError("arity must be at least 2")
    pat = _require_terminal_free(p)
    if not pat:
        raise ValueError("the empty pattern has no bracketing")
    if k == 2 or len(pat) <= 2:
        return find_acyclic_decomposition(pat, root, fresh)
    if fresh is None:
        fresh = FreshVars(v.name for v in vars_of(p) | {root})
    ivs = _Intervals(pat)
    tree = _derive_kary(_solve_kary(ivs, k), ivs.fid_of(1, ivs.n))
    if tree is None:
        return None
    return _decomposition_of(tree, ivs, root, fresh)


def _derive_kary(deriv: _KaryDerivation, f: int) -> Optional[Bracketing]:
    """Backtracking tree derivation: pick a tuple per factor plus witness
    commitments for overlapping sibling pairs, revisiting earlier choices when
    a committed subtree cannot be completed (the greedy order can dead-end).

    A frame per (factor, forced tuple) being derived holds its remaining
    choices, the current one and the children derived for it; a finished
    frame leaves its result in the memo, where its parent finds it.  ``f``
    spans more than one symbol."""
    leaves = deriv.leaves

    def choices(g: int, forced: Optional[tuple[int, ...]]):
        for comp in (forced,) if forced is not None else deriv.tuples[g]:
            for commitments in _kary_commitments(deriv, comp):
                yield comp, commitments

    memo: dict[tuple[int, Optional[tuple[int, ...]]], Optional[Bracketing]] = {}
    # [key, remaining choices, current tuple (None: pick the next), its commitments, children]
    stack: list[list] = [[(f, None), choices(f, None), None, None, []]]
    while stack:
        top = stack[-1]
        key, options, comp, commitments, kids = top
        if comp is None:
            nxt = next(options, None)
            if nxt is None:
                memo[key] = None
                stack.pop()
            else:
                top[2], top[3], top[4] = nxt[0], nxt[1], []
        elif len(kids) == len(comp):
            memo[key] = BNode(tuple(kids))
            stack.pop()
        else:
            at = len(kids)
            child = (comp[at], commitments.get(at))
            if comp[at] in leaves:
                kids.append(BLeaf(leaves[comp[at]]))
            elif child not in memo:
                stack.append([child, choices(*child), None, None, []])
            elif memo[child] is None:
                top[2] = None
            else:
                kids.append(memo[child])
    return memo[(f, None)]


def _kary_commitments(deriv: _KaryDerivation, comp: tuple[int, ...]
                      ) -> Iterable[dict[int, tuple[int, ...]]]:
    """All consistent witness assignments, by part index, for the sibling
    pairs of a tuple.

    A pair of overlapping, unequal siblings needs one side expanded by a
    tuple that contains the other side's factor: the right side first, then
    the left.  A part committed for one pair keeps its tuple for the rest."""
    tuples, masks = deriv.tuples, deriv.masks
    options = []
    for a, u in enumerate(comp):
        for b in range(a + 1, len(comp)):
            v = comp[b]
            if u != v and masks[u] & masks[v]:
                options.append([(b, t) for t in tuples[v] if u in t] + [(a, t) for t in tuples[u] if v in t])
    for choice in product(*options):
        commitments: dict[int, tuple[int, ...]] = {}
        if all(commitments.setdefault(at, t) == t for at, t in choice):
            yield commitments
