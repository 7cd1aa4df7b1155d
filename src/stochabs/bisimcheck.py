"""Decision procedures for disturbance bisimulation between two finite
metric systems.

A relation R relates states whose distance is at most eps (condition a).
Conditions (b)/(c) are the alternating game: for every input on one side
there is a matching input on the other -- chosen uniformly, before the
disturbances are revealed -- such that for all disturbance pairs whose
vector mismatch is componentwise at most eps_tilde, every successor on
the challenger side is matched by a related successor on the responder
side.  Set-valued successor matching is the standard alternating
extension; it degenerates to the pointwise condition for singleton
successor sets.

Self-bisimulation (both sides equal by value, ``s1 == s2``, as when the
CLI reads one file twice) takes a symmetric path.  Then the eps-close
candidates are symmetric and so is every round's removal set, and on a
symmetric relation clause (c) at (i, j) is clause (b) at (j, i).  So
largest_bisimulation evaluates (b) once per ordered pair and removes
each failing pair with its mirror, and check_relation, given a
symmetric relation, reads (c) of (i, j) from a memo of (b) at (j, i).
Both give exactly the general path's relation, rounds and first failing
pair and clause.  Distinct sides, or an asymmetric relation to check,
take the general path, which evaluates (b) and then (c) per pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import FormatError, ModelError, ParameterError
from .gridabs import FiniteAbstraction, _g17
from .sysdsl import read_text

_TOL = 1e-12


def vector_metric(w1, w2, blocks) -> tuple:
    """Per-block infinity norms between two disturbance vectors."""
    out = []
    pos = 0
    for size in blocks:
        a = w1[pos : pos + size]
        b = w2[pos : pos + size]
        out.append(max((abs(x - y) for x, y in zip(a, b)), default=0.0))
        pos += size
    return tuple(out)


@dataclass(frozen=True)
class RelationTable:
    """A candidate disturbance bisimulation with its parameters."""

    pairs: frozenset  # of (index in S1, index in S2)
    eps: float
    eps_tilde: tuple

    def __len__(self):
        return len(self.pairs)

    def transpose(self):
        return RelationTable(
            pairs=frozenset((j, i) for (i, j) in self.pairs),
            eps=self.eps,
            eps_tilde=self.eps_tilde,
        )


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    pair: tuple | None = None
    clause: str | None = None  # 'a', 'b' or 'c'


def _check_precisions(eps, eps_tilde, error):
    """Require eps and every eps_tilde component to be finite and nonnegative."""
    if not all(0.0 <= v < math.inf for v in (eps, *eps_tilde)):
        raise error(f"precisions must be finite and nonnegative, got eps {eps}, eps_tilde {eps_tilde}")


def _state_dist(s1, s2, i, j):
    a, b = s1.states[i], s2.states[j]
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _admissible_dist_pairs(s1, s2, eps_tilde):
    if s1.dist_blocks != s2.dist_blocks:
        raise ModelError(
            f"incompatible disturbance structure: {s1.dist_blocks} vs {s2.dist_blocks}"
        )
    blocks = s1.dist_blocks
    if len(eps_tilde) == 0:
        eps_tilde = (0.0,) * len(blocks)
    if len(eps_tilde) != len(blocks):
        raise ModelError(
            f"eps_tilde has {len(eps_tilde)} components, disturbances have {len(blocks)} blocks"
        )
    pairs = []
    for d1, w1 in enumerate(s1.dists):
        for d2, w2 in enumerate(s2.dists):
            e = vector_metric(w1, w2, blocks)
            if all(v <= b + _TOL for v, b in zip(e, eps_tilde)):
                pairs.append((d1, d2))
    return pairs


def _table(a: FiniteAbstraction):
    """(successor tuple per flat (s, u, d) row, input count, disturbance count)."""
    rows = a.succ.reshape(a.ood.size, a.succ.shape[-1]).tolist()
    return [tuple(t for t in row if t >= 0) for row in rows], len(a.inputs), len(a.dists)


def _responds(challenger, responder, x_c, x_r, pairs, adm, flip):
    """Challenger side (b)-style check for one related pair.

    challenger and responder are _table tuples.  flip=False: challenger
    is S1 (pairs indexed (s, t)); flip=True: challenger is S2 and
    membership is tested transposed.
    """
    rows_c, n_uc, n_dc = challenger
    rows_r, n_ur, n_dr = responder
    for u_c in range(n_uc):
        matched = False
        for u_r in range(n_ur):
            ok = True
            for dc, dr in adm:
                succ_c = rows_c[(x_c * n_uc + u_c) * n_dc + dc]
                succ_r = rows_r[(x_r * n_ur + u_r) * n_dr + dr]
                for s in succ_c:
                    if not any(
                        ((s, t) if not flip else (t, s)) in pairs for t in succ_r
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                matched = True
                break
        if not matched:
            return False
    return True


def check_relation(s1: FiniteAbstraction, s2: FiniteAbstraction, rel: RelationTable) -> CheckResult:
    """Verify that rel is a disturbance bisimulation between s1 and s2."""
    if s1.dim != s2.dim:
        raise ModelError(f"state dimensions differ: {s1.dim} vs {s2.dim}")
    n1, n2 = len(s1.states), len(s2.states)
    outside = [(i, j) for (i, j) in rel.pairs if not (0 <= i < n1 and 0 <= j < n2)]
    if outside:
        raise FormatError(f"relation pair {min(outside)} is outside the {n1} x {n2} states")
    adm = _admissible_dist_pairs(s1, s2, rel.eps_tilde)
    adm_flip = [(d2, d1) for (d1, d2) in adm]
    t1, t2 = _table(s1), _table(s2)

    def clause_b(i, j):
        return _responds(t1, t2, i, j, rel.pairs, adm, flip=False)

    def clause_c(i, j):
        return _responds(t2, t1, j, i, rel.pairs, adm_flip, flip=True)

    if s1 == s2 and all((j, i) in rel.pairs for (i, j) in rel.pairs):
        clause_b = functools.cache(clause_b)

        def clause_c(i, j):
            return clause_b(j, i)

    for (i, j) in sorted(rel.pairs):
        if _state_dist(s1, s2, i, j) > rel.eps + _TOL:
            return CheckResult(valid=False, pair=(i, j), clause="a")
        if not clause_b(i, j):
            return CheckResult(valid=False, pair=(i, j), clause="b")
        if not clause_c(i, j):
            return CheckResult(valid=False, pair=(i, j), clause="c")
    return CheckResult(valid=True)


def largest_bisimulation(
    s1: FiniteAbstraction, s2: FiniteAbstraction, eps: float, eps_tilde=()
) -> RelationTable:
    """Greatest disturbance bisimulation within the eps-close pairs.

    Starts from every pair satisfying condition (a) and deletes violating
    pairs until none remain; monotone on a finite lattice, so this
    terminates, and the result contains every disturbance bisimulation
    made of (a)-admissible pairs.  Each round removes every pair that
    fails (b) or (c) against the relation at the start of the round.
    """
    if s1.dim != s2.dim:
        raise ModelError(f"state dimensions differ: {s1.dim} vs {s2.dim}")
    eps_tilde = tuple(eps_tilde)
    _check_precisions(eps, eps_tilde, ParameterError)
    adm = _admissible_dist_pairs(s1, s2, eps_tilde)
    if s1 == s2:
        return _largest_self_bisimulation(s1, eps, eps_tilde, adm)
    adm_flip = [(d2, d1) for (d1, d2) in adm]
    t1, t2 = _table(s1), _table(s2)
    current = {
        (i, j)
        for i in range(len(s1.states))
        for j in range(len(s2.states))
        if _state_dist(s1, s2, i, j) <= eps + _TOL
    }
    while True:
        bad = [
            pair
            for pair in current
            if not _responds(t1, t2, pair[0], pair[1], current, adm, flip=False)
            or not _responds(t2, t1, pair[1], pair[0], current, adm_flip, flip=True)
        ]
        if not bad:
            break
        current.difference_update(bad)
    return RelationTable(pairs=frozenset(current), eps=eps, eps_tilde=eps_tilde)


def _largest_self_bisimulation(s, eps, eps_tilde, adm) -> RelationTable:
    """largest_bisimulation(s, s): the same rounds at one (b) call per pair.

    The candidates are symmetric, and if the relation is symmetric at the
    start of a round, the general round removes {p : (b) fails at p or at
    its mirror}, which is symmetric again.  So each round evaluates (b)
    once per ordered pair and removes the failing pairs with their mirrors.
    """
    n, t = len(s.states), _table(s)
    current = set()
    for i in range(n):
        for j in range(i, n):
            if _state_dist(s, s, i, j) <= eps + _TOL:
                current.add((i, j))
                current.add((j, i))
    while True:
        bad = [
            (i, j) for (i, j) in current if not _responds(t, t, i, j, current, adm, flip=False)
        ]
        if not bad:
            break
        current.difference_update(bad)
        current.difference_update((j, i) for (i, j) in bad)
    return RelationTable(pairs=frozenset(current), eps=eps, eps_tilde=eps_tilde)


# ---------------------------------------------------------------------------
# relation file format

REL_HEADER = "STOCHREL v1"


def _relation_lines(rel: RelationTable, left: str, right: str) -> list:
    """The lines of the relation file of rel between abstractions with these hashes."""
    eps_tilde = "".join(" " + _g17(v) for v in rel.eps_tilde)
    head = [f"left {left}", f"right {right}", f"eps {_g17(rel.eps)}", f"epstilde{eps_tilde}"]
    return [REL_HEADER, *head, f"pairs {len(rel.pairs)}", *(f"{i} {j}" for (i, j) in sorted(rel.pairs))]


def save_relation(rel: RelationTable, s1: FiniteAbstraction, s2: FiniteAbstraction, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_relation_lines(rel, s1.content_hash(), s2.content_hash())) + "\n")


def load_relation(path):
    """Read a relation file; returns (table, left_hash, right_hash).

    Only the lines save_relation writes are accepted: each under its
    label, numbers in canonical form, the pairs ascending and nothing
    after them.
    """
    lines = read_text(path, FormatError).splitlines()
    if not lines or lines[0] != REL_HEADER:
        raise FormatError(f"bad header (expected {REL_HEADER!r})")
    try:
        (_, left), (_, right), (_, eps), (_, *eps_tilde), _ = (line.split(" ") for line in lines[1:6])
        pairs = frozenset((int(i), int(j)) for i, j in (line.split(" ") for line in lines[6:]))
        rel = RelationTable(pairs, float(eps), tuple(map(float, eps_tilde)))
    except ValueError as exc:
        raise FormatError(f"malformed relation file: {exc}") from None
    _check_precisions(rel.eps, rel.eps_tilde, FormatError)
    for n, (got, want) in enumerate(itertools.zip_longest(lines, _relation_lines(rel, left, right)), 1):
        if got != want:
            raise FormatError(f"line {n} reads {got!r}, expected {want!r}")
    return rel, left, right
