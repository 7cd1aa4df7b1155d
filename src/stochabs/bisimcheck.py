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

A relation is two read-only index arrays of its pairs, ascending in
row-major order: the order of ``np.nonzero`` and of relation files.

Both sides share the array code, whether they are one abstraction or
two.  The eps-close state candidates and the admissible disturbance
pairs are one builder (_close), axis by axis in row blocks.  Each side
plays from its move table (_moves): a state's distinct input rows,
padded to the widest state's count by repeating its first move, since
inputs with equal successor rows are the same move of the game.  The
relation lives in two padded bool matrices, (n1 + 1, n2 + 1) and its
transpose for clause (c), each built once from the pairs' index arrays
(_padded).  check_relation walks its pairs in table order in slices of
at most STEP_LOOKUPS relation lookups, gathering the relation at every
pair of successors of a slice at once, so it names the first failing
pair with its first failing clause.  The greatest fixpoint runs the
same kernel in Jacobi rounds over the alive pairs, held as index arrays
that shrink each round: every pair that fails is cleared from both
matrices after the round, so its result does not depend on removal
order.  Relation files are written and read with the transition table's
block renderer, integer parse and line compare (gridabs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, ModelError, ParameterError
from .gridabs import FiniteAbstraction, _check_framing, _check_lines, _check_precisions, _g17, _ints, _render
from .sysdsl import read_text

_TOL = 1e-12
#: Most relation lookups (pairs x moves1 x moves2 x admissible disturbance
#: pairs x k1 x k2, a byte each) one array step of a relation check makes, and
#: most bytes of float differences one row block of _close holds: bounds the
#: working arrays whatever the relation's density.
STEP_LOOKUPS = 1 << 18


@dataclass(frozen=True, eq=False)
class RelationTable:
    """A candidate disturbance bisimulation: its pairs (first[p], second[p])
    of indices in S1 and S2, row-major and each once, and its parameters."""

    first: np.ndarray
    second: np.ndarray
    eps: float
    eps_tilde: tuple

    def __post_init__(self):
        for name in ("first", "second"):
            view = np.asarray(getattr(self, name), np.intp).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self):
        return len(self.first)

    @cached_property
    def pairs(self) -> frozenset:
        """The related pairs as a frozenset of (i, j) tuples, built on first use."""
        return frozenset(zip(self.first.tolist(), self.second.tolist()))


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    pair: tuple | None = None
    clause: str | None = None  # 'a', 'b' or 'c'


def _points(rows, width):
    """Coordinate tuples (states or disturbances) as an (n, width) float array."""
    return np.asarray(rows, float).reshape(len(rows), width)


def _close(x1, x2, bound):
    """The (n1, n2) bool matrix of row pairs of x1 and x2 within bound[a] + _TOL
    on every axis a, built axis by axis in row blocks of at most STEP_LOOKUPS
    bytes of float differences."""
    C = np.ones((len(x1), len(x2)), bool)
    rows = max(1, STEP_LOOKUPS // (8 * len(x2) or 1))
    for a in range(0, len(x1), rows):
        for axis, b in enumerate(bound):
            d = x1[a : a + rows, axis, None] - x2[None, :, axis]
            C[a : a + rows] &= np.abs(d, out=d) <= b + _TOL
    return C


def _admissible_dist_pairs(s1, s2, eps_tilde):
    """The (2, P) index array of the disturbance pairs (d1, d2) whose
    per-block mismatch is within eps_tilde, in row-major order."""
    if s1.dist_blocks != s2.dist_blocks:
        raise ModelError(f"incompatible disturbance structure: {s1.dist_blocks} vs {s2.dist_blocks}")
    blocks = s1.dist_blocks
    if len(eps_tilde) == 0:
        eps_tilde = (0.0,) * len(blocks)
    if len(eps_tilde) != len(blocks):
        raise ModelError(f"eps_tilde has {len(eps_tilde)} components, disturbances have {len(blocks)} blocks")
    width = sum(blocks)
    close = _close(_points(s1.dists, width), _points(s2.dists, width), np.repeat(eps_tilde, blocks))
    return np.array(np.nonzero(close))


def _moves(succ):
    """succ (S, U, D, k) with each state's distinct input rows first, in
    input order, padded to the widest state's count by repeating that
    state's first move; succ itself when no state narrows.

    Rows are canonical (successors ascending, padded with -1), so equal
    rows are equal moves, and a repeated move changes no any/all of the
    game.
    """
    n, u = succ.shape[:2]
    if u < 2 or succ.size == 0:
        return succ
    rows = np.ascontiguousarray(succ).reshape(n, u, -1)
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[2])))[..., 0]  # (S, U): one per row
    order = np.argsort(key, axis=1, kind="stable")  # equal rows adjacent, first input first
    ranked = np.take_along_axis(key, order, axis=1)
    new = np.ones((n, u), bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = np.empty_like(new)  # each distinct row's first input, in input order
    np.put_along_axis(first, order, new, axis=1)
    count = first.sum(axis=1)
    width = count.max()
    if width == u:
        return succ
    pick = np.argsort(~first, axis=1, kind="stable")[:, :width]
    pick = np.where(np.arange(width) < count[:, None], pick, pick[:, :1])
    return succ[np.arange(n)[:, None], pick]


def _padded(n1, n2, I, J):
    """The (n1 + 1, n2 + 1) bool matrix of the pairs (I[p], J[p]) with one
    more row and column.  The extra row is True, so an absent challenger
    successor (-1) holds vacuously; the extra column is False, so an
    absent responder successor matches nothing.  A -1 in a successor
    array then indexes the pad directly."""
    Rx = np.zeros((n1 + 1, n2 + 1), bool)
    Rx[I, J] = True
    Rx[n1] = True
    return Rx


def _answers(Rx, succ_c, succ_r, I, J, adm):
    """Clause (b) at each pair (I[p], J[p]) against the padded relation Rx.

    For every challenger move some responder move answers every
    admissible disturbance pair (adm: challenger and responder index
    arrays), each challenger successor by a related responder successor.
    """
    c = succ_c[I][:, :, adm[0]]  # (pairs, challenger moves, pairs of adm, k)
    r = succ_r[J][:, :, adm[1]]  # (pairs, responder moves, pairs of adm, k)
    hit = Rx[c[:, :, None, :, :, None], r[:, None, :, :, None, :]]
    return hit.any(axis=5).all(axis=(3, 4)).any(axis=2).all(axis=1)


def _failures(game, Rx, Rt, I, J, eps):
    """The first clause each pair (I[p], J[p]) fails (0 none, 1 to 3 for
    'a' to 'c') against the padded relation Rx and its transpose Rt,
    yielded as (start, first) in slices that make at most STEP_LOOKUPS
    relation lookups (at least one pair each)."""
    x1, x2, m1, m2, adm = game
    tests = (
        lambda I, J: (np.abs(x1[I] - x2[J]) <= eps + _TOL).all(axis=1),
        lambda I, J: _answers(Rx, m1, m2, I, J, adm),
        lambda I, J: _answers(Rt, m2, m1, J, I, adm[::-1]),
    )
    (_, u1, _, k1), (_, u2, _, k2) = m1.shape, m2.shape
    step = max(1, STEP_LOOKUPS // (u1 * u2 * adm.shape[1] * k1 * k2 or 1))
    for a in range(0, I.size, step):
        I_a, J_a = I[a : a + step], J[a : a + step]
        first = np.zeros(I_a.size, np.int8)
        for clause, holds in enumerate(tests, 1):
            todo = np.flatnonzero(first == 0)
            first[todo[~holds(I_a[todo], J_a[todo])]] = clause
        yield a, first


def _game(s1, s2, eps_tilde):
    """Both sides' state points and move tables, and the (2, P) array of
    admissible disturbance pairs: what _failures reads of s1 and s2."""
    adm = _admissible_dist_pairs(s1, s2, eps_tilde)
    return _points(s1.states, s1.dim), _points(s2.states, s2.dim), _moves(s1.succ), _moves(s2.succ), adm


def check_relation(s1: FiniteAbstraction, s2: FiniteAbstraction, rel: RelationTable) -> CheckResult:
    """Verify that rel is a disturbance bisimulation between s1 and s2.

    An invalid result names the first failing pair in the table's order
    (the smallest) and the first clause it fails.
    """
    if s1.dim != s2.dim:
        raise ModelError(f"state dimensions differ: {s1.dim} vs {s2.dim}")
    n1, n2 = len(s1.states), len(s2.states)
    I, J = rel.first, rel.second
    outside = (I < 0) | (I >= n1) | (J < 0) | (J >= n2)
    if outside.any():
        p = outside.argmax()  # the first in the table's order, so the smallest
        raise FormatError(f"relation pair ({I[p]}, {J[p]}) is outside the {n1} x {n2} states")
    game = _game(s1, s2, rel.eps_tilde)
    for a, first in _failures(game, _padded(n1, n2, I, J), _padded(n2, n1, J, I), I, J, rel.eps):
        bad = np.flatnonzero(first)
        if bad.size:
            p = a + bad[0]
            return CheckResult(valid=False, pair=(int(I[p]), int(J[p])), clause="abc"[first[bad[0]] - 1])
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
    game = _game(s1, s2, eps_tilde)
    n1, n2 = len(s1.states), len(s2.states)
    I, J = np.nonzero(_close(*game[:2], (eps,) * s1.dim))
    Rx, Rt = _padded(n1, n2, I, J), _padded(n2, n1, J, I)
    while True:
        bad = np.zeros(I.size, bool)
        for a, first in _failures(game, Rx, Rt, I, J, eps):
            bad[a : a + first.size] = first > 0
        if not bad.any():
            return RelationTable(I, J, eps, eps_tilde)
        Rx[I[bad], J[bad]] = False
        Rt[J[bad], I[bad]] = False
        I, J = I[~bad], J[~bad]


# ---------------------------------------------------------------------------
# relation file format

REL_HEADER = "STOCHREL v1"


def _relation_blocks(rel: RelationTable, left: str, right: str):
    """The relation file of rel between abstractions with these hashes, in
    blocks of whole lines: the header, then a line "i j" per pair in order."""
    eps_tilde = "".join(" " + _g17(v) for v in rel.eps_tilde)
    yield f"{REL_HEADER}\nleft {left}\nright {right}\neps {_g17(rel.eps)}\nepstilde{eps_tilde}\npairs {len(rel)}\n"
    lines = lambda a, b: ("%d %d\n" * (b - a), np.column_stack((rel.first[a:b], rel.second[a:b])))
    yield from _render(len(rel), lines)


def save_relation(rel: RelationTable, s1: FiniteAbstraction, s2: FiniteAbstraction, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_relation_blocks(rel, s1.content_hash(), s2.content_hash()))


def load_relation(path):
    """Read a relation file; returns (table, left_hash, right_hash).

    Only the lines save_relation writes are accepted: each under its
    label, numbers in canonical form, the pairs ascending, every line
    ending in a newline and nothing after the last pair.
    """
    text = read_text(path, FormatError)
    _check_framing(text, REL_HEADER)
    try:
        _, *head, body = text.split("\n", 6)
        (_, left), (_, right), (_, eps), (_, *eps_tilde), _ = (line.split(" ") for line in head)
        pairs = _ints(body).reshape(-1, 2)
        i, j = pairs.T
        if not ((i[1:] > i[:-1]) | (i[1:] == i[:-1]) & (j[1:] > j[:-1])).all():
            pairs = np.unique(pairs, axis=0)  # sorted and each once, so the compare below names a line
        rel = RelationTable(pairs[:, 0], pairs[:, 1], float(eps), tuple(map(float, eps_tilde)))
        _check_precisions(rel.eps, rel.eps_tilde, FormatError)
        _check_lines(text, _relation_blocks(rel, left, right))
    except (ValueError, DeprecationWarning) as exc:
        raise FormatError(f"malformed relation file: {exc}") from None
    return rel, left, right
