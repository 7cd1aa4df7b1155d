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
pairs are one builder (_close), axis by axis in row blocks.
check_relation puts the relation in an (n1, n2) bool matrix, takes the
related pairs from one np.nonzero and walks them in row-major slices of
at most STEP_LOOKUPS relation lookups, gathering the relation at every
pair of successors of a slice at once; clause (c) reads the transpose.
So it names the first failing pair in the table's order with its first
failing clause.  The greatest fixpoint runs the same kernel in Jacobi
rounds, removing every failing pair after each, whether the sides are
one abstraction or two; its result does not depend on removal order.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, ModelError, ParameterError
from .gridabs import FiniteAbstraction, _check_precisions, _g17
from .sysdsl import read_text

_TOL = 1e-12
#: Most relation lookups (pairs x inputs1 x inputs2 x admissible disturbance
#: pairs x k1 x k2, a byte each) one array step of a relation check makes, and
#: most bytes of float differences one row block of _close holds: bounds the
#: working arrays whatever the relation's density.
STEP_LOOKUPS = 1 << 18
#: Pair lines of a relation file formatted in one step.
LINE_BLOCK = 1 << 16


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


def _padded(R):
    """R inside a copy with one more row and column.  The extra row is
    True, so an absent challenger successor (-1) holds vacuously; the
    extra column is False, so an absent responder successor matches
    nothing.  A -1 in a successor array then indexes the pad directly."""
    n1, n2 = R.shape
    Rx = np.zeros((n1 + 1, n2 + 1), bool)
    Rx[:n1, :n2] = R
    Rx[n1] = True
    return Rx


def _answers(Rx, succ_c, succ_r, I, J, adm):
    """Clause (b) at each pair (I[p], J[p]) against the padded relation Rx.

    For every challenger input some responder input answers every
    admissible disturbance pair (adm: challenger and responder index
    arrays), each challenger successor by a related responder successor.
    """
    c = succ_c[I][:, :, adm[0]]  # (pairs, challenger inputs, pairs of adm, k)
    r = succ_r[J][:, :, adm[1]]  # (pairs, responder inputs, pairs of adm, k)
    hit = Rx[c[:, :, None, :, :, None], r[:, None, :, :, None, :]]
    return hit.any(axis=5).all(axis=(3, 4)).any(axis=2).all(axis=1)


def _failures(s1, s2, R, eps, adm):
    """The related pairs (I, J) of R in row-major order, and the first
    clause each fails against R (0 none, 1 to 3 for 'a' to 'c'), in
    slices that make at most STEP_LOOKUPS relation lookups (at least one
    pair each).  adm is the (2, P) array of admissible disturbance pairs."""
    x1, x2 = _points(s1.states, s1.dim), _points(s2.states, s2.dim)
    Rx, Rt = _padded(R), _padded(R.T)
    tests = (
        lambda I, J: (np.abs(x1[I] - x2[J]) <= eps + _TOL).all(axis=1),
        lambda I, J: _answers(Rx, s1.succ, s2.succ, I, J, adm),
        lambda I, J: _answers(Rt, s2.succ, s1.succ, J, I, adm[::-1]),
    )
    (_, u1, _, k1), (_, u2, _, k2) = s1.succ.shape, s2.succ.shape
    step = max(1, STEP_LOOKUPS // (u1 * u2 * adm.shape[1] * k1 * k2 or 1))
    I_all, J_all = np.nonzero(R)
    for a in range(0, I_all.size, step):
        I, J = I_all[a : a + step], J_all[a : a + step]
        first = np.zeros(I.size, np.int8)
        for clause, holds in enumerate(tests, 1):
            todo = np.flatnonzero(first == 0)
            first[todo[~holds(I[todo], J[todo])]] = clause
        yield I, J, first


def check_relation(s1: FiniteAbstraction, s2: FiniteAbstraction, rel: RelationTable) -> CheckResult:
    """Verify that rel is a disturbance bisimulation between s1 and s2.

    An invalid result names the first failing pair in the table's order
    (the smallest) and the first clause it fails.
    """
    if s1.dim != s2.dim:
        raise ModelError(f"state dimensions differ: {s1.dim} vs {s2.dim}")
    n1, n2 = len(s1.states), len(s2.states)
    outside = (rel.first < 0) | (rel.first >= n1) | (rel.second < 0) | (rel.second >= n2)
    if outside.any():
        p = outside.argmax()  # the first in the table's order, so the smallest
        raise FormatError(f"relation pair ({rel.first[p]}, {rel.second[p]}) is outside the {n1} x {n2} states")
    adm = _admissible_dist_pairs(s1, s2, rel.eps_tilde)
    R = np.zeros((n1, n2), bool)
    R[rel.first, rel.second] = True
    for I, J, first in _failures(s1, s2, R, rel.eps, adm):
        bad = np.flatnonzero(first)
        if bad.size:
            p = bad[0]
            return CheckResult(valid=False, pair=(int(I[p]), int(J[p])), clause="abc"[first[p] - 1])
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
    R = _close(_points(s1.states, s1.dim), _points(s2.states, s2.dim), (eps,) * s1.dim)
    while True:
        bad = [(I[f > 0], J[f > 0]) for I, J, f in _failures(s1, s2, R, eps, adm)]
        if not any(I.size for I, _ in bad):
            break
        for I, J in bad:
            R[I, J] = False
    return RelationTable(*np.nonzero(R), eps, eps_tilde)


# ---------------------------------------------------------------------------
# relation file format

REL_HEADER = "STOCHREL v1"


def _relation_text(rel: RelationTable, left: str, right: str) -> str:
    """The relation file of rel between abstractions with these hashes, one
    line "i j" per pair in the table's order, LINE_BLOCK lines at a time."""
    eps_tilde = "".join(" " + _g17(v) for v in rel.eps_tilde)
    head = f"{REL_HEADER}\nleft {left}\nright {right}\neps {_g17(rel.eps)}\nepstilde{eps_tilde}\n"
    text = [head + f"pairs {len(rel)}\n"]
    for a in range(0, len(rel), LINE_BLOCK):
        block = np.column_stack((rel.first[a : a + LINE_BLOCK], rel.second[a : a + LINE_BLOCK]))
        text.append(("%d %d\n" * len(block)) % tuple(block.ravel().tolist()))
    return "".join(text)


def save_relation(rel: RelationTable, s1: FiniteAbstraction, s2: FiniteAbstraction, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_relation_text(rel, s1.content_hash(), s2.content_hash()))


def load_relation(path):
    """Read a relation file; returns (table, left_hash, right_hash).

    Only the lines save_relation writes are accepted: each under its
    label, numbers in canonical form, the pairs ascending, every line
    ending in a newline and nothing after the last pair.
    """
    text = read_text(path, FormatError)
    if text.split("\n", 1)[0].removesuffix("\r") != REL_HEADER:  # CRLF fails the line-break check
        raise FormatError(f"bad header (expected {REL_HEADER!r})")
    try:
        _, *head, body = text.split("\n", 6)
        (_, left), (_, right), (_, eps), (_, *eps_tilde), _ = (line.split(" ") for line in head)
        if body[:1] == "\n" or "\n\n" in body:
            raise ValueError("blank line")
        # the pair lines' numbers in one parse (junk stops it with a
        # DeprecationWarning, in later numpy a ValueError)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pairs = np.fromstring(body, np.int64, sep=" ").reshape(-1, 2)
        i, j = pairs.T
        if not ((i[1:] > i[:-1]) | (i[1:] == i[:-1]) & (j[1:] > j[:-1])).all():
            pairs = np.unique(pairs, axis=0)  # sorted and each once, so the check below names a line
        rel = RelationTable(pairs[:, 0], pairs[:, 1], float(eps), tuple(map(float, eps_tilde)))
    except (ValueError, DeprecationWarning) as exc:
        raise FormatError(f"malformed relation file: {exc}") from None
    _check_precisions(rel.eps, rel.eps_tilde, FormatError)
    expected = _relation_text(rel, left, right)
    if text != expected:
        for n, (got, want) in enumerate(itertools.zip_longest(text.splitlines(), expected.splitlines()), 1):
            if got != want:
                raise FormatError(f"line {n} reads {got!r}, expected {want!r}")
        raise FormatError("line breaks differ from the canonical form: each line ends in one newline")
    return rel, left, right
