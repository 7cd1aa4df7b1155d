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

When both sides are one abstraction by value (``s1 == s2``, as when
the CLI reads one file twice), both procedures run on arrays.  The
relation is an (n, n) bool matrix; the eps-close candidates are built
axis by axis.  Each round takes the related pairs from one np.nonzero
and walks them in row-major slices of at most STEP_LOOKUPS relation
lookups, gathering the relation at every pair of successors of a slice
at once, then removes every failing pair (Jacobi rounds, as in the
loops).  The greatest fixpoint does not depend on removal order, so
the result is the loops'.
Distinct sides still take the loops over Python sets (_responds, _table):
the same kernel serves them, but moving them waits for a benchmark that
measures peak memory correctly over several fast rounds.
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
#: Most relation lookups (pairs x inputs^2 x admissible disturbance pairs
#: x k^2, a byte each) one array step of the self-bisimulation makes: bounds
#: its working arrays whatever the relation's density.
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


def _state_dist(s1, s2, i, j):
    a, b = s1.states[i], s2.states[j]
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _admissible_dist_pairs(s1, s2, eps_tilde):
    if s1.dist_blocks != s2.dist_blocks:
        raise ModelError(f"incompatible disturbance structure: {s1.dist_blocks} vs {s2.dist_blocks}")
    blocks = s1.dist_blocks
    if len(eps_tilde) == 0:
        eps_tilde = (0.0,) * len(blocks)
    if len(eps_tilde) != len(blocks):
        raise ModelError(f"eps_tilde has {len(eps_tilde)} components, disturbances have {len(blocks)} blocks")
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


def _self_candidates(s, eps):
    """The (n, n) bool matrix of eps-close state pairs, built axis by axis
    in row blocks of at most STEP_LOOKUPS bytes of float differences."""
    x = np.asarray(s.states, float).reshape(len(s.states), s.dim)
    C = np.ones((len(x), len(x)), bool)
    rows = max(1, STEP_LOOKUPS // (8 * len(x) or 1))
    for a in range(0, len(x), rows):
        for axis in range(s.dim):
            d = x[a : a + rows, axis, None] - x[None, :, axis]
            C[a : a + rows] &= np.abs(d, out=d) <= eps + _TOL
    return C


def _self_failures(s, R, eps, adm):
    """The related pairs (I, J) of R in row-major order, and the first
    clause each fails against R (0 none, 1 to 3 for 'a' to 'c'), in
    slices that make at most STEP_LOOKUPS relation lookups (at least one
    pair each).  adm is the list of admissible disturbance pairs."""
    x = np.asarray(s.states, float).reshape(len(s.states), s.dim)
    adm = np.array(adm, np.intp).reshape(-1, 2).T
    Rx, Rt = _padded(R), _padded(R.T)
    tests = (
        lambda I, J: (np.abs(x[I] - x[J]) <= eps + _TOL).all(axis=1),
        lambda I, J: _answers(Rx, s.succ, s.succ, I, J, adm),
        lambda I, J: _answers(Rt, s.succ, s.succ, J, I, adm[::-1]),
    )
    step = max(1, STEP_LOOKUPS // (s.succ.shape[1] ** 2 * adm.shape[1] * s.succ.shape[3] ** 2 or 1))
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

    An invalid result names the smallest failing pair and the first clause
    it fails.
    """
    if s1.dim != s2.dim:
        raise ModelError(f"state dimensions differ: {s1.dim} vs {s2.dim}")
    n1, n2 = len(s1.states), len(s2.states)
    outside = (rel.first < 0) | (rel.first >= n1) | (rel.second < 0) | (rel.second >= n2)
    if outside.any():
        p = outside.argmax()  # the first in the table's order, so the smallest
        raise FormatError(f"relation pair ({rel.first[p]}, {rel.second[p]}) is outside the {n1} x {n2} states")
    adm = _admissible_dist_pairs(s1, s2, rel.eps_tilde)
    if s1 == s2:
        R = np.zeros((n1, n1), bool)
        R[rel.first, rel.second] = True
        for I, J, first in _self_failures(s1, R, rel.eps, adm):
            bad = np.flatnonzero(first)
            if bad.size:
                p = bad[0]
                return CheckResult(valid=False, pair=(int(I[p]), int(J[p])), clause="abc"[first[p] - 1])
        return CheckResult(valid=True)
    adm_flip = [(d2, d1) for (d1, d2) in adm]
    t1, t2 = _table(s1), _table(s2)
    for (i, j) in zip(rel.first.tolist(), rel.second.tolist()):
        if _state_dist(s1, s2, i, j) > rel.eps + _TOL:
            return CheckResult(valid=False, pair=(i, j), clause="a")
        if not _responds(t1, t2, i, j, rel.pairs, adm, flip=False):
            return CheckResult(valid=False, pair=(i, j), clause="b")
        if not _responds(t2, t1, j, i, rel.pairs, adm_flip, flip=True):
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
        R = _self_candidates(s1, eps)
        while True:
            bad = [(I[f > 0], J[f > 0]) for I, J, f in _self_failures(s1, R, eps, adm)]
            if not any(I.size for I, _ in bad):
                break
            for I, J in bad:
                R[I, J] = False
        return RelationTable(*np.nonzero(R), eps, eps_tilde)
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
    return RelationTable(*np.array(sorted(current), np.intp).reshape(-1, 2).T, eps, eps_tilde)


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
    if text.split("\n", 1)[0] != REL_HEADER:
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
