"""State/input lattices, nominal flow, and finite abstraction construction.

The state lattice is anchored at the origin with per-axis half-pitch eta
(points sit at coordinates 2*k*eta_i), the input lattice is anchored at
the input-box centre.  Successors of an abstract state are all lattice
points within eta (per axis) of the noise-free endpoint after one
sampling period, so the transition map is set valued with at most 2^n
successors per triple.

The nominal flow is one batched RK4 kernel: build_abstraction integrates
every (state, input, disturbance) cell at once, in chunks of FLOW_CHUNK
cells, and each cell still gets exactly the endpoint, escaped flag and
substep count it would get integrated alone.  workers > 1 maps the
chunks to a process pool.

Serialization is a plain text format with a content hash; building is
deterministic and byte-identical across worker counts.  One block
renderer (_render) writes transition tables and relation files, and
reading compares the text block by block with what it writes back.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, fields
from multiprocessing import Pool

import numpy as np

from .errors import AbstractionError, FormatError, ParameterError
from .sysdsl import SysModel, check_equilibrium, read_text

#: Absolute slack on lattice membership and successor tests; prevents
#: platform-dependent boundary flicker at exact ties.
GEOM_SLACK = 1e-9

FORMAT_HEADER = "STOCHABS v1"

#: Lines of a transition table or relation file rendered or compared at once.
LINE_BLOCK = 1 << 12

#: Cells integrated together by build_abstraction; bounds the flow
#: kernel's working arrays whatever the abstraction size.
FLOW_CHUNK = 8192

DOMAIN_MARGIN = 0.5  # share of the domain's width, per side, a flow may leave before it is escaped


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _render(count, lines):
    """The text of count lines, LINE_BLOCK at a time, each block filled in
    one %: lines(a, b) gives the %-format of lines a to b - 1 and an int
    array of their fields in row-major order."""
    for a in range(0, count, LINE_BLOCK):
        form, numbers = lines(a, min(a + LINE_BLOCK, count))
        yield form % tuple(numbers.ravel().tolist())


def _ints(text) -> np.ndarray:
    """The whitespace-separated integers of text in one parse.  Junk raises:
    a DeprecationWarning before numpy 2.4, a ValueError from 2.4 on."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.fromstring(text, np.int64, sep=" ")


def _check_framing(text, header):
    """Refuse text without the header line, or whose lines do not each end in one newline."""
    if not text.startswith((header + "\n", header + "\r\n")):
        raise FormatError(f"bad header (expected {header!r})")
    if "\r" in text or not text.endswith("\n"):
        raise FormatError("line breaks differ from the canonical form: lines do not each end in a single newline")


def _check_lines(text, chunks):
    """Raise ValueError naming the first line where text, which ends in a
    newline, differs from the chunks joined, each whole lines."""
    pos = 0
    for chunk in itertools.chain(chunks, [""]):  # "": the end, where nothing more is expected
        if text.startswith(chunk, pos) and (chunk or pos == len(text)):
            pos += len(chunk)
            continue
        stop = text.find("\n", pos + len(chunk)) + 1 or None  # the first difference is on a line before stop
        pairs = itertools.zip_longest(text[pos:stop].split("\n")[:-1], chunk.split("\n")[:-1] or [None])
        for n, (got, want) in enumerate(pairs, text.count("\n", 0, pos) + 1):
            if got != want:
                raise ValueError(f"line {n} reads {got!r}, expected {want!r}")


@dataclass(frozen=True)
class Lattice:
    """Axis-aligned lattice restricted to a box.

    Coordinates are anchor_i + 2*k*pitch_i for integer k in
    [kmin_i, kmax_i].  A zero pitch collapses the axis to its anchor.
    """

    anchor: tuple
    pitch: tuple
    kmin: tuple
    kmax: tuple
    box: tuple

    @classmethod
    def create(cls, box, pitch, anchor=None):
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        dim = len(box)
        if np.isscalar(pitch):
            pitch = (float(pitch),) * dim
        else:
            pitch = tuple(float(v) for v in pitch)
        if len(pitch) != dim:
            raise AbstractionError(f"pitch has {len(pitch)} axes, box has {dim}")
        if anchor is None:
            anchor = (0.0,) * dim
        else:
            anchor = tuple(float(v) for v in anchor)
        kmin, kmax = [], []
        for (lo, hi), h, a in zip(box, pitch, anchor):
            if h < 0:
                raise AbstractionError(f"negative pitch {h}")
            if h == 0.0:
                if not (lo - GEOM_SLACK <= a <= hi + GEOM_SLACK):
                    raise AbstractionError("zero pitch with anchor outside the box")
                kmin.append(0)
                kmax.append(0)
            else:
                kmin.append(math.ceil((lo - a - GEOM_SLACK) / (2.0 * h)))
                kmax.append(math.floor((hi - a + GEOM_SLACK) / (2.0 * h)))
        return cls(anchor=anchor, pitch=pitch, kmin=tuple(kmin), kmax=tuple(kmax), box=box)

    @property
    def dim(self):
        return len(self.pitch)

    @property
    def axis_counts(self):
        return tuple(hi - lo + 1 for lo, hi in zip(self.kmin, self.kmax))

    @property
    def count(self):
        c = 1
        for v in self.axis_counts:
            c *= max(v, 0)
        return c

    def coords(self, kvec):
        return tuple(a + 2.0 * k * h for a, k, h in zip(self.anchor, kvec, self.pitch))

    def points(self):
        """All lattice points inside the box, row major (first axis slowest)."""
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.kmin, self.kmax)]
        return [self.coords(kvec) for kvec in itertools.product(*ranges)]

    def quantize(self, point, clip=False):
        """Nearest lattice point (optionally clipped into the box range).

        Exact midpoints round toward +infinity.
        """
        kvec = tuple(
            0 if h == 0.0 else math.floor((v - a) / (2.0 * h) + 0.5)
            for v, a, h in zip(point, self.anchor, self.pitch)
        )
        if clip:
            kvec = tuple(min(max(k, lo), hi) for k, lo, hi in zip(kvec, self.kmin, self.kmax))
        return self.coords(kvec)

    def covers(self):
        """True when every box point is within pitch (per axis) of an
        in-box lattice point."""
        for (lo, hi), h, a, klo, khi in zip(self.box, self.pitch, self.anchor, self.kmin, self.kmax):
            if klo > khi:
                return False
            if h == 0.0:
                if hi - lo > GEOM_SLACK:
                    return False
                continue
            first = a + 2.0 * klo * h
            last = a + 2.0 * khi * h
            if first > lo + h + GEOM_SLACK or last < hi - h - GEOM_SLACK:
                return False
        return True


def quantize(point, eta):
    """Nearest origin-anchored lattice point with spacing 2*eta (per axis)."""
    point = np.atleast_1d(np.asarray(point, float))
    if np.isscalar(eta):
        eta = (float(eta),) * point.shape[0]
    out = []
    for v, h in zip(point, eta):
        out.append(2.0 * h * math.floor(v / (2.0 * h) + 0.5))
    return tuple(out)


def snap_state_pitch(domain, target) -> tuple:
    """Per-axis pitch <= target whose origin-anchored lattice covers the box.

    Searches spacings of the form width/q; raises when no aligned spacing
    exists within a generous search range (re-centre the domain then).
    """
    if not target > 0:
        raise ParameterError(f"state pitch eta must be positive, got {target}")
    out = []
    for lo, hi in domain:
        width = hi - lo
        if width <= 0.0:
            if lo == 0.0:
                out.append(float(target))
                continue
            q = math.ceil(abs(lo) / (2.0 * target))
            out.append(abs(lo) / (2.0 * q))
            continue
        q0 = max(1, math.ceil(width / (2.0 * target)))
        for q in range(q0, q0 + 4096):
            h = width / (2.0 * q)
            if Lattice.create([(lo, hi)], (h,)).covers():
                out.append(h)
                break
        else:
            raise AbstractionError(
                f"cannot align a covering lattice to axis [{lo}, {hi}] with pitch <= {target}"
            )
    return tuple(out)


def snap_input_pitch(input_box, target) -> tuple:
    """Per-axis pitch <= target whose centre-anchored lattice covers the box."""
    out = []
    for lo, hi in input_box:
        hw = 0.5 * (hi - lo)
        if hw <= 0.0:
            out.append(0.0)
            continue
        j = max(0, math.ceil((hw / target - 1.0) / 2.0))
        out.append(hw / (2 * j + 1))
    return tuple(out)


def input_lattice(input_box, omega) -> Lattice:
    centre = tuple(0.5 * (lo + hi) for lo, hi in input_box)
    return Lattice.create(input_box, omega, anchor=centre)


@dataclass(frozen=True)
class FlowResult:
    """Flow of one state (endpoint (n,), 0-d flags) or of a batch of cells
    (endpoint (n, *cells), escaped and substeps of shape cells)."""

    endpoint: np.ndarray
    escaped: np.ndarray  # left the inflated working box mid-trajectory
    substeps: np.ndarray


def _cell_values(v, dim, count):
    """One vector shared by all cells, or per-cell values, as (dim, count)."""
    v = np.zeros(dim) if v is None else np.asarray(v, float)
    if v.ndim <= 1:
        v = np.broadcast_to(np.atleast_1d(v)[:, None], (dim, count))
    return np.ascontiguousarray(v.reshape(dim, count))


def _integrate(sys, x, u, w, tau, steps, lo, hi):
    """steps fixed RK4 steps for every column of x.

    A column that turns non-finite stops stepping there and counts as
    escaped; the drift is never evaluated at its later points.  That test
    follows every step, so numpy's overflow and invalid warnings are off.
    """
    out = np.empty_like(x)
    escaped = np.zeros(x.shape[1], bool)
    live = np.arange(x.shape[1])
    esc = escaped.copy()
    h = tau / steps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = sys.drift_eval(x, u, w)
            k2 = sys.drift_eval(x + 0.5 * h * k1, u, w)
            k3 = sys.drift_eval(x + 0.5 * h * k2, u, w)
            k4 = sys.drift_eval(x + h * k3, u, w)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            esc |= ((x < lo) | (x > hi)).any(axis=0)
            if not np.isfinite(x).all():
                finite = np.isfinite(x).all(axis=0)
                out[:, live], escaped[live] = x, esc | ~finite
                live, x, esc, u, w = live[finite], x[:, finite], esc[finite], u[:, finite], w[:, finite]
                if not live.size:
                    return out, escaped
    out[:, live], escaped[live] = x, esc
    return out, escaped


def flow_nominal(
    sys: SysModel,
    x0,
    u,
    w,
    tau: float,
    substeps: int = 16,
    tol: float = 1e-9,
    max_substeps: int = 1 << 20,
) -> FlowResult:
    """Integrate the noise-free dynamics over [0, tau] with fixed-step RK4.

    x0 is one state (n,) or a batch of cells (n, *cells); u and w are one
    vector for all cells (or None for zero) or per-cell arrays (m, *cells)
    and (p, *cells).  Each cell doubles its step count until its
    step-doubling error estimate drops below tol, then stops; fixed steps
    keep results reproducible across platforms, and a cell's result does
    not depend on the batch it is in.  A trajectory leaving the domain
    inflated by DOMAIN_MARGIN is flagged escaped, not an error.  One that
    turns non-finite at a step h with h * Lf <= 1, well inside RK4's
    stability interval, blows up in finite time, and no finer step would
    help: that raises at once.  A stiff cell that overflows only at
    coarser steps keeps doubling.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    x0 = np.asarray(x0, float)
    cells = x0.shape[1:]
    x0 = np.ascontiguousarray(x0.reshape(sys.n, -1))
    count = x0.shape[1]
    u = _cell_values(u, sys.m, count)
    w = _cell_values(w, sys.p, count)
    box = sys.domain_array()
    width = box[:, 1] - box[:, 0]
    lo = (box[:, 0] - DOMAIN_MARGIN * width)[:, None]
    hi = (box[:, 1] + DOMAIN_MARGIN * width)[:, None]

    endpoint = np.empty_like(x0)
    escaped = np.zeros(count, bool)
    taken = np.zeros(count, np.int64)
    todo = np.arange(count)
    steps = substeps
    coarse, _ = _integrate(sys, x0, u, w, tau, steps, lo, hi)
    while True:
        fine, esc = _integrate(sys, x0, u, w, tau, 2 * steps, lo, hi)
        ok = np.isfinite(fine).all(axis=0)
        if not ok.all() and tau * sys.lf <= 2 * steps:
            start = x0[:, ~ok][:, 0].tolist()
            raise AbstractionError(f"flow integration did not reach tolerance {tol}: the flow from {start} "
                                   f"is non-finite at {2 * steps} substeps, where step * Lf <= 1: a blow-up")
        err = np.full(todo.size, math.inf)
        err[ok] = np.abs(coarse[:, ok] - fine[:, ok]).max(axis=0)
        done = err <= tol
        endpoint[:, todo[done]] = fine[:, done]
        escaped[todo[done]] = esc[done]
        taken[todo[done]] = 2 * steps
        if done.all():
            break
        todo, x0, u, w, coarse = todo[~done], x0[:, ~done], u[:, ~done], w[:, ~done], fine[:, ~done]
        steps *= 2
        if 2 * steps > max_substeps:
            raise AbstractionError(
                f"flow integration did not reach tolerance {tol} within {max_substeps} substeps"
            )
    return FlowResult(
        endpoint=endpoint.reshape(sys.n, *cells),
        escaped=escaped.reshape(cells),
        substeps=taken.reshape(cells),
    )


class _TableView(Mapping):
    """Read-only (state, input, disturbance) -> (successor tuple,
    out-of-domain flag) view of a table, iterated in row-major order."""

    def __init__(self, succ, ood):
        self.succ, self.ood = succ, ood

    def __getitem__(self, key):
        try:
            np.ravel_multi_index(key, self.ood.shape)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        row = self.succ[tuple(key)]
        return tuple(row[row >= 0].tolist()), bool(self.ood[tuple(key)])

    def __iter__(self):
        return itertools.product(*map(range, self.ood.shape))

    def __len__(self):
        return self.ood.size


@dataclass(frozen=True, eq=False)
class FiniteAbstraction:
    """Countable deterministic transition system over lattice points.

    The transition table is two arrays over (state, input, disturbance)
    index triples: succ (S, U, D, k) holds each row's successor indices in
    ascending order, padded with -1 to k, the widest row; ood (S, U, D)
    is the out-of-domain flag.  transitions is a read-only mapping view
    (s, u, d) -> (successor tuple, flag) over them.  The disturbance
    vectors split into blocks (dist_blocks gives the sizes,
    dist_block_nodes the supplying node name or '' when free); the vector
    metric between two disturbance values is the per-block infinity norm.
    Fields are frozen and the arrays read-only, so the content hash is
    computed once, by the first serialize or from the text deserialize read.
    """

    tau: float
    eta: tuple
    omega: tuple
    eps: float
    eps_tilde: tuple
    states: tuple
    inputs: tuple
    dists: tuple
    dist_blocks: tuple
    dist_block_nodes: tuple
    node_names: tuple
    node_dims: tuple
    succ: np.ndarray
    ood: np.ndarray

    def __post_init__(self):
        self.succ.flags.writeable = self.ood.flags.writeable = False

    def __getstate__(self):
        """A copy's arrays are writeable again, so it leaves the digest behind."""
        return {k: v for k, v in self.__dict__.items() if k != "_digest"}

    def __eq__(self, other):
        """Field-wise equality; the table arrays, the last two fields, by value."""
        if not isinstance(other, FiniteAbstraction):
            return NotImplemented
        names = [f.name for f in fields(self)]
        return all(getattr(self, n) == getattr(other, n) for n in names[:-2]) and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in names[-2:]
        )

    @property
    def dim(self):
        return sum(self.node_dims)

    @property
    def system(self) -> str:
        """The name of the system: its node names joined by '+'."""
        return "+".join(self.node_names)

    @property
    def external_names(self) -> tuple:
        """The nodes that supply the disturbance blocks, in block order."""
        return tuple(filter(None, self.dist_block_nodes))

    @property
    def transitions(self) -> Mapping:
        return _TableView(self.succ, self.ood)

    def _header(self) -> str:
        """The text form up to the transitions count line."""
        nums = lambda values: "".join(" " + _g17(v) for v in values)
        lines = [FORMAT_HEADER, f"system {self.system}"]
        if len(self.node_names) > 1:
            parts = "".join(f" {n}:{d}" for n, d in zip(self.node_names, self.node_dims))
            lines.append(f"composed{parts} external" + "".join(" " + n for n in self.external_names))
        eta, omega = " ".join(map(_g17, self.eta)), " ".join(map(_g17, self.omega)) or "-"
        lines += [
            f"tau {_g17(self.tau)} eta {eta} omega {omega} eps {_g17(self.eps)}",
            "epstilde" + nums(self.eps_tilde),
            "dblocks" + "".join(f" {s}:{n or '-'}" for s, n in zip(self.dist_blocks, self.dist_block_nodes)),
        ]
        for label, items in (("states", self.states), ("inputs", self.inputs), ("dists", self.dists)):
            lines += [f"{label} {len(items)}", *(f"{i}{nums(coords)}" for i, coords in enumerate(items))]
        return "\n".join([*lines, f"transitions {self.ood.size}\n"])

    def _blocks(self):
        """The text form up to the hash line, in blocks of whole lines: the
        header, then the transition lines "s u d -> [*] successors...",
        each line's format picked by its (flag, successor count)."""
        yield self._header()
        k = self.succ.shape[-1]
        rows, ood = self.succ.reshape(self.ood.size, k), self.ood.ravel()

        def lines(a, b):
            block = np.column_stack((*np.unravel_index(np.arange(a, b), self.ood.shape), rows[a:b]))
            kind = (ood[a:b] * (k + 1) + (rows[a:b] >= 0).sum(axis=1)).tolist()
            formats = {t: "%d %d %d ->" + " *" * (t // (k + 1)) + " %d" * (t % (k + 1)) + "\n" for t in set(kind)}
            return "".join([formats[t] for t in kind]), block[block >= 0]

        yield from _render(ood.size, lines)

    def serialize(self) -> str:
        body = "".join(self._blocks())
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_digest", digest)
        return body + f"hash {digest}\n"

    def content_hash(self) -> str:
        if "_digest" not in self.__dict__:
            self.serialize()
        return self._digest

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.serialize())


def deserialize(text: str) -> FiniteAbstraction:
    """Parse the serialized form back; verifies version and content hash.

    After the structure checks the text is compared, block by block, with
    what serialize writes for the parsed values: only that exact text is
    accepted, so a file that parses re-serializes to itself.
    """
    _check_framing(text, FORMAT_HEADER)
    body = text[: text.rfind("\n", 0, -1) + 1]  # all but the hash line
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if text[len(body) :] != f"hash {digest}\n":
        raise FormatError("missing or mismatched content hash (file corrupted?)")
    try:
        a = _parse_body(body)
        _check_lines(body, a._blocks())
    except (IndexError, ValueError, DeprecationWarning) as exc:
        raise FormatError(f"malformed abstraction file: {exc}") from None
    object.__setattr__(a, "_digest", digest)
    return a


def _parse_body(body) -> FiniteAbstraction:
    """Parse the header lines, up to the transitions count, and the table."""
    table = body.index("\n", body.index("\ntransitions ") + 1) + 1
    lines = body[:table].split("\n")
    system, pos = lines[1].split(" ", 1)[1], 2
    node_names, node_dims = (system,), None
    if lines[pos].startswith("composed "):
        toks = lines[pos].split()[1:]
        node_names, node_dims = zip(*(t.rsplit(":", 1) for t in toks[: toks.index("external")]))
        pos += 1
    toks = lines[pos].split()
    i_eta, i_om, i_eps = toks.index("eta"), toks.index("omega"), toks.index("eps")
    omega_toks = toks[i_om + 1 : i_eps]
    eta = tuple(map(float, toks[i_eta + 1 : i_om]))
    omega = tuple(map(float, [] if omega_toks == ["-"] else omega_toks))
    eps_tilde = tuple(map(float, lines[pos + 1].split()[1:]))
    tau, eps = float(toks[1]), float(toks[i_eps + 1])
    header = {"tau": (tau,), "eta": eta, "omega": omega, "eps": (eps,), "epstilde": eps_tilde}
    for label, values in header.items():
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{label} is not finite")
    blocks = [t.rsplit(":", 1) for t in lines[pos + 2].split()[1:]]
    sizes = tuple(int(b) for b, _ in blocks)
    if min(sizes, default=0) < 0:
        raise ValueError(f"disturbance block size {min(sizes)} is negative")
    sections, pos = [], pos + 3
    widths = (len(eta), len(omega), sum(sizes))
    for label, width in zip(("state", "input", "dist"), widths):
        count = int(lines[pos].split()[1])
        items = tuple(tuple(map(float, ln.split()[1:])) for ln in lines[pos + 1 : pos + 1 + count])
        for i, coords in enumerate(items):
            if len(coords) != width:
                raise ValueError(f"{label} {i} has {len(coords)} coordinates, expected {width}")
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"{label} {i} has a coordinate that is not finite")
        sections.append(items)
        pos += count + 1
    succ, ood = _parse_table(body[table:], tuple(map(len, sections)))
    return FiniteAbstraction(
        tau=tau,
        eta=eta,
        omega=omega,
        eps=eps,
        eps_tilde=eps_tilde,
        states=sections[0],
        inputs=sections[1],
        dists=sections[2],
        dist_blocks=sizes,
        dist_block_nodes=tuple("" if n == "-" else n for _, n in blocks),
        node_names=tuple(node_names),
        node_dims=tuple(map(int, node_dims)) if node_dims else (len(eta),),
        succ=succ,
        ood=ood,
    )


def _parse_table(table, shape):
    """(succ, ood) arrays of the transition lines; requires in-range indices,
    one line per (state, input, disturbance) triple and ascending successors."""
    end = -(10**18)  # one number stream: "s u d flag successors... end" per line
    flat = _ints(table.replace(" -> *", " 1").replace(" ->", " 0").replace("\n", f" {end} "))
    ends = np.flatnonzero(flat == end)
    starts = ends - np.diff(ends, prepend=-1) + 1
    width = ends - starts - 4
    keys, ood = flat[starts[:, None] + np.arange(3)], flat[starts + 3] == 1
    filled = np.arange(width.max(initial=0)) < width[:, None]
    at = np.where(filled, starts[:, None] + 4 + np.arange(filled.shape[1]), 0)
    succ = np.where(filled, flat[at], -1)
    for name, values, size in zip(
        ("state", "input", "disturbance", "successor"), (*keys.T, succ[filled]), (*shape, shape[0])
    ):
        if values.size and (values.min() < 0 or values.max() >= size):
            bad = values.min() if values.min() < 0 else values.max()
            raise FormatError(f"{name} index {bad} is outside 0..{size - 1}")
    triples = np.sort((keys[:, 0] * shape[1] + keys[:, 1]) * shape[2] + keys[:, 2])
    distinct = np.count_nonzero(np.diff(triples, prepend=-1))  # not np.unique, whose first call imports numpy.ma
    if distinct != len(ends):
        raise FormatError(f"duplicate transitions: {len(ends)} lines for {distinct} triples")
    if len(ends) != math.prod(shape):
        raise FormatError(f"incomplete transition table: {len(ends)} of {math.prod(shape)} "
                          "(state, input, disturbance) triples")
    if ((succ[:, 1:] <= succ[:, :-1]) & filled[:, 1:]).any():
        raise FormatError("successors are not strictly ascending")
    return succ.reshape(*shape, succ.shape[1]), ood.reshape(shape)


def read_abstraction(path) -> FiniteAbstraction:
    return deserialize(read_text(path, FormatError))


# ---------------------------------------------------------------------------
# construction

_WORKER_CTX = {}


def _init_worker(payload):
    _WORKER_CTX["payload"] = payload


def _transition_rows(grid: Lattice, box, endpoint, escaped):
    """Padded successor rows (cells, k) and out-of-domain flags (cells,)
    for the columns of endpoint.

    The successors of an endpoint are the lattice points within one pitch
    of it on every axis (up to GEOM_SLACK), in ascending index order.
    """
    h = np.array(grid.pitch)[:, None]
    kmin = np.array(grid.kmin)[:, None]
    klo = np.maximum(np.ceil((endpoint - h - GEOM_SLACK) / (2.0 * h)), kmin)
    khi = np.minimum(np.floor((endpoint + h + GEOM_SLACK) / (2.0 * h)), np.array(grid.kmax)[:, None])
    hit = (klo <= khi).all(axis=0)
    # offsets from kmin and range lengths - 1; a cell without successors
    # gets span -1 so that no offset pattern below is valid for it
    first = np.where(hit, klo - kmin, 0).astype(np.int64)
    span = np.where(hit, khi - klo, -1).astype(np.int64)
    counts = grid.axis_counts
    stride = np.array([math.prod(counts[a + 1 :]) for a in range(grid.dim)])[:, None]
    base = (first * stride).sum(axis=0)
    widest = span.max(axis=1, initial=0)
    succ, valid = [], []
    # row-major patterns: valid ones come out in ascending index order
    for pattern in itertools.product(*(range(m + 1) for m in widest)):
        j = np.array(pattern)[:, None]
        succ.append(base + (j * stride).sum(axis=0))
        valid.append((j <= span).all(axis=0))
    ood = (
        escaped
        | (endpoint < box[:, :1] - GEOM_SLACK).any(axis=0)
        | (endpoint > box[:, 1:] + GEOM_SLACK).any(axis=0)
    )
    return _pack(np.stack(succ, axis=1), np.stack(valid, axis=1)), ood


def _pack(succ, valid):
    """Rows of the valid entries of succ, ascending and padded with -1 to
    the widest row."""
    big = np.iinfo(np.int64).max
    rows = np.sort(np.where(valid, succ, big), axis=1)[:, : valid.sum(axis=1).max(initial=0)]
    rows[rows == big] = -1
    return rows


def _flow_chunk(payload, bounds):
    """Endpoints and escaped flags of the cells with flat index in [start, stop)."""
    sys, states, inputs, dists, tau, tol = payload
    si, rest = np.divmod(np.arange(*bounds), len(inputs) * len(dists))
    ui, di = np.divmod(rest, len(dists))
    res = flow_nominal(sys, states[si].T, inputs[ui].T, dists[di].T, tau, tol=tol)
    return res.endpoint, res.escaped


def _check_precisions(eps, eps_tilde, error):
    """Require eps and every eps_tilde component to be finite and nonnegative."""
    if not all(0.0 <= v < math.inf for v in (eps, *eps_tilde)):
        raise error(f"precisions must be finite and nonnegative, got eps {eps}, eps_tilde {eps_tilde}")


def _flow_chunk_worker(bounds):
    return _flow_chunk(_WORKER_CTX["payload"], bounds)


def build_abstraction(
    sys: SysModel,
    tau: float,
    eta,
    omega,
    dists=None,
    dist_blocks=None,
    dist_block_nodes=None,
    eps: float = 0.0,
    eps_tilde=(),
    max_cells: int = 250_000,
    workers: int = 1,
) -> FiniteAbstraction:
    """Build the finite abstraction of sys at sampling time tau.

    eta/omega are scalars or per-axis vectors; the state lattice must
    cover the domain (use snap_state_pitch to align).  dists is the list
    of disturbance symbols (default: the singleton zero vector).  eps and
    eps_tilde are recorded, not checked: the caller checks the pitches.
    """
    if not tau > 0:
        raise ParameterError(f"sampling period tau must be positive, got {tau}")
    _check_precisions(eps, tuple(eps_tilde), ParameterError)
    check_equilibrium(sys)
    grid = Lattice.create(sys.domain, eta)
    if min(grid.pitch) <= 0.0:
        raise ParameterError(f"state pitch eta must be positive on every axis, got {grid.pitch}")
    if not grid.covers():
        raise AbstractionError(
            "state lattice does not cover the domain; snap the pitch with snap_state_pitch"
        )
    eta_t = grid.pitch
    if sys.m > 0:
        ilat = input_lattice(sys.input_box, omega)
        if not ilat.covers():
            raise AbstractionError(
                "input lattice does not cover the input box; use snap_input_pitch"
            )
        omega_t = ilat.pitch
        inputs = tuple(ilat.points())
    else:
        omega_t = ()
        inputs = ((),)
    if dists is None:
        dists = (tuple(0.0 for _ in range(sys.p)),)
    else:
        dists = tuple(tuple(float(v) for v in d) for d in dists)
    if dist_blocks is None:
        dist_blocks = (1,) * sys.p
    if dist_block_nodes is None:
        dist_block_nodes = ("",) * len(dist_blocks)
    eps_tilde = tuple(float(v) for v in eps_tilde)

    cells = grid.count * len(inputs) * len(dists)
    if cells > max_cells:
        raise AbstractionError(f"abstraction needs {cells} cells, cap is {max_cells}")

    states = tuple(grid.points())
    tol = min(eta_t) / 10.0
    payload = (
        sys,
        np.array(states, float).reshape(len(states), sys.n),
        np.array(inputs, float).reshape(len(inputs), sys.m),
        np.array(dists, float).reshape(len(dists), sys.p),
        tau,
        tol,
    )
    box = sys.domain_array()
    bounds = [(a, min(a + FLOW_CHUNK, cells)) for a in range(0, cells, FLOW_CHUNK)]
    procs = min(workers, len(bounds))
    if procs <= 1:
        flows = [_flow_chunk(payload, b) for b in bounds]
    else:
        with Pool(procs, initializer=_init_worker, initargs=(payload,)) as pool:
            flows = pool.map(_flow_chunk_worker, bounds)
    endpoint = np.concatenate([np.empty((sys.n, 0)), *(e for e, _ in flows)], axis=1)
    escaped = np.concatenate([np.empty(0, bool), *(f for _, f in flows)])
    succ, ood = _transition_rows(grid, box, endpoint, escaped)
    shape = (len(states), len(inputs), len(dists))

    return FiniteAbstraction(
        tau=float(tau),
        eta=eta_t,
        omega=omega_t,
        eps=float(eps),
        eps_tilde=eps_tilde,
        states=states,
        inputs=inputs,
        dists=dists,
        dist_blocks=tuple(dist_blocks),
        dist_block_nodes=tuple(dist_block_nodes),
        node_names=(sys.name,),
        node_dims=(sys.n,),
        succ=succ.reshape(*shape, succ.shape[1]),
        ood=ood.reshape(shape),
    )
