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
deterministic and byte-identical across worker counts.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import warnings
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .errors import AbstractionError, FormatError, ParameterError
from .sysdsl import SysModel, check_equilibrium

#: Absolute slack on lattice membership and successor tests; prevents
#: platform-dependent boundary flicker at exact ties.
GEOM_SLACK = 1e-9

FORMAT_HEADER = "STOCHABS v1"

#: Cells integrated together by build_abstraction; bounds the flow
#: kernel's working arrays whatever the abstraction size.
FLOW_CHUNK = 8192


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


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

    def quantize_k(self, point):
        """Nearest lattice indices; exact midpoints round toward +infinity."""
        out = []
        for v, a, h in zip(point, self.anchor, self.pitch):
            if h == 0.0:
                out.append(0)
            else:
                out.append(math.floor((v - a) / (2.0 * h) + 0.5))
        return tuple(out)

    def quantize(self, point, clip=False):
        """Nearest lattice point (optionally clipped into the box range)."""
        kvec = self.quantize_k(point)
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
    escaped; the drift is never evaluated at its later points.
    """
    out = np.empty_like(x)
    escaped = np.zeros(x.shape[1], bool)
    live = np.arange(x.shape[1])
    esc = escaped.copy()
    h = tau / steps
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
    domain_margin: float = 0.5,
) -> FlowResult:
    """Integrate the noise-free dynamics over [0, tau] with fixed-step RK4.

    x0 is one state (n,) or a batch of cells (n, *cells); u and w are one
    vector for all cells (or None for zero) or per-cell arrays (m, *cells)
    and (p, *cells).  Each cell doubles its step count until its
    step-doubling error estimate drops below tol, then stops; fixed steps
    keep results reproducible across platforms, and a cell's result does
    not depend on the batch it is in.  A trajectory leaving the domain
    inflated by domain_margin (fraction of the box width per side) is
    flagged escaped, not an error.
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
    lo = (box[:, 0] - domain_margin * width)[:, None]
    hi = (box[:, 1] + domain_margin * width)[:, None]

    endpoint = np.empty_like(x0)
    escaped = np.zeros(count, bool)
    taken = np.zeros(count, np.int64)
    todo = np.arange(count)
    steps = substeps
    coarse, _ = _integrate(sys, x0, u, w, tau, steps, lo, hi)
    while True:
        fine, esc = _integrate(sys, x0, u, w, tau, 2 * steps, lo, hi)
        ok = np.isfinite(fine).all(axis=0)
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


@dataclass
class FiniteAbstraction:
    """Countable deterministic transition system over lattice points.

    transitions maps (state, input, disturbance) index triples to a pair
    (successor index tuple sorted ascending, out-of-domain flag).  The
    disturbance vectors split into blocks (dist_blocks gives the sizes,
    dist_block_nodes the supplying node name or '' when free); the
    vector metric between two disturbance values is the per-block
    infinity norm.
    """

    system: str
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
    external_names: tuple
    transitions: dict

    @property
    def dim(self):
        return sum(self.node_dims)

    def successor_counts(self):
        return [len(succ) for succ, _ in self.transitions.values()]

    def serialize(self) -> str:
        lines = [FORMAT_HEADER, f"system {self.system}"]
        if len(self.node_names) > 1:
            parts = [f"{n}:{d}" for n, d in zip(self.node_names, self.node_dims)]
            ext = [str(n) for n in self.external_names]
            lines.append("composed " + " ".join(parts) + " external" + ("" if not ext else " " + " ".join(ext)))
        lines.append(
            "tau "
            + _g17(self.tau)
            + " eta "
            + " ".join(_g17(v) for v in self.eta)
            + " omega "
            + (" ".join(_g17(v) for v in self.omega) if self.omega else "-")
            + " eps "
            + _g17(self.eps)
        )
        lines.append("epstilde" + "".join(" " + _g17(v) for v in self.eps_tilde))
        lines.append(
            "dblocks"
            + "".join(
                f" {s}:{n if n else '-'}" for s, n in zip(self.dist_blocks, self.dist_block_nodes)
            )
        )
        for label, items in (("states", self.states), ("inputs", self.inputs), ("dists", self.dists)):
            lines.append(f"{label} {len(items)}")
            for i, coords in enumerate(items):
                lines.append(f"{i}" + "".join(" " + _g17(c) for c in coords))
        lines.append(f"transitions {len(self.transitions)}")
        for (si, ui, di) in sorted(self.transitions):
            succ, ood = self.transitions[(si, ui, di)]
            mark = " *" if ood else ""
            lines.append(f"{si} {ui} {di} ->{mark}" + "".join(f" {s}" for s in succ))
        body = "\n".join(lines) + "\n"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return body + f"hash {digest}\n"

    def content_hash(self) -> str:
        return self.serialize().rsplit("hash ", 1)[1].strip()

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.serialize())


def deserialize(text: str) -> FiniteAbstraction:
    """Parse the serialized form back; verifies version and content hash."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise FormatError(f"bad header (expected {FORMAT_HEADER!r})")
    if not lines[-1].startswith("hash "):
        raise FormatError("missing hash footer")
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    stated = lines[-1].split()[1]
    if digest != stated:
        raise FormatError("content hash mismatch (file corrupted?)")
    try:
        return _parse_body(lines)
    except (IndexError, ValueError) as exc:
        raise FormatError(f"malformed abstraction file: {exc}") from None


def _parse_body(lines) -> FiniteAbstraction:
    pos = 1

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("truncated file")
        line = lines[pos]
        pos += 1
        return line

    line = take()
    if not line.startswith("system "):
        raise FormatError("missing system line")
    system = line.split(None, 1)[1]
    node_names, node_dims, external = (system,), None, ()
    if lines[pos].startswith("composed "):
        toks = take().split()[1:]
        cut = toks.index("external")
        pairs = [t.rsplit(":", 1) for t in toks[:cut]]
        node_names = tuple(p[0] for p in pairs)
        node_dims = tuple(int(p[1]) for p in pairs)
        external = tuple(toks[cut + 1 :])
    toks = take().split()
    if not toks or toks[0] != "tau":
        raise FormatError("missing tau line")
    i_eta = toks.index("eta")
    i_om = toks.index("omega")
    i_eps = toks.index("eps")
    tau = float(toks[1])
    eta = tuple(float(v) for v in toks[i_eta + 1 : i_om])
    omega_toks = toks[i_om + 1 : i_eps]
    omega = () if omega_toks == ["-"] else tuple(float(v) for v in omega_toks)
    eps = float(toks[i_eps + 1])
    toks = take().split()
    if toks[0] != "epstilde":
        raise FormatError("missing epstilde line")
    eps_tilde = tuple(float(v) for v in toks[1:])
    toks = take().split()
    if toks[0] != "dblocks":
        raise FormatError("missing dblocks line")
    dist_blocks, dist_block_nodes = [], []
    for t in toks[1:]:
        size, node = t.rsplit(":", 1)
        dist_blocks.append(int(size))
        dist_block_nodes.append("" if node == "-" else node)

    def section(label):
        toks = take().split()
        if len(toks) != 2 or toks[0] != label:
            raise FormatError(f"missing {label} section")
        items = []
        for i in range(int(toks[1])):
            parts = take().split()
            if int(parts[0]) != i:
                raise FormatError(f"{label} indices out of order")
            items.append(tuple(float(v) for v in parts[1:]))
        return tuple(items)

    states = section("states")
    inputs = section("inputs")
    dists = section("dists")
    if node_dims is None:
        node_dims = (len(states[0]) if states else len(eta),)
    toks = take().split()
    if len(toks) != 2 or toks[0] != "transitions":
        raise FormatError("missing transitions section")
    transitions = {}
    for _ in range(int(toks[1])):
        parts = take().split()
        if len(parts) < 4 or parts[3] != "->":
            raise FormatError(f"bad transition line: {' '.join(parts)}")
        si, ui, di = int(parts[0]), int(parts[1]), int(parts[2])
        rest = parts[4:]
        ood = bool(rest) and rest[0] == "*"
        if ood:
            rest = rest[1:]
        transitions[(si, ui, di)] = (tuple(int(v) for v in rest), ood)
    return FiniteAbstraction(
        system=system,
        tau=tau,
        eta=eta,
        omega=omega,
        eps=eps,
        eps_tilde=eps_tilde,
        states=states,
        inputs=inputs,
        dists=dists,
        dist_blocks=tuple(dist_blocks),
        dist_block_nodes=tuple(dist_block_nodes),
        node_names=node_names,
        node_dims=node_dims,
        external_names=external,
        transitions=transitions,
    )


def read_abstraction(path) -> FiniteAbstraction:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


# ---------------------------------------------------------------------------
# construction

_WORKER_CTX = {}


def _init_worker(payload):
    _WORKER_CTX["payload"] = payload


def _transition_rows(grid: Lattice, box, endpoint, escaped):
    """(successors, out-of-domain flag) for each column of endpoint.

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
    succ, valid = np.stack(succ, axis=1), np.stack(valid, axis=1)
    ood = (
        escaped
        | (endpoint < box[:, :1] - GEOM_SLACK).any(axis=0)
        | (endpoint > box[:, 1:] + GEOM_SLACK).any(axis=0)
    )
    flat = succ[valid].tolist()
    rows, at = [], 0
    for stop, flag in zip(np.cumsum(valid.sum(axis=1)).tolist(), ood.tolist()):
        rows.append((tuple(flat[at:stop]), flag))
        at = stop
    return rows


def _flow_chunk(payload, bounds):
    """Endpoints and escaped flags of the cells with flat index in [start, stop)."""
    sys, states, inputs, dists, tau, substeps, tol = payload
    si, rest = np.divmod(np.arange(*bounds), len(inputs) * len(dists))
    ui, di = np.divmod(rest, len(dists))
    res = flow_nominal(sys, states[si].T, inputs[ui].T, dists[di].T, tau, substeps=substeps, tol=tol)
    return res.endpoint, res.escaped


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
    cert=None,
    psi_tau: float = 0.0,
    force: bool = False,
    max_cells: int = 250_000,
    workers: int = 1,
    substeps: int = 16,
) -> FiniteAbstraction:
    """Build the finite abstraction of sys at sampling time tau.

    eta/omega are scalars or per-axis vectors; the state lattice must
    cover the domain (use snap_state_pitch to align).  dists is the list
    of disturbance symbols (default: the singleton zero vector).  When a
    certificate and eps are supplied, eta is validated against the pitch
    bound unless force is set (then a warning is emitted).
    """
    if not tau > 0:
        raise ParameterError(f"sampling period tau must be positive, got {tau}")
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

    if cert is not None and eps > 0.0:
        from .certify import derive_bounds, pitch_upper_bound

        kit = derive_bounds(sys, cert)
        etn = max(eps_tilde) if eps_tilde else 0.0
        bound = pitch_upper_bound(
            kit, sys, tau, eps, max(omega_t) if omega_t else 0.0, eps_tilde_norm=etn, psi_tau=psi_tau
        )
        if max(eta_t) > bound + 1e-12:
            msg = f"pitch {max(eta_t)} exceeds the admissible bound {bound}"
            if not force:
                raise AbstractionError(msg + " (pass force=True to build anyway)")
            warnings.warn(msg + "; building anyway", stacklevel=2)

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
        substeps,
        tol,
    )
    box = sys.domain_array()
    keys = itertools.product(range(len(states)), range(len(inputs)), range(len(dists)))
    bounds = [(a, min(a + FLOW_CHUNK, cells)) for a in range(0, cells, FLOW_CHUNK)]

    def rows(flows):
        for endpoint, escaped in flows:
            yield from _transition_rows(grid, box, endpoint, escaped)

    procs = min(workers, len(bounds))
    if procs <= 1:
        transitions = dict(zip(keys, rows(_flow_chunk(payload, b) for b in bounds)))
    else:
        with Pool(procs, initializer=_init_worker, initargs=(payload,)) as pool:
            transitions = dict(zip(keys, rows(pool.imap(_flow_chunk_worker, bounds))))

    return FiniteAbstraction(
        system=sys.name,
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
        external_names=(),
        transitions=transitions,
    )
