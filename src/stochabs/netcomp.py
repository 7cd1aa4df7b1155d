"""Network machinery: neighbour sets, simultaneous parameter synthesis,
and composition of finite abstractions.

Each node's disturbance is the stacked state of its in-neighbours, so a
node's abstract disturbance alphabet is the product of the neighbours'
state lattices, and composing abstractions wires every node's coupling
blocks to the current product state while external blocks stay free.
Composition works on the parts' padded successor arrays: it gathers each
part's rows by broadcasting and encodes every combination of part
successors as the sum of part successor times part stride.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .certify import (
    BoundKit,
    QuadraticCertificate,
    derive_bounds,
    inf_diameter,
    neighbor_drift_bound,
    precision_lower_bound,
    search_input_pitch,
    verify_certificate,
)
from .errors import AbstractionError, CertificateError, ModelError, ParameterError
from .gridabs import FiniteAbstraction, Lattice, _pack, snap_input_pitch, snap_state_pitch
from .sysdsl import NetworkSpec

ETA_FLOOR = 1e-6  # smallest state pitch a synthesis accepts
VERIFY_SAMPLES = 2000  # points sampled by verified_kit when it cannot prove a certificate
MAX_SYMBOLS = 100_000  # largest disturbance alphabet of a node


def neighbors_of_set(spec: NetworkSpec, subset) -> tuple:
    """External in-neighbours of a subset (edges internal to it ignored)."""
    subset = set(subset)
    for i in subset:
        if not 0 <= i < len(spec.nodes):
            raise ModelError(f"unknown node index {i}")
    internal = {(j, i) for (j, i) in spec.edges if j in subset and i in subset}
    result = set()
    for i in subset:
        result.update(j for (j, k) in spec.edges - internal if k == i)
    return tuple(sorted(result))


def build_wtilde(spec: NetworkSpec, i: int, etas):
    """Disturbance alphabet of node i: the product of neighbour lattices.

    etas maps node index to that node's state pitch.  Returns
    (symbols, block_sizes, block_nodes); without neighbours the alphabet
    is the singleton zero vector.
    """
    nbrs = spec.neighbors(i)
    if not nbrs:
        p = spec.nodes[i].p
        return ((0.0,) * p,), (1,) * p, ("",) * p
    grids = [Lattice.create(spec.nodes[j].domain, etas[j]) for j in nbrs]
    total = math.prod(g.count for g in grids)
    if total > MAX_SYMBOLS:
        raise AbstractionError(f"disturbance alphabet needs {total} symbols, cap is {MAX_SYMBOLS}")
    symbols = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*[g.points() for g in grids])
    ]
    blocks = tuple(spec.nodes[j].n for j in nbrs)
    block_nodes = tuple(spec.node_names[j] for j in nbrs)
    return tuple(symbols), blocks, block_nodes


def eps_tilde_vec(spec: NetworkSpec, i: int, etas=None) -> np.ndarray:
    """Per-neighbour disturbance precision vector of node i.

    When etas is given, the selection hypothesis eta_j <= eps_j is
    enforced for every neighbour.
    """
    nbrs = spec.neighbors(i)
    if etas is not None:
        for j in nbrs:
            eta_j = etas[j]
            worst = max(eta_j) if np.iterable(eta_j) else eta_j
            if worst > spec.eps[j] + 1e-12:
                raise ModelError(
                    f"node {spec.node_names[j]!r}: pitch {worst} exceeds its precision {spec.eps[j]}"
                )
    return np.array([spec.eps[j] for j in nbrs], float)


@dataclass
class NodeSynthesis:
    name: str
    eps: float | None  # None until synthesize_node picks the default
    psi_tau: float
    eps_tilde_norm: float
    eps_floor: float = math.nan
    eta: tuple = ()  # per-axis pitch, () when infeasible
    omega: tuple = ()
    terms: dict = field(default_factory=dict)
    reason: str | None = None
    kit: BoundKit | None = None  # the gains derived from the verified certificate
    mode: str | None = None  # how the certificate was checked: linear-exact or sampled

    @property
    def feasible(self):  # every infeasible return says why
        return self.reason is None


@dataclass
class SynthesisResult:
    nodes: list

    @property
    def feasible(self):  # all-or-nothing
        return all(node.feasible for node in self.nodes)

    def etas(self):
        return {i: node.eta for i, node in enumerate(self.nodes)}


def verified_kit(sys, cert, seed=0):
    """Check cert: proved (linear-exact) when the drift is affine and the diffusion linear,
    else sampled at VERIFY_SAMPLES points.  Returns (mode, kit, reason): the kit of
    derive_bounds and None, or None and why cert was refuted."""
    try:
        report = verify_certificate(sys, cert, mode="linear-exact", seed=seed)
    except CertificateError:
        report = verify_certificate(sys, cert, mode="sampled", samples=VERIFY_SAMPLES, seed=seed)
    if not report.accepted:
        return report.mode, None, f"certificate refuted ({report.mode}, margin {report.margin:.3g})"
    return report.mode, derive_bounds(sys, cert), None


def synthesize_node(
    sys, cert, tau, eps=None, eps_tilde_norm=0.0, psi_tau=0.0, omega_cap=None, eta_cap=None, seed=0
) -> NodeSynthesis:
    """Pick (eta, omega) for one system at precision eps (None: max(1.25 floor, diameter / 4)).

    verified_kit checks the certificate.  After the floor test, the input
    pitch is halved from the input-box width (capped by omega_cap) until the
    state pitch bound clears ETA_FLOOR; the state pitch, capped by eps and
    eta_cap, and the input pitch are then snapped to lattices that cover
    their boxes.
    """
    if eps_tilde_norm < 0:
        raise ParameterError(f"disturbance mismatch norm must be nonnegative, got {eps_tilde_norm}")
    if omega_cap is not None and omega_cap <= 0:
        raise ParameterError(f"input pitch cap must be positive, got {omega_cap}")
    node = NodeSynthesis(sys.name, eps, psi_tau, eps_tilde_norm)
    node.mode, node.kit, node.reason = verified_kit(sys, cert, seed)
    if node.reason:
        return node
    kit = node.kit
    node.eps_floor = floor = precision_lower_bound(
        kit, sys, tau, eps_tilde_norm=eps_tilde_norm, psi_tau=psi_tau
    )
    if eps is None:
        node.eps = eps = max(1.25 * floor, 0.25 * inf_diameter(sys.domain))
    if eps <= floor:
        node.reason = f"precision target {eps} is not above the achievable floor {floor:.6g}"
        return node
    omega_max = min((hi - lo for lo, hi in sys.input_box), default=0.0)
    if omega_cap is not None:
        omega_max = min(omega_max, omega_cap) if omega_max > 0 else omega_cap
    omega, node.terms = search_input_pitch(
        kit, sys, tau, eps, omega_max, ETA_FLOOR, eps_tilde_norm=eps_tilde_norm, psi_tau=psi_tau
    )
    bound = node.terms["pitch_bound"]
    if bound < ETA_FLOOR:
        node.reason = f"no admissible state pitch above the floor (best bound {bound:.6g} at omega {omega:.6g})"
        return node
    eta_target = min(bound, eps) if eta_cap is None else min(bound, eps, eta_cap)
    node.eta = snap_state_pitch(sys.domain, eta_target)
    node.omega = snap_input_pitch(sys.input_box, omega) if sys.m else ()
    return node


def synthesize_params(spec: NetworkSpec, seed: int = 0) -> SynthesisResult:
    """synthesize_node for every node, under its neighbours' precision and
    drift bound and its declared caps.  All-or-nothing: one infeasible node
    makes the network infeasible (each is still reported)."""
    nodes = []
    for i, sys in enumerate(spec.nodes):
        etv = eps_tilde_vec(spec, i)
        etn = float(etv.max()) if etv.size else 0.0
        psi_tau = neighbor_drift_bound([spec.nodes[j] for j in spec.neighbors(i)], spec.tau)
        try:
            cert = QuadraticCertificate.from_model(sys)
        except CertificateError as exc:
            node = NodeSynthesis(sys.name, spec.eps[i], psi_tau, etn, reason=str(exc))
        else:
            node = synthesize_node(
                sys, cert, spec.tau, spec.eps[i], etn, psi_tau, spec.omega[i], spec.eta[i], seed
            )
        nodes.append(replace(node, name=spec.node_names[i]))
    return SynthesisResult(nodes)


def build_node_abstraction(
    spec: NetworkSpec, i: int, etas, omegas, max_cells: int = 250_000, workers: int = 1
) -> FiniteAbstraction:
    """Build node i's abstraction with its neighbour-product disturbances, at
    pitches that synthesize_params checked against the node's verified certificate."""
    # looked up per call: perfbench/layers.py traces gridabs.build_abstraction by attribute
    from .gridabs import build_abstraction

    sys = spec.nodes[i]
    symbols, blocks, block_nodes = build_wtilde(spec, i, etas)
    etv = eps_tilde_vec(spec, i, etas=etas)
    abs_i = build_abstraction(
        sys, spec.tau, etas[i], omegas[i] if sys.m else 0.0, dists=symbols, dist_blocks=blocks,
        dist_block_nodes=block_nodes, eps=spec.eps[i], eps_tilde=tuple(etv),
        max_cells=max_cells, workers=workers,
    )
    # Composition wires blocks by network node name, so label the part
    # with its node name rather than the underlying system name.
    return replace(abs_i, node_names=(spec.node_names[i],))


def composed_relation_params(spec: NetworkSpec, subset):
    """(eps, eps_tilde) for the composed relation over the subset."""
    subset = sorted(set(subset))
    if not subset:
        raise ModelError("empty composition subset")
    externals = neighbors_of_set(spec, subset)
    return max(spec.eps[i] for i in subset), tuple(spec.eps[j] for j in externals)


def compose_abstractions(spec: NetworkSpec, parts) -> FiniteAbstraction:
    """Compose disjoint abstraction parts over the network.

    Parts may be single-node abstractions or earlier compositions; the
    result is canonical (parts ordered by their smallest node index), so
    composing {a, b} then c equals composing {a, b, c} directly.  A product
    row holds every combination of one successor per part, ascending, and
    is out of domain when any part row is.
    """
    parts = list(parts)
    if not parts:
        raise ModelError("nothing to compose")
    name_to_idx = {n: i for i, n in enumerate(spec.node_names)}
    for part in parts:
        for n in part.node_names:
            if n not in name_to_idx:
                raise ModelError(f"abstraction node {n!r} is not in the network")
    parts.sort(key=lambda p: min(name_to_idx[n] for n in p.node_names))
    covered = [name_to_idx[n] for p in parts for n in p.node_names]
    if len(set(covered)) != len(covered):
        raise ModelError("parts overlap")
    if sorted(covered) != covered:
        raise ModelError("part node ordering is not ascending")
    taus = {p.tau for p in parts}
    if len(taus) != 1:
        raise ModelError(f"parts disagree on tau: {sorted(taus)}")

    subset = set(covered)
    externals = neighbors_of_set(spec, subset)
    part_of_node = {}
    for pi, part in enumerate(parts):
        offsets = np.cumsum([0, *part.node_dims]).tolist()
        for n, off, d in zip(part.node_names, offsets, part.node_dims):
            part_of_node[n] = (pi, off, d)

    # Free (external) disturbance lattices: the ordered distinct values of
    # the first block, over the parts in order, that couples to each node.
    block_grid = {}
    for part in parts:
        offsets = np.cumsum([0, *part.dist_blocks]).tolist()
        for node, off, size in zip(part.dist_block_nodes, offsets, part.dist_blocks):
            block_grid.setdefault(node, list(dict.fromkeys(sym[off : off + size] for sym in part.dists)))
    for j in externals:
        if spec.node_names[j] not in block_grid:
            raise ModelError(f"no part is coupled to external node {spec.node_names[j]!r}")
    ext_grid = [block_grid[spec.node_names[j]] for j in externals]
    ext_dims = [spec.nodes[j].n for j in externals]
    flatten = itertools.chain.from_iterable
    ext_symbols = [tuple(flatten(c)) for c in itertools.product(*ext_grid)]

    states = [tuple(flatten(c)) for c in itertools.product(*(p.states for p in parts))]
    inputs = [tuple(flatten(c)) for c in itertools.product(*(p.inputs for p in parts))]
    n_s, n_u, n_e = len(states), len(inputs), len(ext_symbols)
    s_of = np.unravel_index(np.arange(n_s), [len(p.states) for p in parts])
    u_of = np.unravel_index(np.arange(n_u), [len(p.inputs) for p in parts])
    coords = [np.array(p.states, float).reshape(len(p.states), p.dim) for p in parts]
    ext = np.array(ext_symbols, float).reshape(n_e, sum(ext_dims))
    ext_offset = dict(zip(externals, zip(np.cumsum([0, *ext_dims]).tolist(), ext_dims)))

    # Each part's disturbance symbol and its index, once per (product
    # state, external symbol): the states of the coupled nodes, or the
    # external symbol's block.
    dist_of = []
    for pi, part in enumerate(parts):
        pieces = [np.empty((n_s, n_e, 0))]
        for node in part.dist_block_nodes:
            if node in part_of_node:
                qi, off, dim = part_of_node[node]
                pieces.append(coords[qi][s_of[qi], None, off : off + dim])
            elif node and name_to_idx.get(node) in ext_offset:
                off, dim = ext_offset[name_to_idx[node]]
                pieces.append(ext[None, :, off : off + dim])
            else:
                raise ModelError(f"part {pi} has an unwireable disturbance block for {node!r}")
        w = np.concatenate([np.broadcast_to(q, (n_s, n_e, q.shape[-1])) for q in pieces], axis=-1)
        index = {sym: k for k, sym in enumerate(part.dists)}
        symbols = [tuple(v) for v in w.reshape(n_s * n_e, w.shape[-1]).tolist()]
        missing = [sym for sym in symbols if sym not in index]
        if missing:
            raise ModelError(f"wiring mismatch: part {pi} has no disturbance symbol {missing[0]}")
        dist_of.append(np.array([index[sym] for sym in symbols], int))
    dist_of = np.stack(dist_of, axis=-1).reshape(n_s, n_e, len(parts))

    # Product rows: every combination of one successor per part, encoded as
    # the sum of part successor times part stride; a combination that takes
    # a -1 pad is invalid.  Each part's row broadcasts along its own axis.
    succ, valid, ood = 0, True, False
    for pi, part in enumerate(parts):
        stride = math.prod(len(q.states) for q in parts[pi + 1 :])
        at = (s_of[pi][:, None, None], u_of[pi][None, :, None], dist_of[:, None, :, pi])
        rows = np.expand_dims(part.succ[at], tuple(3 + q for q in range(len(parts)) if q != pi))
        succ, valid = succ + rows * stride, valid & (rows >= 0)
        ood = ood | part.ood[at]
    succ = _pack(succ.reshape(n_s * n_u * n_e, -1), valid.reshape(n_s * n_u * n_e, -1))

    composed_eps, composed_et = composed_relation_params(spec, subset)
    return FiniteAbstraction(
        tau=parts[0].tau,
        eta=tuple(v for p in parts for v in p.eta),
        omega=tuple(v for p in parts for v in p.omega),
        eps=composed_eps,
        eps_tilde=composed_et,
        states=tuple(states),
        inputs=tuple(inputs),
        dists=tuple(ext_symbols),
        dist_blocks=tuple(ext_dims),
        dist_block_nodes=tuple(spec.node_names[j] for j in externals),
        node_names=tuple(n for p in parts for n in p.node_names),
        node_dims=tuple(d for p in parts for d in p.node_dims),
        succ=succ.reshape(n_s, n_u, n_e, succ.shape[1]),
        ood=ood,
    )
