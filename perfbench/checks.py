"""Output checks made apart from the program.

Nothing here imports stochabs.  Artifacts are read by a parser of this
file's own (which re-verifies the content hash), flows are recomputed
from drifts transcribed by hand, compositions are rebuilt from an
explicit wiring of the node tables, relations are checked clause by
clause, and Monte-Carlo output is compared with exact Euler-Maruyama
moment recursions and a straight-line transcription of the bound formula.
No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

#: Slack the program adds to lattice membership tests.
GEOM_SLACK = 1e-9
#: Tolerance on distance comparisons in the bisimulation clauses.
DIST_TOL = 1e-12


class CheckFailed(Exception):
    """An artifact disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# artifact readers


@dataclass
class Abs:
    """A parsed abstraction file."""

    node_names: tuple
    tau: float
    eta: tuple
    omega: tuple
    eps: float
    eps_tilde: tuple
    dist_blocks: tuple
    states: np.ndarray  # (S, n)
    inputs: np.ndarray  # (U, m)
    dists: np.ndarray  # (D, p)
    succ: dict  # (s, u, d) -> tuple of successor indices
    ood: dict  # (s, u, d) -> bool
    digest: str


def _sha256(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def read_abs(path) -> Abs:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(lines and lines[0] == "STOCHABS v1", f"{path}: bad header")
    require(lines[-1].startswith("hash "), f"{path}: no hash footer")
    digest = lines[-1].split()[1]
    require(_sha256("\n".join(lines[:-1]) + "\n") == digest, f"{path}: hash mismatch")
    rows = iter(lines[1:-1])

    node_names = (next(rows).split(None, 1)[1],)
    line = next(rows)
    if line.startswith("composed "):
        toks = line.split()[1:]
        node_names = tuple(t.rsplit(":", 1)[0] for t in toks[: toks.index("external")])
        line = next(rows)
    toks = line.split()
    require(toks[0] == "tau", f"{path}: no tau line")
    ie, io, ip = toks.index("eta"), toks.index("omega"), toks.index("eps")
    omega_toks = toks[io + 1 : ip]
    tau = float(toks[1])
    eta = tuple(float(v) for v in toks[ie + 1 : io])
    omega = () if omega_toks == ["-"] else tuple(float(v) for v in omega_toks)
    eps = float(toks[ip + 1])
    eps_tilde = tuple(float(v) for v in next(rows).split()[1:])
    dist_blocks = tuple(int(t.rsplit(":", 1)[0]) for t in next(rows).split()[1:])

    def table(label):
        head = next(rows).split()
        require(head[0] == label, f"{path}: expected {label} section")
        out = []
        for i in range(int(head[1])):
            toks = next(rows).split()
            require(int(toks[0]) == i, f"{path}: {label} out of order")
            out.append([float(v) for v in toks[1:]])
        return out

    states = np.array(table("states"), float)
    inputs = table("inputs")
    dists = table("dists")
    head = next(rows).split()
    require(head[0] == "transitions", f"{path}: expected transitions section")
    succ, ood = {}, {}
    for _ in range(int(head[1])):
        toks = next(rows).split()
        require(toks[3] == "->", f"{path}: bad transition line")
        key = (int(toks[0]), int(toks[1]), int(toks[2]))
        rest = toks[4:]
        flagged = bool(rest) and rest[0] == "*"
        succ[key] = tuple(int(v) for v in rest[1 if flagged else 0 :])
        ood[key] = flagged
    require(next(rows, None) is None, f"{path}: trailing lines")
    return Abs(
        node_names=node_names,
        tau=tau,
        eta=eta,
        omega=omega,
        eps=eps,
        eps_tilde=eps_tilde,
        dist_blocks=dist_blocks,
        states=states,
        inputs=np.array(inputs, float).reshape(len(inputs), -1),
        dists=np.array(dists, float).reshape(len(dists), -1),
        succ=succ,
        ood=ood,
        digest=digest,
    )


@dataclass
class Rel:
    left: str
    right: str
    eps: float
    eps_tilde: tuple
    pairs: set


def read_rel(path) -> Rel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(lines and lines[0] == "STOCHREL v1", f"{path}: bad header")
    count = int(lines[5].split()[1])
    pairs = {tuple(int(v) for v in line.split()) for line in lines[6:]}
    require(len(lines) == 6 + count and len(pairs) == count, f"{path}: pair count mismatch")
    return Rel(
        left=lines[1].split()[1],
        right=lines[2].split()[1],
        eps=float(lines[3].split()[1]),
        eps_tilde=tuple(float(v) for v in lines[4].split()[1:]),
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# lattices and successor tables


def axis_lattice(lo, hi, pitch, anchor=0.0):
    """Points anchor + 2*k*pitch inside [lo, hi] (with the program's slack)."""
    if pitch == 0.0:
        return np.array([anchor])
    kmin = math.ceil((lo - anchor - GEOM_SLACK) / (2.0 * pitch))
    kmax = math.floor((hi - anchor + GEOM_SLACK) / (2.0 * pitch))
    return anchor + 2.0 * pitch * np.arange(kmin, kmax + 1)


def strides(counts):
    """Row-major index weights: index = sum(k_i * strides_i), first axis slowest."""
    return [math.prod(counts[i + 1 :]) for i in range(len(counts))]


def grid_points(axes):
    """Row-major product of per-axis coordinates (first axis slowest)."""
    return np.array(list(product(*axes)), float).reshape(-1, len(axes))


def check_lattices(a: Abs, domain, input_box):
    """States and inputs must be exactly the covering lattices of the boxes."""
    axes = [axis_lattice(lo, hi, h) for (lo, hi), h in zip(domain, a.eta)]
    expect = grid_points(axes)
    require(a.states.shape == expect.shape, f"state count {a.states.shape} != {expect.shape}")
    require(np.allclose(a.states, expect, rtol=0, atol=1e-12), "state coordinates differ")
    if input_box:
        iaxes = [
            axis_lattice(lo, hi, w, anchor=0.5 * (lo + hi)) for (lo, hi), w in zip(input_box, a.omega)
        ]
        iexp = grid_points(iaxes)
        require(a.inputs.shape == iexp.shape, "input count differs from the input lattice")
        require(np.allclose(a.inputs, iexp, rtol=0, atol=1e-12), "input coordinates differ")
    keys = set(product(range(len(a.states)), range(len(a.inputs)), range(len(a.dists))))
    require(set(a.succ) == keys, "transition table is not complete")
    return axes


def check_successors(a: Abs, domain, axes, endpoints, escaped):
    """Compare recorded successors and out-of-domain flags with endpoints.

    endpoints has shape (S, U, D, n), escaped (S, U, D).  With
    delta = eta/10 + 1e-9 (the program's integration tolerance plus its
    slack), every recorded successor lies within eta + delta of the
    endpoint, every lattice point within eta - delta of it is recorded,
    and the flag agrees wherever the endpoint is more than delta from
    the box edge.
    """
    eta = np.asarray(a.eta)
    delta = eta / 10.0 + 1e-9
    box = np.asarray(domain, float)
    counts = [len(ax) for ax in axes]
    weights = strides(counts)
    flags_compared = flags_set = 0
    for key, succ in a.succ.items():
        e = endpoints[key]
        gap = [np.abs(ax - v) for ax, v in zip(axes, e)]
        outer = [set(np.nonzero(g <= h + d)[0]) for g, h, d in zip(gap, eta, delta)]
        inner = [np.nonzero(g <= h - d)[0] for g, h, d in zip(gap, eta, delta)]
        for s in succ:
            ks = [(s // st) % c for st, c in zip(weights, counts)]
            require(
                all(k in o for k, o in zip(ks, outer)),
                f"cell {key}: successor {s} is farther than eta+delta from the endpoint {e}",
            )
        got = set(succ)
        for combo in product(*inner):
            idx = int(sum(k * st for k, st in zip(combo, weights)))
            require(idx in got, f"cell {key}: lattice point {idx} near the endpoint {e} is missing")
        edge = np.minimum(np.abs(e - box[:, 0]), np.abs(e - box[:, 1]))
        if np.all(edge > delta):
            out = bool(escaped[key]) or bool(np.any((e < box[:, 0]) | (e > box[:, 1])))
            require(a.ood[key] == out, f"cell {key}: out-of-domain flag {a.ood[key]}, expected {out}")
            flags_compared += 1
            flags_set += out
    return {"cells": len(a.succ), "ood_compared": flags_compared, "ood_set": flags_set}


def rk4_flow(drift, x0, u, w, tau, steps, inflated):
    """Fixed-step RK4 over all rows at once; also flags rows leaving `inflated`."""
    x = np.array(x0, float)
    h = tau / steps
    escaped = np.zeros(x.shape[0], bool)
    for _ in range(steps):
        k1 = drift(x, u, w)
        k2 = drift(x + 0.5 * h * k1, u, w)
        k3 = drift(x + 0.5 * h * k2, u, w)
        k4 = drift(x + h * k3, u, w)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        escaped |= np.any((x < inflated[:, 0]) | (x > inflated[:, 1]), axis=1)
    return x, escaped


def inflate(domain, margin=0.5):
    box = np.asarray(domain, float)
    width = box[:, 1] - box[:, 0]
    return np.column_stack([box[:, 0] - margin * width, box[:, 1] + margin * width])


def grid2d_drift(x, u, w):
    """Hand transcription of perfbench/inputs/grid2d.sys."""
    x1, x2, u1, w1 = x[:, 0], x[:, 1], u[:, 0], w[:, 0]
    return np.stack([-x1 + 0.2 * np.tanh(x2) + u1, -2.0 * x2 + np.tanh(x1) - u1 + w1], axis=1)


def check_header(a: Abs, tau, eta, omega):
    require(a.tau == tau, f"tau {a.tau} != {tau}")
    require(np.allclose(a.eta, eta, rtol=1e-15, atol=0), f"eta {a.eta} != {eta}")
    require(np.allclose(a.omega, omega, rtol=1e-15, atol=0), f"omega {a.omega} != {omega}")


def check_flow_abstraction(a: Abs, drift, domain, input_box, tau, eta, omega, steps=256):
    """Re-integrate every cell of a single-system abstraction and compare."""
    check_header(a, tau, eta, omega)
    require(a.dists.shape[0] == 1 and not a.dists.any(), "expected the single zero disturbance")
    axes = check_lattices(a, domain, input_box)
    S, U, D = len(a.states), len(a.inputs), len(a.dists)
    si, ui, di = (g.ravel() for g in np.meshgrid(range(S), range(U), range(D), indexing="ij"))
    end, esc = rk4_flow(drift, a.states[si], a.inputs[ui], a.dists[di], tau, steps, inflate(domain))
    n = a.states.shape[1]
    return check_successors(a, domain, axes, end.reshape(S, U, D, n), esc.reshape(S, U, D))


def check_linear_node(a: Abs, gain, domain, input_box, tau, eta, omega):
    """Node x' = -x + u + gain*w: exact endpoint e^-tau x + (1-e^-tau)(u + gain w)."""
    check_header(a, tau, eta, omega)
    axes = check_lattices(a, domain, input_box)
    x = a.states[:, 0][:, None, None]
    u = a.inputs[:, 0][None, :, None]
    w = a.dists[:, 0][None, None, :]
    decay = math.exp(-tau)
    end = decay * x + (1.0 - decay) * (u + gain * w)
    infl = inflate(domain)
    # the path runs monotonically from x to its fixed point, so it leaves
    # the inflated box only if its endpoint does
    esc = (end < infl[0, 0]) | (end > infl[0, 1])
    return check_successors(a, domain, axes, end[..., None], esc)


def check_composition(comp: Abs, parts, in_nbrs, eps):
    """Rebuild the composed table from the node tables by explicit wiring.

    parts: node name -> Abs, in network order; in_nbrs: node name -> list
    of in-neighbour names in network order (a node's disturbance is their
    stacked states).  No node is external, so the composed system has the
    single empty disturbance symbol.
    """
    names = list(parts)
    require(comp.node_names == tuple(names), f"composed nodes {comp.node_names} != {names}")
    require(comp.eps == eps and comp.eps_tilde == (), "composed (eps, eps_tilde) differ")
    require(comp.dists.shape == (1, 0) and comp.dist_blocks == (), "expected no external disturbance")
    tabs = [parts[n] for n in names]
    counts = [len(t.states) for t in tabs]
    icounts = [len(t.inputs) for t in tabs]
    state_tuples = list(product(*[range(c) for c in counts]))
    input_tuples = list(product(*[range(c) for c in icounts]))
    require(len(comp.states) == len(state_tuples), "composed state count")
    require(len(comp.inputs) == len(input_tuples), "composed input count")
    for idx, combo in enumerate(state_tuples):
        coords = np.concatenate([t.states[k] for t, k in zip(tabs, combo)])
        require(np.array_equal(comp.states[idx], coords), f"composed state {idx} coordinates")
    for idx, combo in enumerate(input_tuples):
        coords = np.concatenate([t.inputs[k] for t, k in zip(tabs, combo)])
        require(np.array_equal(comp.inputs[idx], coords), f"composed input {idx} coordinates")

    pos = {n: i for i, n in enumerate(names)}
    dist_index = [{tuple(np.round(d, 12)): k for k, d in enumerate(t.dists)} for t in tabs]
    weights = strides(counts)
    for s_idx, s_combo in enumerate(state_tuples):
        wiring = []
        for i, name in enumerate(names):
            sym = np.concatenate([tabs[pos[j]].states[s_combo[pos[j]]] for j in in_nbrs[name]])
            d = dist_index[i].get(tuple(np.round(sym, 12)))
            require(d is not None, f"node {name} has no disturbance symbol {sym}")
            wiring.append(d)
        for u_idx, u_combo in enumerate(input_tuples):
            succs, flag = [], False
            for t, s, u, d in zip(tabs, s_combo, u_combo, wiring):
                succs.append(t.succ[(s, u, d)])
                flag = flag or t.ood[(s, u, d)]
            expect = tuple(sorted(sum(k * st for k, st in zip(c, weights)) for c in product(*succs)))
            key = (s_idx, u_idx, 0)
            require(comp.succ.get(key) == expect, f"composed transition {key} != wiring {expect}")
            require(comp.ood[key] == flag, f"composed flag at {key} != wiring")
    require(len(comp.succ) == len(state_tuples) * len(input_tuples), "extra composed transitions")
    return {"product_transitions": len(comp.succ)}


# ---------------------------------------------------------------------------
# disturbance bisimulation, clause by clause


def close_pairs(s1: Abs, s2: Abs, eps):
    """All (i, j) with |x_i - x_j|_inf <= eps: the candidates of clause (a)."""
    dist = np.abs(s1.states[:, None, :] - s2.states[None, :, :]).max(axis=2, initial=0.0)
    return set(zip(*(v.tolist() for v in np.nonzero(dist <= eps + DIST_TOL))))


class Clauses:
    """Conditions (a)-(c) of a disturbance bisimulation R between s1 and s2.

    (a) related states are eps-close; (b) for every input of s1 there is an
    input of s2 such that, for every admissible disturbance pair, every
    successor on the s1 side has a related successor on the s2 side; (c)
    the same with the roles of s1 and s2 exchanged.
    """

    def __init__(self, s1: Abs, s2: Abs, pairs, eps, eps_tilde):
        require(s1.dist_blocks == s2.dist_blocks, "disturbance blocks differ")
        self.s1, self.s2, self.eps = s1, s2, eps
        self.fwd, self.bwd = defaultdict(set), defaultdict(set)
        for i, j in pairs:
            self.add(i, j)
        limits = eps_tilde or (0.0,) * len(s1.dist_blocks)
        cuts = np.cumsum((0,) + s1.dist_blocks)
        self.adm = []
        for d1, w1 in enumerate(s1.dists):
            for d2, w2 in enumerate(s2.dists):
                gaps = [np.abs(w1[a:b] - w2[a:b]).max(initial=0.0) for a, b in zip(cuts, cuts[1:])]
                if all(g <= lim + DIST_TOL for g, lim in zip(gaps, limits)):
                    self.adm.append((d1, d2))

    def add(self, i, j):
        self.fwd[i].add(j)
        self.bwd[j].add(i)

    def discard(self, i, j):
        self.fwd[i].discard(j)
        self.bwd[j].discard(i)

    def _answers(self, i, j, u1, u2, flip):
        t1, t2 = self.s1.succ, self.s2.succ
        for d1, d2 in self.adm:
            a, b = t1[(i, u1, d1)], t2[(j, u2, d2)]
            if flip:
                if any(self.bwd[t].isdisjoint(a) for t in b):
                    return False
            elif any(self.fwd[s].isdisjoint(b) for s in a):
                return False
        return True

    def violation(self, i, j):
        """The first clause that fails at (i, j), or None."""
        gap = np.abs(self.s1.states[i] - self.s2.states[j]).max(initial=0.0)
        if gap > self.eps + DIST_TOL:
            return "a"
        n1, n2 = range(len(self.s1.inputs)), range(len(self.s2.inputs))
        if not all(any(self._answers(i, j, u1, u2, False) for u2 in n2) for u1 in n1):
            return "b"
        if not all(any(self._answers(i, j, u1, u2, True) for u1 in n1) for u2 in n2):
            return "c"
        return None


def check_relation_file(rel: Rel, s1: Abs, s2: Abs, eps, eps_tilde=()):
    require(rel.left == s1.digest and rel.right == s2.digest, "relation hashes do not match")
    require(rel.eps == eps and rel.eps_tilde == tuple(eps_tilde), "relation parameters differ")
    require(rel.pairs, "relation is empty")


def check_clauses(rel: Rel, s1: Abs, s2: Abs):
    """Every returned pair satisfies (a)-(c) with respect to the relation."""
    clauses = Clauses(s1, s2, rel.pairs, rel.eps, rel.eps_tilde)
    for pair in sorted(rel.pairs):
        bad = clauses.violation(*pair)
        require(bad is None, f"pair {pair} violates condition ({bad})")
    return {"pairs": len(rel.pairs)}


def refuted_additions(rel: Rel, s1: Abs, s2: Abs, pairs):
    """Pairs p for which R + {p} still satisfies (a)-(c) at p."""
    clauses = Clauses(s1, s2, rel.pairs, rel.eps, rel.eps_tilde)
    survivors = []
    for p in pairs:
        clauses.add(*p)
        if clauses.violation(*p) is None:
            survivors.append(p)
        clauses.discard(*p)
    return survivors


def check_maximality(rel: Rel, s1: Abs, s2: Abs, seed, sample=300):
    """For a seeded sample of removed candidates p, R + {p} fails at p."""
    removed = sorted(close_pairs(s1, s2, rel.eps) - rel.pairs)
    picked = random.Random(seed).sample(removed, min(sample, len(removed)))
    survivors = refuted_additions(rel, s1, s2, picked)
    require(not survivors, f"R is not maximal: adding {survivors[:1]} keeps (a)-(c) there")
    return {"candidates": len(removed) + len(rel.pairs), "removed": len(removed), "sampled": len(picked)}


def check_self_relation(rel: Rel, n_states):
    require(all((i, i) in rel.pairs for i in range(n_states)), "identity pair missing")
    require(all((j, i) in rel.pairs for i, j in rel.pairs), "relation is not symmetric")


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the scalar system


SCALAR_KAPPA = 0.875
SCALAR_SIGMA = 0.5  # diffusion sigma(x) = 0.5 x


def scalar_noise_gap(t, c=SCALAR_SIGMA, k=SCALAR_KAPPA):
    """Straight-line transcription of the noise-gap bound for f=-x+u+w,
    sigma=c*x, P=1, D=[-1,1], U=[-0.1,0.1], W=[-1,1]; trapezoid quadrature."""
    ainv = lambda y: 2.0 * y
    sigma_u = lambda s: s * s / k
    sigma_d = lambda s: s / k
    rho_u = lambda s: ainv(sigma_u(s) / k)
    rho_d = lambda s: ainv(sigma_d(s) / k)
    s_grid = np.linspace(0.0, t, 100_001)
    integrand = np.exp(-k * s_grid) * 1.0 + rho_u(0.1) + rho_d(1.0)
    integral = np.trapezoid(integrand, s_grid)
    return ainv(0.5 * 2.0 * 1 * 1 * math.exp(-k * t) * c * c * integral)


def read_report(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["check", "t", "empirical", "std-error", "bound", "verdict"],
            f"{path}: bad CSV header")
    return rows[1:]


def check_suites(report_dir, stdout, expected_rows):
    """Every suite passes, with the expected rows and zero diverged paths."""
    for suite, count in expected_rows.items():
        rows = read_report(Path(report_dir) / f"{suite}.csv")
        require(len(rows) == count, f"{suite}: {len(rows)} rows, expected {count}")
        bad = [r for r in rows if r[-1] != "pass"]
        require(not bad, f"{suite}: failing row {bad[:1]}")
        line = f"{suite}: pass ({count} rows, diverged 0,"
        require(line in stdout, f"{suite}: stage output lacks {line!r}")


def check_moment_bound_column(report_dir, tau):
    rows = read_report(Path(report_dir) / "moment_closeness.csv")
    times = [tau * f for f in (0.25, 0.5, 1.0)]
    require([r[1] for r in rows] == [f"{t:.6g}" for t in times], "moment_closeness times differ")
    for r, t in zip(rows, times):
        want = scalar_noise_gap(t)
        require(math.isclose(float(r[4]), want, rel_tol=1e-6),
                f"moment_closeness bound at t={t}: {r[4]} vs transcription {want:.10g}")


def check_em_moments(values, x0, tau, steps, checkpoints, c=SCALAR_SIGMA, z=4.0):
    """Ensemble moments of x' = -x dt + c x dB (u = w = 0) against the exact
    Euler-Maruyama recursions E[x_{k+1}] = (1-dt) E[x_k] and
    E[x_{k+1}^2] = ((1-dt)^2 + c^2 dt) E[x_k^2], within z standard errors."""
    dt = tau / steps
    n = values.shape[0]
    worst = 0.0
    for col, k in enumerate(checkpoints):
        x = values[:, col, 0]
        if k == 0:
            require(np.all(x == x0), "ensemble does not start at x0")
            continue
        for power, factor in ((1, 1.0 - dt), (2, (1.0 - dt) ** 2 + c * c * dt)):
            sample = x**power
            want = factor**k * x0**power
            se = float(sample.std(ddof=1)) / math.sqrt(n)
            dev = abs(float(sample.mean()) - want)
            require(dev <= z * se + 1e-12,
                    f"moment {power} at step {k}: {sample.mean():.8g} vs {want:.8g} (se {se:.3g})")
            worst = max(worst, dev / se)
    return {"worst_z": round(worst, 3)}
