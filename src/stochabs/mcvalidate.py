"""Seeded Euler-Maruyama simulation and Monte-Carlo validation of the
moment bounds.

Each path draws its Gaussian increments from a stream derived from
(master seed, path index), so any single path can be reproduced in
isolation bit-exactly and results do not depend on how paths are grouped
into chunks.  Statistical verdicts use a one-sided 3-standard-error
allowance: the checked inequalities are upper bounds, so sampling noise
may excuse a small overshoot but never a systematic violation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .certify import BoundKit, QuadraticCertificate, increment_constant, noise_gap_bound
from .gridabs import FiniteAbstraction, flow_nominal, input_lattice
from .sysdsl import SysModel

_DIVERGE_LIMIT = 1e9


def _path_noise(seed, path_index, steps, r):
    rng = np.random.default_rng([int(seed), int(path_index)])
    return rng.standard_normal((steps, r))


@dataclass
class EMPath:
    states: np.ndarray  # (steps + 1, n)
    diverged_at: int | None  # first non-finite step, or None

    @property
    def diverged(self):
        return self.diverged_at is not None


def simulate_em(sys: SysModel, x0, u, w, tau, steps, seed, path_index=0) -> EMPath:
    """One Euler-Maruyama path with the (seed, path_index) noise stream.

    u and w are constant vectors or callables of time.  A non-finite or
    exploding state freezes the path and records the offending step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = tau / steps
    sdt = math.sqrt(dt)
    ufun = u if callable(u) else (lambda t, _v=np.atleast_1d(np.asarray(u, float)): _v)
    wfun = w if callable(w) else (lambda t, _v=np.atleast_1d(np.asarray(w, float)): _v)
    z = _path_noise(seed, path_index, steps, sys.r)
    out = np.empty((steps + 1, sys.n))
    x = np.atleast_1d(np.asarray(x0, float)).copy()
    out[0] = x
    diverged_at = None
    for k in range(steps):
        t = k * dt
        f = sys.drift_eval(x, ufun(t), wfun(t))
        s = sys.diffusion_eval(x)
        x = x + f * dt + s @ (sdt * z[k])
        if not np.all(np.isfinite(x)) or np.abs(x).max() > _DIVERGE_LIMIT:
            diverged_at = k + 1
            out[k + 1 :] = out[k]
            return EMPath(states=out, diverged_at=diverged_at)
        out[k + 1] = x
    return EMPath(states=out, diverged_at=None)


def _constant_rows(value, dim, n_paths):
    arr = np.asarray(value, float)
    if arr.ndim <= 1:
        arr = np.broadcast_to(np.atleast_1d(arr), (n_paths, dim))
    if arr.shape != (n_paths, dim):
        raise ValueError(f"expected shape ({n_paths}, {dim}), got {arr.shape}")
    return np.ascontiguousarray(arr)


def simulate_ensemble(
    sys: SysModel,
    x0,
    u,
    w,
    tau,
    steps,
    n_paths,
    seed,
    checkpoint_steps,
    chunk=4096,
    pair_with=None,
):
    """Vectorized ensemble; returns (values, diverged mask).

    x0/u/w may be single vectors or per-path (n_paths, dim) arrays of
    constants.  values has shape (n_paths, len(checkpoint_steps), n).
    pair_with, when given, is a second (x0, u, w) configuration evolved
    with the *same* noise; values then gains a leading axis of size 2.
    """
    dt = tau / steps
    sdt = math.sqrt(dt)
    configs = [(x0, u, w)] + ([pair_with] if pair_with is not None else [])
    ckpt = {int(s): idx for idx, s in enumerate(checkpoint_steps)}
    values = np.empty((len(configs), n_paths, len(checkpoint_steps), sys.n))
    diverged = np.zeros(n_paths, bool)

    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        count = stop - start
        z = np.empty((count, steps, sys.r))
        for k in range(count):
            z[k] = _path_noise(seed, start + k, steps, sys.r)
        states = []
        for ci, (cx, cu, cw) in enumerate(configs):
            xs = _constant_rows(cx, sys.n, n_paths)[start:stop].copy()
            us = _constant_rows(cu, sys.m, n_paths)[start:stop]
            ws = _constant_rows(cw, sys.p, n_paths)[start:stop]
            states.append([xs, us, ws])
            if 0 in ckpt:
                values[ci, start:stop, ckpt[0]] = xs
        alive = np.ones(count, bool)
        for k in range(steps):
            zk = z[:, k]
            for ci, (xs, us, ws) in enumerate(states):
                f = sys.drift_eval(xs.T, us.T, ws.T).T
                s = sys.diffusion_eval(xs.T)
                # same association as the single-path integrator, so any
                # path is bit-exactly reproducible in isolation
                nxt = xs + f * dt + np.einsum("irc,cr->ci", s, sdt * zk)
                bad = ~np.all(np.isfinite(nxt), axis=1) | (
                    np.abs(nxt).max(axis=1, initial=0.0) > _DIVERGE_LIMIT
                )
                move = alive & ~bad
                xs[move] = nxt[move]
                newly = alive & bad
                if newly.any():
                    diverged[start:stop] |= newly
                    alive = alive & ~bad
            if (k + 1) in ckpt:
                for ci, (xs, _, _) in enumerate(states):
                    values[ci, start:stop, ckpt[k + 1]] = xs
    if pair_with is None:
        return values[0], diverged
    return values, diverged


# ---------------------------------------------------------------------------
# reports

@dataclass
class BoundRow:
    check: str
    label: str
    empirical: float
    std_error: float
    bound: float
    passed: bool


@dataclass
class BoundReport:
    check: str
    rows: list = field(default_factory=list)
    n_paths: int = 0
    diverged: int = 0
    skipped: int = 0

    @property
    def passed(self):
        if self.n_paths and self.diverged > 0.01 * self.n_paths:
            return False
        return all(r.passed for r in self.rows)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["check", "t", "empirical", "std-error", "bound", "verdict"])
            for r in self.rows:
                wr.writerow(
                    [r.check, r.label, f"{r.empirical:.10g}", f"{r.std_error:.10g}",
                     f"{r.bound:.10g}", "pass" if r.passed else "FAIL"]
                )


def _mean_se(samples):
    samples = np.asarray(samples, float)
    n = samples.size
    if n == 0:
        return math.nan, math.inf
    mean = float(samples.mean())
    if n == 1:
        return mean, 0.0
    return mean, float(samples.std(ddof=1) / math.sqrt(n))


def _integration_slack(dt, x_scale):
    # Deterministic Euler-vs-RK4 discrepancy allowance; only material when
    # the theoretical bound is exactly zero (no diffusion).
    return (10.0 * dt * (1.0 + x_scale)) ** 2


def _checkpoint_steps(steps, fractions):
    out = []
    for f in fractions:
        k = round(steps * f)
        if abs(k - steps * f) > 1e-9:
            raise ValueError(f"steps={steps} does not divide checkpoint fraction {f}")
        out.append(k)
    return out


def validate_moment_closeness(
    sys: SysModel,
    kit: BoundKit,
    x0,
    tau,
    n_paths=10_000,
    seed=0,
    u=None,
    w=None,
    steps=2048,
    dist_box=None,
) -> BoundReport:
    """Gap between noisy and noise-free trajectories vs its bound.

    Checks E[|xi(t) - xibar(t)|^2] (infinity norm) at t in
    {tau/4, tau/2, tau} under matched constant inputs and disturbances.
    """
    u = np.zeros(sys.m) if u is None else np.atleast_1d(np.asarray(u, float))
    w = np.zeros(sys.p) if w is None else np.atleast_1d(np.asarray(w, float))
    x0 = np.atleast_1d(np.asarray(x0, float))
    steps += (-steps) % 4
    ckpt = _checkpoint_steps(steps, (0.25, 0.5, 1.0))
    vals, diverged = simulate_ensemble(sys, x0, u, w, tau, steps, n_paths, seed, ckpt)
    ok = ~diverged
    dt = tau / steps
    slack = _integration_slack(dt, float(np.abs(x0).max(initial=0.0)))
    report = BoundReport(check="moment_closeness", n_paths=n_paths, diverged=int(diverged.sum()))
    for idx, ks in enumerate(ckpt):
        t = ks * dt
        ref = flow_nominal(sys, x0, u, w, t, tol=1e-12).endpoint
        gap = np.abs(vals[ok, idx, :] - ref).max(axis=1) ** 2
        mean, se = _mean_se(gap)
        bound = noise_gap_bound(kit, sys, t, dist_box=dist_box)
        report.rows.append(
            BoundRow(
                check=report.check,
                label=f"{t:.6g}",
                empirical=mean,
                std_error=se,
                bound=bound,
                passed=mean <= bound + 3.0 * se + slack,
            )
        )
    return report


def validate_increment_bound(
    sys: SysModel,
    x0,
    tau,
    n_paths=10_000,
    seed=0,
    u=None,
    w=None,
    steps=2048,
) -> BoundReport:
    """Mean-square increments E[|xi(t) - xi(s)|_2^2] vs C|t - s|.

    Checked on the 5x5 grid of times in [0, tau].
    """
    u = np.zeros(sys.m) if u is None else u
    w = np.zeros(sys.p) if w is None else w
    x0 = np.atleast_1d(np.asarray(x0, float))
    steps += (-steps) % 4
    ckpt = _checkpoint_steps(steps, (0.0, 0.25, 0.5, 0.75, 1.0))
    vals, diverged = simulate_ensemble(sys, x0, u, w, tau, steps, n_paths, seed, ckpt)
    ok = ~diverged
    dt = tau / steps
    c = increment_constant(sys, float((x0**2).sum()), tau)
    report = BoundReport(check="increment_bound", n_paths=n_paths, diverged=int(diverged.sum()))
    for i, ks in enumerate(ckpt):
        for j, kt in enumerate(ckpt):
            if kt < ks:
                continue
            s_t, t_t = ks * dt, kt * dt
            inc = ((vals[ok, j, :] - vals[ok, i, :]) ** 2).sum(axis=1)
            mean, se = _mean_se(inc)
            bound = c * (t_t - s_t)
            report.rows.append(
                BoundRow(
                    check=report.check,
                    label=f"({s_t:.6g},{t_t:.6g})",
                    empirical=mean,
                    std_error=se,
                    bound=bound,
                    passed=mean <= bound + 3.0 * se,
                )
            )
    return report


def validate_delta_iss(
    sys: SysModel,
    kit: BoundKit,
    tau,
    a,
    a2,
    u,
    u2,
    w,
    w2,
    n_paths=10_000,
    seed=0,
    steps=2048,
) -> BoundReport:
    """Trajectory contraction under mismatched starts/inputs/disturbances.

    Two ensembles share the Brownian increments path by path; the
    mean-square distance is compared with the decay envelope plus the
    mismatch offsets at four checkpoints.
    """
    a = np.atleast_1d(np.asarray(a, float))
    a2 = np.atleast_1d(np.asarray(a2, float))
    steps += (-steps) % 4
    ckpt = _checkpoint_steps(steps, (0.25, 0.5, 0.75, 1.0))
    vals, diverged = simulate_ensemble(
        sys, a, u, w, tau, steps, n_paths, seed, ckpt, pair_with=(a2, u2, w2)
    )
    ok = ~diverged
    dt = tau / steps
    da = float(np.abs(a - a2).max(initial=0.0)) ** 2
    du = float(np.abs(np.atleast_1d(np.asarray(u, float)) - np.atleast_1d(np.asarray(u2, float))).max(initial=0.0))
    dw = float(np.abs(np.atleast_1d(np.asarray(w, float)) - np.atleast_1d(np.asarray(w2, float))).max(initial=0.0)) ** 2
    offset = kit.rho_u(du) + kit.rho_d(dw)
    report = BoundReport(check="delta_iss", n_paths=n_paths, diverged=int(diverged.sum()))
    for idx, ks in enumerate(ckpt):
        t = ks * dt
        dist = np.abs(vals[0][ok, idx, :] - vals[1][ok, idx, :]).max(axis=1) ** 2
        mean, se = _mean_se(dist)
        bound = kit.beta(da, t) + offset
        report.rows.append(
            BoundRow(
                check=report.check,
                label=f"{t:.6g}",
                empirical=mean,
                std_error=se,
                bound=bound,
                passed=mean <= bound + 3.0 * se,
            )
        )
    return report


def validate_bisim_step(
    sys: SysModel,
    cert: QuadraticCertificate,
    kit: BoundKit,
    abstraction: FiniteAbstraction,
    eps,
    eps_tilde_norm=0.0,
    n_pairs=100,
    paths_per_pair=100,
    seed=0,
    steps=2048,
) -> BoundReport:
    """One-step invariance of the certificate relation, empirically.

    Samples related pairs (abstract state, concrete point), matches the
    concrete input to its nearest quantized input and the disturbances
    within the declared mismatch, then checks that E[V(next abstract
    state, xi(tau))] stays within the relation threshold.
    """
    rng = np.random.default_rng([int(seed), 0x5AFE])
    level = kit.alpha_low(eps**2)
    box = sys.domain_array()
    states = np.asarray(abstraction.states, float)
    ilat = input_lattice(sys.input_box, abstraction.omega) if sys.m else None
    dists = abstraction.dists
    tau = abstraction.tau

    x0s = np.empty((n_pairs, sys.n))
    us = np.empty((n_pairs, sys.m))
    ws = np.empty((n_pairs, sys.p))
    targets = np.empty((n_pairs, sys.n))
    flow_cache = {}
    input_index = {coords: k for k, coords in enumerate(abstraction.inputs)}
    skipped = 0
    drawn = 0
    attempts = 0
    while drawn < n_pairs:
        attempts += 1
        if attempts > 200 * n_pairs:
            raise RuntimeError("pair sampling stalled; relation threshold too tight for D")
        si = int(rng.integers(len(states)))
        xhat = states[si]
        delta = (rng.random(sys.n) * 2.0 - 1.0) * eps
        x = xhat + delta
        if np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
            continue
        if cert.value(xhat, x) > level:
            continue
        if sys.m:
            uvec = box_sample(rng, sys.input_box)
            uhat = ilat.quantize(uvec, clip=True)
            ui = input_index[uhat]
        else:
            uvec = np.zeros(0)
            uhat = ()
            ui = 0
        di = int(rng.integers(len(dists)))
        what = np.asarray(dists[di], float)
        lo = np.maximum(box_lo(sys.dist_box), what - eps_tilde_norm)
        hi = np.minimum(box_hi(sys.dist_box), what + eps_tilde_norm)
        wvec = lo + (hi - lo) * rng.random(sys.p)
        succ, _ = abstraction.transitions[(si, ui, di)]
        if not succ:
            skipped += 1
            continue
        key = (si, ui, di)
        best = flow_cache.get(key)
        if best is None:
            zbar = flow_nominal(sys, xhat, np.asarray(uhat), what, tau, tol=1e-10).endpoint
            best = min(succ, key=lambda s: np.abs(states[s] - zbar).max())
            flow_cache[key] = best
        targets[drawn] = states[best]
        x0s[drawn] = x
        us[drawn] = uvec
        ws[drawn] = wvec
        drawn += 1

    total = n_pairs * paths_per_pair
    x0_rows = np.repeat(x0s, paths_per_pair, axis=0)
    u_rows = np.repeat(us, paths_per_pair, axis=0)
    w_rows = np.repeat(ws, paths_per_pair, axis=0)
    vals, diverged = simulate_ensemble(
        sys, x0_rows, u_rows, w_rows, tau, steps, total, seed, [steps]
    )
    endpoints = vals[:, 0, :].reshape(n_pairs, paths_per_pair, sys.n)
    div = diverged.reshape(n_pairs, paths_per_pair)
    dt = tau / steps
    slack = _integration_slack(dt, float(np.abs(box).max()))
    report = BoundReport(
        check="bisim_step", n_paths=total, diverged=int(diverged.sum()), skipped=skipped
    )
    for pi in range(n_pairs):
        okmask = ~div[pi]
        vvals = cert.value(targets[pi][:, None], endpoints[pi][okmask].T)
        mean, se = _mean_se(vvals)
        report.rows.append(
            BoundRow(
                check=report.check,
                label=f"pair{pi}",
                empirical=mean,
                std_error=se,
                bound=level,
                passed=mean <= level + 3.0 * se + slack,
            )
        )
    return report


def box_lo(box):
    box = np.asarray(box, float).reshape(-1, 2)
    return box[:, 0]


def box_hi(box):
    box = np.asarray(box, float).reshape(-1, 2)
    return box[:, 1]


def box_sample(rng, box):
    box = np.asarray(box, float).reshape(-1, 2)
    return box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(box.shape[0])
