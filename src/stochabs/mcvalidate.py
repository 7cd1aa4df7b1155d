"""Seeded Euler-Maruyama simulation and Monte-Carlo validation of the
moment bounds.

Each path draws its Gaussian increments from its own PCG64 stream, the
one np.random.default_rng([seed, k]) gives for master seed seed and path
index k, so any single path can be reproduced in isolation bit-exactly
and results do not depend on how paths are grouped into chunks.  The
ensemble kernel derives the PCG64 seeds of a whole chunk of paths at
once: _path_seeds runs NumPy's SeedSequence hash (NEP 19) over the
chunk's path indices as uint32 arrays, and each generator is seeded
from its precomputed row, which gives the same streams at a fraction of
the per-path cost.

One step-major kernel, simulate_groups, runs every ensemble.  It steps
groups of configurations that share each path's noise: a group holds
its states as one contiguous (dim, configs, paths) array, so one drift
and one diffusion evaluation serve all of its configurations, and it
keeps its own path count, checkpoints and alive mask, so a divergence in
one group never freezes another.  Paths go in chunks of up to 16384, so
the CLI's 10,000-path ensembles run as one chunk.  Each chunk draws
every stream a block of steps at a time into one (steps, r, paths)
buffer that all groups read, so each step reads one contiguous row of
noise and memory does not grow with the step count: a block is
NOISE_BLOCK steps, or fewer when the chunk is wide, so that the buffer
holds at most NOISE_BUDGET normals.
A step contracts sigma(x) z with _noise_term, in place in the freshly
evaluated diffusion array, tests divergence with _diverging, and adds
x + f dt + sigma(x) z in that order, so a one-path loop that calls the
same two functions in the same order reproduces any ensemble path bit
for bit; the tests keep such a loop as their oracle.  A step works in
place in the drift array it evaluates, so it allocates that array, the
diffusion array and their scratch buffers and no other temporary.
The moment-closeness and increment suites simulate the same
configuration, so validate_moments runs them off one ensemble;
validate_coupled runs delta_iss's pair and bisim_step's paths as two
groups of one pass.

Statistical verdicts use a one-sided 3-standard-error allowance: the
checked inequalities are upper bounds, so sampling noise may excuse a
small overshoot but never a systematic violation.  BoundReport.add
states the rule once: a row passes when its mean is at most
bound + 3 se + slack, and keeps that allowance less the mean as its
margin, which the CLI prints.  The bisim_step sampler reads the
abstraction's succ array for each cell's successors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certify import BoundKit, QuadraticCertificate, increment_constant, noise_gap_bound
from .errors import ParameterError
from .gridabs import FiniteAbstraction, flow_nominal, input_lattice
from .sysdsl import SysModel, inf_norm, sample_box

_DIVERGE_LIMIT = 1e9
NOISE_BLOCK = 512  # most steps of each path's stream drawn at a time
NOISE_BUDGET = NOISE_BLOCK * 4096  # most normals in the noise buffer
_NOISE_TILE = 256  # paths transposed together while their draws are in cache

# NumPy's SeedSequence hash: the multiplier chains of its entropy pool
# and of its output, the constants of its pool mixing, and the pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


def _hasher(init, mult):
    """One of SeedSequence's hashes on uint32 arrays; each call takes the next constant of its chain."""
    const = init

    def hashed(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    return hashed


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _path_seeds(seed, start, stop):
    """PCG64 seeds of paths start, ..., stop - 1 as a (paths, 4) uint64 array.

    Row i is SeedSequence([seed, start + i]).generate_state(4, np.uint64),
    computed for all paths at once: the entropy words (seed's 32-bit words,
    least significant first, then the path index) are hashed into a pool
    of four words, mixed, and hashed out into eight words, each step one
    array operation over the paths.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if stop > 2**32:
        # such an index is two entropy words, which shifts the pool layout
        raise ValueError(f"path index {stop - 1} is not below 2**32")
    k = np.arange(start, stop, dtype=np.uint32)
    entropy = []
    while True:
        entropy.append(np.full_like(k, seed & _MASK32))
        seed >>= 32
        if not seed:
            break
    entropy.append(k)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(k)) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    words = [out(pool[i % _POOL_WORDS]).astype(np.uint64) for i in range(8)]
    # uint64 j is words 2j (low) and 2j + 1 (high), whatever the byte order
    return np.column_stack([lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])])


def _chunk_rngs(seed, start, stop):
    """The generators np.random.default_rng([seed, k]) for k = start, ..., stop - 1, from one _path_seeds call."""
    # imported here: at module level it would add about 10 ms to import stochabs
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        """A seed sequence that hands PCG64 its precomputed state words."""

        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return [Generator(PCG64(_Words(row))) for row in _path_seeds(seed, start, stop)]


def _noise_term(s, z):
    """sigma(x) z as sum_j s[:, j] * z[j], added to a zero start in the order
    j = 0, 1, ...; computed in place in s, which it overwrites, and returned
    as a view of s.

    The ensemble step and the tests' single-path oracle use this one
    contraction, so any ensemble path is bit-exactly reproducible in
    isolation whatever r is.
    """
    acc = s[:, 0]
    acc *= z[0]
    acc += 0.0  # the zero start: 0.0 + -0.0 is +0.0
    for j in range(1, s.shape[1]):
        term = s[:, j]
        term *= z[j]
        acc += term
    return acc


def _diverging(x):
    """Mask of the paths (columns) with a NaN, an infinity or an entry past the limit."""
    return ~(np.abs(x) <= _DIVERGE_LIMIT).all(axis=0)


def _constant_rows(value, dim, n_paths):
    arr = np.asarray(value, float)
    if arr.ndim <= 1:
        arr = np.broadcast_to(np.atleast_1d(arr), (n_paths, dim))
    if arr.shape != (n_paths, dim):
        raise ValueError(f"expected shape ({n_paths}, {dim}), got {arr.shape}")
    return arr


def _fill_noise(rngs, out, scale):
    """Draw the next out.shape[0] steps of every path's stream into out.

    out has shape (steps, r, paths) and receives scale * z, so that each
    step reads one contiguous row.  Drawing a stream in blocks yields the
    same numbers as drawing it at once.
    """
    steps, r, _ = out.shape
    tile = np.empty((_NOISE_TILE, steps, r))
    for p0 in range(0, len(rngs), _NOISE_TILE):
        part = rngs[p0 : p0 + _NOISE_TILE]
        for dst, rng in zip(tile, part):
            rng.standard_normal((steps, r), out=dst)
        np.multiply(tile[: len(part)].transpose(1, 2, 0), scale, out=out[:, :, p0 : p0 + len(part)])


class _Group:
    """Configurations that share each path's noise, stepped as (dim, configs, paths) arrays.

    Each group has its own path count, checkpoints, values, diverged flags
    and, per chunk, its own alive mask.
    """

    def __init__(self, sys, configs, n_paths, checkpoint_steps):
        dims = (sys.n, sys.m, sys.p)
        # per configuration: x0, u, w as (n_paths, dim) rows
        self.rows = [[_constant_rows(v, dim, n_paths) for v, dim in zip(cfg, dims)] for cfg in configs]
        self.n_paths = n_paths
        self.ckpt = {int(s): idx for idx, s in enumerate(checkpoint_steps)}
        self.values = np.empty((len(configs), n_paths, len(checkpoint_steps), sys.n))
        self.diverged = np.zeros(n_paths, bool)

    def start_chunk(self, start, stop):
        self.span = slice(start, min(stop, self.n_paths))
        self.width = self.span.stop - start
        self.x, self.u, self.w = (
            np.stack([cfg[i][self.span].T for cfg in self.rows], axis=1) for i in range(3)
        )
        self.alive = np.ones(self.width, bool)
        self.all_alive = True
        self.record(0)

    def record(self, k):
        if k in self.ckpt:
            self.values[:, self.span, self.ckpt[k]] = self.x.transpose(1, 2, 0)

    def step(self, sys, zk, dt):
        x = self.x
        nxt = sys.drift_eval(x, self.u, self.w)  # x + f dt + sigma z, in that order, in place
        nxt *= dt
        np.add(x, nxt, out=nxt)
        nxt += _noise_term(sys.diffusion_eval(x), zk)
        if self.all_alive and nxt.max() <= _DIVERGE_LIMIT and nxt.min() >= -_DIVERGE_LIMIT:  # NaN fails
            self.x = nxt
            return
        # (configs, paths): configuration c of a path also freezes when an
        # earlier configuration of that path diverged at this step
        bad = np.logical_or.accumulate(_diverging(nxt), axis=0)
        np.copyto(x, nxt, where=self.alive & ~bad)
        newly = self.alive & bad[-1]
        if newly.any():
            self.diverged[self.span] |= newly
            self.alive &= ~bad[-1]
            self.all_alive = False


def simulate_groups(sys: SysModel, groups, tau, steps, seed, chunk=16384):
    """One step-major Euler-Maruyama pass over groups of configurations.

    groups is a sequence of (configs, n_paths, checkpoint_steps), configs
    a list of (x0, u, w) as in simulate_ensemble.  Path k of every group
    draws the stream (seed, k), so a group gives the same numbers as a run
    of its own.  Returns one (values, diverged) per group, values of shape
    (len(configs), n_paths, len(checkpoint_steps), n).

    Paths go in chunks; each chunk's noise is drawn once, NOISE_BLOCK
    steps at a time or fewer so that a block holds at most NOISE_BUDGET
    normals, into a (steps, r, paths) block that every group reads its
    first columns of, so memory does not grow with steps.  A path that
    turns non-finite or exceeds the limit in a configuration is flagged in
    its group, and that configuration and the later ones of the path
    freeze from that step on; the earlier ones take the step and then
    freeze.  Other groups are not affected.
    """
    dt = tau / steps
    sdt = math.sqrt(dt)
    plans = [_Group(sys, configs, n_paths, ckpt) for configs, n_paths, ckpt in groups]
    n_max = max((g.n_paths for g in plans), default=0)

    # One noise buffer for all chunks, and each chunk's generators (about
    # 0.8 kB each) released before the next chunk's are built, so that peak
    # memory holds one chunk's worth of either.
    width = min(chunk, n_max)
    block_steps = max(1, min(NOISE_BLOCK, steps, NOISE_BUDGET // (sys.r * max(width, 1))))
    noise = np.empty((block_steps, sys.r, width))
    rngs = []
    for start in range(0, n_max, chunk):
        stop = min(start + chunk, n_max)
        rngs.clear()
        rngs.extend(_chunk_rngs(seed, start, stop))
        active = [g for g in plans if g.n_paths > start]
        for g in active:
            g.start_chunk(start, stop)
        for k0 in range(0, steps, block_steps):
            block = noise[: min(block_steps, steps - k0), :, : stop - start]
            _fill_noise(rngs, block, sdt)
            for k, zk in enumerate(block, start=k0 + 1):
                for g in active:
                    g.step(sys, zk[:, : g.width], dt)
                    g.record(k)
    return [(g.values, g.diverged) for g in plans]


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
    chunk=16384,
):
    """Vectorized ensemble of one configuration; returns (values, diverged mask).

    x0/u/w may be single vectors or per-path (n_paths, dim) arrays of
    constants.  values has shape (n_paths, len(checkpoint_steps), n).
    This is simulate_groups with one group of one configuration; several
    configurations that share the noise are groups of simulate_groups.
    """
    [(values, diverged)] = simulate_groups(
        sys, [([(x0, u, w)], n_paths, checkpoint_steps)], tau, steps, seed, chunk
    )
    return values[0], diverged


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
    margin: float  # bound + 3 std-errors + slack - empirical: what the verdict tests, >= 0 iff passed


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

    def add(self, label, samples, bound, slack=0.0):
        """Append the row of samples against bound.

        The row passes when the sample mean is at most bound + slack plus
        three standard errors; its margin is that allowance less the mean.
        """
        mean, se = _mean_se(samples)
        limit = bound + 3.0 * se + slack
        self.rows.append(BoundRow(self.check, label, mean, se, bound, mean <= limit, limit - mean))


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


_CLOSENESS_FRACTIONS = (0.25, 0.5, 1.0)
_INCREMENT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _quarter_steps(steps):
    """steps rounded up to a multiple of 4, so that every quarter of tau ends on a step."""
    return steps + (-steps) % 4


def _moment_config(sys: SysModel, x0, u, w, steps):
    """x0, u and w as float vectors (u = w = 0 when None), and _quarter_steps(steps)."""
    u = np.zeros(sys.m) if u is None else np.atleast_1d(np.asarray(u, float))
    w = np.zeros(sys.p) if w is None else np.atleast_1d(np.asarray(w, float))
    x0 = np.atleast_1d(np.asarray(x0, float))
    return x0, u, w, _quarter_steps(steps)


def _closeness_report(sys, kit, x0, u, w, tau, steps, ckpt, vals, diverged):
    """Moment-closeness rows from an ensemble whose columns are the checkpoints ckpt."""
    ok = ~diverged
    dt = tau / steps
    slack = _integration_slack(dt, float(np.abs(x0).max(initial=0.0)))
    report = BoundReport(check="moment_closeness", n_paths=len(diverged), diverged=int(diverged.sum()))
    for idx, ks in enumerate(ckpt):
        t = ks * dt
        ref = flow_nominal(sys, x0, u, w, t, tol=1e-12).endpoint
        gap = np.abs(vals[ok, idx, :] - ref).max(axis=1) ** 2
        report.add(f"{t:.6g}", gap, noise_gap_bound(kit, sys, t), slack)
    return report


def _increment_report(c, tau, steps, ckpt, vals, diverged):
    """Increment rows, bound c |t - s|, for each pair s <= t of the checkpoints ckpt (vals' columns)."""
    ok = ~diverged
    dt = tau / steps
    report = BoundReport(check="increment_bound", n_paths=len(diverged), diverged=int(diverged.sum()))
    for i, ks in enumerate(ckpt):
        for j, kt in enumerate(ckpt):
            if kt < ks:
                continue
            s_t, t_t = ks * dt, kt * dt
            inc = ((vals[ok, j, :] - vals[ok, i, :]) ** 2).sum(axis=1)
            report.add(f"({s_t:.6g},{t_t:.6g})", inc, c * (t_t - s_t))
    return report


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
) -> BoundReport:
    """Gap between noisy and noise-free trajectories vs its bound.

    Checks E[|xi(t) - xibar(t)|^2] (infinity norm) at t in
    {tau/4, tau/2, tau} under matched constant inputs and disturbances.
    """
    x0, u, w, steps = _moment_config(sys, x0, u, w, steps)
    ckpt = _checkpoint_steps(steps, _CLOSENESS_FRACTIONS)
    vals, diverged = simulate_ensemble(sys, x0, u, w, tau, steps, n_paths, seed, ckpt)
    return _closeness_report(sys, kit, x0, u, w, tau, steps, ckpt, vals, diverged)


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
    x0, u, w, steps = _moment_config(sys, x0, u, w, steps)
    c = increment_constant(sys, float((x0**2).sum()), tau)
    ckpt = _checkpoint_steps(steps, _INCREMENT_FRACTIONS)
    vals, diverged = simulate_ensemble(sys, x0, u, w, tau, steps, n_paths, seed, ckpt)
    return _increment_report(c, tau, steps, ckpt, vals, diverged)


def validate_moments(
    sys: SysModel,
    kit: BoundKit,
    x0,
    tau,
    n_paths=10_000,
    seed=0,
    u=None,
    w=None,
    steps=2048,
):
    """(moment-closeness report, increment report) from one shared ensemble.

    Both suites simulate the same configuration with the same streams, so
    one run recording the increment checkpoints, which include the
    closeness ones, yields the same rows as the two separate suites.
    """
    x0, u, w, steps = _moment_config(sys, x0, u, w, steps)
    c = increment_constant(sys, float((x0**2).sum()), tau)  # may overflow: before the ensemble
    ckpt = _checkpoint_steps(steps, _INCREMENT_FRACTIONS)
    vals, diverged = simulate_ensemble(sys, x0, u, w, tau, steps, n_paths, seed, ckpt)
    cols = [_INCREMENT_FRACTIONS.index(f) for f in _CLOSENESS_FRACTIONS]
    closeness = _closeness_report(
        sys, kit, x0, u, w, tau, steps, [ckpt[k] for k in cols], vals[:, cols], diverged
    )
    return closeness, _increment_report(c, tau, steps, ckpt, vals, diverged)


def _delta_iss_group(a, a2, u, u2, w, w2, n_paths, steps):
    """delta_iss's group (the pair a, a2 under the same noise) and its step count, a multiple of 4."""
    a = np.atleast_1d(np.asarray(a, float))
    a2 = np.atleast_1d(np.asarray(a2, float))
    steps = _quarter_steps(steps)
    ckpt = _checkpoint_steps(steps, (0.25, 0.5, 0.75, 1.0))
    return ([(a, u, w), (a2, u2, w2)], n_paths, ckpt), steps


def _delta_iss_report(kit, tau, steps, group, vals, diverged):
    """delta_iss rows from the ensemble of group, one row per checkpoint."""
    ((a, u, w), (a2, u2, w2)), n_paths, ckpt = group
    ok = ~diverged
    dt = tau / steps

    def gap(v, v2):
        return float(inf_norm(np.ravel(np.subtract(v, v2, dtype=float))))

    da = gap(a, a2) ** 2
    offset = kit.rho_u(gap(u, u2)) + kit.rho_d(gap(w, w2) ** 2)
    report = BoundReport(check="delta_iss", n_paths=n_paths, diverged=int(diverged.sum()))
    for idx, ks in enumerate(ckpt):
        t = ks * dt
        dist = np.abs(vals[0][ok, idx, :] - vals[1][ok, idx, :]).max(axis=1) ** 2
        report.add(f"{t:.6g}", dist, kit.beta(da, t) + offset)
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
    group, steps = _delta_iss_group(a, a2, u, u2, w, w2, n_paths, steps)
    [(vals, diverged)] = simulate_groups(sys, [group], tau, steps, seed)
    return _delta_iss_report(kit, tau, steps, group, vals, diverged)


@dataclass
class _BisimPairs:
    """Sampled related pairs of the bisimulation step check."""

    x0s: np.ndarray  # (pairs, n) concrete start points
    us: np.ndarray  # (pairs, m) concrete inputs
    ws: np.ndarray  # (pairs, p) concrete disturbances
    targets: np.ndarray  # (pairs, n) abstract successor nearest the nominal flow
    level: float
    skipped: int

    def group(self, paths_per_pair, steps):
        """The pairs' group: paths_per_pair paths per pair, recorded at the last step."""
        configs = [tuple(np.repeat(v, paths_per_pair, axis=0) for v in (self.x0s, self.us, self.ws))]
        return configs, len(self.x0s) * paths_per_pair, [steps]


def _sample_bisim_pairs(sys, cert, kit, abstraction, eps, eps_tilde_norm, n_pairs, seed):
    """Draw n_pairs related (abstract state, concrete point) pairs with their inputs and disturbances.

    Each pair's target is the successor of its (s, u, d) cell nearest the
    nominal flow; the flows of the distinct cells are one flow_nominal call.
    Raises ParameterError when 200 draws per pair do not yield n_pairs.
    """
    rng = np.random.default_rng([int(seed), 0x5AFE])
    level = kit.alpha_low(eps**2)
    box = sys.domain_array()
    dist_box = sys.dist_array()
    tables = (abstraction.states, abstraction.inputs, abstraction.dists)
    states, inputs, dists = (np.asarray(t, float) for t in tables)
    no_succ = (abstraction.succ < 0).all(axis=-1)
    ilat = input_lattice(sys.input_box, abstraction.omega) if sys.m else None

    x0s = np.empty((n_pairs, sys.n))
    us = np.empty((n_pairs, sys.m))
    ws = np.empty((n_pairs, sys.p))
    keys = []
    input_index = {coords: k for k, coords in enumerate(abstraction.inputs)}
    skipped = 0
    attempts = 0
    while len(keys) < n_pairs:
        attempts += 1
        if attempts > 200 * n_pairs:
            raise ParameterError(
                f"pair sampling stalled at eps {eps}: {len(keys)} of {n_pairs} related pairs "
                f"with a successor in {200 * n_pairs} draws"
            )
        si = int(rng.integers(len(states)))
        xhat = states[si]
        delta = (rng.random(sys.n) * 2.0 - 1.0) * eps
        x = xhat + delta
        if np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
            continue
        if cert.value(xhat, x) > level:
            continue
        if sys.m:
            uvec = sample_box(rng, sys.input_box)
            ui = input_index[ilat.quantize(uvec, clip=True)]
        else:
            uvec = np.zeros(0)
            ui = 0
        di = int(rng.integers(len(dists)))
        lo = np.maximum(dist_box[:, 0], dists[di] - eps_tilde_norm)
        hi = np.minimum(dist_box[:, 1], dists[di] + eps_tilde_norm)
        wvec = sample_box(rng, np.column_stack([lo, hi]))
        if no_succ[si, ui, di]:
            skipped += 1
            continue
        x0s[len(keys)] = x
        us[len(keys)] = uvec
        ws[len(keys)] = wvec
        keys.append((si, ui, di))

    cells = list(dict.fromkeys(keys))
    si, ui, di = np.array(cells).T
    zbar = flow_nominal(sys, states[si].T, inputs[ui].T, dists[di].T, abstraction.tau, tol=1e-10).endpoint
    # each cell's successor nearest its flow; the pads (-1) never win, and
    # argmin keeps the first of equal gaps
    rows = abstraction.succ[si, ui, di]
    gaps = np.where(rows >= 0, np.abs(states[rows] - zbar.T[:, None]).max(axis=2), np.inf)
    nearest = dict(zip(cells, rows[np.arange(len(cells)), gaps.argmin(axis=1)]))
    targets = states[[nearest[c] for c in keys]]
    return _BisimPairs(x0s, us, ws, targets, level, skipped)


def _bisim_report(sys, cert, tau, steps, pairs: _BisimPairs, paths_per_pair, vals, diverged):
    """bisim_step rows, one per pair, from the ensemble of pairs.group(paths_per_pair, steps)."""
    n_pairs = len(pairs.targets)
    endpoints = vals[0, :, 0, :].reshape(n_pairs, paths_per_pair, sys.n)
    div = diverged.reshape(n_pairs, paths_per_pair)
    slack = _integration_slack(tau / steps, float(np.abs(sys.domain_array()).max()))
    report = BoundReport(
        check="bisim_step", n_paths=len(diverged), diverged=int(diverged.sum()), skipped=pairs.skipped
    )
    for pi in range(n_pairs):
        okmask = ~div[pi]
        vvals = cert.value(pairs.targets[pi][:, None], endpoints[pi][okmask].T)
        report.add(f"pair{pi}", vvals, pairs.level, slack)
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
    pairs = _sample_bisim_pairs(sys, cert, kit, abstraction, eps, eps_tilde_norm, n_pairs, seed)
    tau = abstraction.tau
    [(vals, diverged)] = simulate_groups(sys, [pairs.group(paths_per_pair, steps)], tau, steps, seed)
    return _bisim_report(sys, cert, tau, steps, pairs, paths_per_pair, vals, diverged)


def validate_coupled(
    sys: SysModel,
    cert: QuadraticCertificate,
    kit: BoundKit,
    abstraction: FiniteAbstraction,
    eps,
    a,
    a2,
    u,
    u2,
    w,
    w2,
    eps_tilde_norm=0.0,
    n_paths=10_000,
    n_pairs=100,
    paths_per_pair=100,
    seed=0,
    steps=2048,
):
    """(delta_iss report, bisim_step report) from one grouped ensemble pass.

    Both suites run over the abstraction's sampling period with the same
    streams, so the pair (a, a2) and the sampled pairs' paths are two
    groups of one simulate_groups call and give the same rows as
    validate_delta_iss and validate_bisim_step.  When steps is not a
    multiple of 4, delta_iss rounds it up and each suite makes its own call.
    """
    tau = abstraction.tau
    pairs = _sample_bisim_pairs(sys, cert, kit, abstraction, eps, eps_tilde_norm, n_pairs, seed)
    d_group, d_steps = _delta_iss_group(a, a2, u, u2, w, w2, n_paths, steps)
    b_group = pairs.group(paths_per_pair, steps)
    if d_steps == steps:
        (d_vals, d_div), (b_vals, b_div) = simulate_groups(sys, [d_group, b_group], tau, steps, seed)
    else:
        [(d_vals, d_div)] = simulate_groups(sys, [d_group], tau, d_steps, seed)
        [(b_vals, b_div)] = simulate_groups(sys, [b_group], tau, steps, seed)
    return (
        _delta_iss_report(kit, tau, d_steps, d_group, d_vals, d_div),
        _bisim_report(sys, cert, tau, steps, pairs, paths_per_pair, b_vals, b_div),
    )
