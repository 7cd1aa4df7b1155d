import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stochabs import certify, gridabs, mcvalidate, sysdsl
from stochabs.expr import Bin, Lit, Pow, Var
from stochabs.mcvalidate import (
    simulate_em,
    simulate_ensemble,
    simulate_groups,
    validate_bisim_step,
    validate_coupled,
    validate_delta_iss,
    validate_increment_bound,
    validate_moment_closeness,
    validate_moments,
)

SEED = 1729


def test_em_degenerates_to_explicit_euler(scalar_det_model):
    steps = 64
    path = simulate_em(scalar_det_model, [1.0], [0.0], [0.0], 1.0, steps, seed=SEED)
    x = 1.0
    expected = [x]
    for _ in range(steps):
        x = x + (-x) * (1.0 / steps)
        expected.append(x)
    assert path.states[:, 0].tolist() == expected
    assert not path.diverged


def test_constant_path_for_zero_dynamics(scalar_det_model):
    frozen = dataclasses.replace(scalar_det_model, drift=(Lit(0.0),))
    path = simulate_em(frozen, [0.7], [0.0], [0.0], 1.0, 32, seed=SEED)
    assert np.all(path.states == 0.7)


def test_divergence_flagged(scalar_det_model):
    # cubic blow-up from a large start leaves the finite range quickly
    cubic = dataclasses.replace(
        scalar_det_model, drift=(Bin("*", Lit(1e3), Pow(Var("x", 1), 3)),)
    )
    path = simulate_em(cubic, [5.0], [0.0], [0.0], 1.0, 16, seed=SEED)
    assert path.diverged and path.diverged_at is not None
    # frozen after divergence
    assert path.states[-1, 0] == path.states[path.diverged_at, 0]


def test_single_path_reproducible_inside_ensemble(scalar_model):
    vals, div = simulate_ensemble(
        scalar_model, [1.0], [0.05], [0.2], 1.0, 128, 16, seed=SEED, checkpoint_steps=[64, 128]
    )
    for k in (0, 5, 15):
        path = simulate_em(scalar_model, [1.0], [0.05], [0.2], 1.0, 128, seed=SEED, path_index=k)
        assert vals[k, 0, 0] == path.states[64, 0]
        assert vals[k, 1, 0] == path.states[128, 0]
    assert not div.any()


def test_ensemble_chunk_invariance(scalar_model):
    kw = dict(tau=0.5, steps=64, n_paths=23, seed=SEED, checkpoint_steps=[64])
    a, _ = simulate_ensemble(scalar_model, [0.5], [0.0], [0.1], chunk=7, **kw)
    b, _ = simulate_ensemble(scalar_model, [0.5], [0.0], [0.1], chunk=4096, **kw)
    assert np.array_equal(a, b)


# 2-D, two noise channels, cross-coupled diffusion; the cubic term blows
# up the paths that start far enough out, some of them mid noise block
COUPLED2 = """system coupled2
dims n=2 m=1 p=1 r=2
domain x1 in [-1, 1]
domain x2 in [-1, 1]
input u1 in [-0.1, 0.1]
dist w1 in [-0.2, 0.2]
drift x1' = -x1 + 0.5*x2 + u1 + 4*x1*x1*x1
drift x2' = -2*x2 + x1*x2 + w1
diff sigma[1][1] = 0.3*x1
diff sigma[1][2] = 0.2*x2
diff sigma[2][1] = 0.1*x2
diff sigma[2][2] = 0.4*x1 + 0.1*x2
const Lf=20 Lsigma=1 K=20
"""
# more than two noise blocks and not a multiple of one
R2_STEPS = 1100
R2_CKPT = [0, 300, 512, 700, 1024, 1100]
R2_X0 = np.column_stack([np.linspace(0.2, 0.8, 40), np.linspace(-0.5, 0.1, 40)])


@pytest.fixture(scope="module")
def coupled2():
    return sysdsl.parse_system(COUPLED2)


def _r2_paths(model, x0, u, w):
    with np.errstate(all="ignore"):
        return [
            simulate_em(model, x, u, w, 1.0, R2_STEPS, seed=SEED, path_index=k)
            for k, x in enumerate(x0)
        ]


def _stop(path):
    return path.diverged_at if path.diverged else R2_STEPS + 1


def test_ensemble_matches_single_paths_with_two_noise_channels(coupled2):
    block = mcvalidate.NOISE_BLOCK
    assert R2_STEPS > 2 * block and R2_STEPS % block
    with np.errstate(all="ignore"):
        vals, div = simulate_ensemble(
            coupled2, R2_X0, [0.05], [0.1], 1.0, R2_STEPS, len(R2_X0), SEED, R2_CKPT, chunk=16
        )
    paths = _r2_paths(coupled2, R2_X0, [0.05], [0.1])
    assert not all(p.diverged for p in paths)
    assert any(p.diverged and p.diverged_at > block and p.diverged_at % block for p in paths)
    for k, p in enumerate(paths):
        assert div[k] == p.diverged
        # simulate_em already holds a diverged path at its last good state
        assert np.array_equal(vals[k], p.states[R2_CKPT])


# every node kind in drift and diffusion: the four functions, division,
# positive and negative integer powers, unary minus, literals on either side
ALL_KINDS = """system allkinds
dims n=2 m=1 p=1 r=2
domain x1 in [-1, 1]
domain x2 in [-1, 1]
input u1 in [-0.1, 0.1]
dist w1 in [-0.2, 0.2]
drift x1' = -x1 + 0.3*sin(x2) - cos(x1 - 0.5)/(2 + x2*x2) + 0.1*pow(x1, 3) + u1*2
drift x2' = tanh(-x1*x2)*0.2 - x2 - 0.05*pow(2 + x1, -2) + exp(-(x1*x1))/4 + w1
diff sigma[1][1] = 0.2*cos(x1)*x2 - x1/(3 + x2)
diff sigma[2][1] = -0.1*pow(x2, 2)
diff sigma[2][2] = 0.1 - tanh(0.3*x1)
const Lf=5 Lsigma=1 K=5
"""


def test_ensemble_matches_single_paths_on_every_node_kind():
    model = sysdsl.parse_system(ALL_KINDS)
    x0 = np.column_stack([np.linspace(-0.8, 0.8, 12), np.linspace(0.6, -0.6, 12)])
    us = np.linspace(-0.1, 0.1, 12)[:, None]
    ckpt = [0, 100, 333, 600]
    vals, div = simulate_ensemble(model, x0, us, [0.1], 1.0, 600, len(x0), SEED, ckpt, chunk=5)
    assert not div.any()
    for k in range(len(x0)):
        path = simulate_em(model, x0[k], us[k], [0.1], 1.0, 600, seed=SEED, path_index=k)
        assert np.array_equal(vals[k], path.states[ckpt])


def test_paired_ensemble_matches_single_paths_with_two_noise_channels(coupled2):
    x0b = R2_X0[::-1].copy()
    pair = ([(R2_X0, [0.05], [0.1]), (x0b, [-0.05], [-0.1])], len(R2_X0), R2_CKPT)
    with np.errstate(all="ignore"):
        [(vals, div)] = simulate_groups(coupled2, [pair], 1.0, R2_STEPS, SEED, chunk=16)
    first = _r2_paths(coupled2, R2_X0, [0.05], [0.1])
    second = _r2_paths(coupled2, x0b, [-0.05], [-0.1])
    d0 = np.array([_stop(p) for p in first])
    d1 = np.array([_stop(p) for p in second])
    assert (d0 < d1).any() and (d1 < d0).any()
    for k, (p0, p1) in enumerate(zip(first, second)):
        # a divergence in either configuration freezes both; when only the
        # second one diverged, the first has already taken that step
        stop0 = d0[k] - 1 if d0[k] <= d1[k] else d1[k]
        stop1 = min(d0[k], d1[k]) - 1
        assert div[k] == (min(d0[k], d1[k]) <= R2_STEPS)
        assert np.array_equal(vals[0, k], p0.states[np.minimum(R2_CKPT, stop0)])
        assert np.array_equal(vals[1, k], p1.states[np.minimum(R2_CKPT, stop1)])


def _groups_match_separate_runs(model, groups, tau, steps, chunk):
    """simulate_groups over groups, checked against one simulate_groups call per group."""
    with np.errstate(all="ignore"):
        fused = simulate_groups(model, groups, tau, steps, SEED, chunk=chunk)
        for group, (vals, div) in zip(groups, fused):
            configs, n_paths, ckpt = group
            [(alone, alone_div)] = simulate_groups(model, [group], tau, steps, SEED, chunk=chunk)
            assert vals.shape == (len(configs), n_paths, len(ckpt), model.n)
            assert np.array_equal(vals, alone)
            assert np.array_equal(div, alone_div)
    return fused


def test_grouped_divergence_stays_in_its_group(coupled2):
    # the pair diverges on some paths; the same paths of the quiet group do not
    pair = ([(R2_X0, [0.05], [0.1]), (R2_X0[::-1].copy(), [-0.05], [-0.1])], len(R2_X0), R2_CKPT)
    quiet = ([(0.2 * R2_X0, [0.05], [0.1])], len(R2_X0), R2_CKPT[::2])
    for groups in ([pair, quiet], [quiet, pair]):
        fused = _groups_match_separate_runs(coupled2, groups, 1.0, R2_STEPS, chunk=16)
        div = {len(configs): d for (configs, _, _), (_, d) in zip(groups, fused)}
        assert div[2].any() and not div[1].any()


def test_grouped_path_counts_differ(scalar_model):
    # as validate --paths 50 --pairs 100 runs them: 50 delta_iss paths and
    # 100 pairs x 2 paths, in chunks of 64 that the smaller group ends inside
    pair = ([([0.5], [0.1], [0.3]), ([-0.5], [-0.1], [-0.3])], 50, [64, 128, 192, 256])
    rows = np.linspace(-1.0, 1.0, 200)[:, None]
    per_path = ([(rows, 0.1 * rows, 0.3 * rows[::-1])], 200, [256])
    fused = _groups_match_separate_runs(scalar_model, [pair, per_path], 0.5, 256, chunk=64)
    assert [v.shape[1] for v, _ in fused] == [50, 200]


def test_grouped_two_dimensional_with_inputs_and_disturbances(coupled2):
    # 2-D, r = 2, nonzero u and w, over more than one noise block
    x0 = 0.3 * R2_X0[:25]
    pair = ([(x0, [0.05], [0.1]), (x0[::-1].copy(), [-0.05], [-0.1])], 25, [0, 300, 512, 600])
    us = np.linspace(-0.1, 0.1, 40)[:, None]
    ws = np.linspace(0.2, -0.2, 40)[:, None]
    per_path = ([(0.3 * R2_X0, us, ws)], 40, [600])
    fused = _groups_match_separate_runs(coupled2, [pair, per_path], 1.0, 600, chunk=16)
    assert not any(d.any() for _, d in fused)


def test_ensemble_memory_does_not_grow_with_steps(scalar_model):
    # a whole-run noise buffer would be 512 x 16384 x 8 B = 64 MB
    tracemalloc.start()
    try:
        simulate_ensemble(scalar_model, [0.5], [0.0], [0.1], 0.5, 16384, 512, SEED, [16384])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ensemble_memory_does_not_grow_with_chunks(scalar_model):
    # one chunk's noise buffer (1 MB here) and generators at a time: four
    # chunks peak no higher than one
    def peak(n_paths):
        tracemalloc.start()
        try:
            simulate_ensemble(scalar_model, [0.5], [0.0], [0.1], 0.5, 512, n_paths, SEED, [512],
                              chunk=256)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # the first run also allocates one-time state
    assert peak(4 * 256) < 1.25 * peak(256)


def test_one_wide_chunk_keeps_the_noise_budget(scalar_model):
    # a 16384-path chunk draws 128-step blocks: the buffer holds the budget
    # of normals (16 MB), not 512 steps' worth (64 MB), beside one chunk of
    # generators (about 0.8 kB each) and the path states
    n_paths = 16384
    tracemalloc.start()
    try:
        simulate_ensemble(scalar_model, [0.5], [0.0], [0.1], 0.5, 600, n_paths, SEED, [600])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mcvalidate.NOISE_BUDGET * 8 + n_paths * 1024 + 2 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 12345])
def test_chunk_streams_match_default_rng(seed):
    # 2**130 + 12345 is five entropy words, one past the pool
    for start, stop in ((0, 3), (16381, 16384), (16384, 16387)):
        for k, rng in zip(range(start, stop), mcvalidate._chunk_rngs(seed, start, stop)):
            ref = np.random.default_rng([seed, k]).standard_normal(300)
            assert np.array_equal(rng.standard_normal(300), ref)


def test_path_seeds_reject_negative_seed_and_wide_index():
    with pytest.raises(ValueError, match="non-negative"):
        mcvalidate._path_seeds(-1, 0, 4)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        mcvalidate._path_seeds(7, 2**32 - 2, 2**32 + 1)


def test_grouped_results_do_not_depend_on_chunk(coupled2):
    # 4500 paths: one chunk of 233-step blocks by default, chunks of 4096
    # and 404 paths with 256-step blocks at chunk=4096; the first 60 paths
    # again at chunk=16 with 512-step blocks.  Every block of 60 paths
    # sweeps x1 over [0.2, 0.8], so some paths diverge and some do not.
    n = 4500
    x0 = np.column_stack([np.tile(np.linspace(0.2, 0.8, 60), n // 60), np.linspace(-0.5, 0.1, n)])
    ckpt = [0, 233, 300, 512, 600]
    us = np.linspace(-0.1, 0.1, 300)[:, None]

    def groups(n_pair, n_rows):
        pair = ([(x0[:n_pair], [0.05], [0.1]), (x0[:n_pair, ::-1].copy(), [-0.05], [-0.1])],
                n_pair, ckpt)
        rows = ([(0.3 * x0[:n_rows], us[:n_rows], -2.0 * us[:n_rows])], n_rows, [600])
        return [pair, rows]

    with np.errstate(all="ignore"):
        wide = simulate_groups(coupled2, groups(n, 300), 1.0, 600, SEED)
        split = simulate_groups(coupled2, groups(n, 300), 1.0, 600, SEED, chunk=4096)
        narrow = simulate_groups(coupled2, groups(60, 40), 1.0, 600, SEED, chunk=16)
    div = wide[0][1]
    assert div.any() and not div.all() and div[:60].any() and not div[:60].all()
    for (a, da), (b, db), (c, dc) in zip(wide, split, narrow):
        assert np.array_equal(a, b) and np.array_equal(da, db)
        assert np.array_equal(a[:, : c.shape[1]], c) and np.array_equal(da[: len(dc)], dc)


def test_ensemble_mean_matches_closed_form(scalar_model):
    # E xi(t) = x0 e^{-t} for the linear system
    n = 20_000
    vals, _ = simulate_ensemble(
        scalar_model, [1.0], [0.0], [0.0], 1.0, 2048, n, seed=3, checkpoint_steps=[2048]
    )
    end = vals[:, 0, 0]
    se = end.std(ddof=1) / math.sqrt(n)
    assert abs(end.mean() - math.exp(-1.0)) <= 3.0 * se


def test_strong_convergence_slope(scalar_model):
    # EM strong order ~ 1/2 against the closed-form solution driven by the
    # same Brownian increments
    n = 2000
    errs = []
    step_list = [256, 512, 1024, 2048]
    for steps in step_list:
        vals, _ = simulate_ensemble(
            scalar_model, [1.0], [0.0], [0.0], 1.0, steps, n, seed=11, checkpoint_steps=[steps]
        )
        sq = 0.0
        dt = 1.0 / steps
        for k in range(n):
            z = np.random.default_rng([11, k]).standard_normal((steps, 1))
            b_t = math.sqrt(dt) * float(z.sum())
            exact = math.exp((-1.0 - 0.125) * 1.0 + 0.5 * b_t)
            sq += (vals[k, 0, 0] - exact) ** 2
        errs.append(math.sqrt(sq / n))
    slope, _ = np.polyfit([math.log2(1.0 / s) for s in step_list], [math.log2(e) for e in errs], 1)
    assert 0.3 <= slope <= 0.7


def test_moment_closeness_passes(scalar_model, scalar_kit):
    rep = validate_moment_closeness(scalar_model, scalar_kit, [0.5], 0.5, n_paths=4000, seed=SEED)
    assert rep.passed and rep.diverged == 0
    assert [r.label for r in rep.rows] == ["0.125", "0.25", "0.5"]
    for r in rep.rows:
        assert r.empirical <= r.bound  # wide margin expected, not just 3 SE


def test_moment_closeness_zero_noise(scalar_det_model, det_kit):
    # bound is exactly zero; only the integration slack absorbs the
    # Euler-vs-RK4 discrepancy
    rep = validate_moment_closeness(scalar_det_model, det_kit, [0.5], 0.5, n_paths=50, seed=SEED)
    assert rep.passed
    for r in rep.rows:
        assert r.bound == 0.0 and r.std_error <= 1e-20


def test_increment_bound_passes(scalar_model):
    rep = validate_increment_bound(scalar_model, [0.5], 0.5, n_paths=4000, seed=SEED)
    assert rep.passed
    assert len(rep.rows) == 15  # upper triangle incl. diagonal of 5x5
    diag = [r for r in rep.rows if r.empirical == 0.0 and r.bound == 0.0]
    assert len(diag) >= 5


def test_increment_bound_monotone_in_growth_constant(scalar_model):
    # over-declaring K only adds slack
    loose = dataclasses.replace(scalar_model, growth_k=16.0)
    tight = validate_increment_bound(scalar_model, [0.5], 0.5, n_paths=500, seed=SEED)
    slack = validate_increment_bound(loose, [0.5], 0.5, n_paths=500, seed=SEED)
    assert slack.passed
    for a, b in zip(tight.rows, slack.rows):
        assert b.bound >= a.bound


def _moment_cases(case, scalar_model, scalar_kit, coupled2):
    if case == "scalar":
        return scalar_model, scalar_kit, dict(x0=[0.5], tau=0.5, u=None, w=None)
    cert = certify.QuadraticCertificate.create(np.eye(2), 0.5, lu=1.0, lw=1.0)
    kit = certify.derive_bounds(coupled2, cert)
    return coupled2, kit, dict(x0=[0.3, -0.2], tau=1.0, u=[0.05], w=[0.1])


@pytest.mark.parametrize("case", ["scalar", "coupled2"])
def test_shared_moment_ensemble_matches_separate_suites(case, scalar_model, scalar_kit, coupled2):
    model, kit, cfg = _moment_cases(case, scalar_model, scalar_kit, coupled2)
    # 250 steps is rounded up to 252 by every suite alike
    kw = dict(n_paths=300, seed=SEED, steps=250, u=cfg["u"], w=cfg["w"])
    closeness, increment = validate_moments(model, kit, cfg["x0"], cfg["tau"], **kw)
    alone_c = validate_moment_closeness(model, kit, cfg["x0"], cfg["tau"], **kw)
    alone_i = validate_increment_bound(model, cfg["x0"], cfg["tau"], **kw)
    assert len(closeness.rows) == 3 and len(increment.rows) == 15
    assert closeness == alone_c
    assert increment == alone_i
    assert all(math.isfinite(r.empirical) for r in closeness.rows + increment.rows)


def test_delta_iss_passes(scalar_model, scalar_kit):
    rep = validate_delta_iss(
        scalar_model, scalar_kit, 0.5,
        a=[0.5], a2=[-0.5], u=[0.1], u2=[-0.1], w=[0.3], w2=[-0.3],
        n_paths=4000, seed=SEED,
    )
    assert rep.passed


def test_delta_iss_identical_configs(scalar_model, scalar_kit):
    rep = validate_delta_iss(
        scalar_model, scalar_kit, 0.5,
        a=[0.5], a2=[0.5], u=[0.1], u2=[0.1], w=[0.3], w2=[0.3],
        n_paths=200, seed=SEED,
    )
    assert rep.passed
    for r in rep.rows:
        assert r.empirical == 0.0  # same noise, same dynamics


def test_delta_iss_plateau(scalar_model, scalar_kit):
    # for large horizons the envelope decays to the mismatch plateau and
    # the empirical distance stays below it
    kit = scalar_kit
    rep = validate_delta_iss(
        scalar_model, kit, 4.0,
        a=[0.9], a2=[-0.9], u=[0.1], u2=[-0.1], w=[0.5], w2=[-0.5],
        n_paths=3000, seed=SEED, steps=4096,
    )
    assert rep.passed
    plateau = kit.rho_u(0.2) + kit.rho_d(1.0)
    last = rep.rows[-1]
    assert last.bound <= plateau * 1.05
    assert last.empirical <= plateau


def _frozen_params(model, cert, kit, tau, eps, etn):
    omega = gridabs.snap_input_pitch(model.input_box, 0.2)
    bound = certify.pitch_upper_bound(kit, model, tau, eps, omega[0], eps_tilde_norm=etn)
    eta = gridabs.snap_state_pitch(model.domain, min(bound, eps))
    return eta, omega


def test_bisim_step_passes(scalar_model, scalar_cert, scalar_kit):
    tau, eps, etn = 0.5, 3.2, 0.1
    eta, omega = _frozen_params(scalar_model, scalar_cert, scalar_kit, tau, eps, etn)
    a = gridabs.build_abstraction(scalar_model, tau, eta, omega, eps=eps, eps_tilde=(etn,))
    rep = validate_bisim_step(
        scalar_model, scalar_cert, scalar_kit, a, eps, eps_tilde_norm=etn,
        n_pairs=40, paths_per_pair=50, seed=SEED,
    )
    assert rep.passed and rep.skipped == 0


@pytest.mark.parametrize("steps", [256, 250])
def test_coupled_suites_match_separate_suites(steps, scalar_model, scalar_cert, scalar_kit):
    # 250 steps: delta_iss rounds up to 252, so each suite runs its own pass
    tau, eps, etn = 0.5, 3.2, 0.1
    eta, omega = _frozen_params(scalar_model, scalar_cert, scalar_kit, tau, eps, etn)
    a = gridabs.build_abstraction(scalar_model, tau, eta, omega, eps=eps, eps_tilde=(etn,))
    cfg = dict(a=[0.5], a2=[-0.5], u=[0.1], u2=[-0.1], w=[0.3], w2=[-0.3])
    delta, bisim = validate_coupled(
        scalar_model, scalar_cert, scalar_kit, a, eps, **cfg, eps_tilde_norm=etn,
        n_paths=300, n_pairs=30, paths_per_pair=5, seed=SEED, steps=steps,
    )
    assert delta == validate_delta_iss(
        scalar_model, scalar_kit, tau, **cfg, n_paths=300, seed=SEED, steps=steps
    )
    assert bisim == validate_bisim_step(
        scalar_model, scalar_cert, scalar_kit, a, eps, eps_tilde_norm=etn,
        n_pairs=30, paths_per_pair=5, seed=SEED, steps=steps,
    )
    assert len(delta.rows) == 4 and len(bisim.rows) == 30 and bisim.n_paths == 150


def test_bisim_step_deterministic_contraction(scalar_det_model, det_cert, det_kit):
    # sigma == 0, no mismatch: pure contraction of the relation level
    tau, eps = 0.5, 0.5
    omega = gridabs.snap_input_pitch(scalar_det_model.input_box, 0.0333333)
    bound = certify.pitch_upper_bound(det_kit, scalar_det_model, tau, eps, omega[0])
    eta = gridabs.snap_state_pitch(scalar_det_model.domain, bound)
    a = gridabs.build_abstraction(scalar_det_model, tau, eta, omega, eps=eps)
    rep = validate_bisim_step(
        scalar_det_model, det_cert, det_kit, a, eps,
        n_pairs=150, paths_per_pair=1, seed=SEED, steps=512,
    )
    assert rep.passed


def test_bisim_step_negative_control(scalar_det_model, det_cert, det_kit):
    # grossly inflated pitch (an order of magnitude) must produce observed
    # violations; statistically robust at this pair count but inherently
    # a sampled negative control
    tau, eps = 0.5, 0.5
    omega = gridabs.snap_input_pitch(scalar_det_model.input_box, 0.0333333)
    bound = certify.pitch_upper_bound(det_kit, scalar_det_model, tau, eps, omega[0])
    eta_bad = gridabs.snap_state_pitch(scalar_det_model.domain, 12.0 * bound)
    assert eta_bad[0] >= 10.0 * bound
    bad = gridabs.build_abstraction(scalar_det_model, tau, eta_bad, omega, eps=eps)
    rep = validate_bisim_step(
        scalar_det_model, det_cert, det_kit, bad, eps,
        n_pairs=2000, paths_per_pair=1, seed=2, steps=512,
    )
    violations = sum(1 for r in rep.rows if not r.passed)
    assert violations >= 1
    assert not rep.passed


def test_divergence_ratio_fails_report(scalar_det_model):
    cubic = dataclasses.replace(
        scalar_det_model, drift=(Bin("*", Lit(1e3), Pow(Var("x", 1), 3)),),
        domain=((-6.0, 6.0),),
    )
    rep = mcvalidate.BoundReport(check="x", n_paths=100, diverged=5)
    assert not rep.passed  # > 1% divergence fails even with no rows
    path = simulate_em(cubic, [5.0], [0.0], [0.0], 1.0, 16, seed=SEED)
    assert path.diverged
