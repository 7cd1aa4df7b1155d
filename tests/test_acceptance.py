"""End-to-end acceptance suite.

Each test prints one pass/fail line.  Oracles are deliberately separate
routes: hand algebra for the certificate threshold, a straight-line
transcription with trapezoid quadrature for the bound formulas, explicit
product wiring for composition, and closed-form solutions for the
simulator.
"""

import math
import time

import numpy as np
import pytest

from stochabs import bisimcheck, certify, gridabs, mcvalidate, netcomp, sysdsl
from stochabs.errors import ParseError
from stochabs.expr import parse_expr, to_source
from tests.conftest import DATA
from tests.test_expr import random_expr, DIMS as EXPR_DIMS

SEED = 1729


def _report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_certificate_exactness(scalar_model):
    # hand algebra: the exact decay threshold is 1 - c^2/2 = 0.875
    ok = True
    good = certify.QuadraticCertificate.create([[1.0]], 0.875, lf=1.0)
    bad = certify.QuadraticCertificate.create([[1.0]], 0.9, lf=1.0)
    rep_good = certify.verify_certificate(scalar_model, good, mode="linear-exact", tol=1e-9)
    rep_bad = certify.verify_certificate(scalar_model, bad, mode="linear-exact", tol=1e-9)
    ok = rep_good.accepted and not rep_bad.accepted
    _report(1, "certificate accepts 0.875 and rejects 0.9 (linear-exact)", ok)


# -- 2 ----------------------------------------------------------------------

KAPPA = 0.875


def _oracle_bounds(tau, eps, omega, etn, c):
    """Straight-line transcription for the scalar family f=-x+u+w, sigma=c*x,
    P=1, kappa=0.875, D=[-1,1], U=[-0.1,0.1], W=[-1,1]; trapezoid quadrature."""
    k = KAPPA
    ainv = lambda y: 2.0 * y
    alpha_low = lambda s: 0.5 * s
    sigma_u = lambda s: s * s / k
    sigma_d = lambda s: s / k
    gamma = lambda s: 2.0 * s
    rho_u = lambda s: ainv(sigma_u(s) / k)
    rho_d = lambda s: ainv(sigma_d(s) / k)
    s_grid = np.linspace(0.0, tau, 100_001)
    integrand = np.exp(-k * s_grid) * 1.0 + rho_u(0.1) + rho_d(1.0)
    integral = np.trapezoid(integrand, s_grid)
    h = ainv(0.5 * 2.0 * 1 * 1 * math.exp(-k * tau) * c * c * integral)
    decay = 1.0 - math.exp(-k * tau)
    eps_lb = math.sqrt(ainv((sigma_d(etn) / (math.e * k) + gamma(math.sqrt(h))) / decay))
    cap = eps * eps  # alpha_high == alpha_low here
    garg = decay * alpha_low(eps * eps) - sigma_u(omega) / (math.e * k) - sigma_d(etn) / (math.e * k)
    if garg < 0:
        eta_ub = -math.inf
    else:
        eta_ub = min(cap, garg / 2.0 - math.sqrt(h))
    return h, eps_lb, eta_ub


def _scalar_variant(c):
    text = (DATA / "scalar.sys").read_text()
    text = text.replace("diff sigma[1][1] = 0.5*x1", f"diff sigma[1][1] = {c}*x1")
    text = text.replace("Lsigma=0.5", f"Lsigma={c}")
    return sysdsl.parse_system(text)


def test_criterion_2_bound_formula_fidelity():
    tuples = [
        (0.5, 3.2, 0.1, 0.1, 0.5),
        (0.5, 3.5, 0.2, 0.0, 0.5),
        (0.25, 2.5, 0.05, 0.1, 0.3),  # infeasible: eps below its floor
        (1.0, 4.0, 0.1, 0.2, 0.5),
        (0.75, 1.8, 0.02, 0.05, 0.2),
    ]
    ok = True
    for tau, eps, omega, etn, c in tuples:
        model = _scalar_variant(c)
        cert = certify.QuadraticCertificate.from_model(model)
        kit = certify.derive_bounds(model, cert)
        h = certify.noise_gap_bound(kit, model, tau)
        lb = certify.precision_lower_bound(kit, model, tau, eps_tilde_norm=etn)
        ub = certify.pitch_upper_bound(kit, model, tau, eps, omega, eps_tilde_norm=etn)
        h_o, lb_o, ub_o = _oracle_bounds(tau, eps, omega, etn, c)
        ok = ok and h == pytest.approx(h_o, rel=1e-6)
        ok = ok and lb == pytest.approx(lb_o, rel=1e-6)
        if math.isinf(ub_o):
            ok = ok and math.isinf(ub) and ub < 0
        else:
            ok = ok and ub == pytest.approx(ub_o, rel=1e-6)
    _report(2, "bound formulas match the independent script at 5 tuples (1e-6 rel)", ok)


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_degenerate_limits(scalar_kit, scalar_model, det_kit, scalar_det_model):
    ok = certify.noise_gap_bound(scalar_kit, scalar_model, 0.0) == 0.0
    for t in (0.1, 0.5, 3.0):
        ok = ok and certify.noise_gap_bound(det_kit, scalar_det_model, t) == 0.0
    ok = ok and certify.neighbor_drift_bound([scalar_model], 0.0) == 0.0
    ok = ok and certify.precision_lower_bound(det_kit, scalar_det_model, 0.5) == 0.0
    _report(3, "degenerate limits are exactly zero", ok)


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_grid_cover_and_determinism(scalar_model):
    rng = np.random.default_rng(SEED)
    eta = (0.25,)
    ok = True
    for _ in range(10_000):
        p = rng.uniform(-1, 1, 1)
        q = gridabs.quantize(p, eta)
        ok = ok and abs(p[0] - q[0]) <= eta[0]
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.125, 0.05)
    for (si, ui, di), (succ, ood) in a.transitions.items():
        if not ood:
            ok = ok and 1 <= len(succ) <= 2
    texts = {
        gridabs.build_abstraction(scalar_model, 0.5, 0.125, 0.05, workers=w).serialize()
        for w in (1, 2, 8)
    }
    ok = ok and len(texts) == 1
    _report(4, "cover on 1e4 points, successor counts in [1, 2^n], worker-identical files", ok)


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_self_bisimilarity(scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    t0 = time.monotonic()
    rel = bisimcheck.largest_bisimulation(a, a, 0.0, (0.0,))
    elapsed = time.monotonic() - t0
    identity = {(i, i) for i in range(len(a.states))}
    ok = identity <= rel.pairs and elapsed <= 10.0
    _report(5, f"self-bisimulation contains the identity ({elapsed:.2f} s)", ok)


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_deterministic_tracking(scalar_det_model, det_cert, det_kit):
    model, cert, kit = scalar_det_model, det_cert, det_kit
    tau, eps = 0.5, 0.5
    omega = gridabs.snap_input_pitch(model.input_box, 0.04)
    bound = certify.pitch_upper_bound(kit, model, tau, eps, omega[0])
    eta = gridabs.snap_state_pitch(model.domain, bound)
    a = gridabs.build_abstraction(model, tau, eta, omega, eps=eps)
    assert max(a.eta) <= bound
    ilat = gridabs.input_lattice(model.input_box, a.omega)
    input_index = {coords: k for k, coords in enumerate(a.inputs)}
    level = kit.alpha_low(eps**2)
    flows = {}
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(20):
        x = np.zeros(model.n)
        si = a.states.index((0.0,))
        for _ in range(50):
            u = rng.uniform(-0.1, 0.1, 1)
            uhat = ilat.quantize(u, clip=True)
            ui = input_index[uhat]
            key = (si, ui)
            if key not in flows:
                zbar = gridabs.flow_nominal(
                    model, np.array(a.states[si]), np.array(uhat), np.zeros(1), tau, tol=1e-11
                ).endpoint
                succ, _ = a.transitions[(si, ui, 0)]
                flows[key] = min(succ, key=lambda s: abs(a.states[s][0] - zbar[0]))
            si = flows[key]
            x = gridabs.flow_nominal(model, x, u, np.zeros(1), tau, tol=1e-11).endpoint
            gap = abs(x[0] - a.states[si][0])
            ok = ok and gap <= eps + 1e-9
            ok = ok and cert.value(np.array(a.states[si]), x) <= level + 1e-9
    _report(6, "noise-free tracking stays within eps for 20 runs of 50 steps", ok)


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_monte_carlo_bounds(scalar_model, scalar_cert, scalar_kit):
    model, cert, kit = scalar_model, scalar_cert, scalar_kit
    tau, eps, etn = 0.5, 3.2, 0.1
    t0 = time.monotonic()
    omega = gridabs.snap_input_pitch(model.input_box, 0.2)
    bound = certify.pitch_upper_bound(kit, model, tau, eps, omega[0], eps_tilde_norm=etn)
    eta = gridabs.snap_state_pitch(model.domain, min(bound, eps))
    a = gridabs.build_abstraction(model, tau, eta, omega, eps=eps, eps_tilde=(etn,))
    assert max(a.eta) <= bound
    n = 10_000
    reports = [
        mcvalidate.validate_moment_closeness(model, kit, [0.5], tau, n_paths=n, seed=SEED),
        mcvalidate.validate_increment_bound(model, [0.5], tau, n_paths=n, seed=SEED),
        mcvalidate.validate_delta_iss(
            model, kit, tau, a=[0.5], a2=[-0.5], u=[0.1], u2=[-0.1], w=[0.3], w2=[-0.3],
            n_paths=n, seed=SEED,
        ),
        mcvalidate.validate_bisim_step(
            model, cert, kit, a, eps, eps_tilde_norm=etn,
            n_pairs=100, paths_per_pair=100, seed=SEED,
        ),
    ]
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in reports) and elapsed <= 300.0
    detail = ", ".join(f"{r.check}={'pass' if r.passed else 'FAIL'}" for r in reports)
    _report(7, f"Monte-Carlo bounds at N=1e4 ({detail}; {elapsed:.0f} s)", ok)


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_network_pipeline(pair_net):
    res = netcomp.synthesize_params(pair_net)
    ok = res.feasible
    etas = res.etas()
    omegas = {i: nd.omega for i, nd in enumerate(res.nodes)}
    parts = [netcomp.build_node_abstraction(pair_net, i, etas, omegas) for i in range(2)]
    comp = netcomp.compose_abstractions(pair_net, parts)
    ok = ok and len(comp.states) <= 25

    a, b = parts
    a_dist = {sym: k for k, sym in enumerate(a.dists)}
    b_dist = {sym: k for k, sym in enumerate(b.dists)}
    n_b = len(b.states)
    for ia, xa in enumerate(a.states):
        for ib, xb in enumerate(b.states):
            for iu_a in range(len(a.inputs)):
                for iu_b in range(len(b.inputs)):
                    succ_a, ood_a = a.transitions[(ia, iu_a, a_dist[xb])]
                    succ_b, ood_b = b.transitions[(ib, iu_b, b_dist[xa])]
                    expect = tuple(sorted(pa * n_b + pb for pa in succ_a for pb in succ_b))
                    got, ood = comp.transitions[
                        (ia * n_b + ib, iu_a * len(b.inputs) + iu_b, 0)
                    ]
                    ok = ok and got == expect and ood == (ood_a or ood_b)
    ok = ok and comp.eps == max(pair_net.eps) and comp.eps_tilde == ()
    _report(8, "2-node cycle: synthesis feasible, composition matches wiring oracle", ok)


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_euler_maruyama_sanity(scalar_model):
    n = 100_000
    vals, div = mcvalidate.simulate_ensemble(
        scalar_model, [1.0], [0.0], [0.0], 1.0, 2048, n, seed=SEED, checkpoint_steps=[2048]
    )
    end = vals[:, 0, 0]
    se = end.std(ddof=1) / math.sqrt(n)
    ok = not div.any() and abs(end.mean() - math.exp(-1.0)) <= 3.0 * se

    n_small = 2000
    errs = []
    step_list = [256, 512, 1024, 2048]
    for steps in step_list:
        v, _ = mcvalidate.simulate_ensemble(
            scalar_model, [1.0], [0.0], [0.0], 1.0, steps, n_small, seed=11,
            checkpoint_steps=[steps],
        )
        dt = 1.0 / steps
        sq = 0.0
        for k in range(n_small):
            z = np.random.default_rng([11, k]).standard_normal((steps, 1))
            exact = math.exp(-1.125 + 0.5 * math.sqrt(dt) * float(z.sum()))
            sq += (v[k, 0, 0] - exact) ** 2
        errs.append(math.sqrt(sq / n_small))
    slope, _ = np.polyfit(
        [math.log2(1.0 / s) for s in step_list], [math.log2(e) for e in errs], 1
    )
    ok = ok and 0.3 <= slope <= 0.7
    _report(9, f"ensemble mean within 3 SE of e^-1; strong slope {slope:.2f} in [0.3, 0.7]", ok)


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_parser_roundtrips():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(500):
        e = random_expr(rng)
        ok = ok and parse_expr(to_source(e), dims=EXPR_DIMS) == e
    malformed = ["", "1 +", "sin(x1", "x1 ** 2", "pow(x1)", "foo(x1)", "(x1))",
                 "x9 + 1", "1..2 + x1", "x1 $ 2"]
    for text in malformed:
        try:
            parse_expr(text, dims=EXPR_DIMS)
            ok = False
        except ParseError as exc:
            ok = ok and exc.line is not None
    _report(10, "500 expression round-trips; malformed inputs give positioned errors", ok)
