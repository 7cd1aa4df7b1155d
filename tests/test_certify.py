import dataclasses
import math

import numpy as np
import pytest

from stochabs import certify, netcomp, sysdsl
from stochabs.errors import CertificateError, ExprEvalError, InversionError
from stochabs.expr import Bin, Call, Lit, Neg, Pow, Var, affine_degrees, compile_array, parse_expr, to_source
from stochabs.sysdsl import SysModel
from tests.conftest import DATA


def test_accepts_exact_rate(scalar_model, scalar_cert):
    # kappa* = 1 - c^2/2 with c = 0.5
    rep = certify.verify_certificate(scalar_model, scalar_cert, mode="linear-exact")
    assert rep.accepted and abs(rep.margin) <= 1e-9


def test_rejects_above_exact_rate(scalar_model):
    cert = certify.QuadraticCertificate.create([[1.0]], 0.9, lf=1.0)
    rep = certify.verify_certificate(scalar_model, cert, mode="linear-exact")
    assert not rep.accepted
    assert rep.margin == pytest.approx(0.05, abs=1e-12)


def test_pure_contraction_accepts_unit_rate(scalar_det_model, det_cert):
    assert det_cert.kappa == 1.0
    rep = certify.verify_certificate(scalar_det_model, det_cert, mode="linear-exact")
    assert rep.accepted


def test_non_spd_rejected():
    with pytest.raises(CertificateError, match="positive definite"):
        certify.QuadraticCertificate.create([[-1.0]], 0.5, lf=1.0)
    with pytest.raises(CertificateError, match="symmetric"):
        certify.QuadraticCertificate.create([[1.0, 0.5], [0.0, 1.0]], 0.5, lf=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_certificate_rejected(bad):
    with pytest.raises(CertificateError, match="P must have finite entries"):
        certify.QuadraticCertificate.create([[1.0, bad], [bad, 1.0]], 0.5, lf=1.0)
    with pytest.raises(CertificateError, match="kappa must be positive and finite"):
        certify.QuadraticCertificate.create([[1.0]], bad, lf=1.0)


def _linear_model(a, gs, box=1.0):
    """Affine system x' = A x (+ u + w summed in), diffusion columns G_k x."""
    n = a.shape[0]

    def lincomb(coeffs, kind):
        e = None
        for j, c in enumerate(coeffs):
            term = Bin("*", Lit(float(c)), Var(kind, j + 1))
            e = term if e is None else Bin("+", e, term)
        return e if e is not None else Lit(0.0)

    drift = tuple(lincomb(a[i], "x") for i in range(n))
    diffusion = tuple(
        tuple(lincomb(g[i], "x") for g in gs) for i in range(n)
    )
    return SysModel(
        name="lin",
        n=n,
        m=0,
        p=0,
        r=max(len(gs), 1),
        drift=drift,
        diffusion=diffusion if gs else tuple((None,) for _ in range(n)),
        domain=tuple((-box, box) for _ in range(n)),
        input_box=(),
        dist_box=(),
        lf=float(np.abs(a).sum(axis=1).max()),
        lsigma=float(sum(np.abs(g).sum(axis=1).max() for g in gs)) if gs else 0.0,
        growth_k=4.0 * (1.0 + float(np.abs(a).max()) ** 2),
    )


def test_modes_agree_on_affine_systems():
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(1, 3))
        a = -np.eye(n) * rng.uniform(0.5, 2.0) + 0.2 * rng.standard_normal((n, n))
        g = 0.2 * rng.standard_normal((n, n))
        sys_model = _linear_model(a, [g])
        m = a.T + a + g.T @ g
        kappa_star = -float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1]) / 2.0
        if kappa_star <= 0.05:
            continue
        for kappa, expect in ((0.8 * kappa_star, True), (1.2 * kappa_star, False)):
            cert = certify.QuadraticCertificate.create(np.eye(n), kappa, lf=1.0)
            exact = certify.verify_certificate(sys_model, cert, mode="linear-exact")
            sampled = certify.verify_certificate(sys_model, cert, mode="sampled", samples=3000, seed=5)
            assert exact.accepted == expect
            assert sampled.accepted == expect


def test_nonaffine_rejected_in_exact_mode(scalar_model):
    sine = dataclasses.replace(
        scalar_model, drift=(Call("sin", Var("x", 1)),)
    )
    cert = certify.QuadraticCertificate.create([[1.0]], 0.5, lf=1.0)
    with pytest.raises(CertificateError, match="not affine"):
        certify.verify_certificate(sine, cert, mode="linear-exact")


def _affine_by_value(e, rng, dims=(3, 2, 2)):
    """The sampled affinity test: e against the affine map read at the unit
    vectors, at 32 random points of [-1, 1]^(n + m + p)."""
    f = compile_array({(0,): e}, (1,), "x, u, w")

    def at(v):
        return f(*np.split(np.asarray(v, float), np.cumsum(dims)[:-1]))[0]

    c = at(np.zeros(sum(dims)))
    coeffs = np.array([at(certify._unit(sum(dims), j)) - c for j in range(sum(dims))])
    for _ in range(32):
        v = rng.uniform(-1, 1, sum(dims))
        value = at(v)
        if abs(value - (coeffs @ v + c)) > 1e-9 * (1.0 + abs(value)):
            return False
    return True


def _random_tree(rng, kinds="xuw", depth=0):
    """Random trees, often affine: leaves, sums, products, quotients, calls and powers."""
    pick = rng.random()
    if depth >= 4 or pick < 0.3:
        if rng.random() < 0.5:
            kind = kinds[rng.integers(len(kinds))]
            return Var(kind, int(rng.integers(1, {"x": 4, "u": 3, "w": 3}[kind])))
        return Lit(0.0 if rng.random() < 0.2 else float(np.round(rng.uniform(0, 3), 2)))
    if pick < 0.4:
        return Neg(_random_tree(rng, kinds, depth + 1))
    if pick < 0.8:
        lhs, rhs = _random_tree(rng, kinds, depth + 1), _random_tree(rng, kinds, depth + 1)
        return Bin("+-*/"[rng.integers(4)], lhs, rhs)
    if pick < 0.9:
        return Call(("sin", "cos", "tanh", "exp")[rng.integers(4)], _random_tree(rng, kinds, depth + 1))
    return Pow(_random_tree(rng, kinds, depth + 1), int(rng.integers(-2, 4)))


def test_tree_affinity_examples():
    cases = {
        "-x1 + u1 + w1": {1},
        "2*(x1 + 3)/4 - w2": {0, 1},
        "sin(2)*x1": {1},
        "pow(x1, 1) + pow(x2, 0)": {0, 1},
        "0*x1*x1": set(),
        "0": set(),
        "x1*x1 - x1*x1": None,
        "x1/x2": None,
        "pow(x1, 2)": None,
        "exp(x1)": None,
        "-x1 + u1 + w1 + 10*exp(-1000000*pow(x1 - 0.5, 2))": None,
    }
    for text, degrees in cases.items():
        assert affine_degrees(parse_expr(text, dims=(3, 2, 2))) == degrees, text


def test_tree_affine_implies_sampled_affine():
    # the proof's premise against the parent's sampled test: whenever a
    # tree says affine, its values are affine at 32 random points
    rng = np.random.default_rng(2026)
    counts = {True: 0, False: 0}
    while counts[True] < 300:
        e = _random_tree(rng)
        try:
            with np.errstate(all="ignore"):
                affine = _affine_by_value(e, rng)
        except (ExprEvalError, OverflowError):
            continue
        degrees = affine_degrees(e)
        counts[degrees is not None] += 1
        if degrees is not None:
            assert affine, to_source(e)
    assert counts[False] > 50


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 1729])
def test_bump_model_is_never_proved(seed):
    # node.sys with a bump of height 10 and width about 0.002 at x1 = 0.5:
    # its slope reaches about 8,600 there, so it does not contract.  The
    # 32-point test let it through as linear-exact at seeds 1, 3, 4, 5 and 1729.
    bump = sysdsl.parse_system((DATA / "node.sys").read_text().replace(
        "x1' = -x1 + u1 + w1", "x1' = -x1 + u1 + w1 + 10*exp(-1000000*pow(x1 - 0.5, 2))"))
    cert = certify.QuadraticCertificate.from_model(bump)
    with pytest.raises(CertificateError, match="drift is not affine"):
        certify.verify_certificate(bump, cert, mode="linear-exact", seed=seed)
    assert netcomp.verified_kit(bump, cert, seed)[0] == "sampled"


def test_diffusion_needs_a_linear_tree(scalar_model, scalar_cert):
    for text, linear in [("0.5*x1", True), ("x1*0.5 + 0*x1", True), ("0.5*x1 + 0.1", False),
                         ("0.5*x1 + 0.1 - 0.1", False), ("0.5*sin(x1)", False)]:
        model = dataclasses.replace(scalar_model, diffusion=((parse_expr(text, dims=(1, 1, 1)),),))
        if linear:
            assert certify.verify_certificate(model, scalar_cert).mode == "linear-exact"
        else:
            with pytest.raises(CertificateError, match="diffusion is not linear"):
                certify.verify_certificate(model, scalar_cert)


def test_derived_gain_constants(scalar_kit):
    kit = scalar_kit
    # n=1, P=1, kappa=0.875, Lu=Lw=1: sigma_u(r) = r^2/0.875, sigma_d(r) = r/0.875
    assert kit.sigma_u(1.0) == pytest.approx(1.0 / 0.875, rel=1e-12)
    assert kit.sigma_u(0.5) == pytest.approx(0.25 / 0.875, rel=1e-12)
    assert kit.sigma_d(1.0) == pytest.approx(1.0 / 0.875, rel=1e-12)
    # rho(r) = alpha_low^-1(sigma(r) / kappa) = 2 sigma(r) / 0.875
    assert kit.rho_u(0.5) == pytest.approx(0.5 / 0.875**2, rel=1e-12)
    assert kit.rho_d(1.0) == pytest.approx(2.0 / 0.875**2, rel=1e-12)
    # lambda_min = lambda_max = 1: both envelopes are r/2
    assert kit.alpha_low(3.0) == 1.5 and kit.alpha_high(3.0) == 1.5
    # beta(r, s) = r * exp(-0.875 s)
    assert kit.beta(2.0, 0.0) == pytest.approx(2.0, rel=1e-12)
    assert kit.beta(1.0, 2.0) == pytest.approx(math.exp(-1.75), rel=1e-12)


def test_v_modulus_bound_sampled(scalar_model, scalar_cert, scalar_kit):
    # v_modulus(r) = 2r on D = [-1, 1]; check the defining inequality
    assert scalar_kit.v_modulus(1.0) == pytest.approx(2.0, rel=1e-12)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, size=(10_000, 3))
    for x, x1, x2 in pts:
        lhs = abs(scalar_cert.value([x], [x1]) - scalar_cert.value([x], [x2]))
        assert lhs <= scalar_kit.v_modulus(abs(x1 - x2)) + 1e-12


def test_concave_gains(scalar_kit):
    # generator disturbance gain and the V-modulus must be concave: both are
    # linear in r, with the kit's positive coefficients
    kit = scalar_kit
    assert kit.c_d > 0.0 and kit.c_v > 0.0
    for r in (0.0, 0.3, 1.0, 7.5):
        assert kit.sigma_d(r) == kit.c_d * r and kit.v_modulus(r) == kit.c_v * r
    for a, b in ((0.0, 2.0), (0.5, 4.0)):
        for gain in (kit.sigma_d, kit.v_modulus):
            assert gain((a + b) / 2) >= (gain(a) + gain(b)) / 2 - 1e-12


def _random_kit(rng):
    """The kit of a random certificate on a random n-dimensional linear model."""
    n = int(rng.integers(1, 4))
    model = _linear_model(-np.eye(n), [], box=float(rng.uniform(0.5, 3.0)))
    q = rng.normal(size=(n, n))
    p = q @ q.T + n * np.eye(n)
    cert = certify.QuadraticCertificate.create(
        p, rng.uniform(0.1, 2.0), lu=rng.uniform(0.1, 2.0), lw=rng.uniform(0.1, 2.0)
    )
    return certify.derive_bounds(model, cert)


def test_kit_inverse_round_trips():
    rng = np.random.default_rng(42)
    for _ in range(200):
        kit = _random_kit(rng)
        r = 10.0 ** rng.uniform(-3, 2)
        for gain, inverse in (
            (kit.alpha_low, kit.alpha_low_inv),
            (kit.alpha_high, kit.alpha_high_inv),
            (kit.v_modulus, kit.v_modulus_inv),
        ):
            assert gain(0.0) == 0.0 and inverse(0.0) == 0.0 and gain(r) < gain(1.5 * r)
            assert inverse(gain(r)) == pytest.approx(r, rel=1e-12)
            assert gain(inverse(r)) == pytest.approx(r, rel=1e-12)


def test_kit_refuses_negative_and_nan_arguments(scalar_kit):
    kit = scalar_kit
    for bad in (-0.5, math.nan):
        for gain in (kit.alpha_low, kit.alpha_high, kit.sigma_u, kit.sigma_d,
                     kit.v_modulus, kit.rho_u, kit.rho_d):
            with pytest.raises(ValueError):
                gain(bad)
        with pytest.raises(ValueError):
            kit.beta(bad, 1.0)
        # an overflowed bound reaches an inverse as NaN: a typed error, not a NaN result
        for inverse in (kit.alpha_low_inv, kit.alpha_high_inv, kit.v_modulus_inv):
            with pytest.raises(InversionError):
                inverse(bad)


def test_kit_beta_decreases_in_time(scalar_kit):
    kit = scalar_kit
    vals = [kit.beta(3.0, s) for s in np.linspace(0.0, 10.0, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert kit.beta(3.0, 1e6) == 0.0
    with pytest.raises(ValueError):
        kit.beta(1.0, -0.5)


def test_kit_zero_gains(scalar_det_model):
    # no input or disturbance mismatch (Lu = Lw = 0): the mismatch gains and
    # their envelopes vanish, on every argument
    cert = certify.QuadraticCertificate.create([[1.0]], 1.0, lu=0.0, lw=0.0)
    kit = certify.derive_bounds(scalar_det_model, cert)
    assert kit.c_u == kit.c_d == 0.0
    for r in (0.0, 0.5, 3.0, 1e200, math.inf):
        for gain in (kit.sigma_u, kit.sigma_d, kit.rho_u, kit.rho_d):
            assert gain(r) == 0.0


def test_zero_width_domain_leaves_the_pitch_to_the_cap(scalar_det_model, det_cert):
    # a point domain: V's modulus vanishes, so the gamma term sets no limit
    point = dataclasses.replace(scalar_det_model, domain=((0.25, 0.25),))
    kit = certify.derive_bounds(point, det_cert)
    assert kit.c_v == 0.0 and kit.v_modulus(2.0) == 0.0
    terms = certify.pitch_terms(kit, point, 0.5, 0.5, 0.0)
    assert terms["gamma_term"] == math.inf
    assert terms["pitch_bound"] == terms["cap_term"] == kit.alpha_high_inv(kit.alpha_low(0.25))


def test_hessian_block_norm(scalar_cert):
    # [[P,-P],[-P,P]] for P=1 has sqrt-norm squared exactly 2
    assert scalar_cert.hess_sqrt_norm_sq == pytest.approx(2.0, rel=1e-12)
    cert2 = certify.QuadraticCertificate.create([[2.0, 0.3], [0.3, 1.0]], 0.5, lf=1.0)
    assert cert2.hess_sqrt_norm_sq == pytest.approx(2.0 * cert2.sqrt_p_norm**2, rel=1e-9)


def test_noise_gap_degenerate(scalar_kit, scalar_model, det_kit, scalar_det_model):
    assert certify.noise_gap_bound(scalar_kit, scalar_model, 0.0) == 0.0
    for t in (0.1, 0.5, 2.0):
        assert certify.noise_gap_bound(det_kit, scalar_det_model, t) == 0.0
    with pytest.raises(ValueError):
        certify.noise_gap_bound(scalar_kit, scalar_model, -1.0)


def test_noise_gap_vs_quadrature(scalar_kit, scalar_model):
    # independent route: trapezoid quadrature of the envelope integral
    kit, m = scalar_kit, scalar_model
    for t in (0.25, 0.5, 1.0):
        s = np.linspace(0.0, t, 100_001)
        integrand = kit.beta(1.0, 0.0) * np.exp(-kit.kappa * s) + kit.rho_u(0.1) + kit.rho_d(1.0)
        integral = np.trapezoid(integrand, s)
        factor = 0.5 * 2.0 * 1 * 1 * math.exp(-kit.kappa * t) * 0.25
        expected = kit.alpha_low_inv(factor * integral)
        assert certify.noise_gap_bound(kit, m, t) == pytest.approx(expected, rel=1e-6)


def test_neighbor_drift_examples(scalar_model):
    assert certify.neighbor_drift_bound([], 5.0) == 0.0
    nbr = dataclasses.replace(scalar_model, growth_k=1.0)
    assert certify.neighbor_drift_bound([nbr], 0.0) == 0.0
    # alpha = 3, beta = 4: psi(1) = sqrt(2 * 4 * e^3)
    assert certify.neighbor_drift_bound([nbr], 1.0) == pytest.approx(
        math.sqrt(8.0 * math.e**3), rel=1e-12
    )
    assert certify.neighbor_drift_bound([nbr], 1.0) == pytest.approx(12.676, abs=5e-4)


def test_increment_constant(scalar_model):
    k1 = dataclasses.replace(scalar_model, growth_k=1.0)
    assert certify.increment_constant(k1, 0.0, 1.0) == pytest.approx(4.0 * math.e**3, rel=1e-12)
    assert certify.increment_constant(k1, 0.0, 1.0) == pytest.approx(80.342, abs=5e-3)
    k0 = dataclasses.replace(scalar_model, growth_k=0.0)
    assert certify.increment_constant(k0, 0.0, 1.0) == 4.0
    assert certify.increment_constant(k1, 0.3, 0.0) == pytest.approx(2.6, rel=1e-12)


def test_precision_floor_deterministic_zero(det_kit, scalar_det_model):
    assert certify.precision_lower_bound(det_kit, scalar_det_model, 0.5) == 0.0


def test_precision_floor_monotone_in_mismatch(scalar_kit, scalar_model):
    vals = [
        certify.precision_lower_bound(scalar_kit, scalar_model, 0.5, eps_tilde_norm=e)
        for e in (0.0, 0.1, 0.5, 1.0, 2.0)
    ]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_pitch_bound_infeasible_below_floor(scalar_kit, scalar_model):
    floor = certify.precision_lower_bound(scalar_kit, scalar_model, 0.5, eps_tilde_norm=0.1)
    bound = certify.pitch_upper_bound(
        scalar_kit, scalar_model, 0.5, 0.9 * floor, 0.01, eps_tilde_norm=0.1
    )
    assert bound < 0 or bound == -math.inf


def test_pitch_bound_deterministic_positive(det_kit, scalar_det_model):
    bound = certify.pitch_upper_bound(det_kit, scalar_det_model, 0.5, 0.5, 0.0)
    assert 0.0 < bound <= 0.25  # also below the eps^2 cap


def test_pitch_bound_monotonicity(scalar_kit, scalar_model):
    rng = np.random.default_rng(31)
    for _ in range(40):
        tau = rng.uniform(0.2, 1.0)
        eps = rng.uniform(3.0, 6.0)
        om = rng.uniform(0.0, 0.2)
        etn = rng.uniform(0.0, 0.5)
        base = certify.pitch_upper_bound(scalar_kit, scalar_model, tau, eps, om, eps_tilde_norm=etn)
        assert certify.pitch_upper_bound(
            scalar_kit, scalar_model, tau, eps, om + 0.05, eps_tilde_norm=etn
        ) <= base + 1e-12
        assert certify.pitch_upper_bound(
            scalar_kit, scalar_model, tau, eps, om, eps_tilde_norm=etn + 0.2
        ) <= base + 1e-12
        assert certify.pitch_upper_bound(
            scalar_kit, scalar_model, tau, eps + 0.5, om, eps_tilde_norm=etn
        ) >= base - 1e-12


def test_search_input_pitch_halves_until_the_floor(scalar_kit, scalar_model):
    def search(omega, floor, **kw):
        return certify.search_input_pitch(
            scalar_kit, scalar_model, 0.5, 3.2, omega, floor, eps_tilde_norm=0.1, **kw
        )

    def terms_at(omega):
        return certify.pitch_terms(scalar_kit, scalar_model, 0.5, 3.2, omega, eps_tilde_norm=0.1)

    # bounds 0.1274 at 0.2, 0.1347 at 0.1 and 0.1365 at 0.05
    omega, terms = search(0.2, 0.136)
    assert omega == 0.05 and terms == terms_at(0.05)
    # an unreachable floor: 60 pitches tried, the terms belong to the last
    omega, terms = search(0.2, 1.0)
    assert omega == 0.2 * 0.5**59 and terms == terms_at(omega)
    assert terms["pitch_bound"] < 1.0
    # a system without inputs stops at once
    assert search(0.0, 1.0)[0] == 0.0


def test_feasible_pitch_exists_above_floor(scalar_kit, scalar_model):
    # any precision strictly above the floor admits positive (omega, eta)
    rng = np.random.default_rng(5)
    for _ in range(20):
        etn = rng.uniform(0.0, 0.3)
        floor = certify.precision_lower_bound(scalar_kit, scalar_model, 0.5, eps_tilde_norm=etn)
        eps = floor * rng.uniform(1.02, 1.5)
        omega = 0.2
        found = False
        for _ in range(60):
            if certify.pitch_upper_bound(
                scalar_kit, scalar_model, 0.5, eps, omega, eps_tilde_norm=etn
            ) > 0:
                found = True
                break
            omega *= 0.5
        assert found
