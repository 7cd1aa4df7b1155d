"""Quadratic contraction certificates and the derived quantization bounds.

A certificate is a symmetric positive definite matrix P and a rate kappa
such that V(x, x') = (x - x')' P (x - x') / 2 decays along pairs of
trajectories up to input/disturbance mismatch.  From a verified
certificate this module derives every scalar gain needed to size a grid
abstraction: the envelopes of V, the mismatch gains, the noise-gap bound,
the neighbour-drift bound for networks, and the resulting lower bound on
the achievable precision and upper bound on the state pitch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmpfun import (
    Compose,
    ComparisonFunction,
    KLFunction,
    PowerLaw,
    Zero,
    exact_inverse,
    scale,
)
from .errors import CertificateError, ParameterError
from .expr import affine_degrees
from .sysdsl import SysModel, inf_norm, sample_box

_E = math.e
_PITCH_TRIES = 60  # input pitches tried by search_input_pitch


def _sym_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True)
class QuadraticCertificate:
    """P and kappa, plus the spectral data reused by every bound.

    lu/lw are the input/disturbance Lipschitz constants of the drift;
    they default to the model's Lf when not supplied.
    """

    p: np.ndarray
    kappa: float
    lu: float
    lw: float
    lambda_min: float
    lambda_max: float
    sqrt_p_norm: float  # infinity norm of the symmetric square root of P
    hess_sqrt_norm_sq: float  # squared norm of sqrt of [[P,-P],[-P,P]]

    @classmethod
    def create(cls, p, kappa, lu=None, lw=None, lf=None):
        p = np.atleast_2d(np.asarray(p, float))
        n = p.shape[0]
        if p.shape != (n, n):
            raise CertificateError(f"P must be square, got shape {p.shape}")
        if not np.allclose(p, p.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(p).max()))):
            raise CertificateError("P must be symmetric")
        if kappa <= 0:
            raise CertificateError(f"kappa must be positive, got {kappa}")
        vals = np.linalg.eigvalsh(0.5 * (p + p.T))
        lam_min, lam_max = float(vals[0]), float(vals[-1])
        if lam_min <= 0:
            raise CertificateError(f"P must be positive definite (min eigenvalue {lam_min})")
        if lu is None:
            lu = lf
        if lw is None:
            lw = lf
        if lu is None or lw is None:
            raise CertificateError("need lu/lw or a model Lf to default to")
        block = np.block([[p, -p], [-p, p]])
        return cls(
            p=p,
            kappa=float(kappa),
            lu=float(lu),
            lw=float(lw),
            lambda_min=lam_min,
            lambda_max=lam_max,
            sqrt_p_norm=float(inf_norm(np.abs(_sym_sqrt(p)).sum(axis=1))),
            hess_sqrt_norm_sq=float(inf_norm(np.abs(_sym_sqrt(block)).sum(axis=1))) ** 2,
        )

    @classmethod
    def from_model(cls, sys: SysModel):
        if sys.cert_kappa is None or sys.cert_p is None:
            raise CertificateError(f"{sys.name}: no certificate declared (cert line missing)")
        return cls.create(
            sys.cert_p, sys.cert_kappa, lu=sys.input_lipschitz, lw=sys.dist_lipschitz
        )

    def value(self, a, b):
        """V(a, b) = (a-b)' P (a-b) / 2; broadcasts over trailing axes."""
        d = np.asarray(a, float) - np.asarray(b, float)
        return 0.5 * np.einsum("i...,ij,j...->...", d, self.p, d)


@dataclass(frozen=True)
class CertReport:
    mode: str
    accepted: bool
    margin: float  # max of the decay expression; accepted iff <= tolerance
    witness: tuple | None = None


def _drift_matrix(sys: SysModel):
    """A of a drift f = Ax + Bu + Ew + c whose trees show it affine, read at
    the unit vectors; any other drift is refused."""
    if any(affine_degrees(e) is None for e in sys.drift):
        raise CertificateError("drift is not affine; use mode='sampled'")
    zu, zw = np.zeros(sys.m), np.zeros(sys.p)
    c = sys.drift_eval(np.zeros(sys.n), zu, zw)
    return np.column_stack([sys.drift_eval(_unit(sys.n, j), zu, zw) - c for j in range(sys.n)])


def _diffusion_matrices(sys: SysModel):
    """G_k with sigma(x) columns G_k x, for a diffusion whose trees show it
    linear with no constant term, read at the unit vectors; any other
    diffusion is refused."""
    linear = (frozenset(), frozenset({1}))
    if any(affine_degrees(e) not in linear for row in sys.diffusion for e in row if e is not None):
        raise CertificateError("diffusion is not linear; use mode='sampled'")
    cols = [sys.diffusion_eval(_unit(sys.n, j)) for j in range(sys.n)]
    return [np.column_stack([col[:, k] for col in cols]) for k in range(sys.r)]


def _unit(n, j):
    v = np.zeros(n)
    v[j] = 1.0
    return v


def verify_certificate(
    sys: SysModel,
    cert: QuadraticCertificate,
    mode: str = "linear-exact",
    samples: int = 4000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CertReport:
    """Check the contraction condition for V against the model.

    linear-exact: requires a drift f = Ax + Bu + Ew + c and diffusion
    columns G_k x that their expression trees show affine and linear
    (expr.affine_degrees), and tests A'P + PA + sum_k G_k'P G_k
    <= -2*kappa*P through the eigenvalues of the symmetric part.

    sampled: evaluates the decay expression on random (x, x', u, w)
    tuples from the working boxes; a violation refutes the certificate,
    acceptance is evidence only.
    """
    if cert.p.shape[0] != sys.n:
        raise CertificateError(f"certificate is {cert.p.shape[0]}-dimensional, model has n={sys.n}")
    if mode == "linear-exact":
        a = _drift_matrix(sys)
        gs = _diffusion_matrices(sys)
        m = a.T @ cert.p + cert.p @ a + 2.0 * cert.kappa * cert.p
        for g in gs:
            m = m + g.T @ cert.p @ g
        m = 0.5 * (m + m.T)
        margin = float(np.linalg.eigvalsh(m)[-1])
        return CertReport(mode=mode, accepted=margin <= tol, margin=margin)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(seed)
    x = sample_box(rng, sys.domain, samples)
    x2 = sample_box(rng, sys.domain, samples)
    u = sample_box(rng, sys.input_box, samples)
    w = sample_box(rng, sys.dist_box, samples)
    d = x - x2
    df = sys.drift_eval(x, u, w) - sys.drift_eval(x2, u, w)
    quad = np.einsum("is,ij,js->s", d, cert.p, df)
    sq = _sym_sqrt(cert.p)
    ds = sys.diffusion_eval(x) - sys.diffusion_eval(x2)
    tmp = np.einsum("ij,jks->iks", sq, ds)
    frob = (tmp**2).sum(axis=(0, 1))
    v = 0.5 * np.einsum("is,ij,js->s", d, cert.p, d)
    lhs = quad + 0.5 * frob + 2.0 * cert.kappa * v
    worst = int(np.argmax(lhs))
    margin = float(lhs[worst])
    accepted = margin <= tol * (1.0 + float(np.abs(v).max()))
    witness = None
    if not accepted:
        witness = (x[:, worst].tolist(), x2[:, worst].tolist(), u[:, worst].tolist(), w[:, worst].tolist())
    return CertReport(mode=mode, accepted=accepted, margin=margin, witness=witness)


@dataclass(frozen=True)
class BoundKit:
    """All scalar gains derived from a verified certificate.

    alpha_low/alpha_high sandwich V against the squared infinity-norm
    distance; sigma_u/sigma_d are the generator's mismatch gains;
    v_modulus bounds |V(x,x') - V(x,x'')| on the working box; beta,
    rho_u, rho_d are the trajectory-level envelopes built from them.
    """

    alpha_low: ComparisonFunction
    alpha_high: ComparisonFunction
    sigma_u: ComparisonFunction
    sigma_d: ComparisonFunction
    v_modulus: ComparisonFunction
    beta: KLFunction
    rho_u: ComparisonFunction
    rho_d: ComparisonFunction
    kappa: float
    hess_sqrt_norm_sq: float
    state_dim: int
    noise_dim: int
    l_sigma: float


def sup_two_norm_sq(box) -> float:
    """sup of the squared 2-norm over an axis-aligned box."""
    box = np.asarray(box, float)
    if box.shape[0] == 0:
        return 0.0
    return float((np.abs(box).max(axis=1) ** 2).sum())


def inf_diameter(box) -> float:
    """sup of the infinity-norm distance between two points of the box."""
    box = np.asarray(box, float)
    if box.shape[0] == 0:
        return 0.0
    return float((box[:, 1] - box[:, 0]).max())


def derive_bounds(sys: SysModel, cert: QuadraticCertificate) -> BoundKit:
    """Assemble the gain kit for a verified certificate.

    With q = 2 and the quadratic V, the envelopes are linear:
    lambda_min/2 * s <= V <= n*lambda_max/2 * s for s the squared
    infinity-norm distance (the factor n bridges 2-norm to infinity
    norm).  The mismatch gains carry the exact constants of the
    contraction proof, and v_modulus comes from
    V(x,x') - V(x,x'') = (a-b)' P (a+b) / 2 bounded over the domain.
    """
    n = sys.n
    alpha_low = PowerLaw(0.5 * cert.lambda_min, 1.0)
    alpha_high = PowerLaw(0.5 * n * cert.lambda_max, 1.0)
    inv_low = exact_inverse(alpha_low)
    ssq = cert.sqrt_p_norm**2
    sigma_u = (
        PowerLaw(n * cert.lu**2 * ssq / cert.kappa, 2.0) if cert.lu > 0 else Zero()
    )
    sigma_d = (
        PowerLaw(n * cert.lw**2 * ssq / cert.kappa, 1.0) if cert.lw > 0 else Zero()
    )
    diam = inf_diameter(sys.domain)
    v_modulus = PowerLaw(n * cert.lambda_max * diam, 1.0) if diam > 0 else Zero()
    beta = KLFunction(base=Compose(inv_low, alpha_high), decay=cert.kappa)
    rho_u = Zero() if isinstance(sigma_u, Zero) else Compose(inv_low, scale(sigma_u, 1.0 / cert.kappa))
    rho_d = Zero() if isinstance(sigma_d, Zero) else Compose(inv_low, scale(sigma_d, 1.0 / cert.kappa))
    return BoundKit(
        alpha_low=alpha_low,
        alpha_high=alpha_high,
        sigma_u=sigma_u,
        sigma_d=sigma_d,
        v_modulus=v_modulus,
        beta=beta,
        rho_u=rho_u,
        rho_d=rho_d,
        kappa=cert.kappa,
        hess_sqrt_norm_sq=cert.hess_sqrt_norm_sq,
        state_dim=n,
        noise_dim=sys.r,
        l_sigma=sys.lsigma,
    )


def noise_gap_bound(kit: BoundKit, sys: SysModel, t: float) -> float:
    """Bound on E[ |noisy - noise-free trajectory|^2 ] at time t.

    Zero at t = 0 and identically zero when the diffusion Lipschitz
    constant vanishes.  The envelope integral is separable (the decaying
    factor is an exact exponential), so it is evaluated in closed form.
    """
    if t < 0:
        raise ParameterError(f"time must be nonnegative, got {t}")
    if t == 0.0 or kit.l_sigma == 0.0:
        return 0.0
    # sup of the infinity norm over a box: the largest absolute bound
    sup_d2 = inf_norm(np.ravel(sys.domain)) ** 2
    sup_u = inf_norm(np.ravel(sys.input_box))
    sup_w2 = inf_norm(np.ravel(sys.dist_box)) ** 2
    k = kit.kappa
    base_val = kit.beta.base(sup_d2)
    const_val = kit.rho_u(sup_u) + kit.rho_d(sup_w2)
    integral = base_val * (1.0 - math.exp(-k * t)) / k + const_val * t
    factor = (
        0.5
        * kit.hess_sqrt_norm_sq
        * kit.state_dim
        * min(kit.state_dim, kit.noise_dim)
        * math.exp(-k * t)
        * kit.l_sigma**2
    )
    return kit.alpha_low.invert(factor * integral)


def neighbor_drift_bound(neighbor_models, t: float) -> float:
    """Bound on how far neighbour states drift (root mean square) in time t.

    Grows from zero with t; identically zero without neighbours.
    """
    if t < 0:
        raise ParameterError(f"time must be nonnegative, got {t}")
    models = list(neighbor_models)
    if not models or t == 0.0:
        return 0.0
    acc = 0.0
    for mdl in models:
        alpha = mdl.growth_k + 2.0 * math.sqrt(mdl.growth_k)
        beta = 2.0 * (1.0 + sup_two_norm_sq(mdl.domain))
        acc += beta * math.exp(alpha * t)
    return math.sqrt(t * (t + 1.0) * acc)


def increment_constant(sys: SysModel, a_second_moment: float, tau: float) -> float:
    """C with E[ |xi(t) - xi(s)|_2^2 ] <= C |t - s| on [0, tau]."""
    if tau < 0:
        raise ParameterError(f"tau must be nonnegative, got {tau}")
    if a_second_moment < 0:
        raise ParameterError("second moment cannot be negative")
    alpha = sys.growth_k + 2.0 * math.sqrt(sys.growth_k)
    return 2.0 * (1.0 + a_second_moment) * (tau + 1.0) * math.exp(alpha * tau)


def precision_lower_bound(
    kit: BoundKit,
    sys: SysModel,
    tau: float,
    eps_tilde_norm: float = 0.0,
    psi_tau: float = 0.0,
) -> float:
    """Strict lower bound on the precision eps admitting feasible pitches.

    Any eps strictly above this value leaves room for positive eta and
    omega in pitch_upper_bound.
    """
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    k = kit.kappa
    h = noise_gap_bound(kit, sys, tau)
    num = kit.sigma_d(psi_tau + eps_tilde_norm) / (_E * k) + kit.v_modulus(math.sqrt(h))
    val = kit.alpha_low.invert(num / (1.0 - math.exp(-k * tau)))
    return math.sqrt(val)


def pitch_upper_bound(
    kit: BoundKit,
    sys: SysModel,
    tau: float,
    eps: float,
    omega: float,
    eps_tilde_norm: float = 0.0,
    psi_tau: float = 0.0,
) -> float:
    """Largest admissible state pitch eta for the given parameters.

    May be negative or -inf: that signals infeasibility of (eps, omega)
    and is returned rather than raised so searches can bracket on it.
    """
    terms = pitch_terms(kit, sys, tau, eps, omega, eps_tilde_norm=eps_tilde_norm, psi_tau=psi_tau)
    return terms["pitch_bound"]


def pitch_terms(
    kit: BoundKit,
    sys: SysModel,
    tau: float,
    eps: float,
    omega: float,
    eps_tilde_norm: float = 0.0,
    psi_tau: float = 0.0,
) -> dict:
    """Every term of the pitch condition, for reporting and search."""
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if omega < 0:
        raise ParameterError(f"omega must be nonnegative, got {omega}")
    k = kit.kappa
    low_val = kit.alpha_low(eps**2)
    cap_term = kit.alpha_high.invert(low_val)
    decay = 1.0 - math.exp(-k * tau)
    input_term = kit.sigma_u(omega) / (_E * k)
    dist_term = kit.sigma_d(psi_tau + eps_tilde_norm) / (_E * k)
    h = noise_gap_bound(kit, sys, tau)
    sqrt_h = math.sqrt(h)
    gamma_arg = decay * low_val - input_term - dist_term
    if gamma_arg < 0.0:
        gamma_term = -math.inf
    elif isinstance(kit.v_modulus, Zero):
        gamma_term = math.inf
    else:
        gamma_term = kit.v_modulus.invert(gamma_arg) - sqrt_h
    return {
        "alpha_low_eps_sq": low_val,
        "cap_term": cap_term,
        "decay": decay,
        "input_term": input_term,
        "dist_term": dist_term,
        "noise_gap": h,
        "sqrt_noise_gap": sqrt_h,
        "gamma_arg": gamma_arg,
        "gamma_term": gamma_term,
        "pitch_bound": min(cap_term, gamma_term),
    }


def search_input_pitch(
    kit: BoundKit,
    sys: SysModel,
    tau: float,
    eps: float,
    omega: float,
    floor: float,
    eps_tilde_norm: float = 0.0,
    psi_tau: float = 0.0,
):
    """Halve the input pitch from omega until the admissible state pitch clears floor.

    Tries at most _PITCH_TRIES pitches and returns (omega, terms): the last
    pitch tried and its pitch_terms.  The search is feasible when
    terms["pitch_bound"] >= floor; it stops at once for omega = 0 (a
    system without inputs).
    """
    def terms_at(om):
        return pitch_terms(kit, sys, tau, eps, om, eps_tilde_norm=eps_tilde_norm, psi_tau=psi_tau)

    terms = terms_at(omega)
    for _ in range(_PITCH_TRIES - 1):
        if terms["pitch_bound"] >= floor or omega == 0.0:
            break
        omega *= 0.5
        terms = terms_at(omega)
    return omega, terms
