import math
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from stochabs import certify, sysdsl
from stochabs.mcvalidate import _diverging, _noise_term

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def scalar_model():
    return sysdsl.load(DATA / "scalar.sys")


@pytest.fixture(scope="session")
def scalar_det_model():
    return sysdsl.load(DATA / "scalar_det.sys")


@pytest.fixture(scope="session")
def scalar_cert(scalar_model):
    return certify.QuadraticCertificate.from_model(scalar_model)


@pytest.fixture(scope="session")
def scalar_kit(scalar_model, scalar_cert):
    return certify.derive_bounds(scalar_model, scalar_cert)


@pytest.fixture(scope="session")
def det_cert(scalar_det_model):
    return certify.QuadraticCertificate.from_model(scalar_det_model)


@pytest.fixture(scope="session")
def det_kit(scalar_det_model, det_cert):
    return certify.derive_bounds(scalar_det_model, det_cert)


@pytest.fixture(scope="session")
def pair_net():
    return sysdsl.load(DATA / "pair.net")


def table(transitions, shape):
    """succ and ood arrays of the (S, U, D) table given as a dict
    {(s, u, d): (successors, ood)}; rows missing from the dict stay empty."""
    k = max((len(targets) for targets, _ in transitions.values()), default=0)
    succ, ood = np.full((*shape, k), -1), np.zeros(shape, bool)
    for key, (targets, flag) in transitions.items():
        succ[key][: len(targets)] = sorted(targets)
        ood[key] = flag
    return {"succ": succ, "ood": ood}


def vector_metric(w1, w2, blocks) -> tuple:
    """Per-block infinity norms between two disturbance vectors."""
    out = []
    pos = 0
    for size in blocks:
        a = w1[pos : pos + size]
        b = w2[pos : pos + size]
        out.append(max((abs(x - y) for x, y in zip(a, b)), default=0.0))
        pos += size
    return tuple(out)


def _path_rng(seed, path_index):
    return np.random.default_rng([int(seed), int(path_index)])


@dataclass
class EMPath:
    states: np.ndarray  # (steps + 1, n)
    diverged_at: int | None  # first non-finite step, or None

    @property
    def diverged(self):
        return self.diverged_at is not None


def simulate_em(sys, x0, u, w, tau, steps, seed, path_index=0) -> EMPath:
    """One Euler-Maruyama path with the (seed, path_index) noise stream.

    The single-path oracle of the ensemble kernel: it uses the kernel's
    contraction and divergence test and adds x + f dt + sigma(x) z in the
    kernel's order, so it reproduces any ensemble path bit for bit.  u and
    w are constant vectors.  A non-finite or exploding state freezes the
    path and records the offending step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = tau / steps
    sdt = math.sqrt(dt)
    u = np.atleast_1d(np.asarray(u, float))
    w = np.atleast_1d(np.asarray(w, float))
    z = _path_rng(seed, path_index).standard_normal((steps, sys.r))
    out = np.empty((steps + 1, sys.n))
    x = np.atleast_1d(np.asarray(x0, float)).copy()
    out[0] = x
    for k in range(steps):
        f = sys.drift_eval(x, u, w)
        s = sys.diffusion_eval(x)
        x = x + f * dt + _noise_term(s, sdt * z[k])
        if _diverging(x):
            out[k + 1 :] = out[k]
            return EMPath(states=out, diverged_at=k + 1)
        out[k + 1] = x
    return EMPath(states=out, diverged_at=None)
