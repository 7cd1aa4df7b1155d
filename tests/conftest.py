import pathlib

import numpy as np
import pytest

from stochabs import certify, sysdsl

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
