import math

import numpy as np
import pytest

from stochabs.cmpfun import (
    Compose,
    KLFunction,
    PowerLaw,
    Zero,
    exact_inverse,
    scale,
)
from stochabs.errors import InversionError


def random_fn(rng, depth=0):
    # Zero-free random member of the algebra, spanning the exponent range
    # the bound formulas actually produce (linear/quadratic and their
    # roots under composition).
    if depth >= 2 or rng.random() < 0.5:
        return PowerLaw(10.0 ** rng.uniform(-0.7, 0.7), rng.uniform(0.5, 2.0))
    return Compose(random_fn(rng, depth + 1), random_fn(rng, depth + 1))


def test_eval_examples():
    assert PowerLaw(2, 1)(3.0) == 6.0
    assert Compose(PowerLaw(1, 2), PowerLaw(3, 1))(2.0) == 36.0  # (3*2)^2


def test_class_k_anchor():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert random_fn(rng)(0.0) == 0.0
    assert Zero()(5.0) == 0.0


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        PowerLaw(1, 1)(-0.5)
    with pytest.raises(ValueError):
        PowerLaw(-1, 1)
    with pytest.raises(ValueError):
        PowerLaw(1, 0)


def test_invert_examples():
    assert PowerLaw(0.5, 1).invert(1.0) == 2.0
    assert PowerLaw(1, 2).invert(9.0) == 3.0
    assert Compose(PowerLaw(1, 2), PowerLaw(3, 1)).invert(36.0) == 2.0


def test_invert_range_error():
    with pytest.raises(InversionError):
        Zero().invert(1.0)
    assert Zero().invert(0.0) == 0.0
    with pytest.raises(InversionError):
        PowerLaw(1, 1).invert(-2.0)


def test_invert_eval_identity():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        f = random_fn(rng)
        r = 10.0 ** rng.uniform(-3, 2)
        y = f(r)
        assert f.invert(y) == pytest.approx(r, rel=1e-9)


def test_monotone():
    rng = np.random.default_rng(7)
    for _ in range(300):
        f = random_fn(rng)
        r1, r2 = sorted(rng.uniform(0, 10, size=2))
        if r1 < r2:
            assert f(r1) < f(r2)


def test_exact_inverse_closed_forms():
    rng = np.random.default_rng(3)
    for _ in range(200):
        # only PowerLaw/Compose trees invert in closed form
        def tree(depth=0):
            if depth >= 3 or rng.random() < 0.6:
                return PowerLaw(10.0 ** rng.uniform(-1, 1), rng.uniform(0.3, 2.5))
            return Compose(tree(depth + 1), tree(depth + 1))

        f = tree()
        g = exact_inverse(f)
        r = 10.0 ** rng.uniform(-2, 1)
        assert g(f(r)) == pytest.approx(r, rel=1e-9)
    with pytest.raises(InversionError):
        exact_inverse(Zero())


def test_scale_and_linearity():
    f = PowerLaw(3, 1)
    assert scale(f, 2.0)(5.0) == 30.0
    assert isinstance(scale(f, 0.0), Zero)
    assert isinstance(scale(Zero(), 2.0), Zero)
    assert exact_inverse(scale(f, 2.0))(30.0) == 5.0


def test_kl_function():
    kl = KLFunction(base=PowerLaw(2, 1), decay=0.875)
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = rng.uniform(0, 5)
        s = rng.uniform(0, 5)
        assert kl(r, s) == 2 * r * math.exp(-0.875 * s)
    # decreasing in s on a grid, for fixed r
    grid = np.linspace(0.0, 10.0, 50)
    vals = [kl(3.0, s) for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert kl(3.0, 1e6) < 1e-300 or kl(3.0, 1e6) == 0.0
    with pytest.raises(ValueError):
        KLFunction(base=PowerLaw(1, 1), decay=0.0)
