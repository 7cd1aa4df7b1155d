"""Closed algebra of scalar gain functions with exact inverses.

Every bound formula in this package is assembled from strictly increasing
functions of a nonnegative real that vanish at zero (class-K envelopes).
The algebra is deliberately small -- power laws and their compositions --
because the quantization-parameter formulas need inverses, and this
family has them in closed form.

Symbolic simplification is intentionally absent; values are combined
structurally and evaluated on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InversionError


class ComparisonFunction:
    """A strictly increasing map from nonnegative reals to nonnegative reals.

    Subclasses implement ``_eval``.  Instances are immutable and safe to
    share between workers.
    """

    def __call__(self, r: float) -> float:
        r = float(r)
        if r < 0.0 or math.isnan(r):
            raise ValueError(f"gain functions take nonnegative arguments, got {r}")
        return self._eval(r)

    def _eval(self, r: float) -> float:
        raise NotImplementedError

    def invert(self, y: float) -> float:
        """Return x with self(x) = y.

        Closed form for power laws and compositions.  Raises
        InversionError when y is outside the range.
        """
        y = float(y)
        if y < 0.0 or math.isnan(y):
            raise InversionError(f"cannot invert at negative value {y}")
        if y == 0.0:
            return 0.0
        return self._invert(y)

    def _invert(self, y: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(ComparisonFunction):
    """The identically zero map (used for gains that vanish, e.g. no noise)."""

    def _eval(self, r):
        return 0.0

    def _invert(self, y):
        raise InversionError("the zero function has no inverse above 0")


@dataclass(frozen=True)
class PowerLaw(ComparisonFunction):
    """r -> coef * r**exponent with coef > 0, exponent > 0."""

    coef: float
    exponent: float

    def __post_init__(self):
        if not self.coef > 0.0:
            raise ValueError(f"PowerLaw coefficient must be positive, got {self.coef}")
        if not self.exponent > 0.0:
            raise ValueError(f"PowerLaw exponent must be positive, got {self.exponent}")

    def _eval(self, r):
        return self.coef * r ** self.exponent

    def _invert(self, y):
        return (y / self.coef) ** (1.0 / self.exponent)


@dataclass(frozen=True)
class Compose(ComparisonFunction):
    """r -> outer(inner(r))."""

    outer: ComparisonFunction
    inner: ComparisonFunction

    def _eval(self, r):
        return self.outer._eval(self.inner._eval(r))

    def _invert(self, y):
        return self.inner.invert(self.outer.invert(y))


def scale(f: ComparisonFunction, a: float) -> ComparisonFunction:
    """Return a * f as an element of the algebra (a > 0; a == 0 gives Zero)."""
    if a == 0.0 or isinstance(f, Zero):
        return Zero()
    return Compose(PowerLaw(a, 1.0), f)


def exact_inverse(f: ComparisonFunction) -> ComparisonFunction:
    """The inverse *function* of f, for variants that invert in closed form.

    PowerLaw(c, e) inverts to PowerLaw(c**(-1/e), 1/e); compositions invert
    by swapping.  Zero has no inverse and raises.
    """
    if isinstance(f, PowerLaw):
        return PowerLaw(f.coef ** (-1.0 / f.exponent), 1.0 / f.exponent)
    if isinstance(f, Compose):
        return Compose(exact_inverse(f.inner), exact_inverse(f.outer))
    raise InversionError(f"no closed-form inverse for {type(f).__name__}")


@dataclass(frozen=True)
class KLFunction:
    """Two-argument envelope base(r) * exp(-decay * s).

    Increasing and unbounded in r for fixed s, strictly decreasing to zero
    in s for fixed r.
    """

    base: ComparisonFunction
    decay: float

    def __post_init__(self):
        if not self.decay > 0.0:
            raise ValueError(f"decay rate must be positive, got {self.decay}")

    def __call__(self, r: float, s: float) -> float:
        if s < 0.0:
            raise ValueError(f"time argument must be nonnegative, got {s}")
        return self.base(r) * math.exp(-self.decay * s)
