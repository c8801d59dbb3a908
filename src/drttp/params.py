"""The two parameter types of the family, free of array modules.

:class:`RayIdentifiers` holds the free potential parameters and
:class:`TangentPoly` the double root ``z_T`` of the tangent polynomial.
Both check their inputs with :mod:`math` alone, so that ``import drttp``
and the closed-form spectrum load no NumPy; :mod:`drttp.core` re-exports
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class RayIdentifiers:
    """Free potential parameters.

    Parameters
    ----------
    lambda_o : float
        Reflective-barrier strength, >= 0.  Controls the left asymptote.
    mu_o : float
        Well-depth parameter, > 0.  Controls the number of bound states.
    """

    lambda_o: float
    mu_o: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_o) and self.lambda_o >= 0.0):
            raise DomainError(f"lambda_o must be finite and >= 0, got {self.lambda_o}")
        if not (math.isfinite(self.mu_o) and self.mu_o > 0.0):
            raise DomainError(f"mu_o must be finite and > 0, got {self.mu_o}")
        # plain floats: a NumPy scalar would keep its own precision downstream
        object.__setattr__(self, "lambda_o", float(self.lambda_o))
        object.__setattr__(self, "mu_o", float(self.mu_o))

    @property
    def f0(self) -> float:
        """Derived well-depth constant mu_o**2 - 1 (never stored)."""
        return self.mu_o**2 - 1.0


@dataclass(frozen=True)
class TangentPoly:
    """Tangent polynomial with a double root ``z_T`` outside [0, 1].

    ``sqrt_c0`` = z_T/(z_T - 1) (the positive square root of ``c0`` by the
    sign convention of the family), ``c0`` and ``a2`` = 1/(1 - z_T)**2 are
    computed once, on construction.  They are not fields: they take no part
    in the constructor, equality, hash or repr.
    """

    z_T: float

    def __post_init__(self):
        if not math.isfinite(self.z_T) or (0.0 <= self.z_T <= 1.0):
            raise DomainError(
                f"z_T must lie outside [0, 1], got {self.z_T}"
            )
        z_T = float(self.z_T)
        sqrt_c0 = z_T / (z_T - 1.0)
        self.__dict__.update(z_T=z_T, sqrt_c0=sqrt_c0, c0=sqrt_c0**2,
                             a2=1.0 / (1.0 - z_T) ** 2)

    @property
    def x_tilde_T(self) -> float:
        return 2.0 * (self.z_T - 1.0)

    @property
    def gamma(self) -> float:
        """Asymmetry parameter of the asymptotically-levelled form."""
        return 1.0 - 2.0 * self.z_T


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b rounded, and its exact rounding error (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)
