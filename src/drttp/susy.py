"""Darboux partner potentials, Heun operators and polynomial solutions.

Single-step partners are built from one of the three m = 0 basic solutions
as factorization function (FF); they are exactly quantized by degree-(m+1)
polynomial solutions of a Heun equation with singular points {0, 1, z_T,
inf}.  Double-step partners use a pair of basic FFs and move the outer
singular point to the pair root z_tt', which must fall outside [0, 1] for
the construction to be admissible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .core import (
    RayIdentifiers,
    TangentPoly,
    _dot2,
    gauge_record,
    potential_x_of_z,
)
from .errors import (
    AvailabilityError,
    DomainError,
    GaugeError,
    PairRejectedError,
)
from .spectral import (
    AehSolution,
    Kind,
    basic_solutions,
    wl_gm,
    wl_quadratic_roots,
    wl_solve,
)

# relative spread of d across the basic kinds that structure_constants admits
_STRUCTURE_TOL = 1e-8
# seeded points of [-1.5, 2.5] at which b2_factor_check samples the factorization
_B2_SAMPLES = 20


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureConstants:
    """Constants tying energies to characteristic exponents.

    ``o00`` is the first-order-pole numerator of the reference fraction,
    ``d`` the unique constant making  8 rho0 rho1 + d epsilon = o00  an
    identity on the basic solutions.
    """

    o00: float
    d: float

    @staticmethod
    def c00(lambda0: float, lambda1: float) -> float:
        return 0.5 * (lambda0 + 1.0) * (lambda1 + 1.0)


def structure_constants(ri: RayIdentifiers, tp: TangentPoly) -> StructureConstants:
    """Derive the constants from the basic solutions and freeze them.

    The derivation solves  8 rho0 rho1 + d epsilon = o00  for d on each
    basic solution; inconsistency across the three kinds beyond a relative
    1e-8 signals a convention bug upstream and raises.
    """
    o00 = ri.mu_o**2 - ri.lambda_o**2 + 1.0
    basics = basic_solutions(ri, tp)
    ds = []
    for sol in basics.values():
        rho0 = 0.5 * (sol.lambda0 + 1.0)
        rho1 = 0.5 * (sol.lambda1 + 1.0)
        if sol.epsilon == 0.0:
            continue
        ds.append((o00 - 8.0 * rho0 * rho1) / sol.epsilon)
    if not ds:
        raise AvailabilityError("no basic solution with nonzero energy")
    spread = max(ds) - min(ds)
    if spread > _STRUCTURE_TOL * max(1.0, abs(ds[0])):
        raise DomainError(
            f"structure-constant derivation inconsistent across kinds "
            f"(spread {spread:.3e})"
        )
    return StructureConstants(o00=o00, d=float(np.mean(ds)))


# ---------------------------------------------------------------------------
# factorization functions and partner potentials
# ---------------------------------------------------------------------------

def _log_abs_ff(z, sol: AehSolution):
    """log |sqrt(z(1-z)) z^(l0/2) (1-z)^(l1/2)|; no power is formed, so
    neither factor can overflow or underflow on its own."""
    return 0.5 * ((1.0 + sol.lambda0) * np.log(z) + (1.0 + sol.lambda1) * np.log1p(-z))


def basic_ff_eval(z, sol: AehSolution):
    """Basic factorization function sqrt(z(1-z)) z^(l0/2) (1-z)^(l1/2)."""
    if sol.m != 0:
        raise DomainError("factorization function must be a basic (m=0) solution")
    z = np.asarray(z, dtype=float)
    # 0 and inf only where the value itself is out of double range
    with np.errstate(divide="ignore", over="ignore"):
        out = np.exp(_log_abs_ff(z, sol))
    return out if out.ndim else float(out)


def outer_root_ztt(t: AehSolution, t_prime: AehSolution) -> float:
    """Outer singular point of the double-step construction.

    z_tt' = (lambda0' - lambda0) / (mu' - mu); the two FFs must be distinct
    basic solutions with distinct mu.
    """
    if t.m != 0 or t_prime.m != 0:
        raise DomainError("pair members must be basic (m = 0) solutions")
    if t.kind == t_prime.kind:
        raise DomainError("pair members must have distinct kinds")
    dmu = t_prime.mu - t.mu
    if abs(dmu) < 1e-10 * max(1.0, abs(t.mu), abs(t_prime.mu)):
        raise DomainError("degenerate pair: mu values coincide")
    return (t_prime.lambda0 - t.lambda0) / dmu


def double_step_ff_eval(z, t: AehSolution, t_prime: AehSolution, tp: TangentPoly):
    """First-order factorization function of the second Darboux step,
    (mu' - mu) sqrt(z(1-z)) z^(l0'/2) (1-z)^(l1'/2) (z - z_tt') / (z - z_T),
    summed in log space and exponentiated once."""
    ztt = outer_root_ztt(t, t_prime)
    z = np.asarray(z, dtype=float)
    dmu = t_prime.mu - t.mu
    sign = np.sign(dmu) * np.sign(z - ztt) * np.sign(z - tp.z_T)
    with np.errstate(divide="ignore", over="ignore"):
        log_abs = (
            _log_abs_ff(z, t_prime)
            + math.log(abs(dmu))
            + np.log(np.abs((z - ztt) / (z - tp.z_T)))
        )
        out = sign * np.exp(log_abs)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PartnerSpec:
    """Descriptor of a one- or two-step partner construction."""

    steps: int
    ff_kinds: tuple[AehSolution, ...]
    outer_pole: float
    expected_spectral_delta: frozenset[float]

    @property
    def delta0(self) -> float:
        """Constant part of Delta O1 / 4 (the linear numerator is 2z + delta0):
        z - 1 plus the mean of lambda0 - mu z over the FFs, z = outer_pole.
        Those terms cancel to O(1) when mu |z| is large, so the sum is
        formed as if in twice the working precision."""
        z, k = self.outer_pole, self.steps
        pairs = [(1.0, z), (-1.0, 1.0)]
        for ff in self.ff_kinds:
            pairs += [(-ff.mu / k, z), (ff.lambda0 / k, 1.0)]
        return _dot2(pairs)


def single_partner_spec(ff: AehSolution, tp: TangentPoly) -> PartnerSpec:
    if ff.m != 0:
        raise DomainError("factorization function must be basic (m = 0)")
    return PartnerSpec(1, (ff,), tp.z_T, frozenset([ff.epsilon]))


def double_partner_spec(t: AehSolution, t_prime: AehSolution,
                        tp: TangentPoly) -> PartnerSpec:
    """Admissibility-gated descriptor of the two-step construction.

    The gate rejects pairs whose outer root falls in [0, 1] (the combined
    FF would vanish inside the quantization interval).  That is the whole
    sign condition: on (0, 1) the first-order FF has the sign of
    (mu' - mu)(z - z_tt')(z - z_T), and neither root lies in [0, 1].
    """
    ztt = outer_root_ztt(t, t_prime)
    if 0.0 <= ztt <= 1.0:
        raise PairRejectedError(
            f"pair ({t.kind.value}0, {t_prime.kind.value}0) rejected: "
            f"outer root z_tt' = {ztt:.6f} lies in [0, 1]"
        )
    kinds = {t.kind, t_prime.kind}
    if Kind.D in kinds and kinds & {Kind.A, Kind.B}:
        regular = t if t.kind is not Kind.D else t_prime
        irregular = t if t.kind is Kind.D else t_prime
        if regular.epsilon >= irregular.epsilon:
            raise PairRejectedError(
                "d-pair rejected: the regular basic solution does not lie "
                "below the irregular one at these parameters"
            )
    return PartnerSpec(
        2, (t, t_prime), ztt, frozenset([t.epsilon, t_prime.epsilon])
    )


def partner_correction_z(z, spec: PartnerSpec, tp: TangentPoly):
    """z-gauge correction a partner construction adds to the base potential,

        8 z^2 (z-1)^2 / (P^2 Q^2) - z (z-1) Delta O1 / (P^2 Q),

    with P = z - z_T, Q = z - spec.outer_pole and Delta O1 = 4 (2z + delta0).
    One step is the case outer_pole = z_T, where Q = P.
    """
    z = np.asarray(z, dtype=float)
    out = _partner_correction(z, 1.0 - z, spec, tp)
    return out if out.ndim else float(out)


def _partner_correction(z, omz, spec: PartnerSpec, tp: TangentPoly):
    """:func:`partner_correction_z` on the pair (z, 1 - z)."""
    zo = z * omz
    P2 = (z - tp.z_T) ** 2
    Q = z - spec.outer_pole
    return 8.0 * zo**2 / (P2 * Q**2) + 4.0 * zo * (2.0 * z + spec.delta0) / (P2 * Q)


def partner_potential_x(spec: PartnerSpec, ri: RayIdentifiers, tp: TangentPoly):
    """Vectorized x-gauge partner potential callable for a spec; it reads the
    (z, 1 - z) pair of the grid's :class:`~drttp.core.GaugeRecord`."""
    scale = (1.0 - tp.z_T) ** 2

    def V(x):
        g = gauge_record(x, tp)
        out = (potential_x_of_z(g.z, g.omz, ri, tp)
               + scale * _partner_correction(g.z, g.omz, spec, tp))
        return float(out[0]) if np.ndim(x) == 0 else out

    return V


# ---------------------------------------------------------------------------
# Heun operators and polynomial solutions
# ---------------------------------------------------------------------------

def admissible_gauges(tp: TangentPoly) -> tuple[tuple[int, int, int], ...]:
    """The three Gauss-seed sign triples exposed on this c0 branch."""
    mixed = (-1, 1, -1) if tp.c0 < 1.0 else (1, -1, -1)
    return ((1, 1, -1), (-1, -1, -1), mixed)


def gauge_for_solution(sol: AehSolution) -> tuple[int, int, int]:
    """Sign triple whose gauge hosts the given solution as a polynomial."""
    s0 = 1 if sol.lambda0 >= 0.0 else -1
    s1 = 1 if sol.lambda1 >= 0.0 else -1
    return (s0, s1, -1)


@dataclass(frozen=True)
class HeunOperator:
    """Heun-form operator  z(z-1)(z-p) D^2 + 2 B2(z) D + (alpha beta z - q).

    ``rho0``/``rho1`` are the energy-dependent characteristic exponents
    selected by the gauge signs; ``q`` is the accessory parameter.
    """

    singular_points: tuple[float, float, float, float]
    rho0: float
    rho1: float
    alpha: float
    beta: float
    q: float
    sigma: tuple[int, int, int]

    @property
    def p(self) -> float:
        return self.singular_points[2]

    @property
    def alpha_plus_beta(self) -> float:
        return self.alpha + self.beta

    @property
    def alpha_times_beta(self) -> float:
        return self.alpha * self.beta

    def b2(self, z):
        z = np.asarray(z, dtype=float)
        out = (
            self.rho0 * (z - 1.0) * (z - self.p)
            + self.rho1 * z * (z - self.p)
            - z * (z - 1.0)
        )
        return out if out.ndim else float(out)

    def c1(self, z):
        z = np.asarray(z, dtype=float)
        out = self.alpha_times_beta * z - self.q
        return out if out.ndim else float(out)

    def apply(self, f, df, d2f, z):
        """Operator action given the function and its two derivatives."""
        z = np.asarray(z, dtype=float)
        out = (
            z * (z - 1.0) * (z - self.p) * d2f
            + 2.0 * self.b2(z) * df
            + self.c1(z) * f
        )
        return out if out.ndim else float(out)

    def residual(self, f, df, d2f, z) -> float:
        """Relative annihilation residual at z."""
        z = float(z)
        terms = (
            abs(z * (z - 1.0) * (z - self.p) * d2f),
            abs(2.0 * self.b2(z) * df),
            abs(self.c1(z) * f),
        )
        scale = max(max(terms), 1e-30)
        return abs(self.apply(f, df, d2f, z)) / scale


def heun_operator(epsilon: float, spec: PartnerSpec, sigma: tuple[int, int, int],
                  ri: RayIdentifiers, tp: TangentPoly) -> HeunOperator:
    """Heun operator of the partner equation at energy epsilon.

    Real characteristic exponents require epsilon <= 0; the sign triple
    must be one of the admissible Gauss-seed gauges (the third sign, at
    the outer pole, is always -1).
    """
    if epsilon > 0.0:
        raise DomainError("epsilon must be <= 0 for real exponents")
    if tuple(sigma) not in admissible_gauges(tp):
        raise GaugeError(f"sign triple {sigma} is not an admissible gauge")
    s0, s1, _ = sigma
    rho0 = 0.5 * (s0 * math.sqrt(ri.lambda_o**2 - tp.c0 * epsilon) + 1.0)
    rho1 = 0.5 * (s1 * math.sqrt(-epsilon) + 1.0)
    o00 = ri.mu_o**2 - ri.lambda_o**2 + 1.0
    kappa = 0.25 * o00 + 0.5 * tp.sqrt_c0 * epsilon
    p = spec.outer_pole
    ab_sum = 2.0 * (rho0 + rho1) - 3.0
    q = 2.0 * p * rho0 * rho1 - 2.0 * rho0 - spec.delta0 - p * kappa
    # beta - alpha = sqrt(ab_sum**2 - 4 alpha beta), expanded so that it
    # does not cancel; the radicand is >= mu_o**2 > 0 because epsilon <= 0
    root = math.sqrt(ri.mu_o**2 - epsilon * (tp.sqrt_c0 - 1.0) ** 2)
    alpha = 0.5 * (ab_sum - root)
    beta = 0.5 * (ab_sum + root)
    return HeunOperator(
        singular_points=(0.0, 1.0, p, math.inf),
        rho0=rho0,
        rho1=rho1,
        alpha=alpha,
        beta=beta,
        q=q,
        sigma=tuple(sigma),
    )


def hypergeom_poly_coeffs(n: int, a: float, c: float) -> np.ndarray:
    """Ascending coefficients of F(-n, a; c; z)."""
    coef = [1.0]
    for k in range(n):
        coef.append(coef[k] * ((-n + k) * (a + k)) / ((c + k) * (k + 1.0)))
    return np.array(coef)


def count_roots_in_01(coeffs) -> int:
    """Real roots of a polynomial strictly inside (0, 1), by ``np.roots``
    with a 1e-9 cut on the imaginary part."""
    coeffs = np.asarray(coeffs, dtype=float)
    coeffs = np.trim_zeros(coeffs, "b")
    if coeffs.size <= 1:
        return 0
    rts = np.roots(coeffs[::-1])
    scale = max(1.0, float(np.max(np.abs(rts))))
    count = 0
    for r in rts:
        if abs(r.imag) < 1e-9 * scale and 0.0 < r.real < 1.0:
            count += 1
    return count


@dataclass(frozen=True)
class HeunPolynomial:
    """Polynomial solution of a partner Heun equation (ascending coeffs).

    ``roots_in_01`` is counted by :func:`count_roots_in_01` the first time
    it is read and kept; it is not a field.
    """

    coeffs: tuple[float, ...]
    degree: int
    degree_degenerate: bool

    @functools.cached_property
    def roots_in_01(self) -> int:
        """Real roots in (0, 1).  The float coefficients and ``np.roots``
        limit it: it agrees with an exact count on all 1 440 polynomials of
        the appendix-b grid (degree <= 8), but from degree 11 on it can
        miscount; 155 of 600 whole-domain polynomials up to degree 36 differ."""
        return count_roots_in_01(self.coeffs)

    def __call__(self, z):
        out = polyval(np.asarray(z, dtype=float), self.coeffs)
        return out if out.ndim else float(out)

    def deriv_coeffs(self, order: int = 1) -> np.ndarray:
        return polyder(self.coeffs, order)


def heun_poly_construct(t0: AehSolution, t_prime: AehSolution,
                        tp: TangentPoly) -> HeunPolynomial:
    """Degree-(m'+1) polynomial solution of the t0-partner Heun equation
    at the energy of the seed solution t'm'.

    Assembled from the two-term terminating-hypergeometric combination;
    a vanishing leading coefficient is reported through the
    ``degree_degenerate`` flag rather than as an error.
    """
    if t0.m != 0:
        raise DomainError("the factorization function t0 must be basic")
    mp = t_prime.m
    lam0, lam1, mu = t_prime.lambda0, t_prime.lambda1, t_prime.mu
    # each coefficient takes its terms in the order of a loop over k, f1's before
    # f0's, which fixes its rounding
    coeffs = np.zeros(mp + 2)
    if mp > 0:
        f1 = hypergeom_poly_coeffs(mp - 1, mu - mp + 1.0, lam0 + 2.0)
        amp_f1 = -mp * (lam0 + lam1 + mp + 1.0) * f1
        # z(z-1) F' piece: z^(k+2) - z^(k+1)
        coeffs[2:] += amp_f1
        coeffs[1:-1] -= amp_f1
    f0 = hypergeom_poly_coeffs(mp, mu - mp, lam0 + 1.0)
    b_lin = 0.5 * (lam0 + 1.0) * ((lam0 - t0.lambda0) + (lam1 - t0.lambda1))
    b_const = 0.5 * (lam0 + 1.0) * (lam0 - t0.lambda0)
    coeffs[1:] += b_lin * f0
    coeffs[:-1] -= b_const * f0
    scale = float(np.max(np.abs(coeffs))) or 1.0
    degenerate = bool(abs(coeffs[-1]) < 1e-12 * scale)
    degree = mp + 1
    if degenerate:
        degree = len(np.trim_zeros(np.where(np.abs(coeffs) < 1e-12 * scale, 0.0, coeffs), "b")) - 1
    return HeunPolynomial(coeffs=tuple(coeffs.tolist()), degree=degree,
                          degree_degenerate=degenerate)


def heun_poly_residual(op: HeunOperator, poly: HeunPolynomial, z: float) -> float:
    return op.residual(*(polyval(z, poly.deriv_coeffs(k)) for k in range(3)), z)


def lambe_ward_eval(z, t0: AehSolution, t_prime: AehSolution,
                    sigma: tuple[int, int, int], tp: TangentPoly):
    """Quasi-algebraic solution of the partner Heun equation in an
    alternate gauge: flipped exponent prefactors times the polynomial."""
    poly = heun_poly_construct(t0, t_prime, tp)
    z = np.asarray(z, dtype=float)
    e0, e1 = lambe_ward_exponents(t_prime, sigma)
    out = z**e0 * (1.0 - z) ** e1 * poly(z)
    return out if out.ndim else float(out)


def lambe_ward_exponents(t_prime: AehSolution,
                         sigma: tuple[int, int, int]) -> tuple[float, float]:
    s0, s1, _ = sigma
    return (
        0.5 * (t_prime.lambda0 - s0 * abs(t_prime.lambda0)),
        0.5 * (t_prime.lambda1 - s1 * abs(t_prime.lambda1)),
    )


def suzko_reciprocal_eval(z, t: AehSolution, t_prime: AehSolution,
                          tp: TangentPoly):
    """Reciprocal 2z(1-z) / ((z - z_T) phi) of the first-order solution."""
    z = np.asarray(z, dtype=float)
    phi = double_step_ff_eval(z, t, t_prime, tp)
    out = 2.0 * z * (1.0 - z) / ((z - tp.z_T) * phi)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# appendix identities and nodelessness predicates
# ---------------------------------------------------------------------------

def b2_poly_eval(z, sol: AehSolution, tp: TangentPoly):
    """Quadratic [rho0 (z-1) + rho1 z](z - z_T) - z(z-1) built from one
    basic solution's exponents."""
    rho0 = 0.5 * (sol.lambda0 + 1.0)
    rho1 = 0.5 * (sol.lambda1 + 1.0)
    z = np.asarray(z, dtype=float)
    out = (rho0 * (z - 1.0) + rho1 * z) * (z - tp.z_T) - z * (z - 1.0)
    return out if out.ndim else float(out)


def b2_factor_check(t_kind: Kind, tprime_kind: Kind, tdprime_kind: Kind,
                    ri: RayIdentifiers, tp: TangentPoly, seed: int = 0) -> dict:
    """Factorization identity of the basic-solution quadratic.

    Returns the max absolute difference between the quadratic built from
    the t-basic exponents and (mu_t0 - 1)/2 (z - z_tt')(z - z_tt''), the
    zero-condition value at z_tt', and the exponent/mu consistency
    residual.
    """
    basics = basic_solutions(ri, tp)
    for k in (t_kind, tprime_kind, tdprime_kind):
        if k not in basics:
            raise AvailabilityError(f"basic solution of kind {k.value} not available")
    t, t1, t2 = basics[t_kind], basics[tprime_kind], basics[tdprime_kind]
    z_a = outer_root_ztt(t, t1)
    z_b = outer_root_ztt(t, t2)
    rng = np.random.RandomState(seed)
    zs = rng.uniform(-1.5, 2.5, _B2_SAMPLES)
    lhs = b2_poly_eval(zs, t, tp)
    rhs = 0.5 * (t.mu - 1.0) * (zs - z_a) * (zs - z_b)
    factor_residual = float(np.max(np.abs(lhs - rhs)))
    zero_residual = abs(float(b2_poly_eval(z_a, t1, tp)))
    mu_sq = tp.z_T**2 * (t1.mu**2 - t.mu**2) - (t1.lambda0**2 - t.lambda0**2)
    return {
        "factor_residual": factor_residual,
        "zero_residual": zero_residual,
        "mu_lambda_residual": abs(mu_sq),
    }


def _partner_ground_lambda1(kind: Kind, mu_o: float, tp: TangentPoly) -> float:
    """|lambda1| of the ground level of the kind-FF partner potential."""
    if kind is Kind.C:
        # FF c0 removes the ground level; the partner ground is the n=1 level
        return wl_quadratic_roots(1, mu_o, tp)[0]
    up, dn = wl_quadratic_roots(0, mu_o, tp)
    # FF d0 inserts its own energy below the base ground level; a regular
    # basic FF is isospectral, so the ground stays at the base ground level
    return -dn if kind is Kind.D else up


def nodeless_predicate(kind: Kind, m: int, mu_o: float, tp: TangentPoly,
                       branch: str = "primary") -> bool:
    """Below-partner-ground criterion for the levelled-limit seed solutions.

    ``kind`` selects which basic-FF partner the regular seed (primary
    linear-branch solution for 2m+1 < mu_o, supplementary one otherwise)
    is compared against.  The criterion is equivalent to nodelessness of
    the transformed seed inside (0, 1).
    """
    if kind not in (Kind.A, Kind.B, Kind.C, Kind.D):
        raise DomainError("kind must be one of the basic types")
    if kind in (Kind.A, Kind.B):
        kind = Kind.A  # both mean "the regular basic FF" branch selector
    if branch not in ("primary", "secondary"):
        raise DomainError("branch must be 'primary' or 'secondary'")
    u = 2 * m + 1
    if branch == "primary" and mu_o <= u:
        raise AvailabilityError("primary seed requires mu_o > 2m + 1")
    if branch == "secondary" and mu_o >= u:
        raise AvailabilityError("secondary seed requires mu_o < 2m + 1")
    if mu_o <= 1.0:
        raise AvailabilityError("partner ground requires a nonempty spectrum")
    if kind is Kind.C and mu_o <= 3.0:
        raise AvailabilityError("c-partner ground requires two base levels")
    if kind is Kind.A and m == 0:
        raise AvailabilityError("seed coincides with the factorization function")
    s = tp.sqrt_c0
    lam1_seed = abs(wl_gm(m, mu_o)) / (2.0 * abs(s - 1.0) * u)
    return lam1_seed > _partner_ground_lambda1(kind, mu_o, tp)


def wl_seed_solution(m: int, mu_o: float, tp: TangentPoly) -> AehSolution:
    """Regular levelled-limit seed of the linear branch at degree m."""
    sols = wl_solve(m, mu_o, tp)
    for sol in sols:
        if sol.kind in (Kind.A, Kind.B, Kind.A_PRIME, Kind.B_PRIME):
            return sol
    raise AvailabilityError("no linear-branch seed at this degree")
