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

from .core import (
    RayIdentifiers,
    TangentPoly,
    _dot2,
    gauge_record,
    potential_x_of_z,
    unit_interval,
)
from .errors import (
    AvailabilityError,
    ConvergenceError,
    DomainError,
    GaugeError,
    PairRejectedError,
)
from .spectral import (
    AehSolution,
    Kind,
    wl_gm,
    wl_quadratic_roots,
)
from .wavefunction import powers

# twice the unit roundoff; halvings after which a Heun root count gives up
_EPS, _MAX_DEPTH = 2.0**-52, 52
# relative size below which a Heun polynomial's degree counts as degenerate
_DEGENERATE_TOL = 1e-12


# ---------------------------------------------------------------------------
# factorization functions and partner potentials
# ---------------------------------------------------------------------------

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


def double_step_ff_eval(z, omz, t: AehSolution, t_prime: AehSolution, tp: TangentPoly):
    """First-order factorization function of the second Darboux step,
    (mu' - mu) sqrt(z(1-z)) z^(l0'/2) (1-z)^(l1'/2) (z - z_tt') / (z - z_T),
    from the pair (z, 1 - z), summed in log space and exponentiated once
    by ``wavefunction.powers``: the powers are the prefactor of
    ``aeh_eval`` for t'."""
    ztt = outer_root_ztt(t, t_prime)
    z, omz = unit_interval(z, omz)
    dmu = t_prime.mu - t.mu
    sign = np.sign(dmu) * np.sign(z - ztt) * np.sign(z - tp.z_T)
    with np.errstate(divide="ignore", over="ignore"):
        out = sign * powers(np.log(z), np.log(omz), 0.5 * (t_prime.lambda0 + 1.0),
                            0.5 * (t_prime.lambda1 + 1.0),
                            math.log(abs(dmu)) + np.log(np.abs((z - ztt) / (z - tp.z_T))))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PartnerSpec:
    """Descriptor of a one- or two-step partner construction: its basic
    FFs and its outer pole (z_T for one step, z_tt' for two)."""

    ff_kinds: tuple[AehSolution, ...]
    outer_pole: float

    @property
    def steps(self) -> int:
        """Darboux steps, one per FF."""
        return len(self.ff_kinds)

    @property
    def expected_spectral_delta(self) -> frozenset[float]:
        """The FF energies: each one is the level the construction removes
        from or adds to the base spectrum."""
        return frozenset(ff.epsilon for ff in self.ff_kinds)

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
    return PartnerSpec((ff,), tp.z_T)


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
    return PartnerSpec((t, t_prime), ztt)


def partner_correction_z(z, omz, spec: PartnerSpec, tp: TangentPoly):
    """z-gauge correction a partner construction adds to the base potential,

        8 z^2 (z-1)^2 / (P^2 Q^2) - z (z-1) Delta O1 / (P^2 Q),

    from the pair (z, 1 - z), with P = z - z_T, Q = z - spec.outer_pole and
    Delta O1 = 4 (2z + delta0).  One step is the case outer_pole = z_T,
    where Q = P.
    """
    z, omz = unit_interval(z, omz)
    zo = z * omz
    P2 = (z - tp.z_T) ** 2
    Q = z - spec.outer_pole
    out = 8.0 * zo**2 / (P2 * Q**2) + 4.0 * zo * (2.0 * z + spec.delta0) / (P2 * Q)
    return out if out.ndim else float(out)


def partner_potential_x(spec: PartnerSpec, ri: RayIdentifiers, tp: TangentPoly):
    """Vectorized x-gauge partner potential callable for a spec; it reads the
    (z, 1 - z) pair of the grid's :class:`~drttp.core.GaugeRecord`."""
    scale = (1.0 - tp.z_T) ** 2

    def V(x):
        g = gauge_record(x, tp)
        out = (potential_x_of_z(g.z, g.omz, ri, tp)
               + scale * partner_correction_z(g.z, g.omz, spec, tp))
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
    """Heun-form operator  z(z-1)(z-p) D^2 + 2 B2(z) D + (alpha beta z - q),
    with singular points {0, 1, p, inf}.

    ``p`` is the outer pole (z_T or z_tt'); ``rho0``/``rho1`` are the
    energy-dependent characteristic exponents selected by the gauge signs;
    ``q`` is the accessory parameter.
    """

    p: float
    rho0: float
    rho1: float
    alpha: float
    beta: float
    q: float

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
        out = self.alpha * self.beta * z - self.q
        return out if out.ndim else float(out)

    def _terms(self, f, df, d2f, z) -> tuple:
        """The three terms of the operator action, in the order summed."""
        return (z * (z - 1.0) * (z - self.p) * d2f, 2.0 * self.b2(z) * df, self.c1(z) * f)

    def apply(self, f, df, d2f, z):
        """Operator action given the function and its two derivatives."""
        t0, t1, t2 = self._terms(f, df, d2f, np.asarray(z, dtype=float))
        out = t0 + t1 + t2
        return out if out.ndim else float(out)

    def residual(self, f, df, d2f, z) -> float:
        """Relative annihilation residual at z."""
        terms = self._terms(f, df, d2f, float(z))
        scale = max(max(map(abs, terms)), 1e-30)
        return abs(terms[0] + terms[1] + terms[2]) / scale


def heun_operator(epsilon: float, spec: PartnerSpec, sigma: tuple[int, int, int],
                  ri: RayIdentifiers, tp: TangentPoly) -> HeunOperator:
    """Heun operator of the partner equation at energy epsilon.

    Real characteristic exponents require epsilon <= 0; the sign triple
    must be one of the admissible Gauss-seed gauges (the third sign, at
    the outer pole, is always -1).
    """
    if not -math.inf < epsilon <= 0.0:
        raise DomainError("epsilon must be finite and <= 0 for real exponents")
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
    return HeunOperator(p=p, rho0=rho0, rho1=rho1, alpha=alpha, beta=beta, q=q)


def _de_casteljau(coeffs, z, omz):
    """sum_s b_s C(n, s) z**s (1 - z)**(n - s) at the pair (z, 1 - z) (0 for
    no b_s)."""
    b = np.multiply.outer(coeffs, np.ones_like(z))
    while len(b) > 1:
        b = omz * b[:-1] + z * b[1:]
    return b[0] if len(b) else np.zeros_like(z)


def _sign_changes(coeffs, bounds):
    """Sign changes along the coefficients, exact zeros skipped; None where
    an inner sign is open within its rounding bound (an end one raises)."""
    changes, last = 0, None
    for i, (c, e) in enumerate(zip(coeffs, bounds)):
        if abs(c) > e:
            changes, last = changes + (last is not None and (c > 0.0) != last), c > 0.0
        elif c != 0.0 or e != 0.0:  # NaN included
            if 0 < i < len(coeffs) - 1:
                return None
            raise ConvergenceError(f"value {c:.3e} at a split point within its bound {e:.3e}")
    return changes


@functools.lru_cache(maxsize=64)
def _halving(n: int) -> tuple[np.ndarray, np.ndarray]:
    """De Casteljau halving of degree n: left[k, j] = C(k, j) / 2**k, right reversed."""
    left = np.array([[math.comb(k, j) / 2.0**k for j in range(n + 1)] for k in range(n + 1)])
    return left, left[::-1, ::-1].copy()


def _count_roots(coeffs, bounds, depth: int = 0) -> int:
    """Roots in (0, 1) of a Bernstein form.  Sign changes bound them with
    the same parity (Descartes' rule), so 0 or 1 is the count; more, or an
    open sign, are halved (Lane & Riesenfeld 1981).  A row of a halving
    matrix sums n + 1 products with exact or once-rounded weights: its
    rounding is within (n + 2) 2**-53 of the weighted magnitudes."""
    changes = _sign_changes(coeffs, bounds)
    if changes is not None and changes <= 1:
        return changes
    if depth == _MAX_DEPTH:
        raise ConvergenceError(f"roots closer than 2**-{_MAX_DEPTH}, or multiple")
    left, right = _halving(len(coeffs) - 1)
    coeffs = np.array(coeffs)
    grown = np.array(bounds) + (len(coeffs) + 1) * _EPS * np.abs(coeffs)
    lb = (left @ coeffs).tolist()
    # lb[-1] is the value at 1/2: a root where it is an exact 0 with bound 0
    return (_count_roots(lb, (left @ grown).tolist(), depth + 1) + (lb[-1] == 0.0)
            + _count_roots((right @ coeffs).tolist(), (right @ grown).tolist(), depth + 1))


@dataclass(frozen=True)
class HeunPolynomial:
    """Polynomial solution of a partner Heun equation in Bernstein form,
    P(z) = sum_s b_s C(n, s) z**s (1 - z)**(n - s) with ``coeffs`` the b_s;
    ``degree`` is n, or less where the z**n coefficient vanishes
    (``degree_degenerate``).  ``roots_in_01`` is counted on first read.
    """

    coeffs: tuple[float, ...]
    degree: int
    degree_degenerate: bool

    @functools.cached_property
    def roots_in_01(self) -> int:
        """Roots in (0, 1) of P with exactly these coefficients, from sign
        changes and de Casteljau halving under a running rounding bound:
        exact, or ``ConvergenceError`` where the bound leaves the sign at a
        split point open or 52 halvings leave two roots together."""
        return _count_roots(self.coeffs, [0.0] * len(self.coeffs))

    def jet(self, z, omz) -> tuple:
        """(P, P', P'') at the pair (z, 1 - z): de Casteljau on the
        coefficients and on their first and second forward differences."""
        n = len(self.coeffs) - 1
        z, omz = unit_interval(z, omz)
        out = [math.perm(n, k) * _de_casteljau(np.diff(self.coeffs, k), z, omz)
               for k in range(3)]
        return tuple([v if v.ndim else float(v) for v in out])


def heun_poly_construct(t0: AehSolution, t_prime: AehSolution,
                        tp: TangentPoly) -> HeunPolynomial:
    """Degree-(m'+1) polynomial solution of the t0-partner Heun equation at
    the energy of the seed t'm', in Bernstein form: y = m'(mu - m') z (1 - z)
    F1 + (u z + v (1 - z)) F0, F0 = F(-m', mu - m'; lambda0 + 1; z), F1 =
    F(1 - m', mu - m' + 1; lambda0 + 2; z), u = (lambda0 + 1)(lambda1 -
    lambda1_t0)/2, v = (lambda0 + 1)(lambda0_t0 - lambda0)/2.  Each F has the
    Bernstein coefficients (c - a)_s / (c)_s, c - a = -(lambda1 + m'), each
    factor one rounding from the inputs.  The z**n coefficient (lambda0 +
    1)/2 (mu - mu_t0) prod_{k<=m'} (k - mu)/(lambda0 + k) vanishing with a
    factor (to 1e-12 relative) is ``degree_degenerate``, not an error; the
    degree is then the last z**k coefficient, C(n, k) times the k-th
    forward difference, above 1e-12 of the largest (-1 for y = 0).  A seed
    with lambda0 = -k, 1 <= k <= m', puts a pole in (lambda0 + 1)_s and
    raises DomainError.
    """
    if t0.m != 0:
        raise DomainError("the factorization function t0 must be basic")
    mp, lam0, lam1, mu = t_prime.m, t_prime.lambda0, t_prime.lambda1, t_prime.mu
    if -mp <= lam0 <= -1.0 and lam0 == round(lam0):
        raise DomainError(f"(lambda0' + 1)_s has a pole: m'={mp}, lambda0'={lam0}")
    n = mp + 1
    half = 0.5 * (lam0 + 1.0)
    u = half * (lam1 - t0.lambda1) / n
    v = half * (t0.lambda0 - lam0) / n
    w = math.fsum((lam0, lam1, n)) / n
    # f0[j] and f1[j] hold the coefficient s = j - 1; F1 has degree m' - 1
    f0, f1 = [0.0, 1.0], [0.0, 1.0] if mp else [0.0]
    for s in range(mp):
        r = (s - mp) - lam1
        f0.append(f0[-1] * r / (lam0 + (s + 1)))
        if s < mp - 1:
            f1.append(f1[-1] * r / (lam0 + (s + 2)))
    # z b_s -> b_(j-1) j/n, (1 - z) b_s -> b_j (n - j)/n, z (1 - z) b_s ->
    # b_(j-1) j (n - j)/(n m'); tuple() of a generator instead of a list fills
    # CPython's tuple free lists: megabytes of peak RSS
    coeffs = tuple([j * (u * p) + (n - j) * (v * q) + j * (n - j) * (w * r)
                    for j, p, q, r in zip(range(n + 1), f0, f0[1:] + [0.0], f1 + [0.0])])
    if not (half == 0.0 or abs(mu - t0.mu) <= _DEGENERATE_TOL * max(abs(mu), abs(t0.mu))
            or 0 < (k := round(mu)) <= mp and abs(mu - k) <= _DEGENERATE_TOL * k):
        return HeunPolynomial(coeffs, n, False)
    taylor = [abs(math.comb(n, k) * np.diff(coeffs, k)[0]) for k in range(n)]
    big = [k for k, t in enumerate(taylor) if t > _DEGENERATE_TOL * max(taylor)]
    return HeunPolynomial(coeffs, big[-1] if big else -1, True)


# ---------------------------------------------------------------------------
# nodelessness predicates
# ---------------------------------------------------------------------------

def _partner_ground_lambda1(kind: Kind, mu_o: float, tp: TangentPoly) -> float:
    """|lambda1| of the ground level of the kind-FF partner potential."""
    if kind is Kind.C:
        # FF c0 removes the ground level; the partner ground is the n=1 level
        return wl_quadratic_roots(1, mu_o, tp)[0]
    up, dn = wl_quadratic_roots(0, mu_o, tp)
    # FF d0 inserts its own energy below the base ground level; a regular
    # basic FF is isospectral, so the ground stays at the base ground level
    return -dn if kind is Kind.D else up


def nodeless_predicate(kind: Kind, m: int, mu_o: float, tp: TangentPoly) -> bool:
    """Below-partner-ground criterion for the levelled-limit seed solutions.

    ``kind`` selects which basic-FF partner the regular seed (primary
    linear-branch solution for 2m+1 < mu_o, supplementary one for
    2m+1 > mu_o) is compared against.  The criterion is equivalent to
    nodelessness of the transformed seed inside (0, 1).
    """
    if kind not in (Kind.A, Kind.B, Kind.C, Kind.D):
        raise DomainError("kind must be one of the basic types")
    if m < 0:
        raise DomainError("m must be >= 0")
    mu_o = RayIdentifiers(0.0, mu_o).mu_o  # finite and > 0, as wl_solve checks it
    if kind in (Kind.A, Kind.B):
        kind = Kind.A  # both mean "the regular basic FF" branch selector
    u = 2 * m + 1
    if mu_o == u:
        raise AvailabilityError("no regular seed at mu_o = 2m + 1")
    if mu_o <= 1.0:
        raise AvailabilityError("partner ground requires a nonempty spectrum")
    if kind is Kind.C and mu_o <= 3.0:
        raise AvailabilityError("c-partner ground requires two base levels")
    if kind is Kind.A and m == 0:
        raise AvailabilityError("seed coincides with the factorization function")
    s = tp.sqrt_c0
    lam1_seed = abs(wl_gm(m, mu_o)) / (2.0 * abs(s - 1.0) * u)
    return lam1_seed > _partner_ground_lambda1(kind, mu_o, tp)
