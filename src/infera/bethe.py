"""Deep-tree leakage laws of ferromagnetic Ising priors, in plain floats.

Spins are sigma_i = (-1)^{x_i}, so x = 0 is spin +1.  Cut the edge above
a site: the site's log-odds w = ln Pr(sigma = +1)/Pr(sigma = -1) in the
branch left below is its cavity log-ratio, and across an edge of coupling
J that branch adds

  phi(w) = ln cosh(w/2 + J) - ln cosh(w/2 - J) = 2 atanh(tanh J tanh(w/2))

to the log-odds of the site on the other side; `ising.nu_tree` passes
the same message on finite forests, as phi/2 in units of fields.  phi is
odd, increasing, concave for w >= 0 and below 2J.  On the infinite tree
of branching d, where every site has d + 1 neighbours, a uniform field h
gives every branch the cavity log-ratio w with w = 2h + d phi(w), and
every site the log-odds w + phi(w).  Under a uniform budget eps the
leakage of any site is therefore

  nu(eps) = w + phi(w),  where  w = eps + d phi(w).

nu rises strictly with w, so a target leakage fixes w, and the budget
that meets it is eps = w - d phi(w).  d = 0 is the dimer and d = 1 the
infinite path.  The fixed point is continuous in h at 0 exactly when
tanh(J) <= 1/d; stronger couplings leave a positive inference floor no
budget can cross.

Every law here is a bisection in one variable, so the module needs no
numpy and `infera ising` runs without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotAffiliated, UndefinedRatio


@dataclass(frozen=True)
class BetheSolution:
    """Fixed point x(J, h) and the bisection steps that located it."""

    x: float
    iterations: int


def _w_minus_phi(w: float, J: float, k: float) -> float:
    """w - k phi(w) for w, J >= 0, where phi(w) = ln cosh(w/2 + J) -
    ln cosh(w/2 - J) is 2 `ising._cavity_message`(w/2, J): the log-odds that a
    branch of cavity log-ratio w adds across an edge of coupling J.

    The difference of the two ln(2 cosh) terms is 2m exactly, with
    m = min(w/2, J), and the rest is
    r = log1p(expm1(-4m) / (1 + e^{2|w/2 - J|})).  Taking (w - 2km) - kr
    keeps full precision where w and k phi(w) cancel, as on a strongly
    coupled path, and as w goes to 0; nor does phi saturate at large J as
    atanh(tanh J tanh(w/2)) does.  Plain floats, because the bisection
    below calls it some sixty times per solve.
    """
    x = 0.5 * w
    m = x if x < J else J
    q = math.exp(-2.0 * abs(x - J))
    return (w - 2.0 * k * m) - k * math.log1p(math.expm1(-4.0 * m) * q / (1.0 + q))


def _largest_w(J: float, k: float, level: float, hi: float) -> Tuple[float, int]:
    """Largest float w in [0, hi] with w - k phi(w) <= level, for a level
    that 0 meets and that w - k phi(w), once above it, stays above.  Tries
    hi, then halves the bracket until the midpoint stops moving.  Returns w
    and the number of midpoints tried."""
    if _w_minus_phi(hi, J, k) <= level:
        return hi, 0
    lo, steps = 0.0, 0
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        steps += 1
        if _w_minus_phi(mid, J, k) <= level:
            lo = mid
        else:
            hi = mid
    return lo, steps


def _check_tree(J: float, d: int) -> None:
    if not math.isfinite(J):
        raise DimensionMismatch(f"coupling must be finite, got {J}")
    if J < 0.0:
        raise NotAffiliated(f"coupling {J} < 0: the prior is not affiliated")
    if d < 0:
        raise DimensionMismatch(f"branching factor must be nonnegative, got {d}")


def _cavity_log_ratio(J: float, field: float, d: int) -> Tuple[float, int]:
    """Cavity log-ratio w = field + d phi(w) of the infinite tree of
    branching d under the log-odds field `field` (2h) at every site, and
    the bisection steps that located it.

    w is the limit of the iteration w <- field + d phi(w) from 0.  For
    field > 0, g(w) = field + d phi(w) - w has g(0) > 0,
    g(field + 2dJ) <= 0 and, phi being concave, one positive root;
    bisection finds it however slowly the iteration would settle near the
    critical coupling.  A negative field gives -w(|field|).  Raises
    UndefinedRatio when the bracket overflows a float.
    """
    _check_tree(J, d)
    if math.isnan(field):
        raise DimensionMismatch("field must be a number")
    if field == 0.0:
        return 0.0, 0
    b = abs(field)
    top = b + 2.0 * d * J
    if top == math.inf:
        raise UndefinedRatio(f"cavity log-ratio at J={J}, field {field}, d={d} overflows a float")
    w, steps = _largest_w(J, d, b, top)
    return math.copysign(w, field), steps


def bethe_fixed_point(J: float, h: float, d: int) -> BetheSolution:
    """Branch ratio x(J, h) = e^w of the infinite d-ary tree under a
    uniform field h: 1 at h = 0, in (1, inf) for h > 0 and in (0, 1) for
    h < 0.  Raises UndefinedRatio when x overflows or underflows a float,
    which happens once |h| exceeds about 355.
    """
    w, steps = _cavity_log_ratio(J, 2.0 * h, d)
    try:
        x = math.exp(w)
    except OverflowError:
        x = math.inf
    if not 0.0 < x < math.inf:
        raise UndefinedRatio(f"branch ratio x(J={J}, h={h}) lies outside the float range")
    return BetheSolution(x=x, iterations=steps)


def nu_bethe_limit(J: float, eps: float, d: int) -> float:
    """Deep-tree inference parameter under a uniform budget:
    w + phi(w) at the cavity log-ratio w = eps + d phi(w).  It is eps at
    J = 0; d = 0 is the dimer and d = 1 the infinite path."""
    if not eps >= 0.0:
        raise DimensionMismatch(f"eps must be nonnegative, got {eps}")
    w, _ = _cavity_log_ratio(J, eps, d)
    nu = _w_minus_phi(w, J, -1.0)  # w + phi(w)
    if nu == math.inf:
        raise UndefinedRatio(f"deep-tree leakage at J={J}, eps={eps}, d={d} overflows a float")
    return nu


def critical_coupling(d: int) -> float:
    """Coupling above which the zero-field fixed point becomes unstable,
    atanh(1/d).  The dimer (d = 0) and the infinite path (d = 1) have
    none: math.inf."""
    if d < 0:
        raise DimensionMismatch(f"branching factor must be nonnegative, got {d}")
    return math.atanh(1.0 / d) if d > 1 else math.inf


def enforceable_epsilon(target_nu: float, J: float, d: int) -> Optional[float]:
    """Largest budget whose deep-tree inference parameter stays <= target.

    nu = w + phi(w) rises strictly with the cavity log-ratio w, and
    nu >= w, so one bisection on [0, target] finds the largest w that
    meets the target.  The budget that gives it is eps = w - d phi(w).
    Returns None when that is not positive: a supercritical coupling
    whose inference floor lies above the target.
    """
    if not 0.0 < target_nu < math.inf:
        raise DimensionMismatch("target must be positive and finite")
    _check_tree(J, d)
    w, _ = _largest_w(J, -1.0, target_nu, target_nu)  # w + phi(w) <= target
    eps = _w_minus_phi(w, J, d)
    return eps if eps > 0.0 else None


def sensitivity_profile(
    J: float, h0: float, d: int, eps_list: Sequence[float]
) -> List[Tuple[float, float]]:
    """Deep-tree inference parameter of the root as a function of the
    budget, at a fixed base field.  With w(f) the signed cavity log-ratio
    under the log-odds field f at every site,

      nu(eps) = max(w(2 h0 + eps) - w(2 h0), w(2 h0) - w(2 h0 - eps)).

    The root has d neighbours, so its log-odds is w itself; this is not
    the interior site of `nu_bethe_limit`, whose d + 1 neighbours give it
    w + phi(w).  At J = 0.3, eps = 0.5, d = 2 the root leaks 1.0772 and
    the interior site 1.3658.
    """
    field = 2.0 * h0
    w0, _ = _cavity_log_ratio(J, field, d)
    out = []
    for eps in eps_list:
        if not eps > 0.0:
            raise DimensionMismatch(f"every eps must be positive, got {eps}")
        up = _cavity_log_ratio(J, field + eps, d)[0] - w0
        down = w0 - _cavity_log_ratio(J, field - eps, d)[0]
        out.append((float(eps), max(up, down)))
    return out
