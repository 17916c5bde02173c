"""Mechanism event profiles, differential privacy audits, and the
inference parameter of a fixed mechanism against a fixed prior.

An event profile assigns to each database x the probability m(x) that the
mechanism's output lands in some fixed measurable set.  Everything the
inference parameter needs about a mechanism is captured by such profiles:
for a finite outcome table the worst outcome set is always a singleton,
because a ratio of sums (p_1 + ... + p_k) / (q_1 + ... + q_k) never
exceeds the largest p_i / q_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dist import JointDistribution, cell_tensor, conditional_mean, digit_table
from .errors import DimensionMismatch, NegativeProbability, UnsupportedAlphabet


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-coordinate differential privacy parameters, all finite and nonnegative.

    An all-zero budget is legal; it forces every profile ratio to one.
    """

    eps: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.eps, dtype=np.float64)
        if e.ndim != 1:
            raise DimensionMismatch("budget must be a flat vector")
        if not np.all(np.isfinite(e) & (e >= 0.0)):
            raise NegativeProbability(f"budget entries must be finite and nonnegative, got {e}")
        object.__setattr__(self, "eps", e)
        self.eps.setflags(write=False)

    @classmethod
    def uniform(cls, n: int, eps: float) -> "PrivacyBudget":
        return cls(np.full(n, float(eps)))

    @property
    def n(self) -> int:
        return self.eps.size

    def total(self) -> float:
        return float(math.fsum(self.eps.tolist()))


@dataclass(frozen=True)
class EventProfile:
    """Acceptance probabilities m(x) in (0, 1] for one output event."""

    n: int
    alphabet_size: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.alphabet_size**self.n,):
            raise DimensionMismatch(
                f"expected {self.alphabet_size**self.n} values, got {v.shape}"
            )
        if np.any(v <= 0.0):
            raise NegativeProbability("profile entries must be strictly positive")
        if np.any(v > 1.0 + 1e-12):
            raise NegativeProbability("profile entries must be at most 1")
        object.__setattr__(self, "values", np.minimum(v, 1.0))
        self.values.setflags(write=False)


@dataclass(frozen=True)
class OutcomeTable:
    """Full finite-outcome mechanism: table[o, idx] = Pr(output o | database idx).

    Every column must sum to one; zeros are allowed.
    """

    n: int
    alphabet_size: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim != 2 or t.shape[1] != self.alphabet_size**self.n:
            raise DimensionMismatch(
                f"table must be (outcomes, {self.alphabet_size**self.n})"
            )
        if np.any(t < 0.0):
            raise NegativeProbability("outcome probabilities must be nonnegative")
        sums = t.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise DimensionMismatch("each database's outcome column must sum to 1")
        object.__setattr__(self, "table", t)
        self.table.setflags(write=False)


def max_biased_values(n: int, budget: PrivacyBudget, z: int) -> np.ndarray:
    """Flat m(x) = exp(-sum_i eps_i * |x_i - z|) for binary databases.

    The entry at the constant-z database is exactly 1; every step away
    from it in coordinate i costs a factor exp(-eps_i).  Entries below
    exp(-745) underflow to 0, as do those whose exponent overflows to
    -inf; only the profile rejects them.
    """
    if budget.n != n:
        raise DimensionMismatch("budget length must equal n")
    if z not in (0, 1):
        raise UnsupportedAlphabet("bias target must be a binary value")
    with np.errstate(over="ignore"):
        return np.exp(-((digit_table(n, 2) != z) @ budget.eps))


def max_biased_profile(n: int, budget: PrivacyBudget, z: int) -> EventProfile:
    """max_biased_values as a profile: it saturates every differential
    privacy constraint toward z."""
    return EventProfile(n=n, alphabet_size=2, values=max_biased_values(n, budget, z))


def noisy_sum_tail_profile(n: int, eps: float, z: int) -> EventProfile:
    """Tail-event profile of the Laplace noisy sum.

    The mechanism releases sum(x) + Y with Y Laplace of scale 1/eps.  For
    z = 0 the event is {output <= 0} and m(x) = exp(-eps*|x|) / 2; for
    z = 1 it is {output >= n} and m(x) = exp(-eps*(n - |x|)) / 2.  Both
    are half the maximally z-biased profile under the uniform budget.
    """
    if eps <= 0.0:
        raise NegativeProbability("eps must be positive")
    biased = max_biased_profile(n, PrivacyBudget.uniform(n, eps), z)
    return EventProfile(n=n, alphabet_size=2, values=0.5 * biased.values)


def sample_noisy_sum(
    x: Sequence[int], eps: float, rng_seed: int, count: Optional[int] = None
):
    """Draw sum(x) + Laplace(1/eps) noise, seeded and reproducible.

    Noise is generated by inverse CDF applied to PCG64 uniforms:
    u ~ [0, 1), t = u - 1/2, y = -sign(t) * log(1 - 2|t|) / eps.
    Returns a float when count is None, else an array of that length.
    """
    if eps <= 0.0:
        raise NegativeProbability("eps must be positive")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    m = 1 if count is None else int(count)
    u = rng.random(m)
    u[u == 0.0] = np.finfo(np.float64).tiny
    t = u - 0.5
    noise = -np.sign(t) * np.log1p(-2.0 * np.abs(t)) / eps
    out = float(np.sum(x)) + noise
    return float(out[0]) if count is None else out


def parity_mechanism_m1_profile(r: int, s: int, eps: float) -> EventProfile:
    """Tail profile of the parity-summary mechanism on 1 + r*s bits.

    The mechanism adds Laplace(1/eps) noise to the number of odd entries
    in the sequence (x_a, row sums); the event is {output <= 0}, so
    m(x) = exp(-eps * k(x)) / 2 with k the odd-entry count.
    """
    if eps <= 0.0:
        raise NegativeProbability("eps must be positive")
    n = 1 + r * s
    digits = digit_table(n, 2)
    odd = digits[:, 0] % 2
    for i in range(r):
        row = digits[:, 1 + i * s : 1 + (i + 1) * s].sum(axis=1)
        odd = odd + row % 2
    return EventProfile(n=n, alphabet_size=2, values=0.5 * np.exp(-eps * odd))


def dp_audit(profile: EventProfile) -> PrivacyBudget:
    """Tightest per-coordinate budget the profile satisfies.

    eps_i = max |ln m(x) - ln m(x')| over pairs differing only at i.
    """
    a = profile.alphabet_size
    logs = cell_tensor(np.log(profile.values), profile.n, a)
    eps = np.zeros(profile.n)
    for i in range(profile.n):
        swept = np.moveaxis(logs, i, 0).reshape(a, -1)
        for u in range(a):
            for v in range(u + 1, a):
                gap = float(np.max(np.abs(swept[u] - swept[v]))) if swept.shape[1] else 0.0
                eps[i] = max(eps[i], gap)
    return PrivacyBudget(eps)


def _profile_nu(dist: JointDistribution, values: np.ndarray, a: int) -> float:
    """Largest log posterior-odds shift any direction pair gives one event."""
    marg = dist.marginal_of(a)
    supported = [z for z in range(dist.alphabet_size) if marg[z] > 0.0]
    if len(supported) < 2:
        return 0.0
    means = {z: conditional_mean(dist, values, a, z) for z in supported}
    best = 0.0
    unbounded = False
    for z0 in supported:
        for z1 in supported:
            if z0 == z1:
                continue
            num, den = means[z1], means[z0]
            if den == 0.0:
                # Profile entries are positive, so only an outcome-table
                # row that vanishes on the z0 face, or a mean that
                # underflows, gets here.
                unbounded = unbounded or num > 0.0
                continue
            if num <= 0.0:
                continue
            best = max(best, math.log(num) - math.log(den))
    return math.inf if unbounded else best


def mechanism_nu(
    dist: JointDistribution,
    mech: Union[EventProfile, OutcomeTable],
    a: int,
) -> float:
    """Inference parameter of a fixed mechanism about coordinate a.

    For an event profile this is the largest ln of the ratio
    Pr(event | x_a = z1) / Pr(event | x_a = z0) over ordered value pairs,
    the conditional probabilities being taken under the prior.  For an
    outcome table the maximum over output sets is reached at a singleton
    (mediant inequality), so rows are scanned one at a time.  Returns
    math.inf when some ratio has zero denominator and a positive
    numerator.
    """
    if (mech.n, mech.alphabet_size) != (dist.n, dist.alphabet_size):
        raise DimensionMismatch("mechanism and prior shapes differ")
    if isinstance(mech, EventProfile):
        return _profile_nu(dist, mech.values, a)
    best = 0.0
    for row in mech.table:
        if not np.any(row > 0.0):
            continue
        nu = _profile_nu(dist, row, a)
        if math.isinf(nu):
            return math.inf
        best = max(best, nu)
    return best
