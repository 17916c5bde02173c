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
from typing import Optional, Sequence

import numpy as np

from .dist import (JointDistribution, cell_fold, check_length, conditional_means, face_range,
                   odd_count)
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
        check_length(v.shape, self.alphabet_size, self.n, "values")
        if np.any(v <= 0.0):
            raise NegativeProbability("profile entries must be strictly positive")
        if np.any(v > 1.0 + 1e-12):
            raise NegativeProbability("profile entries must be at most 1")
        object.__setattr__(self, "values", np.minimum(v, 1.0))
        self.values.setflags(write=False)


def max_biased_log(eps: np.ndarray, z: int, alphabet_size: int = 2) -> np.ndarray:
    """Flat ln m_z(x) = -sum_i eps_i [x_i != z] over the alphabet_size**n
    cells of n = len(eps) coordinates, summed from coordinate 0 up."""
    return cell_fold(np.where(np.arange(alphabet_size) == z, 0.0, -eps[:, None]))


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
    with np.errstate(over="ignore"):  # a sum past the float range is -inf
        logm = max_biased_log(budget.eps, z)
    return np.exp(logm, out=logm)


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
    return EventProfile(n=1 + r * s, alphabet_size=2,
                        values=0.5 * np.exp(-eps * odd_count(r, s)))


def dp_audit(profile: EventProfile) -> PrivacyBudget:
    """Tightest per-coordinate budget the profile satisfies.

    eps_i = max |ln m(x) - ln m(x')| over pairs differing only at i: the
    widest range of ln m along coordinate i over the other coordinates,
    dist.face_range of the log table.  Rounding is monotone, so this is
    bit for bit the largest np.ptp of the faces.
    """
    logs = np.log(profile.values)
    return PrivacyBudget([face_range(logs, profile.alphabet_size, i) for i in range(profile.n)])


def mechanism_nu(dist: JointDistribution, profile: EventProfile, a: int) -> float:
    """Inference parameter of a fixed mechanism's event about coordinate a.

    This is the largest ln of the ratio Pr(event | x_a = z1) /
    Pr(event | x_a = z0) over ordered pairs of supported values, the
    conditional probabilities being taken under the prior: ln of the
    largest conditional mean over the smallest.  Returns math.inf when
    the smallest is 0 and the largest positive.
    """
    if (profile.n, profile.alphabet_size) != (dist.n, dist.alphabet_size):
        raise DimensionMismatch("mechanism and prior shapes differ")
    masses, means = conditional_means(dist, profile.values, a)
    supported = [mean for mass, mean in zip(masses, means) if mass > 0.0]
    top, bottom = max(supported), min(supported)
    if bottom == 0.0:
        # Profile entries are positive, but a conditional mean can still
        # underflow: a uniform prior on two bits with m = 5e-324 on the
        # x_0 = 0 face gives 0 here.
        return math.inf if top > 0.0 else 0.0
    return math.log(top) - math.log(bottom)
