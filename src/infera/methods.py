"""nu of one coordinate by the exact LP (`nu_exact`), the closed form on
affiliated binary priors (`nu_closed_form`), sum-product on an Ising
forest (`nu_tree`), or every one of them that applies, cross-checked."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .affiliated import nu_closed_form
from .dist import DEFAULT_CAP, check_coordinate
from .errors import NotAffiliated, ParseError, SizeCap, UnsupportedAlphabet
from .ising import IsingPrior, nu_tree
from .lp_exact import DEFAULT_LP_CAP, nu_exact

METHODS = ("exact", "closed-form", "gibbs")
# Which answer "all" reports: the certified value, then the exact tree recursion.
_TRUST = ("exact", "gibbs", "closed-form")
_NAMES = {"exact": "exact LP", "closed-form": "closed form", "gibbs": "tree recursion"}


@dataclass(frozen=True)
class Leakage:
    """nu and how it was obtained: `method` gave nu, `answers` holds each
    method's own result (NuCertificate, ClosedFormResult or float), and
    `spread` is the largest difference between their nu values."""

    nu: float
    method: str
    answers: dict
    spread: float
    warnings: tuple


def leakage(prior, budget, a, method="exact", cap=DEFAULT_CAP, lp_cap=DEFAULT_LP_CAP) -> Leakage:
    """nu of coordinate a of a JointDistribution or IsingPrior, whose
    dense methods enumerate it within cap cells.  One method raises what
    it raises.  "all" skips a method that refuses by SizeCap, NotAffiliated
    or UnsupportedAlphabet, tries gibbs only on an IsingPrior, and raises
    the first refusal when no method answers."""
    dense = functools.cache(lambda: prior.dense(cap))  # one enumeration for "all"

    def run(name):
        if name == "exact":
            return nu_exact(dense(), budget, a, cap=lp_cap)
        if name == "closed-form":
            return nu_closed_form(dense(), budget, a)
        if not isinstance(prior, IsingPrior):
            raise ParseError("--method gibbs needs an ising_tree generator file")
        site = check_coordinate(prior.n, a)
        return float(nu_tree(prior, budget)[site])

    warnings = []
    if method in METHODS:
        answers = {method: run(method)}
    elif method == "all":
        answers, refusals = {}, []
        for name in METHODS:
            if name == "gibbs" and not isinstance(prior, IsingPrior):
                continue
            try:
                answers[name] = run(name)
            except (SizeCap, NotAffiliated, UnsupportedAlphabet) as exc:
                refusals.append(exc)
                warnings.append(f"{_NAMES[name]} skipped: {exc}")
        if not answers:
            raise refusals[0]
    else:
        raise ParseError(f"unknown method {method!r}, expected one of {METHODS + ('all',)}")
    nus = {name: getattr(v, "nu", v) for name, v in answers.items()}
    spread = max(nus.values()) - min(nus.values())
    if spread > 1e-6:
        warnings.append(f"methods disagree by {spread:.3e}, beyond 1e-6")
    first = next(name for name in _TRUST if name in answers)
    return Leakage(nu=nus[first], method=first, answers=answers, spread=spread,
                   warnings=tuple(warnings))
