"""JSON interchange for priors and mechanism witnesses.

Distribution files carry either dense probabilities

    {"n": 3, "alphabet": 2, "probs": [...]}

or a named generator

    {"generator": "twins" | "product" | "parity" | "ising_tree",
     "params": {...}}

Each file loads as one prior: an IsingPrior for ising_tree, whose dense
form the caller builds only where it needs the cells, and a
JointDistribution otherwise.

The witness that `infera nu --witness-out` writes is
{"kind": "profile", "n": ..., "alphabet": ..., "m": [...]}, one tail
probability per cell.  Field names are part of the CLI contract.
"""

from __future__ import annotations

import json
from typing import Union

from . import dist as dist_mod
from .dist import DEFAULT_CAP, JointDistribution
from .errors import ParseError
from .ising import IsingPrior, tree_prior
from .mechanism import EventProfile


def load_distribution(path: str, cap: int = DEFAULT_CAP) -> Union[JointDistribution, IsingPrior]:
    """Read a distribution file: the prior it describes, an IsingPrior for
    the ising_tree generator and a JointDistribution otherwise.  cap
    bounds what the prior holds: sites of an IsingPrior, cells of a
    JointDistribution."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read distribution file {path}: {exc}") from exc
    return distribution_from_obj(obj, cap=cap)


def _count(obj: dict, key: str) -> int:
    """obj[key] as an int; a float counts only when it is integral, where
    int() would truncate it or fail untyped on inf."""
    value = obj[key]
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"field {key!r} must be an integer, got {value}")
    return int(value)


def distribution_from_obj(
    obj: dict, cap: int = DEFAULT_CAP
) -> Union[JointDistribution, IsingPrior]:
    if not isinstance(obj, dict):
        raise ParseError("distribution file must hold a JSON object")
    name = obj.get("generator")
    params = obj.get("params", {})
    try:
        if name is None:
            return dist_mod.from_dense(_count(obj, "n"), _count(obj, "alphabet"), obj["probs"],
                                       cap=cap)
        if name == "twins":
            return dist_mod.perfectly_correlated(_count(params, "n"), float(params["p_one"]),
                                                 cap=cap)
        if name == "product":
            return dist_mod.product(params["marginals"], cap=cap)
        if name == "parity":
            return dist_mod.parity_constrained(_count(params, "r"), _count(params, "s"), cap=cap)
        if name == "ising_tree":
            return tree_prior(_count(params, "d"), _count(params, "depth"), float(params["J"]),
                              float(params.get("h0", 0.0)), cap=cap)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        source = "distribution object" if name is None else f"generator {name}"
        if isinstance(exc, KeyError):
            raise ParseError(f"{source} missing field {exc}") from exc
        raise ParseError(f"{source} has a malformed field: {exc}") from exc
    raise ParseError(f"unknown generator {name!r}")


def profile_to_obj(profile: EventProfile) -> dict:
    return {
        "kind": "profile",
        "n": profile.n,
        "alphabet": profile.alphabet_size,
        "m": [float(v) for v in profile.values],
    }


def save_mechanism(path: str, profile: EventProfile) -> None:
    with open(path, "w") as fh:
        json.dump(profile_to_obj(profile), fh, indent=2, sort_keys=True)
        fh.write("\n")
