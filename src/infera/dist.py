"""Dense joint distributions over small discrete databases.

A database is a tuple x = (x_0, ..., x_{n-1}) with every coordinate in
{0, ..., alphabet_size - 1}.  Probabilities are stored as a flat vector
indexed little-endian: index(x) = sum_i x_i * alphabet_size**i, so
coordinate 0 is the least significant digit.

This module is the one place that maps cells to digits.  Everything else
goes through cell_tensor, faces, face_views and pair_marginals, and
builds cell functions from per-coordinate terms with cell_fold and
add_pair.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeProbability,
    SizeCap,
    UnsupportedAlphabet,
    ZeroMass,
)

DEFAULT_CAP = 2**20

# Entries above this magnitude of negativity are treated as data errors
# rather than float noise.
_NEG_TOL = 1e-12


def cell_fold(terms, op=np.add) -> np.ndarray:
    """Flat f(x) = op over k of terms[k][d_k], for the cells of
    little-endian mixed-radix digits d_k, digit k taking len(terms[k])
    values, folded in from k = 0 up.  With terms of length alphabet_size,
    d_k is x_k; with op np.multiply, f is a product."""
    out = np.full(1, float(op.identity))
    for t in terms:
        out = op.outer(np.asarray(t, dtype=np.float64), out).reshape(-1)
    return out


def add_pair(flat: np.ndarray, i: int, j: int, table) -> None:
    """Add table[x_i][x_j], a symmetric 2x2 table, to every cell of the
    binary cell vector flat, in place, through its contiguous view."""
    lo, hi = sorted((i, j))
    view = flat.reshape(-1, 2, 2 ** (hi - lo - 1), 2, 2**lo)
    view += np.asarray(table, dtype=np.float64)[:, None, :, None]


def odd_count(r: int, s: int) -> np.ndarray:
    """Flat count of odd entries in (x_0, row sums) over the binary cells
    of 1 + r*s coordinates, row i being x_{1+i*s} to x_{(i+1)*s}."""
    row = cell_fold([(0, 1)] * s) % 2
    return cell_fold([(0, 1)] + [row] * r)


def cell_tensor(flat: np.ndarray, n: int, alphabet_size: int) -> np.ndarray:
    """View a flat cell vector as an (alphabet_size,)*n tensor; axis i is x_i."""
    return np.asarray(flat).reshape((alphabet_size,) * n, order="F")


def check_coordinate(n: int, a: int) -> int:
    """a as an int; DimensionMismatch unless it is an integer with
    0 <= a < n.  Integers are what operator.index accepts, numpy integers
    included; a float such as 1.0 is refused."""
    try:
        a = operator.index(a)
    except TypeError:
        raise DimensionMismatch(f"coordinate {a!r} is not an integer") from None
    if not 0 <= a < n:
        raise DimensionMismatch(f"coordinate {a} out of range for n={n}")
    return a


def check_cells(alphabet: int, n: int, cap: int, what: str = "prior") -> int:
    """alphabet**n, the cells of a prior over n coordinates, or SizeCap past
    cap.  Multiplied up to the cap and no further, so a huge n from a file
    is refused at once, by a message that names alphabet**n."""
    size = 1
    for _ in range(n):
        size *= alphabet
        if size > cap:
            raise SizeCap(f"{what} needs {alphabet}**{n} entries, cap {cap}")
    return size


def check_length(shape: tuple, alphabet: int, n: int, what: str) -> None:
    """DimensionMismatch unless shape is (alphabet**n,).  alphabet**n is
    counted up only as far as the length (check_cells), so a huge n
    neither forms the power nor prints it; below 2 its magnitude is at
    most one, and it is formed."""
    try:
        fits = len(shape) == 1 and n >= 0 and shape[0] == (
            alphabet**n if abs(alphabet) < 2 else check_cells(alphabet, n, shape[0]))
    except SizeCap:
        fits = False
    if not fits:
        raise DimensionMismatch(f"expected {alphabet}**{n} {what}, got {shape}")


def faces(flat: np.ndarray, n: int, alphabet_size: int, a: int) -> np.ndarray:
    """(alphabet_size, alphabet_size**(n - 1)) array of flat split along
    coordinate a: row z holds the cells with x_a = z, little-endian over
    the remaining coordinates in their original order."""
    a = check_coordinate(n, a)
    return np.moveaxis(cell_tensor(flat, n, alphabet_size), a, 0).reshape(
        alphabet_size, -1, order="F"
    )


def pair_marginals(flat: np.ndarray, n: int, alphabet_size: int, i: int) -> np.ndarray:
    """(n - 1, alphabet_size, alphabet_size) array of the joint marginals
    of x_i and x_j, for j = n - 1 down to 0 skipping i.  The face split
    along x_i is copied contiguous; each step reads the marginal of its
    most significant coordinate by summing contiguous runs, then adds its
    alphabet_size slices to drop it.  Every entry is thus a sum along one
    run or of a few slices at a time, accurate to a few ulps at any size."""
    i = check_coordinate(n, i)
    alph = alphabet_size
    # In C order axis k of the reshaped cells is x_{n-1-k}.
    order = [n - 1 - i] + [k for k in range(n) if k != n - 1 - i]
    t = np.asarray(flat).reshape((alph,) * n).transpose(order).reshape(alph, -1)
    out = np.empty((n - 1, alph, alph))
    for k in range(n - 1):
        t = t.reshape(alph, alph, -1)
        np.add.reduce(t, axis=2, out=out[k])
        t = np.add.reduce(t, axis=1)
    return out


# Contiguous runs shorter than this many cells are read across instead.
# One face difference with its fmax and fmin, on 2**16 binary cells (numpy,
# 2 vCPUs): runs of 8 cells took 110 us along and 62 us across, runs of 16
# took 85 us along and 139 us across.  Ternary runs of 9 tie.
_SHORT_RUN = 16


def face_views(flat: np.ndarray, alphabet_size: int, k: int) -> list:
    """The faces x_k = 0, ..., alphabet_size - 1 of a flat cell vector, as
    views that list the other coordinates' contexts in one order: rows
    are the contiguous runs of alphabet_size**k cells, or columns are when
    those runs are shorter than _SHORT_RUN.  Paired with a C-contiguous
    operand of the same shape, numpy's inner loop then runs the long way."""
    t = np.asarray(flat).reshape(-1, alphabet_size, alphabet_size**k)
    short = alphabet_size**k < _SHORT_RUN
    return [t[:, u].T if short else t[:, u] for u in range(alphabet_size)]


def face_range(flat: np.ndarray, alphabet_size: int, k: int, out=None) -> float:
    """The largest |f(x) - f(x')| over cells that differ only at x_k, f
    the flat cell vector, at least 0: the larger of the fmax and -fmin of
    each pair of faces' difference, so nan terms are skipped and +-inf is
    kept.  Max and min do not depend on the order of the cells, so each
    face is read along its longest run (face_views), and short runs are
    read across.  out, a flat float buffer the size of one face, holds
    each difference when given."""
    views = face_views(flat, alphabet_size, k)
    hi = lo = 0.0
    for u, high in enumerate(views):
        for low in views[u + 1:]:
            diff = np.subtract(high, low, out=None if out is None else out.reshape(high.shape))
            hi = np.fmax.reduce(diff, axis=None, initial=hi)
            lo = np.fmin.reduce(diff, axis=None, initial=lo)
    return float(max(hi, -lo))


@dataclass(frozen=True)
class JointDistribution:
    """Normalized prior over databases of n coordinates."""

    n: int
    alphabet_size: int
    probs: np.ndarray

    def __post_init__(self):
        check_length(self.probs.shape, self.alphabet_size, self.n, "entries")
        self.probs.setflags(write=False)

    def dense(self, cap: int = DEFAULT_CAP) -> "JointDistribution":
        """The prior over all its cells: itself, as `IsingPrior.dense` would give."""
        return self

    def index_of(self, x: Sequence[int]) -> int:
        """Flat index of the database x; DimensionMismatch unless x has
        exactly n digits, each an integer (numpy integers included) in
        [0, alphabet_size)."""
        try:
            digits = [operator.index(v) for v in x]
        except TypeError:
            raise DimensionMismatch(f"database {x!r} is not a sequence of integers") from None
        if len(digits) != self.n:
            raise DimensionMismatch(f"database {x!r} has {len(digits)} digits, expected {self.n}")
        if not all(0 <= v < self.alphabet_size for v in digits):
            raise DimensionMismatch(
                f"database {x!r} has a digit outside [0, {self.alphabet_size})"
            )
        return sum(v * self.alphabet_size**i for i, v in enumerate(digits))

    def prob_of(self, x: Sequence[int]) -> float:
        return float(self.probs[self.index_of(x)])

    def marginal_of(self, i: int) -> np.ndarray:
        """Distribution of coordinate i."""
        i = check_coordinate(self.n, i)
        axes = tuple(k for k in range(self.n) if k != i)
        return cell_tensor(self.probs, self.n, self.alphabet_size).sum(axis=axes)


def from_dense(
    n: int,
    alphabet_size: int,
    weights: Sequence[float],
    cap: int = DEFAULT_CAP,
) -> JointDistribution:
    """Build a distribution from nonnegative weights, normalizing them.

    Rejects weights below -1e-12 and weights that are not finite numbers
    (NegativeProbability); smaller negative float noise is clamped to
    zero.  Raises ZeroMass when nothing remains to normalize and SizeCap
    when alphabet_size**n exceeds the cap.

    The total is the correctly rounded sum of the weights, the one
    math.fsum gives, computed exactly from their bits without boxing a
    cell.  Weights whose sum passes the float range are first scaled by
    a power of two.
    """
    if n < 1 or alphabet_size < 2:
        raise DimensionMismatch(f"need n >= 1 and alphabet >= 2, got {n}, {alphabet_size}")
    size = check_cells(alphabet_size, n, cap)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (size,):
        raise DimensionMismatch(f"expected {size} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        bad = int(np.flatnonzero(~np.isfinite(w))[0])
        raise NegativeProbability(f"weight {w[bad]} at index {bad} is not a finite number")
    if np.any(w < -_NEG_TOL):
        worst = int(np.argmin(w))
        raise NegativeProbability(f"weight {w[worst]} at index {worst}")
    w = np.where(w < 0.0, 0.0, w)
    m = _exact_sum(w)
    if m == 0:
        raise ZeroMass("weights sum to zero")
    try:
        # Int division rounds correctly, as math.fsum does.
        total = m / (1 << _SUM_UNIT)
    except OverflowError:
        # Finite weights past the float range in sum: scale them and
        # their sum by one power of two, which leaves the quotients.
        shift = m.bit_length() - _SUM_UNIT - 1023
        w = np.ldexp(w, -shift)
        total = m / (1 << (_SUM_UNIT + shift))
    return JointDistribution(n=n, alphabet_size=alphabet_size, probs=w / total)


# _exact_sum counts in units of 2**-_SUM_UNIT, the last bit of a 53-bit
# mantissa at np.frexp's lowest exponent for a finite float64: -1073 - 53.
_SUM_UNIT = 1126
# Cells per block of _exact_sum: its temporaries stay near 2 MiB.
_SUM_BLOCK = 2**16


def _exact_sum(w: np.ndarray) -> int:
    """The exact sum of the finite nonnegative float64 array w, in units
    of 2**-_SUM_UNIT.

    Each weight is frac * 2**e with frac in [0.5, 1) (np.frexp); the 53
    bits of frac are cut into a high part below 2**26 and a low part
    below 2**27, and each part is summed per exponent by np.bincount, a
    block of cells at a time.  Those sums stay below 2**53, so they are
    exact, and Python integers add them up.
    """
    m = 0
    for start in range(0, w.size, _SUM_BLOCK):
        frac, exp = np.frexp(w[start:start + _SUM_BLOCK])
        lowest = int(exp.min())
        exp -= lowest
        x = np.ldexp(frac, 26, out=frac)
        high = np.floor(x)
        x -= high
        high_sums = np.bincount(exp, high)
        low_sums = np.bincount(exp, np.ldexp(x, 27, out=x))
        # A nonzero weight has a high part of at least 2**25.
        for e in np.flatnonzero(high_sums).tolist():
            part = (int(high_sums[e]) << 27) + int(low_sums[e])
            m += part << (e + lowest - 53 + _SUM_UNIT)
    return m


def product(marginals: Sequence[Sequence[float]], cap: int = DEFAULT_CAP) -> JointDistribution:
    """Independent prior with the given per-coordinate marginals."""
    mats = [np.asarray(m, dtype=np.float64) for m in marginals]
    if not mats:
        raise DimensionMismatch("a product prior needs at least one marginal")
    alphabet = mats[0].size
    if any(m.size != alphabet for m in mats):
        raise DimensionMismatch("marginals must share one alphabet size")
    n = len(mats)
    check_cells(alphabet, n, cap)
    return from_dense(n, alphabet, cell_fold(mats, np.multiply), cap=cap)


def perfectly_correlated(n: int, p_one: float, cap: int = DEFAULT_CAP) -> JointDistribution:
    """All coordinates equal: all-zeros with mass 1 - p_one, all-ones with p_one."""
    if not 0.0 <= p_one <= 1.0:
        raise NegativeProbability(f"p_one must lie in [0, 1], got {p_one}")
    w = np.zeros(check_cells(2, n, cap))
    w[0] = 1.0 - p_one
    w[-1] = p_one
    return from_dense(n, 2, w, cap=cap)


def parity_constrained(r: int, s: int, cap: int = DEFAULT_CAP) -> JointDistribution:
    """Uniform prior on binary (x_a, r rows of s bits) with even row parities.

    Coordinate 0 is x_a; coordinate 1 + i*s + j is bit j of row i.  The
    support is the set of databases where x_a plus each row sum is even,
    which leaves 2**(1 + r*(s-1)) databases: those where every row sum
    has the parity of x_a, so odd_count is 0 or r + 1.
    """
    n = 1 + r * s
    check_cells(2, n, cap)
    k = odd_count(r, s)
    return from_dense(n, 2, ((k == 0) | (k == r + 1)).astype(np.float64), cap=cap)


def conditional_means(dist: JointDistribution, values: np.ndarray, a: int):
    """(masses, means): Pr(x_a = z) and E[values | x_a = z] for every
    value z of coordinate a, values being a flat vector of cell values.
    The mean of a face of mass 0 is nan."""
    masses, means = [], []
    for face, vface in zip(faces(dist.probs, dist.n, dist.alphabet_size, a),
                           faces(values, dist.n, dist.alphabet_size, a)):
        mass = math.fsum(face.tolist())
        masses.append(mass)
        means.append(math.fsum(((face / mass) * vface).tolist()) if mass > 0.0 else math.nan)
    return masses, means


def _biased_weights(eps: np.ndarray) -> np.ndarray:
    """(3, 2**len(eps)) array: prod_i exp(-eps_i [x_i != z]) over the
    binary cells of the coordinates of eps, for z = 0 and z = 1, then 1."""
    w = np.exp(-eps).tolist()
    return np.stack([cell_fold([(1.0, e) for e in w], np.multiply),
                     cell_fold([(e, 1.0) for e in w], np.multiply),
                     np.ones(2 ** len(w))])


def biased_means(dist: JointDistribution, eps: np.ndarray, a: int):
    """(masses, means): Pr(x_a = v) for v in (0, 1), and the 2x2 array
    means[z, v] = E[prod_{i != a} exp(-eps_i [x_i != z]) | x_a = v].

    These are the conditional means of the maximally z-biased profile
    without its x_a factor, computed without a profile.  The face x_a = v
    is the matrix F_v whose rows are the coordinates above a and whose
    columns are those below, both little-endian; the weights of each
    side, (1, e^-eps_i) for z = 0, (e^-eps_i, 1) for z = 1 and (1, 1) for
    the face's mass, factor over the two sides, so the three sums of a
    face are the rows of (3 x rows) @ F_v dotted with the three column
    weight vectors.  The face's largest cell is 2**s times a number in
    [0.5, 1), and F_v is scaled once by 2**-s, exactly unless it halves a
    subnormal cell (s is at most 1, and 1 only for a cell of 1).  The
    scaled cells are below 1 and the weights at most 1, so nothing
    overflows, and a subnormal face keeps its digits.  Every sum adds
    nonnegative terms; on 300 random priors up to n = 12 the means stayed
    within 2e-15 relative of a fold over one coordinate at a time.  The
    means of a face of mass 0 are nan.
    """
    if dist.alphabet_size != 2:
        raise UnsupportedAlphabet("biased means require binary coordinates")
    a = check_coordinate(dist.n, a)
    eps = np.asarray(eps, dtype=np.float64)
    rows, cols = _biased_weights(eps[a + 1:]), _biased_weights(eps[:a])
    split = dist.probs.reshape(-1, 2, 2**a)
    scale = np.frexp(split.max(axis=(0, 2)))[1]
    sums = np.empty((3, 2))
    for v in (0, 1):
        sums[:, v] = (rows @ np.ldexp(split[:, v], -scale[v]) * cols).sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.ldexp(sums[2], scale), sums[:2] / sums[2]


# Pairs of supported cells the full lattice check may compare.  It runs
# in row blocks of about _LATTICE_BLOCK pairs, so its temporaries stay
# at a few MB whatever the support.
LATTICE_PAIR_CAP = 2**30
_LATTICE_BLOCK = 2**18


def is_positively_affiliated(dist: JointDistribution):
    """Check log-supermodularity of the prior on the binary hypercube.

    Returns (True, None) or (False, witness) where the witness is a pair
    of databases violating p(x v x') * p(x ^ x') >= p(x) * p(x') (with a
    1e-12 relative slack).

    A strictly positive prior is log-supermodular as soon as the
    inequality holds at every pair differing in exactly two coordinates
    (Karlin & Rinott 1980).  For such priors the scan runs over coordinate
    pairs (i, j), each vectorised over its 2**(n-2) meets.  With zero
    cells that reduction is unsound: the uniform prior on {100, 011, 111}
    passes it, yet p(111) p(000) = 0 < p(100) p(011).  Such priors are
    checked at every pair of supported cells (a pair with an unsupported
    member holds trivially), |support|**2 comparisons, and SizeCap is
    raised above LATTICE_PAIR_CAP of them.  Either way the first violating
    pair found is the witness.

    Both scans compare logs, so a violation is found even where both of
    its products underflow to 0.  The positive scan reads the log-odds of
    each x_i from contiguous halves of one log table and flags a pair
    (i, j) where they fall as x_j rises.
    """
    if dist.alphabet_size != 2:
        raise UnsupportedAlphabet("affiliation check requires binary coordinates")
    if np.all(dist.probs > 0.0):
        return _adjacent_scan(dist)
    return _lattice_scan(dist)


# The 1e-12 relative slack of the lattice inequality, on its logs.
_LOG_SLACK = math.log1p(-1e-12)


def _adjacent_scan(dist: JointDistribution):
    n = dist.n
    logp = np.log(dist.probs)
    for i in range(n):
        # Log-odds of x_i over the other coordinates, little-endian.
        half = logp.reshape(-1, 2, 2**i)
        odds = (half[:, 1] - half[:, 0]).reshape(-1)
        for j in range(i + 1, n):
            # x_j sits at position j - 1 of odds.  Where the log-odds
            # fall as x_j rises, the cells x_i = 1 and x_j = 1 over that
            # meet of the other n - 2 coordinates break the inequality.
            pair = odds.reshape(-1, 2, 2 ** (j - 1))
            rise = pair[:, 1] - pair[:, 0]
            if np.fmin.reduce(rise, axis=None) < _LOG_SLACK:
                bad = rise.reshape(-1) < _LOG_SLACK
                # The first bad meet in lexicographic order of
                # (x_0, x_1, ...), coordinates i and j left out.
                rest = iter(np.argwhere(cell_tensor(bad, n - 2, 2))[0].tolist())
                x = [0 if k in (i, j) else next(rest) for k in range(n)]
                x1, x2 = list(x), list(x)
                x1[i] = x2[j] = 1
                return False, (tuple(x1), tuple(x2))
    return True, None


def _lattice_scan(dist: JointDistribution):
    # On little-endian binary indices, bitwise or and and are join and meet.
    cells = np.flatnonzero(dist.probs)
    if cells.size**2 > LATTICE_PAIR_CAP:
        raise SizeCap(
            f"affiliation check on a prior with zero cells needs {cells.size}**2 "
            f"pair comparisons, cap {LATTICE_PAIR_CAP}"
        )
    # In logs no product underflows; a zero join or meet of a supported
    # pair is -inf, hence a violation.
    with np.errstate(divide="ignore"):
        logp = np.log(dist.probs)
    rows = max(1, _LATTICE_BLOCK // cells.size)
    for start in range(0, cells.size, rows):
        # The inequality is symmetric, so columns before the block are skipped.
        x, y = cells[start : start + rows, None], cells[None, start:]
        bad = logp[x | y] + logp[x & y] < logp[x] + logp[y] + _LOG_SLACK
        if np.any(bad):
            r, c = np.argwhere(bad)[0]
            pair = (int(x[r, 0]), int(y[0, c]))
            return False, tuple(tuple((k >> i) & 1 for i in range(dist.n)) for k in pair)
    return True, None


def _digit_matrix(k: int) -> np.ndarray:
    """(2**k, k) float array of the little-endian binary digits of
    0, ..., 2**k - 1."""
    return ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(np.float64)


def is_pairwise_positively_correlated(dist: JointDistribution) -> bool:
    """True when Cov(x_i, x_j) >= 0 for every pair i < j (up to 1e-12).

    Reads every E[x_i x_j] from one second-moment matrix, whose diagonal
    holds the means E[x_i].  With the cells viewed as the 2**h x 2**l
    matrix P (h = n - n//2 high coordinates by row, l = n//2 low ones by
    column) and B_l, B_h the digit matrices of its column and row indices,
    the low block is B_l' diag(P'1) B_l, the high block B_h' diag(P1) B_h
    and the cross block B_h' P B_l, so no 2**n x n digit table is formed.
    """
    if dist.alphabet_size != 2:
        raise UnsupportedAlphabet("pairwise correlation check requires binary coordinates")
    low = dist.n // 2
    p = dist.probs.reshape(-1, 2**low)
    b_low, b_high = _digit_matrix(low), _digit_matrix(dist.n - low)
    cross = b_high.T @ p @ b_low
    moments = np.block([
        [(b_low.T * p.sum(axis=0)) @ b_low, cross.T],
        [cross, (b_high.T * p.sum(axis=1)) @ b_high],
    ])
    means = np.diag(moments)
    upper = np.triu_indices(dist.n, 1)
    return not np.any(moments[upper] < np.outer(means, means)[upper] - 1e-12)
