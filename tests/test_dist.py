"""Distribution construction, conditioning, and structure checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infera
from conftest import bit_table, random_monotone, random_prior
from infera.dist import (
    JointDistribution,
    biased_means,
    cell_tensor,
    check_cells,
    conditional_means,
    face_range,
    faces,
    from_dense,
    is_pairwise_positively_correlated,
    is_positively_affiliated,
    pair_marginals,
    parity_constrained,
    perfectly_correlated,
    product,
)
from infera.errors import (
    DimensionMismatch,
    InsufficientSupport,
    NegativeProbability,
    SizeCap,
    UnsupportedAlphabet,
    ZeroMass,
)
from infera.affiliated import nu_closed_form, random_affiliated
from infera.mechanism import EventProfile, PrivacyBudget, max_biased_profile
from infera.ising import IsingPrior, tree_prior


def test_from_dense_normalizes():
    d = from_dense(1, 2, [0.5, 0.5])
    assert np.array_equal(d.probs, [0.5, 0.5])
    d = from_dense(1, 2, [3.0, 1.0])
    assert np.allclose(d.probs, [0.75, 0.25], rtol=0, atol=1e-15)


def test_from_dense_twins_weights():
    d = from_dense(2, 2, [1, 0, 0, 1])
    assert np.array_equal(d.probs, [0.5, 0.0, 0.0, 0.5])


def test_from_dense_rejects_negative():
    with pytest.raises(NegativeProbability):
        from_dense(2, 2, [0.2, 0.3, -0.1, 0.6])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_dense_rejects_non_finite_weights(bad):
    with pytest.raises(NegativeProbability):
        from_dense(1, 2, [bad, 1.0])


def test_from_dense_clamps_float_noise():
    d = from_dense(1, 2, [1.0, -1e-13])
    assert d.probs[1] == 0.0


def test_from_dense_scales_a_sum_past_the_float_range():
    big = 1.7e308
    assert np.array_equal(from_dense(1, 2, [big, big]).probs, [0.5, 0.5])
    # Any power of two that brings the sum into range gives the same quotients.
    scaled = np.array([big, 0.0, big, big]) / 4
    assert np.array_equal(from_dense(2, 2, 4 * scaled).probs, scaled / math.fsum(scaled.tolist()))
    # Below the float range the sum is not scaled.
    d = from_dense(1, 2, [big, big / 64])
    assert np.array_equal(d.probs, np.array([big, big / 64]) / (big + big / 64))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@st.composite
def _spread_weights(draw):
    """Weights with zeros, subnormals and exponents over most of the float
    range, on up to 3**11 cells: past one block of the binned sum."""
    n, alph = draw(st.sampled_from([(1, 2), (3, 3), (10, 2), (16, 2), (17, 2), (11, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(-1000, 990))
    low = draw(st.integers(-1100, top))
    w = np.ldexp(rng.uniform(0.5, 1.0, alph**n), rng.integers(low, top + 1, alph**n))
    subnormal = rng.uniform(size=w.size) < draw(st.floats(0.0, 0.2))
    w[subnormal] = rng.integers(1, 2**52, subnormal.sum()) * 5e-324
    w[rng.uniform(size=w.size) < draw(st.floats(0.0, 0.5))] = 0.0
    if not w.any():
        w[-1] = 5e-324
    return n, alph, w


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_spread_weights())
def test_from_dense_divides_by_the_fsum_of_its_weights(case):
    n, alph, w = case
    want = w / math.fsum(w.tolist())
    assert np.array_equal(_bits(from_dense(n, alph, w).probs), _bits(want))


def test_from_dense_shape_and_mass_errors():
    with pytest.raises(DimensionMismatch):
        from_dense(2, 2, [0.5, 0.5])
    with pytest.raises(ZeroMass):
        from_dense(1, 2, [0.0, 0.0])
    with pytest.raises(SizeCap):
        from_dense(4, 2, np.ones(16), cap=8)


def test_check_cells_admits_exactly_the_cap():
    assert check_cells(3, 4, 81) == 81 and check_cells(2, 0, 1) == 1
    with pytest.raises(SizeCap, match=r"^prior needs 3\*\*4 entries, cap 80$"):
        check_cells(3, 4, 80)


@pytest.mark.parametrize("build, power, cap", [
    (lambda: perfectly_correlated(10**9, 0.5, cap=10**9), "2**1000000000", 10**9),
    (lambda: from_dense(10**8, 2, [0.5, 0.5]), "2**100000000", 2**20),
    (lambda: parity_constrained(10**4, 10**4), "2**100000001", 2**20),
], ids=["twins", "dense", "parity"])
def test_size_checks_refuse_without_forming_the_power(build, power, cap):
    # 2**(10**9) takes seconds and 125 MB to form, and has too many digits
    # to print: the checks multiply up to the cap and name the power.
    tracemalloc.start()
    try:
        with pytest.raises(SizeCap) as exc:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"prior needs {power} entries, cap {cap}"
    assert peak <= 2**20


@pytest.mark.parametrize("build, what", [
    (lambda n: JointDistribution(n=n, alphabet_size=2, probs=np.full(4, 0.25)), "entries"),
    (lambda n: EventProfile(n=n, alphabet_size=2, values=np.full(4, 0.25)), "values"),
], ids=["prior", "profile"])
def test_shape_checks_name_the_power_on_a_huge_n(build, what):
    # 2**(10**5) has more digits than Python prints: the shape check
    # counts up to the length instead and names the power.
    with pytest.raises(DimensionMismatch, match=rf"^expected 2\*\*100000 {what}, got \(4,\)$"):
        build(10**5)
    with pytest.raises(DimensionMismatch, match=rf"^expected 2\*\*3 {what}, got \(4,\)$"):
        build(3)
    with pytest.raises(DimensionMismatch, match=rf"^expected 2\*\*-1 {what}"):
        build(-1)
    assert build(2).n == 2


def test_normalization_invariant_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        d = random_prior(rng, n)
        assert abs(math.fsum(d.probs.tolist()) - 1.0) <= 1e-12


def test_product_fair_coins():
    d = product([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(d.probs, 0.25, rtol=0, atol=1e-15)


def test_product_degenerate_factor():
    d = product([[0.3, 0.7], [1.0, 0.0]])
    assert np.allclose(d.probs, [0.3, 0.7, 0.0, 0.0], rtol=0, atol=1e-15)


def test_product_three_fair_coins_is_affiliated():
    d = product([[0.5, 0.5]] * 3)
    ok, witness = is_positively_affiliated(d)
    assert ok and witness is None


def test_product_rejects_mixed_alphabets():
    with pytest.raises(DimensionMismatch):
        product([[0.5, 0.5], [0.2, 0.3, 0.5]])


def test_perfectly_correlated_twins():
    d = perfectly_correlated(2, 0.5)
    assert np.array_equal(d.probs, [0.5, 0.0, 0.0, 0.5])
    d = perfectly_correlated(1, 0.3)
    assert np.allclose(d.probs, [0.7, 0.3], rtol=0, atol=1e-15)


def test_perfectly_correlated_range_check():
    with pytest.raises(NegativeProbability):
        perfectly_correlated(2, -0.1)
    with pytest.raises(NegativeProbability):
        perfectly_correlated(2, 1.5)
    # Boundary values are legal point masses.
    assert perfectly_correlated(2, 1.0).probs[-1] == 1.0


def test_parity_r1_s1_is_twins():
    d = parity_constrained(1, 1)
    assert np.array_equal(d.probs, [0.5, 0.0, 0.0, 0.5])


def test_parity_2_2_support():
    d = parity_constrained(2, 2)
    support = np.flatnonzero(d.probs)
    assert support.size == 8  # 2**(1 + r*(s-1))
    assert np.allclose(d.probs[support], 0.125, rtol=0, atol=1e-15)
    for idx in support:
        bits = [(idx >> k) & 1 for k in range(5)]
        assert (bits[0] + bits[1] + bits[2]) % 2 == 0
        assert (bits[0] + bits[3] + bits[4]) % 2 == 0


def test_parity_not_affiliated_with_valid_witness():
    d = parity_constrained(2, 2)
    ok, witness = is_positively_affiliated(d)
    assert not ok
    x1, x2 = witness
    join = tuple(max(u, v) for u, v in zip(x1, x2))
    meet = tuple(min(u, v) for u, v in zip(x1, x2))
    assert d.prob_of(join) * d.prob_of(meet) < d.prob_of(x1) * d.prob_of(x2)


def test_conditional_slice_twins_point_mass():
    d = perfectly_correlated(2, 0.5)
    masses, means = conditional_means(d, bit_table(2)[:, 1].astype(float), 0)
    assert masses == [0.5, 0.5]
    # Given x_0 = z, x_1 = z surely.
    assert means == [0.0, 1.0]
    assert np.array_equal(faces(d.probs, 2, 2, 0)[1] / masses[1], [0.0, 1.0])


def test_conditional_slice_product_drops_factor():
    d = product([[0.3, 0.7], [0.2, 0.8], [0.6, 0.4]])
    masses, _ = conditional_means(d, np.ones(8), 1)
    expect = product([[0.3, 0.7], [0.6, 0.4]])
    assert np.allclose(faces(d.probs, 3, 2, 1)[0] / masses[0], expect.probs, rtol=0, atol=1e-15)
    assert abs(masses[0] - 0.2) <= 1e-15


def test_conditional_slice_zero_probability_event():
    d = perfectly_correlated(2, 1.0)
    masses, means = conditional_means(d, np.ones(4), 0)
    assert masses == [0.0, 1.0]
    assert math.isnan(means[0]) and means[1] == 1.0
    with pytest.raises(InsufficientSupport):
        nu_closed_form(d, PrivacyBudget.uniform(2, 0.5), 0)


def test_conditional_slice_argument_checks():
    d = perfectly_correlated(2, 0.5)
    with pytest.raises(DimensionMismatch):
        conditional_means(d, d.probs, 2)
    with pytest.raises(DimensionMismatch):
        faces(d.probs, 2, 2, 2)


def test_slice_reconstruction_random():
    # sum_z Pr(x_a = z) E[v | x_a = z] must rebuild E[v], and the faces
    # summed over z the x_{-a} marginal.
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = random_prior(rng, n, floor=1e-6)
        values = rng.uniform(size=2**n)
        shaped = d.probs.reshape((2,) * n, order="F")
        for a in range(n):
            masses, means = conditional_means(d, values, a)
            assert abs(sum(m * v for m, v in zip(masses, means)) - d.probs @ values) <= 1e-12
            rest = shaped.sum(axis=a).reshape(-1, order="F")
            assert np.max(np.abs(faces(d.probs, n, 2, a).sum(axis=0) - rest)) <= 1e-15


def test_affiliated_ising_tree_prior():
    model = tree_prior(d=2, depth=2, J=0.3, h0=0.1)
    ok, _ = is_positively_affiliated(model.dense())
    assert ok


def test_affiliation_requires_binary_alphabet():
    d = from_dense(2, 3, np.ones(9))
    with pytest.raises(UnsupportedAlphabet):
        is_positively_affiliated(d)
    with pytest.raises(UnsupportedAlphabet):
        is_pairwise_positively_correlated(d)


def test_pairwise_correlation_examples():
    assert is_pairwise_positively_correlated(parity_constrained(2, 2))
    assert is_pairwise_positively_correlated(perfectly_correlated(2, 0.5))
    anti = from_dense(2, 2, [0.0, 0.5, 0.5, 0.0])
    assert not is_pairwise_positively_correlated(anti)


@st.composite
def _pairwise_priors(draw):
    """Binary priors on up to 9 coordinates: products, whose covariances
    are 0, random weights with zero cells, affiliated priors and their
    mirror images in one coordinate, whose covariances with it are <= 0."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["product", "random", "affiliated", "mirrored"]))
    if kind == "product":
        return product(rng.dirichlet([1.0, 1.0], size=n))
    if kind == "random":
        w = rng.gamma(0.5, size=2**n)
        w[rng.uniform(size=w.size) < draw(st.floats(0.0, 0.5))] = 0.0
        w[0] += 1.0
        return from_dense(n, 2, w)
    d = random_affiliated(n, rng)
    if kind == "affiliated":
        return d
    flip = draw(st.integers(0, n - 1))
    return from_dense(n, 2, d.probs[np.arange(2**n) ^ (1 << flip)])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_pairwise_priors())
def test_pairwise_verdict_matches_brute_force_covariances(d):
    bits = bit_table(d.n).astype(np.float64)
    means = [math.fsum(np.multiply(d.probs, bits[:, i]).tolist()) for i in range(d.n)]
    ok = True
    for i in range(d.n):
        for j in range(i + 1, d.n):
            second = math.fsum((d.probs * bits[:, i] * bits[:, j]).tolist())
            ok &= second - means[i] * means[j] >= -1e-12
    assert is_pairwise_positively_correlated(d) == ok


def test_affiliation_implies_pairwise_correlation():
    rng = np.random.default_rng(13)
    seen_affiliated = 0
    for k in range(500):
        n = int(rng.integers(2, 5))
        if k % 2 == 0:
            d = random_affiliated(n, rng)
        else:
            d = random_prior(rng, n)
        ok, _ = is_positively_affiliated(d)
        if ok:
            seen_affiliated += 1
            assert is_pairwise_positively_correlated(d)
    assert seen_affiliated >= 250


def test_fkg_inequality_on_affiliated_priors():
    # (sum f g h)(sum h) >= (sum f h)(sum g h) for monotone f, g, h = prior.
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        d = random_affiliated(n, rng)
        h = d.probs
        for _ in range(100):
            f = random_monotone(rng, n)
            g = random_monotone(rng, n)
            lhs = math.fsum((f * g * h).tolist()) * math.fsum(h.tolist())
            rhs = math.fsum((f * h).tolist()) * math.fsum((g * h).tolist())
            assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_digit_index_roundtrip():
    d = from_dense(3, 2, np.arange(1, 9, dtype=float))
    table = bit_table(3)
    for idx in range(8):
        assert d.index_of(table[idx]) == idx
    assert d.prob_of((1, 0, 1)) == d.probs[5]


def test_index_of_refuses_malformed_databases():
    d = product([[0.5, 0.5]] * 3)
    assert d.index_of((np.int64(1), np.uint8(0), 0)) == 1
    for bad in [(1,), (0, -1, 0), (0, 0, 5), (1, 1, 1, 1)]:
        with pytest.raises(DimensionMismatch):
            d.index_of(bad)
        with pytest.raises(DimensionMismatch):
            d.prob_of(bad)
    for bad in [(0, 1.0, 0), 3]:
        with pytest.raises(DimensionMismatch):
            d.prob_of(bad)


def test_marginal_of_matches_direct_sum():
    rng = np.random.default_rng(15)
    d = random_prior(rng, 3)
    bits = bit_table(3)
    for i in range(3):
        direct = np.array(
            [d.probs[bits[:, i] == v].sum() for v in (0, 1)]
        )
        assert np.allclose(d.marginal_of(i), direct, rtol=0, atol=1e-12)


def test_immutability():
    d = perfectly_correlated(2, 0.5)
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


# --- cell layout ----------------------------------------------------------

def _digits_of(k, n, alph):
    return [k // alph**i % alph for i in range(n)]


def test_index_of_round_trips_alphabet_3():
    d = from_dense(3, 3, np.ones(27))
    for k in range(27):
        assert d.index_of(_digits_of(k, 3, 3)) == k


def test_cell_tensor_and_faces_match_index_loops():
    rng = np.random.default_rng(16)
    for n, alph in ((1, 2), (3, 2), (4, 2), (3, 3), (2, 4)):
        size = alph**n
        flat = rng.uniform(size=size)
        tensor = cell_tensor(flat, n, alph)
        for k in range(size):
            assert tensor[tuple(_digits_of(k, n, alph))] == flat[k]
        for a in range(n):
            for z in range(alph):
                want = [flat[k] for k in range(size) if _digits_of(k, n, alph)[a] == z]
                assert np.array_equal(faces(flat, n, alph, a)[z], want)


def test_face_range_matches_its_definition():
    # Runs of 1 to 32 cells, read across and along; nan terms are skipped
    # and infinite ones kept, inf - inf counting as nan.
    rng = np.random.default_rng(17)
    for n, alph in ((1, 2), (3, 2), (6, 2), (3, 3), (4, 3), (2, 4)):
        size = alph**n
        flat = rng.normal(size=size)
        flat[rng.random(size) < 0.1] = math.nan
        flat[rng.random(size) < 0.05] = -math.inf
        for k in range(n):
            want = 0.0
            for c in range(size):
                for v in range(alph):
                    other = c + (v - _digits_of(c, n, alph)[k]) * alph**k
                    with np.errstate(invalid="ignore"):
                        diff = abs(flat[c] - flat[other])
                    if not math.isnan(diff):
                        want = max(want, diff)
            with np.errstate(invalid="ignore"):
                assert face_range(flat, alph, k) == want, (n, alph, k)
                assert face_range(flat, alph, k, out=np.empty(size // alph)) == want


def test_pair_marginals_match_their_definition():
    rng = np.random.default_rng(12)
    for n, alph in ((2, 2), (4, 2), (3, 3), (5, 2)):
        flat = rng.uniform(0.0, 1.0, alph**n)
        for i in range(n):
            got = pair_marginals(flat, n, alph, i)
            others = [j for j in reversed(range(n)) if j != i]
            assert got.shape == (n - 1, alph, alph)
            for k, j in enumerate(others):
                want = np.zeros((alph, alph))
                for c in range(alph**n):
                    x = _digits_of(c, n, alph)
                    want[x[i], x[j]] += flat[c]
                assert np.allclose(got[k], want, rtol=1e-14, atol=0.0), (n, alph, i, j)


def test_pair_marginals_stay_exact_on_a_large_product():
    # Summed naively along strided axes, these 2**18-cell sums drift by
    # about 1e-12, the tolerance of nu_exact's independence test.
    d = product([[0.3, 0.7]] * 20)
    want = np.outer([0.3, 0.7], [0.3, 0.7])
    for i in (0, 7, 19):
        got = pair_marginals(d.probs, 20, 2, i)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14


def test_coordinate_range_checks():
    d = product([[0.5, 0.5]] * 3)
    for a in (3, 7, -1):
        with pytest.raises(DimensionMismatch):
            d.marginal_of(a)
        with pytest.raises(DimensionMismatch):
            conditional_means(d, d.probs, a)


def _coordinate_entry_points():
    """Every public function that takes a coordinate, as (name, call)."""
    d = product([[0.3, 0.7]] * 3)
    budget = infera.PrivacyBudget.uniform(3, 0.2)
    profile = infera.max_biased_profile(3, budget, 0)
    tree = infera.tree_prior(d=2, depth=1, J=0.3)
    return [
        ("marginal_of", d.marginal_of),
        ("conditional_means", lambda a: conditional_means(d, profile.values, a)),
        ("mechanism_nu", lambda a: infera.mechanism_nu(d, profile, a)),
        ("nu_exact", lambda a: infera.nu_exact(d, budget, a)),
        ("nu_closed_form", lambda a: infera.nu_closed_form(d, budget, a)),
        ("nu_gibbs", lambda a: infera.nu_gibbs(tree, 0.2, a)),
    ]


@pytest.mark.parametrize("a", [0.5, 1.0, "1", None])
def test_coordinate_must_be_an_integer(a):
    # 0.5 once read as coordinate 0 and 1.0 raised a bare IndexError or
    # TypeError; numpy integers and bools, which operator.index takes,
    # must give what the int does.
    for name, call in _coordinate_entry_points():
        with pytest.raises(DimensionMismatch, match="not an integer"):
            call(a)
        want = _value(call(1))
        for same in (np.int64(1), np.uint8(1), True):
            assert _value(call(same)) == want, (name, same)


def _value(result):
    """A result's repr, of its nu where it has one."""
    return repr(getattr(result, "nu", result))


def test_product_of_no_marginals_is_refused():
    with pytest.raises(DimensionMismatch):
        product([])


def _lattice_holds(p):
    """p(x | y) p(x & y) >= p(x) p(y) over every pair of cell indices:
    bitwise or and and of two little-endian indices are join and meet."""
    idx = np.arange(p.size)
    join = p[np.bitwise_or.outer(idx, idx)]
    meet = p[np.bitwise_and.outer(idx, idx)]
    return bool(np.all(join * meet >= np.outer(p, p) * (1.0 - 1e-12)))


def _assert_breaks_lattice(d, witness):
    x1, x2 = witness
    join = tuple(max(u, v) for u, v in zip(x1, x2))
    meet = tuple(min(u, v) for u, v in zip(x1, x2))
    assert d.prob_of(join) * d.prob_of(meet) < d.prob_of(x1) * d.prob_of(x2)


def _zero_masked(rng, n):
    """An affiliated prior with zero cells: kept on a sublattice cut out by
    constraints x_i >= x_j it stays affiliated; kept on a random set of
    cells it usually does not."""
    bits = bit_table(n)
    if rng.random() < 0.5:
        keep = rng.random(2**n) < rng.uniform(0.15, 0.6)
        keep[rng.integers(2**n)] = True
    else:
        keep = np.ones(2**n, dtype=bool)
        for _ in range(int(rng.integers(1, 3))):
            i, j = rng.choice(n, size=2, replace=False)
            keep &= bits[:, i] >= bits[:, j]
    return from_dense(n, 2, random_affiliated(n, rng).probs * keep)


def test_affiliation_verdict_matches_all_pairs_brute_force():
    rng = np.random.default_rng(17)
    verdicts = []
    for k in range(240):
        n = int(rng.integers(2, 7))
        if k % 3 == 0:
            d = random_prior(rng, n, floor=0.05)
        else:
            d = random_affiliated(n, rng)
            if k % 3 == 2:
                # Perturb one cell: sometimes enough to break affiliation.
                w = d.probs.copy()
                w[rng.integers(w.size)] *= rng.uniform(0.3, 3.0)
                d = from_dense(n, 2, w)
        ok, witness = is_positively_affiliated(d)
        assert ok == _lattice_holds(d.probs)
        if not ok:
            _assert_breaks_lattice(d, witness)
        verdicts.append(ok)
    assert 40 <= sum(verdicts) <= 200
    # Priors with zero cells take the all-pairs path.
    masked = []
    for _ in range(160):
        d = _zero_masked(rng, int(rng.integers(2, 7)))
        ok, witness = is_positively_affiliated(d)
        assert ok == _lattice_holds(d.probs)
        if not ok:
            _assert_breaks_lattice(d, witness)
        masked.append(ok)
    assert 30 <= sum(masked) <= 130


def _three_point_prior():
    """Uniform on {100, 011, 111} (bits x0 x1 x2) times three fair coins."""
    w = np.zeros(8)
    w[[0b001, 0b110, 0b111]] = 1.0
    return from_dense(6, 2, np.tile(w, 8))


def test_three_point_prior_is_not_affiliated():
    # Every pair differing in two coordinates passes, yet
    # p(111) p(000) = 0 < p(100) p(011).
    d = _three_point_prior()
    ok, witness = is_positively_affiliated(d)
    assert not ok
    _assert_breaks_lattice(d, witness)


def test_lattice_check_refuses_large_supports(monkeypatch):
    import infera.dist as dist_mod

    d = _three_point_prior()
    monkeypatch.setattr(dist_mod, "LATTICE_PAIR_CAP", 24**2 - 1)
    with pytest.raises(SizeCap):
        is_positively_affiliated(d)
    monkeypatch.setattr(dist_mod, "_LATTICE_BLOCK", 5)
    monkeypatch.setattr(dist_mod, "LATTICE_PAIR_CAP", 24**2)
    ok, witness = is_positively_affiliated(d)
    assert not ok
    _assert_breaks_lattice(d, witness)


def _log_lattice_holds(p):
    """_lattice_holds on logs, where no product underflows."""
    idx = np.arange(p.size)
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    lhs = logp[np.bitwise_or.outer(idx, idx)] + logp[np.bitwise_and.outer(idx, idx)]
    rhs = logp[:, None] + logp[None, :]
    return bool(np.all((lhs >= rhs + math.log1p(-1e-12)) | (rhs == -np.inf)))


def _assert_breaks_lattice_in_logs(d, witness):
    x1, x2 = witness
    join = tuple(max(u, v) for u, v in zip(x1, x2))
    meet = tuple(min(u, v) for u, v in zip(x1, x2))
    with np.errstate(divide="ignore"):
        lhs = np.log(d.prob_of(join)) + np.log(d.prob_of(meet))
    assert lhs < np.log(d.prob_of(x1)) + np.log(d.prob_of(x2))


@st.composite
def _positive_priors(draw):
    """Strictly positive binary prior with n <= 6: log w = theta.x +
    sum_{i<j} J_ij x_i x_j on a grid of couplings, some negative, with one
    cell sometimes moved.  Grid couplings keep every second difference
    well clear of the 1e-12 slack."""
    n = draw(st.integers(2, 6))
    bits = bit_table(n)
    theta = np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))) / 10.0
    coupling = np.array(draw(st.lists(st.integers(-3, 15), min_size=n * n, max_size=n * n)))
    log_w = bits @ theta + np.einsum("ki,ij,kj->k", bits, np.triu(coupling.reshape(n, n), 1) / 10.0, bits)
    cell = draw(st.integers(0, 2**n - 1))
    log_w[cell] += draw(st.sampled_from([0.0, -1.0, -0.1, 0.1, 1.0]))
    return n, np.exp(log_w)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_positive_priors())
def test_adjacent_scan_matches_all_pairs_in_logs(case):
    n, w = case
    d = from_dense(n, 2, w)
    ok, witness = is_positively_affiliated(d)
    assert ok == _log_lattice_holds(d.probs)
    if not ok:
        _assert_breaks_lattice_in_logs(d, witness)


def _underflowing_prior():
    """n=3: the face x2 = 0 weighs (1e10, 1e5, 1e5, 1) over x0 + 2 x1,
    which is affiliated, and the face x2 = 1 weighs 1e-170 (1, 1e5, 1e5, 1),
    which is not; both sides of its lattice inequality underflow to 0."""
    return np.concatenate([[1e10, 1e5, 1e5, 1.0], 1e-170 * np.array([1.0, 1e5, 1e5, 1.0])])


def test_adjacent_scan_does_not_pass_on_underflow():
    d = from_dense(3, 2, _underflowing_prior())
    p = d.probs
    assert p[7] * p[4] == p[5] * p[6] == 0.0
    assert math.log(p[7]) + math.log(p[4]) - math.log(p[5]) - math.log(p[6]) < -23.0
    ok, witness = is_positively_affiliated(d)
    assert not ok
    _assert_breaks_lattice_in_logs(d, witness)


def test_lattice_scan_does_not_pass_on_underflow():
    # The same prior with a fourth coordinate that is always 0.
    d = from_dense(4, 2, np.concatenate([_underflowing_prior(), np.zeros(8)]))
    ok, witness = is_positively_affiliated(d)
    assert not ok
    _assert_breaks_lattice_in_logs(d, witness)


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_constructors_peak_near_their_output():
    # Both fold their cells in one coordinate at a time.  At n = 16 the
    # bound leaves room for a few copies of the 512 KiB output, not for a
    # (2**n, n) table of digits taken into float arithmetic (8 MiB).
    budget = PrivacyBudget(np.random.default_rng(3).uniform(0.05, 1.0, 16))
    for build in (lambda: max_biased_profile(16, budget, 1),
                  lambda: random_affiliated(16, np.random.default_rng(4))):
        assert _traced_peak(build) < 6 * 2**20


def test_normalizing_boxes_no_cell():
    # At n = 18 the output is 2 MiB.  from_dense holds the clamped copy,
    # the output and one block of its sum; IsingPrior.dense adds its
    # energies and weights.  A list of the cells as Python floats would
    # add 8 MiB to either.
    n = 18
    rng = np.random.default_rng(5)
    w = rng.uniform(0.05, 1.0, 2**n)
    sites = np.arange(1, n)
    prior = IsingPrior(n=n, i=sites, j=rng.integers(0, sites), J=rng.uniform(0.0, 0.5, n - 1),
                       h=rng.normal(0.0, 0.3, n))
    assert _traced_peak(lambda: from_dense(n, 2, w)) < 3 * 2**21
    assert _traced_peak(prior.dense) < 5 * 2**21


# --- biased means -----------------------------------------------------------

def _folded_biased_means(d, eps, a):
    """The reference biased_means: each face scaled by the power of 2 that
    brings its largest cell into [0.5, 1), stacked three times and folded
    one coordinate at a time from the least significant, with the weights
    (1, e^-eps_i), (e^-eps_i, 1) and (1, 1)."""
    face = faces(d.probs, d.n, 2, a)
    scale = np.frexp(face.max(axis=1))[1]
    t = np.broadcast_to(np.ldexp(face, -scale[:, None]), (3,) + face.shape)
    for e in np.delete(eps, a):
        w = math.exp(-e)
        t = t.reshape(3, 2, -1, 2)
        t = (t[..., 0] * np.array([1.0, w, 1.0])[:, None, None]
             + t[..., 1] * np.array([w, 1.0, 1.0])[:, None, None])
    sums = t.reshape(3, 2)
    with np.errstate(invalid="ignore"):
        return np.ldexp(sums[2], scale), sums[:2] / sums[2]


@st.composite
def _biased_cases(draw):
    """A binary prior on up to 10 coordinates with zero cells, one face
    sometimes scaled until its largest cell is subnormal, a budget of
    entries up to 50 and a target that is often the first or last
    coordinate (an empty column or row side)."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.exp(rng.normal(0.0, 3.0, 2**n))
    w[rng.uniform(size=w.size) < draw(st.floats(0.0, 0.3))] = 0.0
    w[0] += 1.0
    a = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    if draw(st.booleans()):
        # Every cell of the face x_a = 1 below 2**-1040 after normalising.
        face = (np.arange(2**n) >> a) & 1 == 1
        w[face] = np.ldexp(w[face] / max(w[face].max(), 1e-300), -1040 - draw(st.integers(0, 30)))
    eps = rng.uniform(0.0, draw(st.sampled_from([1.0, 5.0, 50.0])), n)
    return from_dense(n, 2, w), eps, a


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_biased_cases())
def test_biased_means_match_the_coordinate_fold(case):
    d, eps, a = case
    masses, means = biased_means(d, eps, a)
    want_masses, want_means = _folded_biased_means(d, eps, a)
    got = np.concatenate([masses, means.ravel()])
    want = np.concatenate([want_masses, want_means.ravel()])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    known = ~np.isnan(want)
    assert np.all(np.abs(got[known] - want[known]) <= 1e-13 * np.abs(want[known]))


def test_biased_means_on_a_subnormal_face_are_exact_for_a_product():
    # Face x_0 = 1 holds 2**-1060 of the mass; on a product prior every
    # biased mean is the product of the other coordinates' means.
    d = product([[1.0, 2.0**-1060], [1.0, 3.0], [1.0, 1.0]])
    assert 0.0 < d.probs[1] < np.finfo(float).tiny
    eps = np.array([0.5, 0.7, 1.3])
    masses, means = biased_means(d, eps, 0)
    e1, e2 = math.exp(-0.7), math.exp(-1.3)
    for v in (0, 1):
        assert means[0, v] == pytest.approx((1 + 3 * e1) / 4 * (1 + e2) / 2, rel=1e-15)
        assert means[1, v] == pytest.approx((e1 + 3) / 4 * (e2 + 1) / 2, rel=1e-15)
    assert masses[1] == pytest.approx(np.ldexp(1.0, -1060) / (1 + np.ldexp(1.0, -1060)), rel=1e-15)
