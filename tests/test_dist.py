"""Distribution construction, conditioning, and structure checks."""

import math

import numpy as np
import pytest

from conftest import bit_table, random_monotone, random_prior
from infera.dist import (
    JointDistribution,
    cell_tensor,
    conditional_means,
    digit_table,
    faces,
    from_dense,
    is_pairwise_positively_correlated,
    is_positively_affiliated,
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
from infera.mechanism import PrivacyBudget
from infera.ising import tree_prior


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


def test_from_dense_shape_and_mass_errors():
    with pytest.raises(DimensionMismatch):
        from_dense(2, 2, [0.5, 0.5])
    with pytest.raises(ZeroMass):
        from_dense(1, 2, [0.0, 0.0])
    with pytest.raises(SizeCap):
        from_dense(4, 2, np.ones(16), cap=8)


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
    masses, means = conditional_means(d, d.digits()[:, 1].astype(float), 0)
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
    table = d.digits()
    for idx in range(8):
        assert d.index_of(table[idx]) == idx
    assert d.prob_of((1, 0, 1)) == d.probs[5]


def test_marginal_of_matches_direct_sum():
    rng = np.random.default_rng(15)
    d = random_prior(rng, 3)
    bits = d.digits()
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


def test_digit_table_matches_bit_table():
    for n in range(1, 9):
        table = digit_table(n, 2)
        assert table.dtype == np.uint8
        assert np.array_equal(table, bit_table(n))


def test_digit_table_round_trips_alphabet_3():
    d = from_dense(3, 3, np.ones(27))
    table = d.digits()
    assert np.array_equal(table, [_digits_of(k, 3, 3) for k in range(27)])
    for k, row in enumerate(table):
        assert d.index_of(row) == k


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


def test_coordinate_range_checks():
    d = product([[0.5, 0.5]] * 3)
    for a in (3, 7, -1):
        with pytest.raises(DimensionMismatch):
            d.marginal_of(a)
        with pytest.raises(DimensionMismatch):
            conditional_means(d, d.probs, a)


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
