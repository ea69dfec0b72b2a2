import itertools
import math
import random
from fractions import Fraction

import pytest

from circkit.errors import DisconnectedGraphError
from circkit.graphs import CirculantSpec
from circkit.oracles import forest_count_oracle, tree_count_oracle
from circkit import spectral
from circkit.spectral import (
    eigenvalues,
    forest_count_spectral,
    hitting_time_spectral,
    kirchhoff_spectral,
    resistance_spectral,
    tree_count_spectral,
)


def _connected_specs(n_max):
    for n in range(3, n_max + 1):
        for bits in itertools.product((0, 1), repeat=n // 2):
            spec = CirculantSpec.from_deleted(n, {k + 1 for k, b in enumerate(bits) if b})
            if spec.support and math.gcd(n, *spec.support) == 1:
                yield spec


def test_eigenvalues_five_cycle():
    spectrum = eigenvalues(CirculantSpec.from_deleted(5, {1}))
    expected = [0.0, 3.6180339887, 1.3819660113, 1.3819660113, 3.6180339887]
    assert spectrum.eigenvalues[0] == 0.0
    for got, want in zip(spectrum.eigenvalues, expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert spectrum.connected
    assert spectrum.min_positive == pytest.approx(1.3819660113, abs=1e-9)


def test_eigenvalues_complete_graph():
    spectrum = eigenvalues(CirculantSpec.from_deleted(5))
    assert spectrum.eigenvalues[0] == 0.0
    for lam in spectrum.eigenvalues[1:]:
        assert lam == pytest.approx(5.0, rel=1e-12)


def test_eigenvalues_disconnected_has_extra_zeros():
    spectrum = eigenvalues(CirculantSpec.from_deleted(6, {1, 2}))
    assert not spectrum.connected
    assert 0.0 in spectrum.eigenvalues[1:]


def test_eigenvalue_symmetry_is_exact():
    sizes = list(range(3, 41)) + [128, 200, 201]
    for n in sizes:
        spec = CirculantSpec.from_deleted(n, {1} if n >= 4 else set())
        lams = eigenvalues(spec).eigenvalues
        for j in range(1, n):
            assert lams[j] == lams[n - j]
    for spec in (CirculantSpec.from_deleted(12, {2, 3}),
                 CirculantSpec.weighted(9, {1: "1/3", 4: 2})):
        lams = eigenvalues(spec).eigenvalues
        for j in range(1, spec.n):
            assert lams[j] == lams[spec.n - j]


def test_complete_graph_eigenvalue_identity():
    # sum of 2(1 - cos(2 pi j k / n)) over k = 1..(n-1)/2 equals n for j != 0
    for n in range(5, 42, 2):
        lams = eigenvalues(CirculantSpec.from_deleted(n)).eigenvalues
        for lam in lams[1:]:
            assert lam == pytest.approx(n, rel=1e-9)


def test_deletion_form_agreement():
    for n, S in ((9, {1}), (15, {1, 3}), (21, {2}), (31, {1, 5})):
        spec = CirculantSpec.from_deleted(n, S)
        lams = eigenvalues(spec).eigenvalues
        for j in range(1, n):
            alt = n - 2 * len(S) + 2 * math.fsum(
                math.cos(2 * math.pi * j * k / n) for k in S
            )
            assert lams[j] == pytest.approx(alt, rel=1e-12, abs=1e-12)


def test_resistance_values():
    s5 = CirculantSpec.from_deleted(5, {1})
    assert resistance_spectral(s5, 0, 2) == pytest.approx(0.8, rel=1e-12)
    assert resistance_spectral(CirculantSpec.from_deleted(5), 0, 1) == pytest.approx(0.4, rel=1e-12)
    assert resistance_spectral(s5, 0, 0) == 0.0


def test_resistance_swap_and_distance_dependence():
    spec = CirculantSpec.from_deleted(11, {2})
    for u in range(11):
        for v in range(11):
            expected = resistance_spectral(spec, 0, (v - u) % 11)
            assert resistance_spectral(spec, u, v) == expected
    # reflection q <-> n - q is bitwise
    for q in range(1, 11):
        assert resistance_spectral(spec, 0, q) == resistance_spectral(spec, 0, 11 - q)


def test_resistance_disconnected_raises():
    with pytest.raises(DisconnectedGraphError):
        resistance_spectral(CirculantSpec.from_deleted(8, {1, 3}), 0, 1)


def test_triangle_inequality():
    for n in (9, 16, 25):
        spec = CirculantSpec.from_deleted(n, {1})
        r = [resistance_spectral(spec, 0, q) for q in range(n)]
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert r[(w - u) % n] <= r[(v - u) % n] + r[(w - v) % n] + 1e-12


def test_tree_count_small():
    tc = tree_count_spectral(CirculantSpec.from_deleted(5, {1}))
    assert tc.log_value == pytest.approx(math.log(5), rel=1e-12)
    assert tc.integer == 5
    cayley = tree_count_spectral(CirculantSpec.from_deleted(5))
    assert cayley.log_value == pytest.approx(math.log(125), rel=1e-12)
    assert cayley.integer == 125


def test_tree_count_disconnected():
    tc = tree_count_spectral(CirculantSpec.from_deleted(6, {1, 2}))
    assert tc.log_value == float("-inf")
    assert tc.integer == 0


def test_tree_count_integer_channel_matches_determinant():
    # the rounded integer must agree with the exact determinant whenever claimed
    for spec in _connected_specs(14):
        claimed = tree_count_spectral(spec).integer
        assert claimed is not None, spec
        assert claimed == tree_count_oracle(spec), spec


def test_tree_count_no_claim_for_weighted_or_huge():
    weighted = CirculantSpec.weighted(5, {1: "1/2", 2: "1/2"})
    assert tree_count_spectral(weighted).integer is None
    big = tree_count_spectral(CirculantSpec.from_deleted(61, {1}))
    assert big.integer is None
    assert math.isfinite(big.log_value)


def test_forest_counts():
    s5 = CirculantSpec.from_deleted(5, {1})
    assert forest_count_spectral(s5, 0, 2) == pytest.approx(4, rel=1e-9)
    assert forest_count_spectral(s5, 0, 1) == pytest.approx(6, rel=1e-9)
    assert forest_count_spectral(CirculantSpec.from_deleted(4), 0, 1) == pytest.approx(8, rel=1e-9)
    with pytest.raises(ValueError):
        forest_count_spectral(s5, 2, 2)


def test_forest_counts_near_integers():
    for spec in _connected_specs(12):
        for v in range(1, spec.n):
            value = forest_count_spectral(spec, 0, v)
            exact = forest_count_oracle(spec, 0, v)
            assert value == pytest.approx(exact, rel=1e-6), (spec, v)


def test_hitting_times():
    s5 = CirculantSpec.from_deleted(5, {1})
    assert hitting_time_spectral(s5, 0, 2) == pytest.approx(4.0, rel=1e-12)
    assert hitting_time_spectral(s5, 0, 1) == pytest.approx(6.0, rel=1e-12)
    assert hitting_time_spectral(s5, 3, 3) == 0.0
    assert hitting_time_spectral(s5, 0, 2) == hitting_time_spectral(s5, 2, 0)


def test_kirchhoff_values():
    assert kirchhoff_spectral(CirculantSpec.from_deleted(5, {1})) == pytest.approx(10.0, rel=1e-12)
    assert kirchhoff_spectral(CirculantSpec.from_deleted(5)) == pytest.approx(4.0, rel=1e-12)
    assert kirchhoff_spectral(CirculantSpec.from_deleted(7)) == pytest.approx(6.0, rel=1e-12)


def test_kirchhoff_equals_pairwise_resistance_sum():
    for spec in (CirculantSpec.from_deleted(9, {2}), CirculantSpec.from_deleted(12, {1, 5})):
        n = spec.n
        total = n / 2 * math.fsum(resistance_spectral(spec, 0, q) for q in range(1, n))
        assert kirchhoff_spectral(spec) == pytest.approx(total, rel=1e-9)


def test_equal_specs_share_one_cached_spectrum():
    a = CirculantSpec.weighted(40, {1: "1/3", 7: 2})
    b = CirculantSpec.weighted(40, {7: 2, 1: Fraction(1, 3)})
    assert a is not b and a == b
    assert spectral._data(a) is spectral._data(b)
    assert spectral._data(CirculantSpec.weighted(40, {1: "1/3", 7: 3})) is not spectral._data(a)
    assert eigenvalues(a) is eigenvalues(b)


def test_tiny_and_sparse_weights_are_not_disconnected():
    tiny = CirculantSpec.weighted(7, {1: Fraction(1, 10**12)})
    assert eigenvalues(tiny).connected
    tc = tree_count_spectral(tiny)
    assert tc.log_value == pytest.approx(math.log(7) - 72 * math.log(10), rel=1e-12)
    assert resistance_spectral(tiny, 0, 1) == pytest.approx(6 / 7 * 10**12, rel=1e-12)
    disconnected = CirculantSpec.weighted(12, {2: Fraction(1, 10**12), 4: 3})
    assert not eigenvalues(disconnected).connected
    with pytest.raises(DisconnectedGraphError):
        kirchhoff_spectral(disconnected)


def test_sparse_cycle_accuracy_at_large_n():
    n = 100001
    spec = CirculantSpec.weighted(n, {1: 1})
    for q in (1, 2, 3, n // 3, n // 2):
        assert resistance_spectral(spec, 0, q) == pytest.approx(q * (n - q) / n, rel=1e-12)
        assert resistance_spectral(spec, 0, q) == resistance_spectral(spec, 0, n - q)


def test_tree_count_integer_channel_near_two_to_the_53():
    # a long-double product of double eigenvalues rounds both of these wrongly
    tc = tree_count_spectral(CirculantSpec.from_deleted(18, {2, 4, 6, 7}))
    assert tc.integer == 1616935495148127
    tc = tree_count_spectral(CirculantSpec.from_deleted(16, {7, 8}))
    assert tc.integer == 2248992542880048


def test_tree_count_integer_channel_never_claims_a_wrong_integer():
    rng = random.Random(2024)
    claims = 0
    for _ in range(300):
        n = rng.randint(15, 60)
        spec = CirculantSpec.from_deleted(n, rng.sample(range(1, n // 2 + 1), rng.randint(0, n // 2 - 1)))
        claimed = tree_count_spectral(spec).integer
        if claimed is not None:
            claims += 1
            assert claimed == tree_count_oracle(spec), spec
    assert claims >= 30


def test_tree_count_integer_channel_survives_small_eigenvalues():
    # lambda_j < 1 for j < n/6 on the cycle: a running product in j order
    # underflows to 0 long before the true count n is reached
    for n in (2401, 40001, 100001):
        tc = tree_count_spectral(CirculantSpec.weighted(n, {1: 1}))
        assert tc.integer in (n, None)
        assert tc.log_value == pytest.approx(math.log(n), rel=1e-9)
    assert tree_count_spectral(CirculantSpec.weighted(40001, {1: 1})).integer == 40001


def test_weights_outside_float_range_are_refused():
    for weight in (Fraction(1, 10**400), Fraction(10**400)):
        spec = CirculantSpec.weighted(9, {1: weight})
        with pytest.raises(ValueError, match="float range"):
            resistance_spectral(spec, 0, 1)
        with pytest.raises(ValueError, match="float range"):
            tree_count_spectral(spec)
