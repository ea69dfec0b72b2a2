import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest

from circkit.graphs import (
    CirculantSpec,
    VertexPair,
    circulant_distance,
    degree,
    is_connected,
    oriented_residue,
    spec_from_json,
    spec_to_json,
    volume,
)


def test_oriented_residue():
    assert oriented_residue(3, 1, 5) == 3
    assert oriented_residue(1, 3, 5) == 2
    assert oriented_residue(4, 4, 5) == 0


def test_oriented_residue_rejects_bad_vertices():
    with pytest.raises(ValueError):
        oriented_residue(5, 0, 5)
    with pytest.raises(ValueError):
        oriented_residue(0, -1, 5)


def test_circulant_distance_symmetric():
    for n in (5, 6, 9):
        for u in range(n):
            for v in range(n):
                assert circulant_distance(u, v, n) == circulant_distance(v, u, n)
                assert circulant_distance(u, v, n) <= n // 2


def test_vertex_pair():
    p = VertexPair.of(1, 4, 7)
    assert (p.u, p.v, p.q, p.h) == (1, 4, 3, 3)
    assert VertexPair.of(4, 1, 7).q == 4
    assert VertexPair.of(4, 1, 7).h == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        CirculantSpec.from_deleted(2)
    with pytest.raises(ValueError):
        CirculantSpec.from_deleted(7, {4})
    with pytest.raises(ValueError):
        CirculantSpec.weighted(5, {1: -1})
    # weights of a deletion spec must be the 0/1 indicator
    with pytest.raises(ValueError):
        CirculantSpec(n=5, weights={1: Fraction(2), 2: Fraction(1)}, deleted=frozenset())


def test_weight_lookup():
    s = CirculantSpec.from_deleted(7, {2})
    assert s.weight(0) == 0
    assert s.weight(2) == 0
    assert s.weight(3) == 1
    assert s.support == (1, 3)
    assert s.is_indicator


def test_weighted_constructor_accepts_strings():
    s = CirculantSpec.weighted(5, {1: "1/2"})
    assert s.weights[1] == Fraction(1, 2)
    assert s.weights[2] == 0
    assert not s.is_indicator or s.weights[1] in (0, 1)


def test_degree_and_volume():
    assert degree(CirculantSpec.from_deleted(7, {1})) == 4
    assert degree(CirculantSpec.from_deleted(5)) == 4
    assert degree(CirculantSpec.from_deleted(6, {3})) == 4
    assert degree(CirculantSpec.from_deleted(6)) == 5
    assert volume(CirculantSpec.from_deleted(5, {1})) == 10
    assert degree(CirculantSpec.weighted(6, {1: Fraction(1, 2), 3: Fraction(1, 3)})) == \
        Fraction(4, 3)


def test_is_connected_deletion_specs():
    assert is_connected(CirculantSpec.from_deleted(5, {1}))
    assert not is_connected(CirculantSpec.from_deleted(6, {1, 2}))
    assert not is_connected(CirculantSpec.from_deleted(8, {1, 3}))
    assert is_connected(CirculantSpec.from_deleted(8, {2, 4}))


def test_is_connected_matches_gcd_exhaustively():
    for n in range(3, 13):
        for bits in itertools.product((0, 1), repeat=n // 2):
            S = {k + 1 for k, b in enumerate(bits) if b}
            spec = CirculantSpec.from_deleted(n, S)
            expected = math.gcd(n, *spec.support) == 1 if spec.support else False
            assert is_connected(spec) == expected, (n, S)


def test_is_connected_weighted_uses_gcd():
    assert is_connected(CirculantSpec.weighted(6, {1: Fraction(1, 3)}))
    assert not is_connected(CirculantSpec.weighted(6, {3: 1}))
    # positivity is all that counts, however small or sparse the weights
    assert is_connected(CirculantSpec.weighted(7, {1: Fraction(1, 10**12)}))
    assert is_connected(CirculantSpec.weighted(4001, {1: 1}))
    assert not is_connected(CirculantSpec.weighted(12, {2: 5, 4: Fraction(1, 7), 6: 1}))
    assert is_connected(CirculantSpec.weighted(12, {4: 5, 3: Fraction(1, 10**30)}))


def test_specs_are_immutable():
    spec = CirculantSpec.from_deleted(7, {1})
    with pytest.raises(TypeError):
        spec.weights[1] = 5
    weighted = CirculantSpec.weighted(6, {1: 1})
    with pytest.raises(TypeError):
        weighted.weights[2] = Fraction(1)
    assert weighted.support == (1,)
    for s in (spec, weighted):
        assert pickle.loads(pickle.dumps(s)) == s
        assert copy.deepcopy(s) == s


def test_spec_hash_and_equality_follow_the_weights():
    a = CirculantSpec.weighted(6, {1: 1})
    b = CirculantSpec.weighted(6, {2: 1})
    assert a != b
    assert hash(a) != hash(b)
    assert a == CirculantSpec.weighted(6, {1: "1", 3: 0})
    assert hash(a) == hash(CirculantSpec.weighted(6, {1: "1", 3: 0}))
    assert CirculantSpec.from_deleted(9, [1, 3]) == CirculantSpec.from_deleted(9, {3, 1})
    assert hash(CirculantSpec.from_deleted(9, [1, 3])) == hash(CirculantSpec.from_deleted(9, {3, 1}))
    # a deletion spec and a weighted spec with the same 0/1 weights stay distinct
    assert CirculantSpec.from_deleted(5, {1}) != CirculantSpec.weighted(5, {2: 1})


def test_json_round_trip_deletion():
    s = CirculantSpec.from_deleted(9, {1, 3})
    assert spec_from_json(spec_to_json(s)) == s
    assert '"deleted": [1, 3]' in spec_to_json(s)


def test_json_round_trip_weighted():
    s = CirculantSpec.weighted(6, {1: Fraction(1, 2), 3: 2})
    back = spec_from_json(spec_to_json(s))
    assert back == s
    assert back.weights[1] == Fraction(1, 2)
    # only the nonzero weights are written; the zeros come back on reading
    assert spec_to_json(s) == '{"n": 6, "weights": {"1": "1/2", "3": "2"}}'
    assert back.weights[2] == 0


def test_json_rejects_unknown_shape():
    with pytest.raises(ValueError):
        spec_from_json('{"n": 5}')
