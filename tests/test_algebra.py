import json

import pytest

from jordanred.algebra import (ALG_C, ALG_H, ALG_O, ALG_R, ALL_TAGS,
                               AlgElement, mult_table, qbilin, tag_by_name)
from jordanred.gaussrat import GR_ONE, GR_ZERO
from jordanred.sampling import make_rng, random_element


def basis(tag):
    return [AlgElement.basis(tag, k) for k in range(tag.dim)]


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_unit_law(tag):
    rng = make_rng()
    one = AlgElement.one(tag)
    for _ in range(20):
        x = random_element(tag, rng)
        assert one * x == x and x * one == x


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_composition_law_exhaustive_basis(tag):
    for x in basis(tag):
        for y in basis(tag):
            assert qbilin(x * y, x * y) == qbilin(x, x) * qbilin(y, y)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_composition_law_random(tag):
    rng = make_rng()
    for _ in range(100):
        x, y = random_element(tag, rng), random_element(tag, rng)
        assert qbilin(x * y, x * y) == qbilin(x, x) * qbilin(y, y)


def test_alternativity_exhaustive_octonions():
    for x in basis(ALG_O):
        for y in basis(ALG_O):
            assert (x * x) * y == x * (x * y)
            assert (y * x) * x == y * (x * x)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_alternativity_random(tag):
    rng = make_rng()
    for _ in range(40):
        x, y = random_element(tag, rng), random_element(tag, rng)
        assert (x * x) * y == x * (x * y)
        assert (y * x) * x == y * (x * x)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_conjugation(tag):
    rng = make_rng()
    assert AlgElement.one(tag).conj() == AlgElement.one(tag)
    for _ in range(50):
        x = random_element(tag, rng)
        assert x.conj().conj() == x
        assert x * x.conj() == AlgElement.scalar(tag, qbilin(x, x))
        assert x.conj() * x == AlgElement.scalar(tag, qbilin(x, x))
        assert x + x.conj() == AlgElement.scalar(tag, 2 * x.coords[0])
    for x in basis(tag):
        for y in basis(tag):
            assert (x * y).conj() == y.conj() * x.conj()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_qbilin(tag):
    rng = make_rng()
    for i in range(tag.dim):
        for j in range(tag.dim):
            expected = GR_ONE if i == j else GR_ZERO
            assert qbilin(AlgElement.basis(tag, i), AlgElement.basis(tag, j)) == expected
    for _ in range(20):
        x = random_element(tag, rng)
        assert qbilin(x, AlgElement.one(tag)) == x.coords[0]
    with pytest.raises(ValueError):
        qbilin(AlgElement.one(ALG_R), AlgElement.one(ALG_C))


def test_quaternion_table():
    i, j, k = (AlgElement.basis(ALG_H, n) for n in (1, 2, 3))
    assert i * j == k and j * i == -k
    assert j * k == i and k * i == j
    assert i * i == -AlgElement.one(ALG_H)


def test_octonion_table_shape():
    table = mult_table(8)
    for i in range(1, 8):
        for j in range(1, 8):
            k, s = table[i][j]
            assert s in (1, -1)
            if i == j:
                assert k == 0 and s == -1
            else:
                assert 1 <= k <= 7
    # the Fano lines: the index triples {i, j, k} with e_i e_j = +-e_k
    lines = {frozenset((i, j, table[i][j][0])) for i in range(1, 8) for j in range(i + 1, 8)}
    assert len(lines) == 7 and all(len(line) == 3 for line in lines)


@pytest.mark.parametrize("tag", (ALG_R, ALG_C, ALG_H), ids=str)
def test_associativity_small_algebras(tag):
    rng = make_rng()
    for _ in range(30):
        x, y, z = (random_element(tag, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_octonions_not_associative():
    e1, e2, e4 = (AlgElement.basis(ALG_O, k) for k in (1, 2, 4))
    assert (e1 * e2) * e4 != e1 * (e2 * e4)


def test_tag_lookup_and_errors():
    assert tag_by_name("O") is ALG_O
    with pytest.raises(ValueError):
        tag_by_name("S")
    with pytest.raises(ValueError):
        AlgElement(ALG_H, [GR_ONE])
    with pytest.raises(ValueError):
        AlgElement.one(ALG_R) * AlgElement.one(ALG_O)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_json_round_trip(tag):
    rng = make_rng()
    x = random_element(tag, rng)
    blob = json.dumps(x.to_json())
    assert AlgElement.from_json(json.loads(blob)) == x
    encoded = x.to_json()
    assert encoded["algebra"] == tag.name
    assert len(encoded["coords"]) == tag.dim
    assert all(isinstance(c, list) and len(c) == 2 for c in encoded["coords"])
