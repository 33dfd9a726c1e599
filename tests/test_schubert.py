"""Partition combinatorics: box partitions, Pieri strips, LR coefficients."""

import pytest

from chowkit.schubert import (
    complement,
    fits_in_box,
    lr_coefficient,
    lr_product,
    partitions_in_box,
)

from oracles import pieri, pieri_product


def test_fits_in_box():
    assert fits_in_box((), 2, 2)
    assert fits_in_box((2, 2), 2, 2)
    assert not fits_in_box((3,), 2, 2)
    assert not fits_in_box((1, 1, 1), 2, 2)
    assert not fits_in_box((1, 2), 2, 2)  # not weakly decreasing


def test_partitions_in_box_counts():
    assert len(partitions_in_box(2, 2)) == 6
    assert len(partitions_in_box(2, 3)) == 10
    assert partitions_in_box(2, 2, size=2) == [(2,), (1, 1)]
    assert partitions_in_box(2, 2, size=0) == [()]
    assert partitions_in_box(2, 2, size=5) == []


def test_complement_involution():
    assert complement((), 2, 2) == (2, 2)
    assert complement((1,), 2, 2) == (2, 1)
    for lam in partitions_in_box(2, 3):
        assert complement(complement(lam, 2, 3), 2, 3) == lam
    with pytest.raises(ValueError):
        complement((5,), 2, 2)


def test_pieri_strips():
    assert pieri((1,), 1, 2, 2) == [(2,), (1, 1)]
    assert pieri((1, 1), 2, 2, 2) == []  # horizontal strip cannot stack a column
    assert pieri((2,), 2, 2, 2) == [(2, 2)]
    assert pieri((), 0, 2, 2) == [()]


def test_lr_coefficient_frozen_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    # the smallest multiplicity-two coefficient
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1


def test_lr_product_in_small_box():
    assert lr_product((1,), (1,), 2, 2) == {(2,): 1, (1, 1): 1}
    assert lr_product((1, 1), (2,), 2, 2) == {}
    assert lr_product((2,), (2,), 2, 2) == {(2, 2): 1}
    assert lr_product((1, 1), (1, 1), 2, 2) == {(2, 2): 1}
    assert lr_product((2, 1), (1,), 2, 2) == {(2, 2): 1}


def test_lr_product_drops_out_of_box():
    # in the 2x3 box s[3] exists, in 2x2 it does not
    assert (3,) in lr_product((2,), (1,), 2, 3)
    assert lr_product((2,), (1,), 2, 2) == {(2, 1): 1}


def test_pieri_route_matches_lr_route_exhaustively():
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        parts = partitions_in_box(rows, cols)
        for lam in parts:
            for mu in parts:
                assert pieri_product(lam, mu, rows, cols) == lr_product(
                    lam, mu, rows, cols
                ), (lam, mu, rows, cols)


def test_quartic_self_intersection_degree():
    # sigma_1^4 in the 2x2 box: two lines meet four general lines
    acc = {(): 1}
    for _ in range(4):
        nxt = {}
        for lam, c in acc.items():
            for nu, d in lr_product(lam, (1,), 2, 2).items():
                nxt[nu] = nxt.get(nu, 0) + c * d
        acc = nxt
    assert acc == {(2, 2): 2}


def test_sextic_self_intersection_degree():
    # sigma_1^6 in the 2x3 box: five lines meet six general planes in P^4
    acc = {(): 1}
    for _ in range(6):
        nxt = {}
        for lam, c in acc.items():
            for nu, d in lr_product(lam, (1,), 2, 3).items():
                nxt[nu] = nxt.get(nu, 0) + c * d
        acc = nxt
    assert acc == {(3, 3): 5}
