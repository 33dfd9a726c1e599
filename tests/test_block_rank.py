"""Block ranks count only the block's own codim.

Block (k, j) of an operator holds the columns of its codim-j basis keys, and
its rank lays out only the codim-j rows, so an image component outside
codim j (an ill-graded operator) never raises it.  The dense rank the sparse
layout replaced is kept here as the reference, on the lifted Chow-Kunneth
blocks, on two ill-graded decompositions and on random sparse blocks.  The
rank table of a ring's motive decomposition, which reads each piece's rank
off its cell, is checked against the block ranks it used to compute.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from test_failure_rendering import off_codim_image, perturbed_pi2

from chowkit import decompose_motive, fiber_projectors, grassmannian, lift_ck, verify_action_window
from chowkit.correspondences import action_columns
from chowkit.linalg import block_rank, codim_blocks, rank

from corpus import DOUBLED, standard_models, standard_rings


def dense_rank(space, columns, j):
    """The rank of block (k, j) as the dense layout took it: linalg.rank of
    the column_matrix of every codim-j column, whose rows are the block's
    own codim-j keys."""
    cols = {b: columns.get(b, {}) for b in space.basis_keys(j)}
    return rank(tuple(tuple(col.get(r, 0) for col in cols.values()) for r in cols))


def assert_window_matches(ck):
    ranks = verify_action_window(ck).table["ranks"]
    for k, m in ck.projectors.items():
        for j in range(ck.space.dimension + 1):
            want = dense_rank(ck.space, m, j)
            assert ranks[k, j] == want, f"block ({k}, {j}) of {ck.name}"


@pytest.mark.parametrize(
    "ring", standard_rings() + [grassmannian(2, 6), DOUBLED], ids=lambda r: r.name
)
def test_motive_rank_table_matches_the_block_ranks(ring):
    columns = {k: action_columns(p) for k, p in enumerate(fiber_projectors(ring))}
    codim_of, blocks = codim_blocks(ring, columns)
    want = {
        p: tuple(block_rank(codim_of, b, p) for b in blocks.values())
        for p in range(ring.dimension + 1)
    }
    dec = decompose_motive(ring)
    assert dec.rank_table == want
    assert dec.codim_profile() == tuple(
        next(p for p in sorted(want) if want[p][k]) for k in range(len(columns))
    )


@pytest.mark.parametrize("model", standard_models(), ids=lambda m: m.name)
def test_lifted_block_ranks_match_the_dense_rank(model):
    assert_window_matches(lift_ck(model))


@pytest.mark.parametrize("build", [perturbed_pi2, off_codim_image], ids=lambda f: f.__name__)
def test_ill_graded_block_ranks_match_the_dense_rank(build):
    assert_window_matches(build())


# basis keys by codim of a small space for random blocks
BASIS = {0: [("a", 1), ("a", 2)], 1: [("b", 1), ("b", 2), ("b", 3)], 2: [("c", 1), ("c", 2)]}
SPACE = SimpleNamespace(dimension=2, basis_keys=BASIS.__getitem__)
KEYS = [b for keys in BASIS.values() for b in keys]

# columns of any codim with entries in rows of any codim
sparse_matrices = st.dictionaries(
    st.sampled_from(KEYS),
    st.dictionaries(st.sampled_from(KEYS), st.integers(-2, 2).filter(bool), min_size=1),
    max_size=len(KEYS),
)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices)
# only an off-codim entry: rank 0, not 1
@example({("a", 1): {("b", 1): 1}})
# equal on the codim-1 rows, apart only off codim: rank 1, not 2
@example({("b", 1): {("b", 1): 1, ("a", 1): 1}, ("b", 2): {("b", 1): 1, ("c", 1): 1}})
def test_random_block_ranks_match_the_dense_rank(columns):
    codim_of, blocks = codim_blocks(SPACE, {"m": columns})
    for j in BASIS:
        assert block_rank(codim_of, blocks["m"], j) == dense_rank(SPACE, columns, j)
