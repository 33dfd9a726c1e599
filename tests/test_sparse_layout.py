"""Every operator is one flat sparse matrix {basis key: nonzero column}.

A missing key is a zero column, so no operator, sum, product or action holds
an empty one, and the rank-one check of ``decompose_model`` eliminates at
most once per piece, not once per (piece, codim).
"""

import sys

import pytest

from chowkit import (
    ambient_extend,
    cellular_ck,
    decompose_model,
    lift_ck,
    lifted_blocks,
    projective_space,
)
from chowkit import linalg
from chowkit.catalog import resolve
from chowkit.correspondences import action_columns
from chowkit.linalg import after, matrix_sum
from chowkit.motives import fiber_projectors

from corpus import standard_models, standard_rings

MODELS = standard_models() + [ambient_extend(m, projective_space(1)) for m in standard_models()]


def assert_sparse(keys, columns, what):
    """columns maps basis keys to nonempty columns of nonzero coefficients
    on basis keys."""
    for b, col in columns.items():
        assert b in keys, f"{what}: {b!r} is not a basis key"
        assert col, f"{what}: empty column at {b!r}"
        assert all(r in keys and c for r, c in col.items()), f"{what}: column {b!r} is {col!r}"


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_no_model_operator_holds_an_empty_column(model):
    keys = set(model.basis_keys())
    ops = {f"block {key}": m for key, m in lifted_blocks(model).items()}
    pis = lift_ck(model).projectors
    ops.update((f"Pi_{k}", m) for k, m in pis.items())
    ops.update((f"piece {label}", m) for label, _, m in decompose_model(model).pieces)
    for k in range(len(pis) - 1):
        ops[f"Pi_{k} + Pi_{k + 1}"] = matrix_sum(((1, pis[k]), (1, pis[k + 1])))
        ops[f"Pi_{k} - Pi_{k}"] = matrix_sum(((1, pis[k]), (-1, pis[k])))
        ops[f"Pi_{k} @ Pi_{k}"] = after(pis[k], pis[k])
        ops[f"Pi_{k} @ Pi_{k + 1}"] = after(pis[k], pis[k + 1])
    total = matrix_sum((1, m) for m in pis.values())
    identity = {b: {b: 1} for b in model.basis_keys()}
    ops["sum of Pi_k"] = total
    ops["id - sum of Pi_k"] = matrix_sum(((1, identity), (-1, total)))
    for what, m in ops.items():
        assert_sparse(keys, m, f"{what} on {model.name}")
    # zero results hold no column at all
    assert ops["Pi_0 - Pi_0"] == {} and ops["id - sum of Pi_k"] == {}
    assert total == identity


@pytest.mark.parametrize("ring", standard_rings(), ids=lambda r: r.name)
def test_no_action_holds_an_empty_column(ring):
    keys = {cell.key for cell in ring.cells}
    ps = list(cellular_ck(ring).projectors.values()) + fiber_projectors(ring)
    for n, p in enumerate(ps):
        assert_sparse(keys, action_columns(p), f"projector {n} on {ring.name}")
    if ring.dimension:
        assert action_columns(cellular_ck(ring).projectors[1]) == {}  # odd degree: zero


def count_ranks(monkeypatch):
    """The matrices linalg.rank is called on, through every chowkit module's
    binding of it."""
    calls = []
    rank = linalg.rank
    for name, module in list(sys.modules.items()):
        if name.startswith("chowkit"):
            for attr, value in list(vars(module).items()):
                if value is rank:
                    monkeypatch.setattr(module, attr, lambda a: calls.append(a) or rank(a))
    return calls


def test_decompose_model_ranks_each_piece_once(monkeypatch):
    model = resolve("product:p4,p4")
    calls = count_ranks(monkeypatch)
    dec = decompose_model(model)
    # one elimination per piece at most, where one per (piece, codim) made 225
    assert len(dec.pieces) == 25
    assert 0 < len(calls) <= len(dec.pieces)
