"""Every exact kernel against its one reference in oracles.py, through its
check in checks.py, on every corpus entry of the kinds it takes.  This is
the one place a kernel meets its reference on the corpus: a check takes one
entry, or the rings of a pair or triple entry in order."""

import random
from fractions import Fraction

import pytest

from chowkit import dual_basis_cycles

import checks
import corpus
from corpus import DOUBLED

# {kernel: (corpus kinds, check(*entry, rng))}
KERNELS = {
    "ChowRing.multiply": (("ring", "product"), checks.check_multiply),
    "Kunneth row": (("product",), checks.check_kunneth_row),
    "random_cycle": (("ring", "product"), checks.check_random_cycle),
    "linalg.rank": (("ring",), checks.check_rank),
    "act and the action map": (("pair",), checks.same_act),
    "action_matrix": (("pair",), checks.same_action_matrix),
    "action_columns": (("ring",), checks.same_columns),
    "compose": (("pair",), checks.same_compose),
    "compose_oracle": (("triple",), checks.same_compose_oracle),
    "correspondence_from_action": (("pair",), checks.same_from_action),
    "multiplication_correspondence": (("ring",), checks.check_multiplication_correspondence),
    "pullback and pushforward": (("morphism",), checks.check_pullback_and_pushforward),
    "projection_morphism": (("product",), checks.check_projection_morphism),
    "product_morphism": (("morphism",), checks.check_product_morphism),
    "_product_table": (("fiber",), checks.check_product_table),
    "apply_all_with_coefficients": (("model", "extended model", "broken model"), checks.check_sweep),
    "placed_operators": (("model",), checks.check_placed_operators),
    "lifted_blocks": (("model",), checks.check_lifted_blocks),
    "lift_ck": (("model",), checks.check_lift_ck),
    "linalg.kron": (("model",), checks.check_kron_sides),
}
# {(kernel, entry name): the check's rings or model}, an entry of two kinds
# taken once
CASES = {(kernel, name): entry if isinstance(entry, tuple) else (entry,)
         for kernel, (kinds, _) in KERNELS.items()
         for kind in kinds for name, entry in corpus.ENTRIES[kind].items()}


@pytest.mark.parametrize("kernel, entry", list(CASES), ids=[f"{k}-{e}" for k, e in CASES])
def test_kernel_matches_its_oracle(kernel, entry):
    KERNELS[kernel][1](*CASES[kernel, entry], random.Random(f"{kernel} on {entry}"))


def test_the_rational_entries_carry_fractions():
    # h * h = 2 pt on the doubled plane, so its middle dual is h/2
    h = DOUBLED.basis_cycle("h")
    assert h * h == DOUBLED.cycle({"pt": 2}) and dual_basis_cycles(DOUBLED, 1)[0] == h * Fraction(1, 2)
    assert {"doubled", "doubled x P^1", "doubled x P^1 (trivial)"} <= {
        name for kind in ("ring", "product", "model") for name in corpus.ENTRIES[kind]
    }
    # through a rational table an integral cycle can come out rational and a
    # rational one integral
    morphisms, h = corpus.ENTRIES["morphism"], corpus.P2.basis_cycle("h")
    assert morphisms["half"].pullback(h).coeffs == {(1, 1): Fraction(1, 2)}
    assert morphisms["3/2 id_P^2"].pullback(h * Fraction(2, 3)).coeffs == {(1, 1): 1}
    assert morphisms["thirds"]._push[0, 1] == {(1, 1): Fraction(2, 3)}
