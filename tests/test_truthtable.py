"""Bit-level primitives: vectors, tables, masks, duals, linear forms."""

import random

import pytest
from hypothesis import given, strategies as st

from bconn import (
    ArityMismatch,
    ArityOverflow,
    BadCharacter,
    BadThreshold,
    BitVector,
    LengthMismatch,
    LinearForm,
    TruthTable,
    dual,
    threshold_tt,
    tt_eval,
    tt_parse,
    tt_print,
    var_mask,
)
from bconn.circuits import tabulate
from bconn.semantics import lower
from bconn.truthtable import N_MAX

from conftest import TABLES, tt_of


def test_bitvector_text_round_trip():
    v = BitVector.parse("0110")
    assert v.n == 4 and v.word == 0b0110
    assert v.text == "0110"
    assert str(v) == "0110"


def test_bitvector_bit_uses_one_based_msb_first_positions():
    v = BitVector.parse("100")
    assert v.bit(1) == 1 and v.bit(2) == 0 and v.bit(3) == 0


def test_bitvector_with_bit_and_hamming():
    v = BitVector.parse("0000")
    w = v.with_bit(2, 1)
    assert w.text == "0100"
    assert v.hamming(w) == 1
    assert w.weight == 1


def test_bitvector_rejects_bad_input():
    with pytest.raises(BadCharacter):
        BitVector.parse("01x")
    with pytest.raises(ArityMismatch):
        BitVector(2, 7)
    with pytest.raises(ArityMismatch):
        BitVector(N_MAX + 1, 0)


def test_bitvector_ordering_is_by_dimension_then_word():
    assert BitVector.parse("01") < BitVector.parse("10")
    assert sorted([BitVector.parse("11"), BitVector.parse("00")])[0].word == 0


def test_tt_parse_positions_are_rows():
    f = tt_of(TABLES["and"])
    assert f.n == 2
    assert [f.value(i) for i in range(4)] == [0, 0, 0, 1]
    assert tt_eval(f, BitVector.parse("11")) == 1
    assert tt_eval(f, BitVector.parse("10")) == 0


def test_tt_parse_rejects_bad_text():
    with pytest.raises(LengthMismatch):
        tt_parse("010", 2)
    with pytest.raises(BadCharacter):
        tt_parse("01a1", 2)
    with pytest.raises(LengthMismatch):
        TruthTable(1, 4)
    # the arity is checked before 1 << n is taken or formatted
    with pytest.raises(ArityMismatch):
        tt_parse("1", -1)
    with pytest.raises(ArityOverflow):
        tt_parse("0", 20000)


def test_tt_print_round_trip():
    for text in TABLES.values():
        assert tt_print(tt_of(text)) == text
    assert tt_print(TruthTable(0, 0)) == "0" and tt_print(TruthTable(0, 1)) == "1"


@given(st.integers(min_value=0, max_value=10), st.data())
def test_tt_print_parse_round_trip(n, data):
    f = TruthTable(n, data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)))
    text = tt_print(f)
    assert text == "".join(str(f.value(i)) for i in range(f.size))
    assert tt_parse(text, n) == f


def test_one_rows_ascending():
    f = tt_of("0111")
    assert list(f.one_rows()) == [1, 2, 3]


@pytest.mark.parametrize("n", range(13))
def test_one_rows_matches_bit_loop(n):
    # n <= 5 gives tables shorter than one 64-bit chunk
    rng = random.Random(n)
    full = (1 << (1 << n)) - 1
    tables = [0, full, 1 << ((1 << n) - 1), 1]
    tables += [rng.getrandbits(1 << n) & rng.getrandbits(1 << n) for _ in range(8)]
    for bits in tables:
        want = [i for i in range(1 << n) if (bits >> i) & 1]
        assert TruthTable(n, bits).one_rows() == want


def test_threshold_majority():
    assert tt_print(threshold_tt(3, 2)) == TABLES["maj"]
    assert tt_print(threshold_tt(2, 1)) == TABLES["or"]
    assert tt_print(threshold_tt(2, 2)) == TABLES["and"]
    with pytest.raises(BadThreshold):
        threshold_tt(2, 4)


def test_threshold_dualized_equals_dual_of_threshold():
    for n in range(1, 5):
        for k in range(0, n + 2):
            assert threshold_tt(n, k, dualize=True) == dual(threshold_tt(n, k))


def test_dual_known_pairs():
    assert tt_print(dual(tt_of(TABLES["and"]))) == TABLES["or"]
    assert tt_print(dual(tt_of(TABLES["maj"]))) == TABLES["maj"]
    # dual(x -> y) = not(x) and y, which is nimp with swapped arguments
    assert tt_print(dual(tt_of(TABLES["imp"]))) == "0100"


@given(st.integers(min_value=0, max_value=4), st.data())
def test_dual_is_an_involution_and_pointwise_negated(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    f = TruthTable(n, bits)
    g = dual(f)
    assert dual(g) == f
    for row in range(1 << n):
        flipped = ((1 << n) - 1) ^ row
        assert g.value(row) == 1 - f.value(flipped)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_var_mask_matches_row_convention(n, data):
    j = data.draw(st.integers(min_value=1, max_value=n))
    mask = var_mask(n, j)
    for row in range(1 << n):
        assert (mask >> row) & 1 == (row >> (n - j)) & 1


def test_var_mask_rejects_out_of_range_index():
    with pytest.raises(ArityMismatch):
        var_mask(3, 0)
    with pytest.raises(ArityMismatch):
        var_mask(3, 4)


def test_apply_masks_agrees_with_pointwise_application():
    """One gate applied to child masks, tabulate of the table lowered to
    one gate: every table of arity 0-3, seeded random tables of arity 4-5
    and the constants of arity 4-5, each at every ambient dimension 0-5
    over seeded random children."""
    rng = random.Random(1414)
    tables = [TruthTable(k, bits) for k in range(4) for bits in range(1 << (1 << k))]
    for k in (4, 5):
        full = (1 << (1 << k)) - 1
        tables += [TruthTable(k, 0), TruthTable(k, full)]
        tables += [TruthTable(k, rng.getrandbits(1 << k)) for _ in range(40)]
    for f in tables:
        for n in range(6):
            children = [rng.getrandbits(1 << n) for _ in range(f.n)]
            out = tabulate(lower(f), children, 1 << n)
            assert 0 <= out < 1 << (1 << n), (f, n)
            for row in range(1 << n):
                arg = 0
                for child in children:
                    arg = arg << 1 | (child >> row) & 1
                assert (out >> row) & 1 == f.value(arg), (f, n, children, row)


def test_linear_form_truth_table_and_str():
    form = LinearForm(frozenset({1, 3}), 1)
    f = form.truth_table(3)
    for row in range(8):
        x1 = (row >> 2) & 1
        x3 = row & 1
        assert f.value(row) == x1 ^ x3 ^ 1
    assert str(form) == "x1 + x3 + 1"
    assert str(LinearForm(frozenset(), 0)) == "0"
    assert str(LinearForm(frozenset({2}), 0)) == "x2"


def test_linear_form_support_must_fit_arity():
    with pytest.raises(ArityMismatch):
        LinearForm(frozenset({4}), 0).truth_table(3)
