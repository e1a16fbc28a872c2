from fractions import Fraction

import pytest

from minbase.bounds import (
    BoundTermTable,
    EmptyTable,
    Term,
    ceil_log2,
    evaluate_qhat,
    g2_subfield_terms,
    o10_plus_imprimitive_terms,
    pow_ceil,
    pow_floor,
    sp4_subfield_terms,
)
from oracles import involution_count_sym, merged_bound


def test_evaluate_single_term():
    t = BoundTermTable("test", 0, (Term("t", Fraction(10), Fraction(100)),))
    r = evaluate_qhat(t, 3)
    assert r.value == Fraction(1, 10)
    assert r.certified


def test_evaluate_degenerate_ratio_one():
    t = BoundTermTable("test", 0, (Term("t", Fraction(7), Fraction(7)),))
    for c in (1, 2, 5):
        r = evaluate_qhat(t, c)
        assert r.value == 7
        assert not r.certified


def test_evaluate_rejects_empty():
    with pytest.raises(EmptyTable):
        evaluate_qhat(BoundTermTable("test", 0, ()), 3)
    t = BoundTermTable("test", 0, (Term("off", 1, 2, multiplicity=0),))
    with pytest.raises(EmptyTable):
        evaluate_qhat(t, 3)


def test_multiplicity_doubles():
    one = BoundTermTable("t", 0, (Term("a", 1, 10),))
    two = BoundTermTable("t", 0, (Term("a", 1, 10, multiplicity=2),))
    assert evaluate_qhat(two, 3).value == 2 * evaluate_qhat(one, 3).value


def test_pow_helpers():
    assert pow_floor(9, 3, 2) == 27  # 9^(3/2) = 27 exact
    assert pow_ceil(9, 3, 2) == 27
    assert pow_floor(8, 1, 2) == 2
    assert pow_ceil(8, 1, 2) == 3
    assert pow_ceil(64, 14, 3) == 2**28
    assert pow_floor(81, 14, 3) < 81 ** (14 / 3) < pow_ceil(81, 14, 3) + 1
    assert ceil_log2(8) == 3
    assert ceil_log2(9) == 4
    assert ceil_log2(64) == 6


def test_g2_table_certifies_on_grid():
    for q in (9, 16, 25, 49, 64, 81):
        table = g2_subfield_terms(q)
        assert table.gamma == (1 if q >= 64 else 0)
        assert evaluate_qhat(table, 3).certified
        # the doubled long-root row is present
        doubles = [t for t in table.terms if t.multiplicity == 2]
        assert len(doubles) == 1 and doubles[0].label == "long_root"


def test_g2_term_values_at_q9():
    table = {t.label: t for t in g2_subfield_terms(9).terms}
    q = 9
    assert table["invol_inner"].u == q**2 * (q**2 + q + 1)
    assert table["invol_inner"].v == q**4 * (q**4 + q**2 + 1)
    assert table["long_root"].u == q**3 - 1
    assert table["long_root"].v == q**6 - 1
    assert table["short_root"].u == q * (q**3 - 1)
    assert table["unipotent_rest"].v == Fraction(q**10, 7)
    assert table["ss_rank2_centralizer"].u == 27 * 28  # q^(3/2)(q^(3/2)+1)
    assert table["field_invol"].u == 2 * 4 * 3**7  # 2(sqrt(q)+1) q^(7/2)


def test_g2_rejects_non_square():
    with pytest.raises(ValueError):
        g2_subfield_terms(27)
    with pytest.raises(ValueError):
        g2_subfield_terms(4)


def test_sp4_table_certifies_on_grid():
    for q in (64, 128, 256, 1024):
        table = sp4_subfield_terms(q)
        assert evaluate_qhat(table, 3).certified
        doubles = [t for t in table.terms if t.multiplicity == 2]
        assert len(doubles) == 1 and doubles[0].label == "invol_b1_a2"


def test_sp4_term_values_at_q64():
    q = 64
    table = {t.label: t for t in sp4_subfield_terms(q).terms}
    assert table["invol_b1_a2"].u == q**2 - 1
    assert table["invol_b1_a2"].v == q**4 - 1
    assert table["invol_c2"].u == (q - 1) * (q**2 - 1)
    assert table["invol_c2"].v == (q**2 - 1) * (q**4 - 1)
    assert table["ss_regular"].v == q**4 * (q - 1) ** 2 * (q**2 + 1)
    assert table["ss_nonregular"].u == 6 * q**2 * (q + 1) * 9  # log2(64)=6, sqrt=8
    assert table["field_invol"].u == q * (q**2 + q - 1)
    assert table["field_odd_order"].u == 2 * 6 * pow_ceil(q, 10, 3)


def test_sp4_monotone_spot():
    v256 = evaluate_qhat(sp4_subfield_terms(256), 3).value
    v4096 = evaluate_qhat(sp4_subfield_terms(4096), 3).value
    assert v4096 < v256


def test_sp4_rejects_odd_or_small():
    with pytest.raises(ValueError):
        sp4_subfield_terms(81)
    with pytest.raises(ValueError):
        sp4_subfield_terms(32)


def test_o10_table():
    for q in (8, 9, 11, 16, 25, 32):
        table = o10_plus_imprimitive_terms(q)
        assert len(table.terms) == 2
        assert evaluate_qhat(table, 3).certified
    q = 8
    table = {t.label: t for t in o10_plus_imprimitive_terms(8).terms}
    assert table["bulk_small_classes"].u == 3 * 32 * 7**5 * 120
    assert table["bulk_small_classes"].v == q**14
    assert table["reflection_like"].u == 5 * 7
    assert table["reflection_like"].v == Fraction(q**9, 4)


def test_o10_rejects_small_q():
    with pytest.raises(ValueError):
        o10_plus_imprimitive_terms(2)
    with pytest.raises(ValueError):
        o10_plus_imprimitive_terms(7)


def brute_involutions(n):
    import itertools as it

    count = 0
    for p in it.permutations(range(n)):
        if any(p[i] != i for i in range(n)) and all(p[p[i]] == i for i in range(n)):
            count += 1
    return count


def test_involution_count_small_brute_force():
    for n in range(1, 10):
        assert involution_count_sym(n) == brute_involutions(n)


def test_involution_count_reference_values():
    assert involution_count_sym(8) == 763
    assert involution_count_sym(16) == 46206735
    assert involution_count_sym(2) == 1


def test_merged_bound_dominates():
    terms = [Term("a", 3, 50), Term("b", 4, 60), Term("c", 1, 200)]
    for c in (1, 2, 3, 4):
        direct = sum(Fraction(t.u) ** c / Fraction(t.v) ** (c - 1) for t in terms)
        assert merged_bound(terms, c) >= direct
