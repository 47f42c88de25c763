import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordopt import (
    EMPTY,
    DuplicateAttribute,
    LabeledTree,
    NotAPrefix,
    ValidationError,
    assignment_benefit,
    SortOrder,
    canonical_permutation,
    concat,
    is_prefix,
    lcp,
    lcp_with_set,
    order,
    order_str,
    subtract,
)
from ordopt.order_algebra import extend_to

orders = st.lists(st.sampled_from("abcdef"), unique=True, max_size=6).map(
    lambda xs: SortOrder(tuple(xs))
)
attr_sets = st.frozensets(st.sampled_from("abcdef"), max_size=6)


def test_is_prefix_examples():
    assert is_prefix(order("a", "b"), order("a", "b", "c"))
    assert not is_prefix(order("a", "c"), order("a", "b", "c"))
    assert is_prefix(EMPTY, order("a"))


def test_lcp_examples():
    assert lcp(order("a", "b", "c"), order("a", "b", "d")) == order("a", "b")
    assert lcp(order("a"), order("b")) == EMPTY
    assert lcp(order("a", "b"), order("a", "b")) == order("a", "b")


def test_concat_examples():
    assert concat(order("a"), order("b", "c")) == order("a", "b", "c")
    assert concat(EMPTY, order("a")) == order("a")
    with pytest.raises(DuplicateAttribute):
        concat(order("a"), order("a"))


def test_subtract_examples():
    assert subtract(order("a", "b", "c"), order("a")) == order("b", "c")
    assert subtract(order("a", "b"), order("a", "b")) == EMPTY
    with pytest.raises(NotAPrefix):
        subtract(order("a", "b"), order("b"))


def test_messages_print_orders_as_names_in_parentheses():
    for o1, o2, text in (
        (order("a", "b"), order("b"), "(b) is not a prefix of (a,b)"),
        (EMPTY, order("a"), "(a) is not a prefix of eps"),
    ):
        with pytest.raises(NotAPrefix) as err:
            subtract(o1, o2)
        assert str(err.value) == text
    tree = LabeledTree((frozenset("ab"),), ())
    for o, text in ((order("a", "c"), "(a,c)"), (EMPTY, "eps")):
        with pytest.raises(ValidationError) as err:
            assignment_benefit(tree, [o])
        assert str(err.value) == f"order {text} is not a permutation of ['a', 'b']"


def test_lcp_with_set_examples():
    assert lcp_with_set(order("a", "b", "c"), frozenset("abd")) == order("a", "b")
    assert lcp_with_set(order("c", "a"), frozenset("a")) == EMPTY
    assert lcp_with_set(order("a", "b"), frozenset("ab")) == order("a", "b")


def test_canonical_permutation_examples():
    assert canonical_permutation(frozenset("ba")) == order("a", "b")
    assert canonical_permutation(frozenset()) == EMPTY
    assert canonical_permutation(frozenset("zma")) == order("a", "m", "z")


def test_duplicate_attribute_rejected():
    with pytest.raises(DuplicateAttribute):
        SortOrder(("a", "b", "a"))
    with pytest.raises(DuplicateAttribute):
        SortOrder(("",))


@given(orders, orders, attr_sets, st.integers(0, 6))
def test_derived_orders_equal_checked_ones(o1, o2, s, n):
    # a slice, lcp, lcp_with_set, subtract and extend_to skip the duplicate check
    common = lcp(o1, o2)
    derived_orders = (o1[:n], common, lcp_with_set(o1, s), subtract(o1, common), extend_to(o1, s | frozenset(o1)))
    for derived in derived_orders:
        checked = SortOrder(derived)
        assert type(derived) is tuple
        assert derived == checked and hash(derived) == hash(checked)
        assert repr(derived) == repr(checked) and order_str(derived) == order_str(checked)
        assert {checked: 1}[derived] == 1
        for copied in (copy.deepcopy(derived), pickle.loads(pickle.dumps(derived))):
            assert type(copied) is tuple
            assert copied == checked and hash(copied) == hash(checked)
    # an order sorts like its names
    names = [tuple(o) for o in derived_orders]
    assert [tuple(o) for o in sorted(derived_orders)] == sorted(names)
    for a, b in zip(derived_orders, derived_orders[1:]):
        assert (a < b) == (tuple(a) < tuple(b)) and (a <= b) == (tuple(a) <= tuple(b))


@given(orders, orders)
def test_lcp_symmetric_and_bounded(o1, o2):
    p = lcp(o1, o2)
    assert p == lcp(o2, o1)
    assert len(p) <= min(len(o1), len(o2))
    assert is_prefix(p, o1) and is_prefix(p, o2)


@given(orders, st.integers(min_value=0, max_value=6))
def test_concat_subtract_round_trip(o1, cut):
    head = o1[:cut]
    assert concat(head, subtract(o1, head)) == o1


@given(orders)
def test_lcp_with_set_identities(o):
    assert lcp_with_set(o, frozenset(o)) == o
    assert lcp_with_set(o, frozenset()) == EMPTY


@given(attr_sets)
def test_canonical_permutation_round_trip(s):
    perm = canonical_permutation(s)
    assert frozenset(perm) == s
    assert canonical_permutation(frozenset(perm)) == perm
