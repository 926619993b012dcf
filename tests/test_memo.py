import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab.memo import Memo


def _fill(memo, key):
    return memo.get(key) or memo.fill(key, str.upper)


@given(st.integers(1, 4), st.lists(st.sampled_from("abcdefgh"), max_size=40))
@settings(max_examples=200, deadline=None)
def test_no_generation_holds_more_than_limit_keys(limit, keys):
    memo = Memo(limit)
    for key in keys:
        assert _fill(memo, key) == key.upper()
        assert len(memo) <= limit and len(memo.previous) <= limit
        assert key in memo and key not in memo.previous


def test_key_found_in_previous_moves_back_without_compute():
    memo = Memo(2)
    for key in "abc":
        _fill(memo, key)
    assert (dict(memo), memo.previous) == ({"c": "C"}, {"a": "A", "b": "B"})
    assert memo.fill("a", pytest.fail) == "A"
    assert dict(memo) == {"c": "C", "a": "A"} and memo.previous == {"b": "B"}


def test_compute_that_raises_stores_nothing():
    def fail(key):
        raise ValueError(key)

    memo = Memo(1)
    _fill(memo, "a")
    with pytest.raises(ValueError):
        memo.fill("b", fail)
    assert (dict(memo), memo.previous) == ({"a": "A"}, {})


def test_fill_passes_its_arg_to_compute():
    memo = Memo(4)
    assert memo.fill("ab", str.strip, "a") == "b"
    assert memo.fill("ba", str.strip) == "ba"
    assert memo == {"ab": "b", "ba": "ba"}


def test_clear_empties_both_generations():
    memo = Memo(1)
    for key in "ab":
        _fill(memo, key)
    memo.clear()
    assert not memo and not memo.previous
