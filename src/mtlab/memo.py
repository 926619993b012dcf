"""The one bounded memo type: two generations of at most `limit` keys each.

A `Memo` is a dict, its current generation, plus a `previous` dict.  When
the current one is full and a new key arrives, it becomes `previous` (the
old `previous` is dropped) and starts empty; a key found in `previous`
moves back without being computed again.  So a recurring key survives a
stream of one-off keys, and a memo never holds more than 2 * limit keys.
A hit is one `dict.get` on the memo, and `fill` is the miss path.  A loop
binds `memo.get` once: CPython 3.11 specializes a call to a bound dict
method, but not `memo.get(key)` on a dict subclass (about 25 ns a call).
The current generation is empty only when both are.
"""


class Memo(dict):
    __slots__ = ("limit", "previous")

    def __init__(self, limit: int):
        self.limit = limit
        self.previous = {}

    def fill(self, key, compute, arg=None):
        """Store and return the value for a key this dict lacks: the one in
        `previous`, else `compute(key)`, or `compute(key, arg)` when an `arg`
        is given (an `*args` call costs twice as much); an error stores
        nothing."""
        value = self.previous.pop(key, None)
        if value is None:
            value = compute(key) if arg is None else compute(key, arg)
        if len(self) >= self.limit:
            self.previous = dict(self)
            super().clear()
        self[key] = value
        return value

    def clear(self) -> None:
        """Empty both generations."""
        super().clear()
        self.previous = {}
