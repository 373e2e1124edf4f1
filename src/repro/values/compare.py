"""Canonical total ordering and conversion helpers for runtime values.

Python's builtin ordering is partial across types (``1 < "a"`` raises),
but the evaluator needs a *total* deterministic order so that iteration
over sets and bags is reproducible — the paper's section 4.2 heap
threading is only well-defined if qualifier evaluation visits elements in
a fixed order. :func:`canonical_key` maps every library value to a key
that sorts consistently: first by a type rank, then structurally.

A key is computed at most once per :class:`Record` and :class:`Bag`: the
first call stores it in the value's ``_ckey`` slot, and a bag also keeps
its distinct elements in canonical order (``Bag.canonical_order``), so
iterating a set or bag of records sorts on stored keys instead of walking
every nested value again. This relies on a value's contents being
immutable, which the cached ``_hash`` already requires. Frozensets cannot
carry a slot, so they are sorted on each use, over their elements' keys.
"""

from __future__ import annotations

from typing import Any

from repro.values.bag import Bag
from repro.values.oset import OrderedSet
from repro.values.record import Record
from repro.values.vector import Vector

# Type ranks: lower ranks sort first. Booleans rank before numbers because
# bool is a subtype of int in Python and must not be conflated with it.
_RANK_NONE = 0
_RANK_BOOL = 1
_RANK_NUMBER = 2
_RANK_STRING = 3
_RANK_TUPLE = 4
_RANK_SET = 5
_RANK_BAG = 6
_RANK_OSET = 7
_RANK_RECORD = 8
_RANK_VECTOR = 9
_RANK_OTHER = 10


def canonical_key(value: Any) -> tuple:
    """A key giving a total, deterministic order over all library values.

    >>> sorted([True, 2, "a", None], key=canonical_key)
    [None, True, 2, 'a']
    >>> sorted([(2, 1), (1, 9)], key=canonical_key)
    [(1, 9), (2, 1)]
    """
    cls = type(value)
    if cls is Record:
        return value._ckey or _record_key(value)
    if cls is Bag:
        return value._ckey or _bag_key(value)
    if value is None:
        return (_RANK_NONE,)
    if isinstance(value, bool):
        return (_RANK_BOOL, value)
    if isinstance(value, (int, float)):
        return (_RANK_NUMBER, value)
    if isinstance(value, str):
        return (_RANK_STRING, value)
    if isinstance(value, tuple):
        return (_RANK_TUPLE, tuple(canonical_key(v) for v in value))
    if isinstance(value, frozenset):
        inner = sorted((canonical_key(v) for v in value))
        return (_RANK_SET, tuple(inner))
    if isinstance(value, OrderedSet):
        return (_RANK_OSET, tuple(canonical_key(v) for v in value))
    if isinstance(value, Vector):
        return (_RANK_VECTOR, len(value), tuple(canonical_key(v) for v in value))
    # Objects (OIDs) and any other hashables: order by type name then repr,
    # which is stable within a process run.
    return (_RANK_OTHER, type(value).__name__, repr(value))


def _record_key(record: Record) -> tuple:
    """Compute ``record``'s key and store it in its ``_ckey`` slot."""
    inner = sorted([(k, canonical_key(v)) for k, v in record._fields.items()])
    key = (_RANK_RECORD, tuple(inner))
    object.__setattr__(record, "_ckey", key)
    return key


def _bag_key(bag: Bag) -> tuple:
    """Compute ``bag``'s key from its canonical order and store it."""
    counts = bag._counts
    key = (_RANK_BAG, tuple([(canonical_key(e), counts[e]) for e in bag.canonical_order()]))
    object.__setattr__(bag, "_ckey", key)
    return key


def canonical_sorted(values: Any) -> list:
    """Sort any iterable of library values into canonical order."""
    return sorted(values, key=canonical_key)


def to_python(value: Any) -> Any:
    """Convert a library value into plain Python data for display.

    Tuples used as list-monoid carriers become lists, frozensets become
    sets, bags become sorted lists of (element, count) free form lists,
    records become dicts, vectors become lists. Scalars pass through.

    >>> to_python((1, 2, 3))
    [1, 2, 3]
    >>> to_python(Record(a=1))
    {'a': 1}
    """
    if isinstance(value, tuple):
        return [to_python(v) for v in value]
    if isinstance(value, frozenset):
        return {_freeze_for_set(to_python(v)) for v in value}
    if isinstance(value, Bag):
        return [to_python(v) for v in value]
    if isinstance(value, OrderedSet):
        return [to_python(v) for v in value]
    if isinstance(value, Record):
        return {k: to_python(v) for k, v in value.items()}
    if isinstance(value, Vector):
        return [to_python(v) for v in value]
    return value


def _freeze_for_set(value: Any) -> Any:
    """Make a to_python result hashable again so it can live in a set."""
    if isinstance(value, list):
        return tuple(_freeze_for_set(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_for_set(v)) for k, v in value.items()))
    if isinstance(value, set):
        return frozenset(value)
    return value
