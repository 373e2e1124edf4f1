"""The canonical key is computed once per Record and Bag and kept on it.

Two kinds of check:

- a differential property test: over nested values mixing records, bags,
  sets, tuples, scalars and object OIDs, a memo-warmed key equals the key
  of an equal value built independently and the key the uncached
  structural definition gives, and set/bag iteration follows that order;
- deterministic memo tests (no wall clock): keys are filled lazily by a
  query, never at load time, stay identical objects once filled, start
  empty on derived values, and agree across threads racing on one value.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, make_travel_agency, travel_schema
from repro.monoids import BAG, SET
from repro.objects.store import Obj
from repro.values import Bag, OrderedSet, Record, Vector, canonical_key


def reference_key(value):
    """The canonical key's structural definition, computed with no memo."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, tuple):
        return (4, tuple(reference_key(v) for v in value))
    if isinstance(value, frozenset):
        return (5, tuple(sorted(reference_key(v) for v in value)))
    if isinstance(value, Bag):
        return (6, tuple(sorted((reference_key(e), n) for e, n in value.counts().items())))
    if isinstance(value, OrderedSet):
        return (7, tuple(reference_key(v) for v in value))
    if isinstance(value, Record):
        return (8, tuple(sorted((k, reference_key(v)) for k, v in value.items())))
    if isinstance(value, Vector):
        return (9, len(value), tuple(reference_key(v) for v in value))
    return (10, type(value).__name__, repr(value))


def rebuild(value):
    """An equal value built independently: fresh Records and Bags throughout."""
    if isinstance(value, tuple):
        return tuple(rebuild(v) for v in value)
    if isinstance(value, frozenset):
        return frozenset(rebuild(v) for v in value)
    if isinstance(value, Bag):
        return Bag.from_counts({rebuild(e): n for e, n in value.counts().items()})
    if isinstance(value, Record):
        return Record({k: rebuild(v) for k, v in value.items()})
    return value


def children(value):
    if isinstance(value, (tuple, frozenset)):
        return list(value)
    if isinstance(value, Bag):
        return list(value.counts())
    if isinstance(value, Record):
        return list(value.values())
    return []


def warm_bottom_up(value):
    """Fill every nested memo, innermost first, iterating bags too."""
    for child in children(value):
        warm_bottom_up(child)
    if isinstance(value, Bag):
        list(value)
    canonical_key(value)


def walk(value):
    yield value
    for child in children(value):
        yield from walk(child)


scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, width=16),
    st.text(alphabet="ab", max_size=2),
    st.builds(Obj, st.integers(min_value=0, max_value=4)),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4).map(frozenset),
        st.lists(inner, max_size=5).map(Bag),
        st.lists(st.tuples(st.sampled_from("xyz"), inner), max_size=3).map(dict).map(Record),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(values, st.booleans())
def test_warmed_key_equals_independent_and_reference_keys(value, bottom_up):
    if bottom_up:
        warm_bottom_up(value)
    warmed = canonical_key(value)
    assert canonical_key(value) == warmed
    assert canonical_key(rebuild(value)) == warmed
    assert reference_key(value) == warmed


@settings(max_examples=300, deadline=None)
@given(st.lists(values, max_size=6), st.booleans())
def test_set_and_bag_iteration_follow_fresh_keys(items, warm):
    as_set = frozenset(items)
    as_bag = Bag(items)
    if warm:
        warm_bottom_up(as_set)
        warm_bottom_up(as_bag)
    by_set_key = sorted(as_set, key=lambda v: reference_key(rebuild(v)))
    assert list(SET.iterate(as_set)) == by_set_key
    by_bag_key = sorted(as_bag.counts(), key=lambda v: reference_key(rebuild(v)))
    expected = [e for e in by_bag_key for _ in range(as_bag.count(e))]
    assert list(as_bag) == expected
    assert list(BAG.iterate(as_bag)) == expected


def _records(value):
    return [v for v in walk(value) if isinstance(v, Record)]


def test_query_fills_keys_lazily_and_keeps_them():
    data = make_travel_agency(num_cities=4, hotels_per_city=3, rooms_per_hotel=3, seed=5)
    cities = data["Cities"]
    db = Database(travel_schema())
    db.load_extents(data)
    records = _records(cities)
    assert records and all(r._ckey is None for r in records)

    assert db.run("count(select h from c in Cities, h in c.hotels)") == 12

    assert all(r._ckey is not None for r in records)
    for r in records:
        assert canonical_key(r) is canonical_key(r)
        assert canonical_key(r) == reference_key(r)


def test_bag_order_and_key_are_computed_once():
    bag = Bag([Record(a=2), Record(a=1), Record(a=2)])
    assert bag._order is None and bag._ckey is None
    assert list(bag) == [Record(a=1), Record(a=2), Record(a=2)]
    order = bag._order
    assert order == (Record(a=1), Record(a=2))
    list(bag)
    assert bag._order is order
    assert canonical_key(bag) is canonical_key(bag)
    assert bag.canonical_order() is order


def test_derived_values_start_with_an_empty_memo():
    record = Record(a=1, b=Record(c=2))
    canonical_key(record)
    assert record._ckey is not None
    assert record.replace(a=3)._ckey is None
    assert record.with_field("d", 4)._ckey is None
    assert record.with_field("a", 1)._ckey is None

    left, right = Bag([Record(a=1)]), Bag([Record(a=2)])
    for bag in (left, right):
        list(bag)
        canonical_key(bag)
    merged = left.union(right)
    assert merged._order is None and merged._ckey is None
    assert canonical_key(merged) == reference_key(merged)


def test_threads_racing_on_one_value_get_equal_keys():
    data = make_travel_agency(num_cities=6, hotels_per_city=3, rooms_per_hotel=3, seed=9)
    workers = 8
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for city in sorted(data["Cities"], key=lambda c: c.name):
            # Fresh, unwarmed copies, so the threads race on filling the memo.
            city = rebuild(city)
            bag = Bag(r for h in city.hotels for r in h.rooms)
            barrier = threading.Barrier(workers, timeout=10)
            results: list = [None] * workers

            def work(i, city=city, bag=bag, barrier=barrier, results=results):
                barrier.wait()
                results[i] = (canonical_key(city), canonical_key(bag), list(bag))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert all(r == results[0] for r in results)
            assert results[0][0] == reference_key(city) == city._ckey
            assert results[0][1] == reference_key(bag) == bag._ckey
    finally:
        sys.setswitchinterval(old_interval)
