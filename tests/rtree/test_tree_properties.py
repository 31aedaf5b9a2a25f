"""Property-based tests: random operation sequences keep the R-tree
structurally valid and semantically equal to a brute-force set."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry import Rect
from repro.rtree import RStarTree, RTree, check_tree

coords = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def small_rects(draw) -> Rect:
    x = draw(coords)
    y = draw(coords)
    w = draw(st.floats(min_value=0.0, max_value=0.2))
    h = draw(st.floats(min_value=0.0, max_value=0.2))
    return Rect((x, y), (x + w, y + h))


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), small_rects()),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("query"), small_rects()),
    ),
    min_size=1,
    max_size=120,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=operations,
    max_entries=st.integers(min_value=3, max_value=9),
    split=st.sampled_from(["quadratic", "linear"]),
)
def test_random_operation_sequences(ops, max_entries, split):
    tree = RTree(max_entries=max_entries, min_entries=1, split=split)
    reference: dict[int, Rect] = {}
    next_id = 0

    for op, arg in ops:
        if op == "insert":
            tree.insert(arg, next_id)
            reference[next_id] = arg
            next_id += 1
        elif op == "delete":
            if reference:
                victim = sorted(reference)[arg % len(reference)]
                assert tree.delete(reference.pop(victim), victim)
        else:  # query
            expected = sorted(
                i for i, r in reference.items() if r.intersects(arg)
            )
            assert sorted(tree.search(arg)) == expected
        check_tree(tree)

    assert len(tree) == len(reference)
    stored = sorted(item for _, item in tree.items())
    assert stored == sorted(reference)


@settings(max_examples=30, deadline=None)
@given(
    rects=st.lists(small_rects(), min_size=1, max_size=80),
    max_entries=st.integers(min_value=3, max_value=8),
)
def test_insert_only_invariants(rects, max_entries):
    tree = RTree(max_entries=max_entries, min_entries=1)
    for i, r in enumerate(rects):
        tree.insert(r, i)
        check_tree(tree)
    mbr = tree.mbr()
    for r in rects:
        assert mbr.contains_rect(r)


@settings(max_examples=30, deadline=None)
@given(rects=st.lists(small_rects(), min_size=2, max_size=60))
def test_full_query_returns_all(rects):
    tree = RTree(max_entries=4, min_entries=1)
    for i, r in enumerate(rects):
        tree.insert(r, i)
    found = sorted(tree.search(Rect((0, 0), (2, 2))))
    assert found == list(range(len(rects)))


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=operations,
    max_entries=st.integers(min_value=4, max_value=9),
)
def test_rstar_random_operation_sequences(ops, max_entries):
    """The R*-tree must satisfy the same contract as the base tree
    under arbitrary insert/delete/query interleavings."""
    tree = RStarTree(max_entries=max_entries, min_entries=2)
    reference: dict[int, Rect] = {}
    next_id = 0

    for op, arg in ops:
        if op == "insert":
            tree.insert(arg, next_id)
            reference[next_id] = arg
            next_id += 1
        elif op == "delete":
            if reference:
                victim = sorted(reference)[arg % len(reference)]
                assert tree.delete(reference.pop(victim), victim)
        else:  # query
            expected = sorted(
                i for i, r in reference.items() if r.intersects(arg)
            )
            assert sorted(tree.search(arg)) == expected
        check_tree(tree)

    assert len(tree) == len(reference)
