"""Unit tests for R-tree nodes and their one block of rectangles."""

import numpy as np
import pytest

from repro.geometry import GeometryError, Rect
from repro.rtree import Node
from repro.rtree.node import product, rect_rows, row_area


def row_of(rect):
    return rect_rows(np.array(rect.lo), np.array(rect.hi))


def node_of(rects, refs=None, is_leaf=True):
    node = Node(is_leaf=is_leaf)
    for i, r in enumerate(rects):
        node.append(row_of(r), r.area, i if refs is None else refs[i])
    return node


class TestNode:
    def test_len(self):
        node = Node(is_leaf=True)
        assert len(node) == 0
        node.append(row_of(Rect((0, 0), (1, 1))), 1.0, 1)
        assert len(node) == 1

    def test_mbr_unions_entries(self):
        node = node_of([Rect((0.1, 0.1), (0.3, 0.2)), Rect((0.5, 0.0), (0.9, 0.4))])
        assert node.mbr() == Rect((0.1, 0.0), (0.9, 0.4))

    def test_mbr_of_empty_node_raises(self):
        with pytest.raises(GeometryError):
            Node(is_leaf=True).mbr()

    def test_children_of_leaf_is_empty(self):
        assert node_of([Rect((0, 0), (1, 1))]).children() == []

    def test_children_of_internal(self):
        kids = [Node(is_leaf=True), Node(is_leaf=True)]
        node = node_of([Rect((0, 0), (1, 1))] * 2, refs=kids, is_leaf=False)
        assert node.children() == kids


class TestBlock:
    def test_layout_is_hi_over_negated_lo(self):
        node = node_of([Rect((0.1, 0.2), (0.3, 0.5))])
        assert node.columns().tolist() == [[0.3], [0.5], [-0.1], [-0.2]]
        assert node.areas[0] == Rect((0.1, 0.2), (0.3, 0.5)).area

    def test_rect_round_trips_every_float(self):
        rects = [Rect((-0.0, 0.0), (0.0, 1e-300)), Rect((-3.5, 1 / 3), (2.25, 7.0))]
        node = node_of(rects)
        for i, r in enumerate(rects):
            back = node.rect(i)
            assert [np.copysign(1, x) for x in back.lo + back.hi] == [
                np.copysign(1, x) for x in r.lo + r.hi
            ]
            assert back == r

    def test_append_doubles_a_full_block(self):
        rects = [Rect((i, 0), (i + 1, 1)) for i in range(9)]
        node = node_of(rects)
        assert node.block.shape[1] >= 9
        assert [node.rect(i) for i in range(9)] == rects

    def test_pop_shifts_later_entries(self):
        rects = [Rect((i, 0), (i + 1, 1)) for i in range(5)]
        node = node_of(rects)
        row, area, ref = node.pop(1)
        assert ref == 1 and area == rects[1].area
        assert row.tolist() == row_of(rects[1]).tolist()
        assert [node.rect(i) for i in range(4)] == rects[:1] + rects[2:]
        assert node.refs == [0, 2, 3, 4]

    def test_enlarge_writes_only_a_growing_cover(self):
        node = node_of([Rect((0, 0), (1, 1))])
        node.queue = {7: (0, False)}
        node.enlarge(0, row_of(Rect((0.2, 0.2), (0.5, 0.5))))
        assert node.queue == {7: (0, False)}
        node.enlarge(0, row_of(Rect((0.5, 0.5), (2, 1))))
        assert node.queue == {}
        assert node.rect(0) == Rect((0, 0), (2, 1))
        assert node.areas[0] == 2.0

    def test_split_keeps_order_and_width(self):
        rects = [Rect((i, 0), (i + 1, 1)) for i in range(6)]
        node = node_of(rects)
        width = node.block.shape[1]
        sibling = node.split([4, 0, 2], [1, 5, 3])
        assert [node.rect(i) for i in range(3)] == [rects[4], rects[0], rects[2]]
        assert [sibling.rect(i) for i in range(3)] == [rects[1], rects[5], rects[3]]
        assert node.refs == [4, 0, 2] and sibling.refs == [1, 5, 3]
        assert sibling.block.shape[1] == width
        assert sibling.areas[:3].tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "write",
        [
            lambda n: n.append(row_of(Rect((0, 0), (1, 1))), 1.0, 9),
            lambda n: n.pop(0),
            lambda n: n.set_cover(0, row_of(Rect((0, 0), (3, 3)))),
            lambda n: n.enlarge(0, row_of(Rect((0, 0), (5, 5)))),
            lambda n: n.split([0], [1]),
        ],
        ids=["append", "pop", "set_cover", "enlarge", "split"],
    )
    def test_every_block_write_clears_the_queue(self, write):
        node = node_of([Rect((0, 0), (1, 1)), Rect((2, 2), (3, 3))])
        node.queue = {0: (1, True)}
        write(node)
        assert node.queue == {}

    def test_areas_multiply_left_to_right(self):
        widths = np.array([[0.1, 3.0], [0.7, 1 / 3], [0.3, 0.9]])
        assert product(widths).tolist() == [0.1 * 0.7 * 0.3, 3.0 * (1 / 3) * 0.9]
        row = np.array([0.4, 0.9, -0.3, -0.2])
        assert row_area(row) == Rect((0.3, 0.2), (0.4, 0.9)).area
