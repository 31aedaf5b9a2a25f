"""``simulate_sweep``: bit-exact against per-capacity ``simulate``.

The single-pass Mattson engine's whole contract is that it is an
*optimization*, never a model change: for every workload, pinning
level and warm-up mode it must return exactly the per-batch counters,
batch-means estimates and warm-up lengths the online engine produces
for each buffer size — and its outputs must not depend on the worker
thread count.  The distance pass itself is checked against a
brute-force move-to-front LRU stack, and its memory against the page
alphabet.  Monotonicity (more buffer never means more misses on the
same measurement window) is the inclusion property itself, checked
directly on the stack-distance arrays.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.buffer import PinningError
from repro.geometry import RectArray
from repro.obs import Tracer, chrome_trace, use_tracer
from repro.packing import pack_description
from repro.queries import (
    DataDrivenWorkload,
    MixedWorkload,
    UniformPointWorkload,
    UniformRegionWorkload,
)
from repro.simulation import simulate, simulate_sweep, stackdist
from repro.simulation.stackdist import _LR_SEGMENT, _stack_distances
from tests.conftest import random_rects

_RECTS = random_rects(np.random.default_rng(11), 800, max_side=0.03)
_DESC = pack_description(_RECTS, capacity=16, ordering="hs")


def assert_results_identical(sweep_result, online_result) -> None:
    assert sweep_result.disk_accesses == online_result.disk_accesses
    assert sweep_result.node_accesses == online_result.node_accesses
    assert sweep_result.warmup_queries == online_result.warmup_queries
    assert sweep_result.buffer_filled == online_result.buffer_filled
    assert len(sweep_result.batch_stats) == len(online_result.batch_stats)
    for ours, theirs in zip(
        sweep_result.batch_stats, online_result.batch_stats
    ):
        assert ours.requests == theirs.requests
        assert ours.hits == theirs.hits
        assert ours.misses == theirs.misses
        assert ours.evictions == theirs.evictions


class TestBitExactAgainstOnline:
    CASES = [
        (
            "point-warm-until-full",
            UniformPointWorkload(),
            dict(buffer_sizes=(1, 3, 11, 45), warmup_cap=4096),
        ),
        (
            "region-pinned-root",
            UniformRegionWorkload((0.08, 0.08)),
            dict(buffer_sizes=(2, 9, 40), pinned_levels=1, warmup_cap=4096),
        ),
        (
            "data-driven-explicit-warmup",
            DataDrivenWorkload(_RECTS.centers(), (0.04, 0.04)),
            dict(buffer_sizes=(2, 17), warmup_queries=700),
        ),
        (
            "point-zero-warmup",
            UniformPointWorkload(),
            dict(buffer_sizes=(4, 19), warmup_queries=0),
        ),
        (
            "point-warmup-cap-hit",
            UniformPointWorkload(),
            dict(buffer_sizes=(5, 100_000), warmup_cap=300),
        ),
        (
            "mixed-fallback",
            MixedWorkload(
                [
                    (0.6, UniformPointWorkload()),
                    (0.4, UniformRegionWorkload((0.1, 0.1))),
                ]
            ),
            dict(buffer_sizes=(3, 12), warmup_cap=2048),
        ),
        (
            "fifo-replay",
            UniformPointWorkload(),
            dict(buffer_sizes=(3, 12), policy="fifo", warmup_cap=2048),
        ),
        (
            "clock-replay",
            UniformPointWorkload(),
            dict(buffer_sizes=(3, 12, 60), policy="clock", warmup_cap=2048),
        ),
        (
            "fifo-pinned-explicit-warmup",
            UniformRegionWorkload((0.06, 0.06)),
            dict(
                buffer_sizes=(2, 9, 40), policy="fifo",
                pinned_levels=1, warmup_queries=400,
            ),
        ),
        (
            "clock-zero-unpinned-capacity",
            UniformPointWorkload(),
            # buffer size 1 with the root pinned: zero unpinned slots,
            # every unpinned access is a miss (the engine's edge case).
            dict(
                buffer_sizes=(1, 6), policy="clock",
                pinned_levels=1, warmup_cap=1024,
            ),
        ),
        (
            "lru-zero-unpinned-capacity",
            UniformPointWorkload(),
            dict(buffer_sizes=(1, 6), pinned_levels=1, warmup_cap=1024),
        ),
        (
            "lru-zero-unpinned-explicit-warmup",
            UniformRegionWorkload((0.05, 0.05)),
            dict(buffer_sizes=(1, 6), pinned_levels=1, warmup_queries=300),
        ),
        (
            "mixed-replay-explicit-warmup",
            MixedWorkload(
                [
                    (0.7, UniformPointWorkload()),
                    (0.3, UniformRegionWorkload((0.08, 0.08))),
                ]
            ),
            dict(buffer_sizes=(3, 12), policy="fifo", warmup_queries=500),
        ),
        (
            "mixed-lru-replay-explicit-warmup",
            MixedWorkload(
                [
                    (0.5, UniformPointWorkload()),
                    (0.5, UniformRegionWorkload((0.05, 0.05))),
                ]
            ),
            dict(buffer_sizes=(2, 20), warmup_queries=300),
        ),
        (
            "random-fallback",
            UniformPointWorkload(),
            dict(buffer_sizes=(3, 12), policy="random", warmup_cap=2048),
        ),
    ]

    @pytest.mark.parametrize(
        "workload, kwargs", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_every_size_matches_simulate(self, workload, kwargs):
        common = dict(n_batches=3, batch_size=200, rng=5, **kwargs)
        results = simulate_sweep(_DESC, workload, **common)
        buffer_sizes = common.pop("buffer_sizes")
        assert len(results) == len(buffer_sizes)
        for size, result in zip(buffer_sizes, results):
            assert_results_identical(
                result, simulate(_DESC, workload, size, **common)
            )

    def test_results_independent_of_thread_count(self, monkeypatch):
        kwargs = dict(
            buffer_sizes=(2, 7, 30, 80),
            n_batches=3,
            batch_size=250,
            rng=3,
        )
        monkeypatch.setattr(stackdist, "_MAX_SWEEP_THREADS", 1)
        serial = simulate_sweep(_DESC, UniformPointWorkload(), **kwargs)
        monkeypatch.setattr(stackdist, "_MAX_SWEEP_THREADS", 8)
        threaded = simulate_sweep(_DESC, UniformPointWorkload(), **kwargs)
        for a, b in zip(serial, threaded):
            assert_results_identical(a, b)


@st.composite
def degenerate_sweeps(draw):
    """A small tree over duplicate and zero-area rectangles (one node
    included), a pin depth, and buffer sizes down to the pin count."""
    n_rects = draw(st.integers(min_value=1, max_value=24))
    coords = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * 4),
            min_size=n_rects,
            max_size=n_rects,
        )
    )
    grid = np.array(coords, dtype=np.float64) / 4.0
    rects = RectArray(
        np.minimum(grid[:, :2], grid[:, 2:]),
        np.maximum(grid[:, :2], grid[:, 2:]),
    )
    desc = pack_description(
        rects,
        capacity=draw(st.integers(min_value=2, max_value=6)),
        ordering=draw(st.sampled_from(["nx", "hs", "str"])),
    )
    pinned_levels = draw(st.integers(min_value=0, max_value=desc.height))
    smallest = max(1, int(desc.level_offsets[pinned_levels]))
    extra = draw(
        st.lists(
            st.integers(min_value=smallest, max_value=desc.total_nodes + 2),
            max_size=3,
        )
    )
    workload = draw(
        st.sampled_from(
            [UniformPointWorkload(), UniformRegionWorkload((0.1, 0.1))]
        )
    )
    kwargs = dict(
        pinned_levels=pinned_levels,
        warmup_queries=draw(st.sampled_from([None, 0, 150])),
        warmup_cap=300,
        n_batches=2,
        batch_size=60,
        rng=draw(st.integers(min_value=0, max_value=2**16)),
    )
    return desc, workload, tuple(sorted({smallest, *extra})), kwargs


class TestDegenerateTrees:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(degenerate_sweeps())
    def test_sweep_matches_simulate(self, case):
        desc, workload, buffer_sizes, kwargs = case
        results = simulate_sweep(desc, workload, buffer_sizes, **kwargs)
        for size, result in zip(buffer_sizes, results):
            assert_results_identical(
                result, simulate(desc, workload, size, **kwargs)
            )


def brute_lru(pages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(cold, depth)`` from a move-to-front LRU stack, one access at
    a time: ``depth`` is the page's index in the stack (0 for cold)."""
    stack: list[int] = []
    cold, depth = [], []
    for page in pages.tolist():
        if page in stack:
            at = stack.index(page)
            stack.pop(at)
            cold.append(False)
            depth.append(at)
        else:
            cold.append(True)
            depth.append(0)
        stack.insert(0, page)
    return np.array(cold, dtype=bool), np.array(depth, dtype=np.int64)


def assert_distances_match_brute_force(pages: np.ndarray) -> None:
    cold, depth, ccold = _stack_distances(pages)
    want_cold, want_depth = brute_lru(pages)
    assert np.array_equal(cold, want_cold)
    assert np.array_equal(depth[~cold], want_depth[~want_cold])
    assert ccold[0] == 0
    assert np.array_equal(ccold[1:], np.cumsum(want_cold))


def _idle_page(rng: np.random.Generator) -> np.ndarray:
    # Page 0 at position 5, idle for three whole segments, then back.
    pages = rng.integers(1, 40, size=5 * _LR_SEGMENT)
    pages[5] = pages[4 * _LR_SEGMENT + 7] = 0
    return pages


def _fresh_segment(rng: np.random.Generator) -> np.ndarray:
    # Segment 1 touches only new pages, so the walk asks nothing at its
    # start; segment 0's positions must still reach segment 2's stack.
    old = rng.integers(0, 50, size=_LR_SEGMENT)
    fresh = np.arange(100, 100 + _LR_SEGMENT)
    mixed = rng.integers(0, 100 + _LR_SEGMENT, size=2 * _LR_SEGMENT)
    return np.concatenate([old, fresh, mixed])


def _first_and_last(rng: np.random.Generator) -> np.ndarray:
    pages = rng.integers(1, 300, size=4 * _LR_SEGMENT)
    pages[0] = pages[-1] = 0
    return pages


class TestDistancesAgainstBruteForce:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=_LR_SEGMENT - 1),
        st.integers(min_value=1, max_value=1000),
    )
    def test_matches_move_to_front_stack(
        self, seed, segments, extra, alphabet
    ):
        # Large alphabets over several segments make most reuses cross
        # a segment boundary (far accesses); small ones keep them near.
        pages = np.random.default_rng(seed).integers(
            0, alphabet, size=segments * _LR_SEGMENT + extra
        )
        assert_distances_match_brute_force(pages)

    @pytest.mark.parametrize(
        "make",
        [
            *[
                lambda rng, n=n: rng.integers(0, 150, size=n)
                for n in (0, 1, 511, 512, 513, 4 * 512)
            ],
            lambda rng: np.full(3 * _LR_SEGMENT + 9, 7),
            _first_and_last,
            _idle_page,
            _fresh_segment,
        ],
        ids=[
            "n0", "n1", "n511", "n512", "n513", "n2048",
            "single-page", "first-and-last", "idle-for-segments",
            "segment-without-far-access",
        ],
    )
    def test_fixed_streams(self, make):
        pages = np.asarray(make(np.random.default_rng(4)), dtype=np.int64)
        assert_distances_match_brute_force(pages)


def _traced_peak(pages: np.ndarray) -> int:
    """Bytes ``_stack_distances(pages)`` holds at its peak."""
    owner = not tracemalloc.is_tracing()
    if owner:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _stack_distances(pages)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if owner:
            tracemalloc.stop()


class TestBoundedMemory:
    def test_peak_does_not_grow_with_the_alphabet(self):
        # The far accesses read the LRU stack at each segment boundary;
        # holding it for every boundary at once would grow with the
        # number of pages live there, i.e. with the alphabet.
        rng = np.random.default_rng(21)
        small, large = (
            _traced_peak(rng.integers(0, alphabet, size=200_000))
            for alphabet in (500, 5_000)
        )
        assert large <= 1.25 * small


class TestInclusionProperty:
    @settings(
        max_examples=30, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=4000),
        st.integers(min_value=1, max_value=200),
    )
    def test_misses_monotone_in_capacity(self, seed, length, alphabet):
        # The inclusion property: a larger LRU holds a superset, so
        # per-access outcomes (hence total misses) can only improve.
        pages = np.random.default_rng(seed).integers(
            0, alphabet, size=length
        )
        cold, depth, ccold = _stack_distances(pages.astype(np.int64))
        misses = [
            int(np.sum(cold | (depth >= capacity)))
            for capacity in range(1, alphabet + 2)
        ]
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        # Capacity > alphabet: only cold misses remain.
        assert misses[-1] == int(np.sum(cold)) == ccold[-1]

    def test_sweep_misses_monotone_on_fixed_window(self):
        # With an explicit warm-up every capacity measures the same
        # query window, so per-batch misses are monotone across sizes.
        results = simulate_sweep(
            _DESC,
            UniformPointWorkload(),
            (1, 2, 4, 8, 16, 32, 64, 128),
            n_batches=3,
            batch_size=300,
            warmup_queries=500,
            rng=9,
        )
        for smaller, larger in zip(results, results[1:]):
            for a, b in zip(smaller.batch_stats, larger.batch_stats):
                assert a.misses >= b.misses


class TestObservability:
    def test_spans_and_metrics(self):
        tracer = Tracer()
        previous = use_tracer(tracer)
        try:
            results = simulate_sweep(
                _DESC,
                UniformPointWorkload(),
                (2, 8, 33),
                n_batches=2,
                batch_size=150,
                warmup_queries=200,
                rng=1,
            )
        finally:
            use_tracer(previous)
        by_name: dict[str, list] = {}
        for finished_span in tracer.finished():
            by_name.setdefault(finished_span.name, []).append(finished_span)
        (root,) = by_name["simulate.sweep"]
        assert root.attrs["mode"] == "stackdist"
        assert root.attrs["capacities"] == 3
        # The span is the sweep's one timing channel.
        assert root.duration_ns > 0
        assert len(by_name["stackdist.capacity"]) == 3
        assert by_name["stackdist.stream"][0].attrs["queries"] > 0
        assert len(results) == 3
        assert all(len(r.batch_stats) == 2 for r in results)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policy="random", warmup_queries=100),
            dict(policy="fifo", warmup_queries=100),
            dict(policy="clock", warmup_cap=1024),
        ],
        ids=["random", "fifo", "clock"],
    )
    def test_fallback_mode_span(self, kwargs):
        # Only LRU buffers nest, so every other policy simulates each
        # capacity on its own inside the one call.
        tracer = Tracer()
        previous = use_tracer(tracer)
        try:
            simulate_sweep(
                _DESC,
                UniformPointWorkload(),
                (2, 8, 20),
                n_batches=2,
                batch_size=100,
                rng=1,
                **kwargs,
            )
        finally:
            use_tracer(previous)
        (root,) = [s for s in tracer.finished() if s.name == "simulate.sweep"]
        assert root.attrs["mode"] == "fallback"
        simulate_spans = [
            s for s in tracer.finished() if s.name == "simulate"
        ]
        assert [s.attrs["buffer_size"] for s in simulate_spans] == [2, 8, 20]

    def test_mixed_until_full_stays_on_fallback(self):
        # A mixture's draws depend on chunk boundaries, and an
        # until-full warm-up makes those boundaries capacity-dependent:
        # no shared stream exists, so the sweep must not pretend.
        tracer = Tracer()
        previous = use_tracer(tracer)
        mixed = MixedWorkload(
            [
                (0.5, UniformPointWorkload()),
                (0.5, UniformRegionWorkload((0.1, 0.1))),
            ]
        )
        try:
            simulate_sweep(
                _DESC, mixed, (2, 8),
                n_batches=2, batch_size=100, policy="fifo",
                warmup_cap=512, rng=1,
            )
        finally:
            use_tracer(previous)
        (root,) = [s for s in tracer.finished() if s.name == "simulate.sweep"]
        assert root.attrs["mode"] == "fallback"

    def test_worker_threads_densified_in_trace(self):
        # The sweep is a genuinely concurrent tracer workload: worker
        # spans must carry small densified thread indices, not OS ids.
        tracer = Tracer()
        previous = use_tracer(tracer)
        try:
            simulate_sweep(
                _DESC,
                UniformPointWorkload(),
                (1, 2, 4, 8, 16, 32, 64, 128),
                n_batches=2,
                batch_size=200,
                warmup_queries=300,
                rng=2,
            )
        finally:
            use_tracer(previous)
        indices = {s.thread_index for s in tracer.finished()}
        assert indices == set(range(len(indices)))
        capacity_spans = [
            s for s in tracer.finished() if s.name == "stackdist.capacity"
        ]
        assert len(capacity_spans) == 8
        assert all(s.thread_index >= 1 for s in capacity_spans)
        # The export carries the densified ids, never OS thread ids.
        payload = chrome_trace(tracer.finished())
        tids = {
            e["tid"] for e in payload["traceEvents"] if e.get("ph") == "X"
        }
        assert tids == indices


class TestValidation:
    def test_rejects_generator_rng(self):
        with pytest.raises(TypeError, match="reproducible seed"):
            simulate_sweep(
                _DESC,
                UniformPointWorkload(),
                (2,),
                rng=np.random.default_rng(0),
            )

    def test_rejects_unpinnable_sizes(self):
        with pytest.raises(PinningError):
            simulate_sweep(
                _DESC,
                UniformPointWorkload(),
                (2, 500),
                pinned_levels=_DESC.height,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(buffer_sizes=()),
            dict(buffer_sizes=(0,)),
            dict(buffer_sizes=(4,), n_batches=1),
            dict(buffer_sizes=(4,), batch_size=0),
            dict(buffer_sizes=(4,), warmup_cap=-1),
            dict(buffer_sizes=(4,), policy="nonsense"),
            dict(buffer_sizes=(4,), pinned_levels=99),
            dict(buffer_sizes=(4,), warmup_queries=-5),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            simulate_sweep(_DESC, UniformPointWorkload(), **kwargs)
