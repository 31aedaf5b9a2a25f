"""Attribution self-test: a delay injected into one layer's shim must
show up in the fold as that layer's growth, by about the delay injected.

Each case runs a short version of the workload twice under tracing,
once plain and once with the delay, and compares per-layer self times.
"""

import json
from pathlib import Path

import pytest

from perfbench import reproduce, serve
from perfbench.layers import LAYER_OF_METRIC

RECORD = json.loads(
    (Path(__file__).resolve().parents[1] / "workloads.json").read_text()
)


def _layer_seconds(metrics: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for metric, layer in LAYER_OF_METRIC.items():
        out[layer] = out.get(layer, 0.0) + metrics.get(metric, 0.0)
    return out


def _grown(plain, injected) -> dict[str, float]:
    before = _layer_seconds(plain.metrics)
    after = _layer_seconds(injected.metrics)
    return {layer: after[layer] - before[layer] for layer in after}


def _check(grown: dict[str, float], layer: str, injected_s: float) -> None:
    # The layer's real work varies from run to run with the host's
    # speed; the injected time must dwarf that variation.
    assert injected_s > 1.0, "delay too small to stand out from noise"
    assert max(grown, key=grown.get) == layer, grown
    assert grown[layer] == pytest.approx(injected_s, rel=0.25), grown


def test_buffer_delay_on_serve_uniform_is_attributed_to_buffer():
    entry = RECORD["workloads"]["serve_uniform"]
    spec = serve.ServeSpec("serve_uniform", **entry["config"])
    # Every rung at half the fixed rate: a search near saturation would
    # take a different path once the buffer is slower, and the
    # comparison must see the same work twice.
    options = dict(
        seed=1,
        seconds=3,
        trace=True,
        setup_repeats=1,
        rung_qps=spec.rate_qps / 2,
        predictions={},
    )
    delay = 0.001
    plain = serve.run(spec, **options)
    injected = serve.run(spec, delays={"buffer": delay}, **options)
    assert plain.correct and injected.correct
    injected_s = delay * injected.counts["buffer.calls"]
    _check(_grown(plain, injected), "buffer", injected_s)


def test_packing_delay_on_reproduce_all_is_attributed_to_packing():
    entry = RECORD["workloads"]["reproduce_all"]
    options = dict(
        trace=True, setup_repeats=1, experiments=["table2", "fig10"]
    )
    delay = 0.5
    plain = reproduce.run(entry["config"], **options)
    injected = reproduce.run(
        entry["config"], delays={"packing": delay}, **options
    )
    assert plain.correct and injected.correct
    injected_s = delay * injected.counts["packing.calls"]
    _check(_grown(plain, injected), "packing", injected_s)
