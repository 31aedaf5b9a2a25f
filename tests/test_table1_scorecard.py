"""EXPERIMENTS.md's Table 1 numbers must agree with the committed
artefact ``benchmarks/out/table1.txt`` at the precision they print.

Two things are checked: every cell of the Table 1 markdown table, and
each stated worst case ("within 2% for every B ≥ 100 (worst −1.7%, NX
B=300)", "B=50 worst −2.8% (STR)").  A worst case is the cell of
largest |diff %| among the buffer sizes it covers.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
PAPER_BAND = 2.0
"""The paper's claim: model within 2% of simulation."""


def artefact_diffs() -> dict[tuple[str, int], float]:
    """``(loader, buffer) -> diff %`` from the committed Table 1 rows."""
    lines = (REPO_ROOT / "benchmarks/out/table1.txt").read_text().splitlines()
    diffs = {}
    for line in lines[3:]:
        loader, buffer, _model, _sim, _ci, diff = line.split()
        diffs[(loader.upper(), int(buffer))] = float(diff)
    return diffs


DIFFS = artefact_diffs()


def printed(text: str) -> tuple[float, int]:
    """A signed percentage as printed (``−1.7``) and its decimals."""
    text = text.replace("−", "-")
    decimals = len(text.partition(".")[2])
    return float(text), decimals


def matches(value: float, text: str) -> bool:
    number, decimals = printed(text)
    return round(value, decimals) == number


def worst(buffers) -> tuple[str, int, float]:
    """The ``(loader, buffer, diff)`` cell of largest |diff|."""
    cells = [(k, d) for k, d in DIFFS.items() if k[1] in buffers]
    (loader, buffer), diff = max(cells, key=lambda c: abs(c[1]))
    return loader, buffer, diff


def test_artefact_has_the_full_table():
    assert len(DIFFS) == 18
    assert {b for _, b in DIFFS} == {10, 50, 100, 200, 300, 500}


def test_markdown_rows_match_the_artefact():
    header = re.search(r"^\| loader \|(.*)\|$", EXPERIMENTS, re.M)
    buffers = [int(c.strip().removeprefix("B=")) for c in header[1].split("|")]
    rows = re.findall(r"^\| (NX|HS|STR) +\|(.*)\|$", EXPERIMENTS, re.M)
    assert {loader for loader, _ in rows} == {"NX", "HS", "STR"}
    for loader, cells in rows:
        cells = [c.strip().removesuffix("%") for c in cells.split("|")]
        for buffer, cell in zip(buffers, cells, strict=True):
            assert matches(DIFFS[(loader, buffer)], cell), (loader, buffer, cell)


@pytest.mark.parametrize(
    "pattern",
    [
        r"within 2% for every B ≥ (\d+) \(worst ([−+][\d.]+)%, (\w+) B=(\d+)\)",
        r"every buffer of ≥ (\d+) pages \(worst ([−+][\d.]+)%, (\w+) B=(\d+)\)",
    ],
)
def test_stated_band_and_its_worst_case(pattern):
    found = re.search(pattern, EXPERIMENTS)
    assert found, f"statement {pattern!r} not found"
    threshold, text, loader, buffer = found.groups()
    w_loader, w_buffer, w_diff = worst([b for _, b in DIFFS if b >= int(threshold)])
    assert (w_loader, w_buffer) == (loader, int(buffer))
    assert matches(w_diff, text)
    assert abs(w_diff) <= PAPER_BAND
    # The band is tight: the next smaller buffer breaks it.
    below = max(b for _, b in DIFFS if b < int(threshold))
    assert abs(worst([below])[2]) > PAPER_BAND


def test_worst_case_below_the_band():
    row = next(line for line in EXPERIMENTS.splitlines() if line.startswith("| Table 1 |"))
    stated = re.findall(r"B=(\d+) worst ([−+][\d.]+)% \((\w+)\)", row)
    assert {int(b) for b, _, _ in stated} == {10, 50}
    for buffer, text, loader in stated:
        w_loader, _, w_diff = worst([int(buffer)])
        assert w_loader == loader
        assert matches(w_diff, text)
