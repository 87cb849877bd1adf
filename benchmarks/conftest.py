"""Shared fixtures and reporting hooks for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a reduced
-- but structurally identical -- size so the whole suite completes in
minutes.  Each benchmark prints the regenerated rows, so running

    pytest benchmarks/ --benchmark-only -s

produces a textual version of every artefact alongside the timing data.
Larger, closer-to-paper configurations are available by calling the
functions in :mod:`repro.experiments` directly (see EXPERIMENTS.md).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest  # noqa: E402


@pytest.fixture
def encoded_points(monkeypatch):
    """Sizes of the point batches passed through ``CellCodec.encode_points``.

    The list fills as the test runs; a pass that re-touches the points
    shows up as one more entry.
    """
    from repro.grid.codec import CellCodec

    calls = []
    encode_points = CellCodec.encode_points

    def counted(codec, X, lower, widths):
        calls.append(len(X))
        return encode_points(codec, X, lower, widths)

    monkeypatch.setattr(CellCodec, "encode_points", counted)
    return calls
