"""Batched tile contraction across every multiply strategy.

The group-by-join lowerings contract each tile's partners in one stacked
``np.matmul`` per tile shape instead of one call per tile pair.  A dense
multiply at n=130, tile 25 (ragged 5-wide edge tiles) is run with each
strategy forced (adaptive execution off, so the forced strategy is the
one that runs), under the serial and the threaded runner.  The results
must match NumPy and each other byte for byte, and the shuffle counters
must equal the values the per-pair implementation produced.
"""

import numpy as np
import pytest

from repro import SacSession
from repro.engine import ThreadedTaskRunner
from repro.planner import passes

MULTIPLY = (
    "tiled(n, m)[ ((i,j), +/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
    " kk == k, let v = x*y, group by (i,j) ]"
)
N, TILE = 130, 25

#: (shuffle_bytes, shuffle_records, stages, tasks) of the per-pair
#: implementation on this multiply, under the default cluster.
PINNED_COUNTERS = {
    "gbj-replicate": (1645728, 432, 4, 144),
    "gbj-broadcast-left": (820704, 216, 4, 144),
    "gbj-broadcast-right": (820704, 216, 4, 144),
    "tiled-reduce": (1097296, 288, 6, 216),
}


def _run(strategy, runner, monkeypatch):
    monkeypatch.setattr(
        passes, "_choose_gbj_strategy", lambda options, match, cands: strategy
    )
    rng = np.random.default_rng(3)
    a = rng.standard_normal((N, N))
    b = rng.standard_normal((N, N))
    with SacSession(tile_size=TILE, runner=runner, adaptive=False) as session:
        A = session.tiled(a).materialize()
        B = session.tiled(b).materialize()
        compiled = session.compile(MULTIPLY, A=A, B=B, n=N, m=N)
        assert compiled.plan.details["strategy"] == strategy
        snapshot = session.metrics_snapshot()
        result = compiled.execute().to_numpy()
        delta = session.metrics_delta(snapshot)
    counters = (
        delta.shuffle_bytes, delta.shuffle_records, delta.stages, delta.tasks
    )
    return result, a @ b, counters


@pytest.mark.parametrize("strategy", sorted(PINNED_COUNTERS))
def test_forced_strategy_matches_numpy_runners_and_pinned_counters(
    strategy, monkeypatch
):
    serial, expected, serial_counters = _run(strategy, "serial", monkeypatch)
    threaded, _, threaded_counters = _run(
        strategy, ThreadedTaskRunner(max_workers=3), monkeypatch
    )
    np.testing.assert_allclose(serial, expected)
    assert serial.tobytes() == threaded.tobytes()
    assert serial_counters == threaded_counters == PINNED_COUNTERS[strategy]
