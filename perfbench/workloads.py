"""The benchmark's workloads: inputs made from a seed, the op, the oracle.

Every workload runs the library defaults (``REPRO_*`` is cleared by
``run.py``) plus the settings named here.  A workload exposes:

* ``clients`` — the names the one closed-loop client takes turns as
  (the tenant names, or ``None`` for a plain session);
* ``setup()`` — session or service creation, data load and warm-up;
* ``op(client)`` — one timed op;
* ``after(client, result)`` — untimed work right after an op: the oracle
  check (``True``/``False``) or ``None`` when the check is deferred to
  ``finish()``, which returns the number of deferred failures;
* ``registry()`` / ``cache_stats()`` — the engine's own counters
  (``MetricsRegistry``) and plan-cache statistics, read by the traced
  run;
* ``crosses_threads`` (optional, default ``False``) — whether an op
  hands work between threads, so that the host-speed kernel
  (``calibrate.py``) times thread hand-offs too.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import threading
import time
import warnings
from typing import Any, Optional

import numpy as np

from repro import SacSession
from repro.engine import EngineContext
from repro.linalg.factorization import sac_factorization_step
from repro.serve import QueryService, ServeServer, http_submit, render_result
from repro.storage.objectstore import InMemoryStore

MUL = (
    "tiled(n, m)[ ((i,j), +/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
    " kk == k, let v = x*y, group by (i,j) ]"
)
SCALED_ADD = (
    "tiled(n, m)[ ((i,j), a + gamma * b)"
    " | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"
)
ROW_SUMS = "tiled_vector(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]"

#: Untimed ops at the end of ``setup()``, so the timed ops find warm caches.
WARMUP_OPS = 2


class MultiplyT25:
    """Cost-based dense multiply at a small tile: 16^3 = 4,096 tile
    products per op, so per-tile overhead (kernel dispatch, size
    accounting, hash scatter) dominates."""

    name = "multiply-t25"
    clients: list[Optional[str]] = [None]
    N = 400
    TILE = 25

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((self.N, self.N))
        self.b = rng.standard_normal((self.N, self.N))
        self.session: Optional[SacSession] = None

    def setup(self) -> None:
        self.session = SacSession(tile_size=self.TILE)
        self.A = self.session.tiled(self.a).materialize()
        self.B = self.session.tiled(self.b).materialize()
        self.reference: Optional[np.ndarray] = None
        for _ in range(WARMUP_OPS):
            self.op(None)

    def op(self, client: Optional[str]) -> np.ndarray:
        return self.session.run(
            MUL, A=self.A, B=self.B, n=self.N, m=self.N
        ).to_numpy()

    def after(self, client: Optional[str], result: np.ndarray) -> bool:
        # The first op is checked against NumPy; every later op must be
        # byte-identical to it.
        if self.reference is not None:
            return result.tobytes() == self.reference.tobytes()
        if not np.allclose(result, self.a @ self.b):
            return False
        self.reference = result
        return True

    def finish(self) -> int:
        return 0

    def registry(self) -> Any:
        return self.session.engine.metrics

    def cache_stats(self) -> dict:
        return self.session.compile_stats()

    def baselines(self, repeats: int = 20) -> dict[str, float]:
        """NumPy ``a @ b`` and a hand-written blocked loop at the same
        tile size, median ms (ungated reference rows)."""
        a, b, n, t = self.a, self.b, self.N, self.TILE

        def blocked() -> np.ndarray:
            out = np.zeros((n, n))
            for i in range(0, n, t):
                for j in range(0, n, t):
                    acc = out[i:i + t, j:j + t]
                    for k in range(0, n, t):
                        acc += a[i:i + t, k:k + t] @ b[k:k + t, j:j + t]
            return out

        if not np.allclose(blocked(), a @ b):
            raise AssertionError("blocked baseline disagrees with a @ b")
        return {
            "baseline.numpy_matmul_ms": _median_ms(lambda: a @ b, repeats),
            "baseline.blocked_loop_ms": _median_ms(blocked, repeats),
        }

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class Factorize:
    """Repeated gradient steps of the Figure 4.C factorization; each op
    is one ``sac_factorization_step`` (5 comprehensions).

    Every ``EPOCH`` steps the descent is checkpointed: the factors move
    to a fresh session (untimed).  Within one session every step leaves
    its lineage and shuffle outputs reachable (about 1.9 MB per step at
    n=400), so without the restart peak memory and step latency would
    grow with the length of the run rather than measure the step.
    """

    name = "factorize-gd"
    clients: list[Optional[str]] = [None]
    N = 400
    RANK = 40
    TILE = 50
    DENSITY = 0.10
    #: Figure 4.C's gamma = 0.002 overflows by step 3 at this size;
    #: 1e-4 keeps the iterates finite.
    GAMMA = 1e-4
    LAMBDA = 0.02
    EPOCH = 25

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = self.N
        ratings = rng.integers(1, 6, size=(n, n)).astype(np.float64)
        self.r_np = np.where(rng.random((n, n)) < self.DENSITY, ratings, 0.0)
        self.p0 = rng.random((n, self.RANK))
        self.q0 = rng.random((n, self.RANK))
        self.session: Optional[SacSession] = None

    def _open(self) -> None:
        if self.session is not None:
            self.session.close()
            # Free the old session's reference cycles now, so peak
            # memory does not depend on when the collector next runs.
            self.session = None
            gc.collect()
        self.session = self._new_session()
        self.r = self.session.tiled(self.r_np).materialize()
        self.p = self.session.tiled(self.p_np).materialize()
        self.q = self.session.tiled(self.q_np).materialize()
        self.epoch_steps = 0

    def _new_session(self) -> SacSession:
        return SacSession(tile_size=self.TILE)

    def setup(self) -> None:
        self.p_np, self.q_np = self.p0, self.q0
        self._open()
        for _ in range(WARMUP_OPS):
            self.after(None, self.op(None))

    def op(self, client: Optional[str]) -> tuple:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = sac_factorization_step(
                self.session, self.r, self.p, self.q, self.GAMMA, self.LAMBDA
            )
        return state, caught

    def after(self, client: Optional[str], result: tuple) -> Optional[bool]:
        """Advance the descent and check the step.

        A step fails on a NumPy overflow/invalid warning, a non-finite
        iterate, or a mismatch with :meth:`_oracle`.
        """
        state, caught = result
        p_in, q_in = self.p_np, self.q_np
        p_out, q_out = self._advance(state)
        clean = not any(
            issubclass(w.category, RuntimeWarning) for w in caught
        ) and bool(np.isfinite(p_out).all() and np.isfinite(q_out).all())
        return self._oracle(p_in, q_in, p_out, q_out, clean)

    def _advance(self, state: Any) -> tuple[np.ndarray, np.ndarray]:
        """Make ``state`` the current iterate; checkpoint every EPOCH steps."""
        p_out, q_out = state.p.to_numpy(), state.q.to_numpy()
        self.p.tiles.unpersist()
        self.q.tiles.unpersist()
        self.p, self.q, self.p_np, self.q_np = state.p, state.q, p_out, q_out
        self.epoch_steps += 1
        if self.epoch_steps == self.EPOCH:
            self._open()
        return p_out, q_out

    def _oracle(self, p_in, q_in, p_out, q_out, clean) -> Optional[bool]:
        """NumPy replay of the same step, to 1e-10 relative.

        Blocked and NumPy sums round differently, and that error scales
        with the factor's magnitude, not the entry's: an entry that
        descends near 0 differs by more than 1e-10 of itself (seen at
        3.6e-10 on 1.6e-4 after 600 steps).  So the absolute tolerance
        is 1e-10 of the largest entry.
        """
        error = self.r_np - p_in @ q_in.T
        p_exp = p_in + self.GAMMA * (2.0 * error @ q_in - self.LAMBDA * p_in)
        q_exp = q_in + self.GAMMA * (2.0 * error.T @ p_exp - self.LAMBDA * q_in)
        return clean and all(
            np.allclose(out, exp, rtol=1e-10, atol=1e-10 * np.abs(exp).max())
            for out, exp in ((p_out, p_exp), (q_out, q_exp))
        )

    def finish(self) -> int:
        return 0

    def registry(self) -> Any:
        return self.session.engine.metrics

    def cache_stats(self) -> dict:
        return self.session.compile_stats()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class FactorizeSpill(Factorize):
    """The factorization step under a 2 MB memory limit: blocks spill
    to the object store and are restored, so the block tier sees writes
    beside reads.  The oracle is the out-of-core invariant: every step's
    P and Q are byte-identical to an uncapped run of the same seed and
    steps, replayed after the timed phase.

    Spill objects go to an ``InMemoryStore``, not the default
    ``LocalDiskStore``: on a shared virtual disk the file system's cost
    per object swung the disk-backed step between about 0.2 and 0.5 s
    from one minute to the next, a spread no regression bound can hold.
    The block manager's spill, restore and prefetch logic is the same
    with either store.
    """

    name = "factorize-spill"
    N = 240
    MEMORY_LIMIT = "2M"

    def _new_session(self) -> SacSession:
        if not self.capped:
            return super()._new_session()
        # adaptive=True is the default a session gives its own engine.
        engine = EngineContext(
            memory_limit=self.MEMORY_LIMIT, spill_store=InMemoryStore(),
            adaptive=True,
        )
        return SacSession(engine=engine, tile_size=self.TILE)

    def setup(self) -> None:
        self.capped = True
        self.digests: list[tuple[bool, str]] = []
        super().setup()
        self.warmup_steps = len(self.digests)

    def _oracle(self, p_in, q_in, p_out, q_out, clean) -> Optional[bool]:
        self.digests.append((clean, _digest(p_out, q_out)))
        return None

    def finish(self) -> int:
        """Replay every step uncapped; count the steps that differ."""
        capped = self.digests
        self.capped = False
        self.p_np, self.q_np = self.p0, self.q0
        self._open()
        failed = 0
        for index, (clean, digest) in enumerate(capped):
            state, _caught = self.op(None)
            p_out, q_out = self._advance(state)
            if index >= self.warmup_steps and not (
                clean and digest == _digest(p_out, q_out)
            ):
                failed += 1
        return failed


class ServeMix:
    """``QueryService`` behind ``ServeServer`` on loopback, driven over
    HTTP by one closed-loop client that takes turns as two tenants over
    shared 240x240 datasets.

    Each tenant's seeded mix is multiply 30%, scaled add with a fixed
    gamma 20%, scaled add with a fresh gamma 30% and row sums 20%: the
    repeated requests hit the shared plan caches and retained shuffles,
    the fresh-gamma requests miss the pass cache.  Checks are deferred
    so the client does nothing between requests.

    Two concurrent clients on the 2-core host the benchmark was built on
    measured the interpreter lock and the thread scheduler more than the
    service: their ops_per_s spread by 13% of the median over ten runs,
    against 3% for one client taking turns.
    """

    name = "serve-mix"
    clients: list[Optional[str]] = ["tenant-1", "tenant-2"]
    #: Each request goes from the client to the server's event loop and
    #: on to an executor thread, and back.
    crosses_threads = True
    N = 240
    TILE = 40
    FIXED_GAMMA = 0.5
    MIX = (("multiply", 0.3), ("add-fixed", 0.2), ("add-fresh", 0.3),
           ("row-sums", 0.2))

    def __init__(self, seed: int) -> None:
        sequence = np.random.SeedSequence(seed)
        data_seed, *client_seeds = sequence.spawn(1 + len(self.clients))
        rng = np.random.default_rng(data_seed)
        self.a = rng.uniform(0.0, 9.0, size=(self.N, self.N))
        self.b = rng.uniform(0.0, 9.0, size=(self.N, self.N))
        self.client_seeds = dict(zip(self.clients, client_seeds))
        self.service: Optional[QueryService] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def _request(self, kind: str, gamma: float) -> tuple[str, dict]:
        n = self.N
        if kind == "multiply":
            return MUL, {"n": n, "m": n}
        if kind == "row-sums":
            return ROW_SUMS, {"n": n}
        return SCALED_ADD, {"n": n, "m": n, "gamma": gamma}

    def setup(self) -> None:
        self.service = QueryService(tile_size=self.TILE)
        self.service.host("A", self.a)
        self.service.host("B", self.b)
        self.loop = asyncio.new_event_loop()
        # Daemon only so a failed set-up cannot hang the exit; close()
        # stops and joins it.
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="serve-loop", daemon=True
        )
        self.thread.start()
        self.server = ServeServer(self.service)
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result()
        self.submit = http_submit(self.server.host, self.server.port)
        self.rngs = {
            client: np.random.default_rng(seed)
            for client, seed in self.client_seeds.items()
        }
        self.records: dict[Optional[str], list] = {c: [] for c in self.clients}
        # The repeated kinds' answers, computed once and checked against
        # NumPy (``None`` fails every request of that kind).
        self.expected: dict[str, Optional[str]] = {}
        for kind in ("multiply", "add-fixed", "row-sums"):
            query, env = self._request(kind, self.FIXED_GAMMA)
            value = self.service.loader.run(
                query, {**self.service.datasets, **env}
            ).to_numpy()
            self.expected[kind] = (
                render_result(value)["digest"]
                if np.allclose(value, self._numpy(kind, self.FIXED_GAMMA))
                else None
            )
        # Warm-up through the front door: every kind once per tenant.
        for client in self.clients:
            for kind, _share in self.MIX:
                self.submit(client, *self._request(kind, self.FIXED_GAMMA))

    def _numpy(self, kind: str, gamma: float) -> np.ndarray:
        if kind == "multiply":
            return self.a @ self.b
        if kind == "row-sums":
            return self.a.sum(axis=1)
        return self.a + gamma * self.b

    def op(self, client: Optional[str]) -> tuple:
        rng = self.rngs[client]
        kind = self.MIX[int(rng.choice(len(self.MIX), p=[s for _k, s in self.MIX]))][0]
        gamma = (
            float(rng.uniform(0.1, 2.0)) if kind == "add-fresh"
            else self.FIXED_GAMMA
        )
        query, env = self._request(kind, gamma)
        return kind, gamma, self.submit(client, query, env)["digest"]

    def after(self, client: Optional[str], result: tuple) -> None:
        self.records[client].append(result)
        return None

    def finish(self) -> int:
        """Repeated requests must match the set-up digests; fresh-gamma
        requests must match NumPy's ``A + gamma * B`` byte for byte."""
        failed = 0
        for records in self.records.values():
            for kind, gamma, digest in records:
                if kind == "add-fresh":
                    want = render_result(self._numpy(kind, gamma))["digest"]
                else:
                    want = self.expected[kind]
                failed += digest != want
        return failed

    def shares(self) -> dict[str, float]:
        kinds = [k for records in self.records.values() for k, _g, _d in records]
        fresh = sum(kind == "add-fresh" for kind in kinds) / max(1, len(kinds))
        return {"serve.repeat_share": 1.0 - fresh, "serve.fresh_share": fresh}

    def registry(self) -> Any:
        return self.service.substrate.metrics

    def cache_stats(self) -> dict:
        return self.service.metrics_report()["plan_caches"]

    def close(self) -> None:
        if self.loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None
        self.service.close()


WORKLOADS = {
    cls.name: cls for cls in (MultiplyT25, Factorize, ServeMix, FactorizeSpill)
}


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3
