"""Host speed: a fixed reference kernel, timed beside the ops.

The benchmark's host shares its cores with other machines' work, and the
speed of one unchanged instruction stream moves with that load.  On the
2-core host the benchmark was built on, ``multiply-t25`` ran 52 to 92 ms
per op in 10-second windows of one process, in CPU time as much as in
wall time, and from one set of runs to the next an hour later its
median op moved by 57%.  No estimator over the ops alone holds a 25%
regression bound against that.  A kernel that runs no code of the
program, timed between the ops, slows down with them.

Every timed end-to-end metric is therefore reported at the reference
speed: a measured time ``t`` is reported as
``t * reference seconds / kernel seconds measured beside it``.  On a
host as fast as the reference, the figures are the measured ones; the
measured (raw) figures and the kernel's time are printed on the
information line of every run.

The kernel mirrors the kind of work in the op:

* the compute part, in every kernel: tuple-keyed dictionary grouping of
  small NumPy rows with a NumPy reduction per group, then one pass over
  a 16 MB buffer.  The grouping alone tracked ``multiply-t25`` but
  overcorrected ``factorize-gd``, whose garbage-collector pauses are
  bound by memory rather than by the interpreter; with the memory pass
  both moved with it.
* the hand-off part, for a workload whose op crosses threads (an HTTP
  request to the serve front door): 300 one-byte round trips over a
  socket pair to an echo thread.  ``serve-mix`` moved with the host's
  thread wake-ups more than with its compute speed; with this part its
  windows spread half as much as with the compute part alone.

The collector is off while the kernel runs, so the kernel's time never
depends on the size of the program's heap.
"""

from __future__ import annotations

import gc
import socket
import threading
import time

import numpy as np

#: Each part's time on the reference host (about its median on the
#: 2-core host the benchmark was built on).
COMPUTE_REFERENCE_SECONDS = 0.004
HANDOFF_REFERENCE_SECONDS = 0.005
#: Kernel runs per measurement; the measurement is their median.
REPEATS = 3
HANDOFF_ROUND_TRIPS = 300

_ROWS = np.arange(625.0).reshape(25, 25) / 625.0
_STREAM = np.linspace(0.0, 1.0, 2_000_000)
#: Resident size of the kernel's buffer, which the worker leaves out of
#: its peak memory.
STREAM_MB = _STREAM.nbytes / 2**20


def compute_kernel() -> float:
    """Fixed work: group 1,500 rows under 256 tuple keys, reduce each
    group, then sum the 16 MB buffer."""
    groups: dict[tuple[int, int], list[np.ndarray]] = {}
    for i in range(1500):
        key = (i % 16, (i // 16) % 16)
        groups.setdefault(key, []).append(_ROWS[i % 25])
    total = 0.0
    for rows in groups.values():
        total += float(np.add.reduce(np.stack(rows), axis=0)[0])
    return total + float(_STREAM.sum())


class HostSpeed:
    """The kernel for one workload; ``handoffs`` adds the hand-off part.

    :meth:`close` stops the echo thread and waits for it.
    """

    def __init__(self, handoffs: bool = False) -> None:
        self.reference = COMPUTE_REFERENCE_SECONDS
        self._pair: tuple[socket.socket, socket.socket] | None = None
        self._echo: threading.Thread | None = None
        if handoffs:
            self.reference += HANDOFF_REFERENCE_SECONDS
            self._pair = socket.socketpair()
            self._echo = threading.Thread(
                target=self._serve_echo, name="host-speed-echo", daemon=True
            )
            self._echo.start()

    def _serve_echo(self) -> None:
        peer = self._pair[1]
        while data := peer.recv(64):
            peer.sendall(data)

    def kernel(self) -> None:
        compute_kernel()
        if self._pair is not None:
            ours = self._pair[0]
            for _ in range(HANDOFF_ROUND_TRIPS):
                ours.sendall(b"x")
                ours.recv(64)

    def measure(self) -> float:
        """Seconds the kernel takes now: the median of :data:`REPEATS` runs."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                self.kernel()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return sorted(times)[len(times) // 2]

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a time measured between two kernel
        measurements to the reference speed."""
        return self.reference / ((before + after) / 2)

    def close(self) -> None:
        if self._pair is None:
            return
        ours, peer = self._pair
        ours.shutdown(socket.SHUT_WR)
        self._echo.join()
        ours.close()
        peer.close()
        self._pair = None
