"""The machine's current speed, from two short probes that use no char2spec code.

On the shared 2-core VM where this benchmark was defined, the same work
took 1.0x to 1.8x its fastest time, in phases that last from seconds to
minutes (measured with the interpreter loop below, and with the
workloads' own rounds).  A run that falls into a slow phase would read as
a regression of the program.  So the runner times these probes between
ops and divides each op's time by the machine's slowdown at that moment.

The probes are fixed code, not the library's, so a change to char2spec
cannot move them: a slower program still reads slower.  One probe runs
interpreted Python (dict lookups and integer arithmetic, like the scalar
field code), the other numpy fancy indexing and an XOR reduction (like
the batch kernels); each gives a slowdown, its time over its reference
time.  Interpreted code and numpy kernels slow down by
different amounts (in slow phases the interpreter probe ran up to 1.6x,
the numpy probe up to 1.4x), so each op is scaled by the probe that
matches where its time goes.
"""

from __future__ import annotations

import time

import numpy as np

# Probe times, in seconds, on the reference machine state (the fast phase
# of the machine described above); they only fix the unit.
PY_REF_S = 0.75e-3
NP_REF_S = 1.42e-3


class Speed:
    def __init__(self):
        rng = np.random.default_rng(20240611)
        self._table = rng.integers(0, 256, (256, 256), dtype=np.uint8)
        self._a = rng.integers(0, 256, (1 << 15, 4), dtype=np.uint8)
        self._b = rng.integers(0, 256, (1 << 15, 4), dtype=np.uint8)
        self._codes = {i: (i * 7) & 255 for i in range(256)}

    def _py_probe(self) -> int:
        codes = self._codes
        s = 0
        for i in range(6000):
            s ^= codes[(i ^ s) & 255] + (i >> 2)
        return s

    def _np_probe(self) -> None:
        np.bitwise_xor.reduce(self._table[self._a, self._b], axis=1)

    def slowdown(self) -> tuple[float, float]:
        """Current time per unit of work relative to the reference state:
        (interpreted code, numpy kernels)."""
        t0 = time.perf_counter()
        self._py_probe()
        t1 = time.perf_counter()
        self._np_probe()
        t2 = time.perf_counter()
        return (t1 - t0) / PY_REF_S, (t2 - t1) / NP_REF_S
