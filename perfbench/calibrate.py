"""Host-speed calibration: a fixed pure-Python unit of work, timed
between the program's operations.

On a shared host the CPU's speed drifts: a plain CPU loop runs 1.1-1.7x
faster or slower from one minute to the next while its CPU time still
tracks its wall time, so nothing is stolen; the cycles are slower.
Every time the benchmark reports is therefore scaled to a reference
host speed::

    reported = measured * REFERENCE_UNIT_S / (mean unit time nearby)

The unit is the benchmark's own code, so a change to the program cannot
move it.  It does what the program spends its time on (tuple rows,
dict indexes, sorting, canonical JSON of record dicts, frozensets), with
the garbage collector paused so that a collection of the program's heap
is never charged to it.  Units run in the program's gaps only: between
library ``cite`` calls, between warm-up requests, and while no request
of the open loop is in flight or due.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

# The unit's time on a reference host; scaled times read as if measured
# on a host that runs one unit in this many seconds.
REFERENCE_UNIT_S = 0.0015


def _unit() -> int:
    rows = [(f"F{i}", f"name{i % 31}", i % 8, i) for i in range(300)]
    index: dict[tuple[int, str], list[tuple[str, str, int, int]]] = {}
    for row in rows:
        index.setdefault((row[2], row[1]), []).append(row)
    records = [{"ID": row[0], "Name": row[1], "Type": row[2]}
               for row in rows]
    text = json.dumps(records, sort_keys=True)
    seen = {frozenset(record.items()) for record in records}
    ordered = sorted(rows, key=lambda row: (row[1], -row[3]))
    return len(text) + len(seen) + len(ordered) + len(index)


def scale_for(units: list[float]) -> float:
    """Reference over the mean of a window's unit times: the factor that
    scales the window's measured times to the reference host speed."""
    if not units:
        raise ValueError("a calibration window ran no units")
    return REFERENCE_UNIT_S / (sum(units) / len(units))


class Calibration:
    """Unit times, grouped into windows of the run."""

    def __init__(self) -> None:
        self.window: list[float] = []
        self.all: list[float] = []

    def sample(self) -> float:
        """Run one unit; returns the seconds it took."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            _unit()
            took = perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.window.append(took)
        self.all.append(took)
        return took

    def close_window(self) -> float:
        """The scale factor for the window that ends now."""
        units, self.window = self.window, []
        return scale_for(units)

def describe(calibration: Calibration) -> str:
    units = sorted(calibration.all)
    middle = units[len(units) // 2] if units else float("nan")
    return (f"calibration: {len(units)} units, median "
            f"{middle * 1000.0:.3f} ms (reference "
            f"{REFERENCE_UNIT_S * 1000.0:.3f} ms)")
