"""Host seconds scaled to the reference host speed.

The benchmark runs on a shared host whose speed moves in phases,
seconds to minutes long, by up to a third.  A fixed pure-Python loop
timed between pieces of work tells how fast the host runs right then;
each piece's time is scaled by it, so that two runs of the same code
read the same whatever phase each ran in.  A change that makes the
simulator faster makes its pieces shorter but not the loop, so the
scaled time falls by the same share as the raw time.
"""

from __future__ import annotations

import hashlib
import json
import time

#: Rounds of the dict-and-integer part of the loop.
CAL_ROUNDS = 30_000
#: Rounds of the JSON-and-digest part of the loop.
CAL_DOC_ROUNDS = 450
#: The calibration loop's median time on the reference host (Intel
#: Xeon, 2 vCPUs, CPython 3.11).  Scaled times are seconds on a host
#: that runs the loop this fast.
CAL_REF_S = 0.0210
#: Work between two calibrations, in seconds.
CAL_EVERY_S = 0.5

_DOC = {"utilization": 0.55, "ratios": {"a": 0.5, "b": 0.25, "c": 1.0},
        "digest": "ab" * 32, "items": list(range(20))}


def calibrate() -> float:
    """Seconds this process takes, right now, for a fixed amount of
    pure-Python work of the two kinds the workloads are made of: dict
    reads and writes with integer arithmetic (the co-simulator), and
    canonical JSON with SHA-256 digests (the campaign cache)."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(CAL_ROUNDS):
        key = i & 1023
        acc += table.get(key, 0) ^ (i * 7)
        table[key] = acc & 0xFFFF
    for _ in range(CAL_DOC_ROUNDS):
        text = json.dumps(_DOC, sort_keys=True, separators=(",", ":"))
        acc += len(hashlib.sha256(text.encode()).hexdigest())
        acc += len(json.loads(text)["items"])
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from host seconds to reference seconds for work timed
    between calibrations ``before`` and ``after``."""
    return CAL_REF_S * 2 / (before + after)


class HostClock:
    """Raw and scaled seconds of work, calibrated as it goes.

    Each piece of work is scaled by the mean of the calibrations on
    either side of it; calibration time itself is not counted.
    ``mark()`` closes a piece once ``CAL_EVERY_S`` of work has passed
    since the last calibration.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self.cal = self.first = calibrate()
        self.since = time.perf_counter()

    def mark(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self.since < CAL_EVERY_S:
            return
        cal = calibrate()
        self.raw += now - self.since
        self.scaled += (now - self.since) * scale(self.cal, cal)
        self.cal = cal
        self.since = time.perf_counter()

    def stop(self) -> tuple:
        """(raw, scaled) seconds of work up to now."""
        self.mark(force=True)
        return self.raw, self.scaled
