"""A fixed reference computation that measures how fast the machine is
running right now.

A shared virtual machine changes speed by up to a factor of two within
seconds (host load, clock frequency), which no run length averages
away. The benchmark therefore times this reference, which never
changes, between every two requests and around every timed import,
and reports the program's CPU time scaled to a machine on which the
reference takes NOMINAL_S:

    scaled = cpu_s * NOMINAL_S / reference_cpu_s

The reference does what the program does most, scalar float math on
small objects, dict stores and repr formatting, so both slow down
together. It uses nothing of vdwsurf, so a change to the program cannot
move it, and it imports only built-in modules, so timing it before
`import vdwsurf` loads nothing that import would have to load.
"""

import math
import time

# CPU seconds of one reference_work() on an Intel Xeon at 2.1 GHz in
# its usual state; the scaled times read as CPU seconds on that machine.
NOMINAL_S = 0.004
_ITERATIONS = 1000


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x, self.y, self.z = x, y, z


def reference_work() -> str:
    acc = 0.0
    table = {}
    text = ""
    for i in range(_ITERATIONS):
        p = _Point(i * 1e-3, 0.5, 1.0 + i * 1e-4)
        r = math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z)
        acc += 1.0 / (4.0 * math.pi * r) + math.cos(p.x) * math.exp(-p.z)
        table[i & 63] = acc
        text = f"{acc!r},{r!r}"
    return text


def scaled(cpu_s: float, ref_s: float) -> float:
    """cpu_s on a machine where reference_work() takes NOMINAL_S, given
    that it took ref_s here and now."""
    return cpu_s * NOMINAL_S / ref_s


def reference_cpu_s() -> float:
    """CPU seconds of one reference_work() in this process."""
    start = time.process_time()
    reference_work()
    return time.process_time() - start
