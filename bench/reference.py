"""Fixed reference task timed between the benchmark's CLI invocations.

It starts an interpreter, imports the program's dependencies (numpy and
PyYAML) and runs a per-site-style loop of float math and 12-digit
formatting, the same mix of work the CLI does. It never changes and
never imports the program, so the CLI's time divided by the reference
time measured next to it moves only when the program changes, while the
host's speed, which drifts by tens of percent over minutes, cancels.
"""

import math

import numpy  # noqa: F401
import yaml  # noqa: F401

rows = []
for i in range(20000):
    x = (i % 283) * 0.25 - 35.0
    theta = math.atan2(math.hypot(417.8 - x, 0.0), 497.9)
    rows.append(
        ",".join(format(v, ".12g") for v in (x, math.degrees(theta), math.cos(theta) ** 2 * 25.0))
    )
