"""Host speed probe: a fixed pure-Python loop, timed next to every measurement.

On a shared host the same code runs at different speeds from second to
second and from minute to minute: other tenants take caches, memory
bandwidth and clock speed.  The benchmark times this loop right next to
each measurement and scales the measurement to the speed at which the loop
takes REFERENCE_S, so that what is left is the program's own cost:

    scaled = measured * REFERENCE_S / loop_time()

The loop is integer arithmetic on small ints: it allocates nothing the
garbage collector tracks and touches almost no memory, so the program
under test cannot change its time except through the host.
"""

import time

LOOP_ITERATIONS = 100_000
# The loop's time at full speed on the reference host (2-vCPU x86_64 VM,
# Python 3.11.7): the fastest of several hundred probes taken there.
REFERENCE_S = 0.0065
REPEATS = 3


def loop_time():
    """Fastest of REPEATS timings of the loop, in seconds."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        x = 0
        for i in range(LOOP_ITERATIONS):
            x += i * i % 7
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def scale(seconds, loop_seconds):
    """`seconds` measured while the loop took `loop_seconds`, at reference speed."""
    return seconds * REFERENCE_S / loop_seconds
