"""Machine-speed calibration for timings taken on a shared machine.

On the 2-core machine this benchmark was built on, single-thread speed
drifts by up to ±35% over a few seconds, and by ~25% between runs made
minutes apart, because other tenants load the host. The drift comes in
regimes of roughly ten seconds, and it slows the program and any other
Python loop alike. So the benchmark runs a fixed kernel between ops that
are much shorter than a regime, and multiplies each such op's wall time
by REF_MS / (mean of the kernel runs on either side of it): the time it
would take on the machine in the state where the kernel takes REF_MS.

The kernel is an adaptive binary arithmetic-coding loop, like the
program's hot path, written out here so that it never changes with the
program.
"""

import time

REF_MS = 75.0  # the kernel's typical time on the build machine
_SYMBOLS = 40000


def _coder_loop(n):
    low, high, out = 0, 0xFFFFFFFF, 0
    freq, total = [1, 1, 1], 3
    x = 12345
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        s = 2 if (x >> 16) % 10 < 8 else (x >> 8) % 2
        cum = 0
        for k in range(s):
            cum += freq[k]
        span = high - low + 1
        high = low + (span * (cum + freq[s])) // total - 1
        low = low + (span * cum) // total
        while True:
            if ((low ^ high) & 0x80000000) == 0:
                out += 1
                low = (low << 1) & 0xFFFFFFFF
                high = ((high << 1) & 0xFFFFFFFF) | 1
            elif (low & ~high & 0x40000000) != 0:
                low = (low << 1) & 0x7FFFFFFF
                high = ((high << 1) & 0x7FFFFFFF) | 0x80000001
            else:
                break
        freq[s] += 32
        total += 32
        if freq[s] >= 65536:
            freq = [(f + 1) >> 1 for f in freq]
            total = sum(freq)
    return out


def kernel_ms():
    """Wall time of one run of the kernel, in ms."""
    t0 = time.perf_counter()
    _coder_loop(_SYMBOLS)
    return (time.perf_counter() - t0) * 1e3


def factor(before_ms, after_ms):
    """Scale for a time taken between two kernel runs."""
    return REF_MS / ((before_ms + after_ms) / 2)
