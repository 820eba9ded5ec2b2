"""One malloc policy for the whole package: keep freed heap pages.

The conv layers and scoring allocate and free the same large temporaries
over and over.  Left dynamic, glibc sets its mmap and trim thresholds from
the largest block freed so far, and whatever lies above them goes back to
the OS on free and is faulted in again on the next allocation.
`keep_freed_pages` pins both thresholds instead.
"""

from __future__ import annotations

import ctypes
import functools
import os

# glibc's mallopt parameters (malloc.h), and the values `keep_freed_pages`
# pins them at: the ceiling of glibc's own dynamic rule on 64-bit hosts.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def keep_freed_pages():
    """Pin glibc's malloc thresholds, once per process: blocks under 32 MiB
    come from the heap, and up to 64 MiB of freed heap stays with the
    process instead of going back to the OS.  Other C libraries are left
    alone.

    It is called where the heavy work starts: the first conv GEMM
    (`nn.layers._tap_gemms`) and every `verify.score_pairs`.  The pin is
    process-wide and one-way: from then on it holds for all code in the
    process until it exits, and glibc's dynamic rule, which raises both
    thresholds up to these same values as larger blocks are freed, cannot
    be switched back on.  So the process keeps the pages of its largest
    step, which its peak RSS counts anyway.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
