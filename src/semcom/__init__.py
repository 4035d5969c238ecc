"""Desk-scale generative semantic communication simulator.

Importing the package sets the C allocator's policy once, on glibc only, so
that freed heap memory stays in the process and is reused. By default glibc
serves every block above a dynamic threshold with its own mmap, unmaps it on
free, and trims the top of the heap as soon as enough of it is free. A
training step, a guided sampling step or a channel sweep frees megabytes of
numpy temporaries that the next step asks for again, so under that default
every step faults thousands of pages back in. The policy lifts the mmap
threshold to glibc's 64-bit ceiling of 32 MiB, above every per-step
temporary of the desk model, and the trim threshold to 1 GiB. Setting either
turns glibc's dynamic threshold off, so both are set. Only block addresses
change, never a value. Other C libraries have no `mallopt` with these
parameters, so there the policy is skipped.
"""
import ctypes
import platform

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Set glibc's mmap and trim thresholds; return what each `mallopt` call returned."""
    if platform.libc_ver()[0] != "glibc":
        return ()
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 1 << 30))


MALLOPT_RESULTS = _keep_freed_memory()
