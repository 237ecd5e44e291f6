"""Hitting-probability metrics on directed graphs and Markov chains."""

import ctypes
import sys

__version__ = "0.1.0"

# Blocks of 16 MiB and up get their own mapping, unmapped when freed.  glibc's
# sliding threshold put n x n matrices near 30 MiB in the brk heap in some runs
# and not in others, and freed heap holes stay resident: peak memory at n = 2000
# moved by one matrix from run to run.
if sys.platform == "linux" and hasattr(ctypes.CDLL(None), "mallopt"):
    ctypes.CDLL(None).mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
