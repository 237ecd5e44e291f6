"""Importing hpmetric fixes glibc's mmap threshold: a buffer of 16 MiB or
more gets its own mapping whatever was freed before it, so peak memory does
not depend on the order of earlier allocations."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hpmetric

# In a fresh interpreter: free a 30 MiB mapping, which raises glibc's sliding
# threshold to 30 MiB unless it is fixed, then ask mallinfo2 whether a 20 MiB
# buffer allocated after it is mapped or carved from the brk heap.
PROBE = """
import ctypes, numpy as np, hpmetric
class MallInfo2(ctypes.Structure):
    _fields_ = [(k, ctypes.c_size_t) for k in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
big = np.ones((30 << 20) // 8)
del big
before = libc.mallinfo2().hblkhd
buf = np.ones((20 << 20) // 8)
print("mapped" if libc.mallinfo2().hblkhd - before >= buf.nbytes else "heap")
"""


@pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="mallinfo2 is glibc's")
def test_buffer_mapped_after_a_larger_one_is_freed():
    src = str(Path(hpmetric.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "mapped\n"
