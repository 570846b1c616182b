"""Run the ebpolicy CLI as ``python -m ebpolicy.cli`` does and record its peak RSS.

Usage: cli_child.py RSS_PATH <cli args...>

A child's ru_maxrss also counts the memory of the process that spawned it
(exec records the high-water mark of the old address space), so the
benchmark's own arrays would leak into the figure. At exit this process
writes the VmHWM of its own address space, in KiB, to RSS_PATH instead.
"""

import atexit
import runpy
import sys


def _write_peak_rss(path):
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(path, "w", encoding="ascii") as out:
                    out.write(line.split()[1])
                return


rss_path = sys.argv.pop(1)
atexit.register(_write_peak_rss, rss_path)
runpy.run_module("ebpolicy.cli", run_name="__main__", alter_sys=True)
