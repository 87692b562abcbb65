"""The CPUs this process may run on."""

import os


def usable_cpus() -> int:
    """CPUs of this process's affinity mask; 1 where there is no mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
