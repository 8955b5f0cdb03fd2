"""Run the ``adapterqa`` command line in one child process under a memory cap.

``run_cli_limited`` starts ``python -W error -m adapterqa`` once, so that a
warning fails the run as it fails an in-process test, with the child's
address space (``RLIMIT_AS``) capped at ``max_bytes`` or at the limit the
test process already has, whichever is lower, so that a request for more
memory than the cap fails inside the child instead of taking memory from
the machine. The child is killed after ``timeout`` seconds.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_cli_limited(argv: list[str], max_bytes: int,
                    timeout: float = 60.0) -> subprocess.CompletedProcess:
    """``python -W error -m adapterqa *argv`` in one child process whose
    address space is capped at ``max_bytes`` (never raised); text output
    captured."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = max_bytes if hard == resource.RLIM_INFINITY else min(max_bytes, hard)

    def limit():  # runs in the child, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    # One BLAS thread: each thread reserves address space for its buffers.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-W", "error", "-m", "adapterqa", *argv],
                          capture_output=True, text=True, env=env, cwd=str(ROOT),
                          preexec_fn=limit, timeout=timeout)
