"""Helpers shared by perfbench/run.py and its child processes."""

import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Everything a run writes lives under here and is removed afterwards,
#: except the span files of traced runs (``out/``).
WORK_DIR = ROOT / ".perfbench"

#: Worker slots and client connections: the 2 cores of the reference
#: host, so the pool and the load fill the machine without queueing
#: on cores.
WORKERS = 2

#: Environment variables that change what the program does; every
#: benchmark process and server runs with them unset.
ISOLATED_VARS = ("REPRO_FAULTS", "SIM_DEBUG")

#: A latency percentile that lands on a failed operation reads this.
FAILED_MS = 1e9


def require_program() -> None:
    """Exit 2 unless the checkout holds the program and its reference."""
    missing = [p for p in ("src/repro/__init__.py",
                           "results/reference.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; run "
              f"from the root of a full checkout", file=sys.stderr)
        sys.exit(2)


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK_DIR / "tmp")
    return env


def isolate_self() -> None:
    """Apply the isolation rules to this process before importing repro."""
    for name in ISOLATED_VARS:
        os.environ.pop(name, None)
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def fresh_dir(prefix: str) -> str:
    """A new empty directory inside the checkout's work area."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; ``inf`` entries are failed operations."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_rss_kib() -> int:
    """Max-RSS of this process so far (KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb(extra_kib: int) -> float:
    """Largest max-RSS of the waited descendants and ``extra_kib``
    (this process's own reading at the end of timing), in MiB."""
    return max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
               extra_kib) / 1024.0


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) pids in a process group, from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid pgrp.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process (KiB), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be waited for.

    A server's pool workers outlive a killed server; as a subreaper
    this process becomes their parent and reaps them.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        PR_SET_CHILD_SUBREAPER = 36
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_group(proc, grace: float = 10.0) -> None:
    """End the process group ``proc`` leads and wait for every member.

    A member still alive gets SIGTERM, then SIGKILL after ``grace``
    seconds.  The caller must have started ``proc`` in a new session.
    """
    pgid = proc.pid
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + (grace if sig else 0.0)
        while True:
            if proc.poll() is not None:
                reap_children()
                if not group_members(pgid):
                    return
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)
    raise RuntimeError(f"process group {pgid} survived SIGKILL")


def run_group(cmd: List[str], timeout: float) -> Tuple[int, bytes]:
    """Run a command in its own session; returns (status, stdout).

    Whatever the command leaves behind in its process group is ended
    too, also when it times out.
    """
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                            stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        out, _ = proc.communicate()
    stop_group(proc)
    return proc.returncode, out


def reap_children() -> None:
    """Wait for every exited child, including adopted orphans."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
