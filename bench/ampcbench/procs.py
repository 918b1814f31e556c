"""Process hygiene: subprocesses in their own groups, stopped for certain.

Every ``python -m repro`` subprocess the benchmark starts (``serve``,
``dht-server``) gets its own session/process group, so that a stuck
server — or workers it forked — can be killed as a group.  Stopping is
graceful first (a caller-supplied hook such as the ``shutdown`` op, or
SIGTERM), then ``killpg`` after a grace period.  :func:`leaks` is the
end-of-run audit: it names every process group and ``/dev/shm/psm_*``
segment this run created that is still there.

Two kinds of process would otherwise outlive a run.  ``multiprocessing``
starts a *resource tracker* process the first time a process touches
shared memory, and that tracker ends only after its owner has: one
started by a forked procpool worker is orphaned when the worker ends,
and the harness's own is still there when the harness exits.
:func:`own_every_descendant` therefore starts the one tracker before
anything forks (a forked worker inherits it instead of starting its
own) and makes this process the reaper of whatever a child leaves
behind; :func:`stop_descendants`, on every path out, kills and reaps
what is left and then ends the tracker and waits for it.
"""

from __future__ import annotations

import collections
import ctypes
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from multiprocessing import resource_tracker
from typing import Callable, List, Optional, Set, Tuple

from ampcbench import SRC

#: seconds a subprocess gets to print its "listening on host:port" line
READY_TIMEOUT_S = 30.0
#: seconds between the graceful stop and killpg
GRACE_S = 5.0

_ADDRESS = re.compile(r"(\S+):(\d+)\s*$")
_SHM_DIR = Path("/dev/shm")

#: every process group this run started, for the end-of-run audit
_STARTED_GROUPS: List[Tuple[str, int]] = []


def repro_env() -> dict:
    """This process's environment with ``src/`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ReproProcess:
    """One ``python -m repro ...`` subprocess in its own process group."""

    def __init__(self, label: str, args: List[str]):
        self.label = label
        self.popen = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=repro_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        self.pgid = self.popen.pid  # start_new_session: pid == pgid
        _STARTED_GROUPS.append((label, self.pgid))
        #: the tail of stderr, for error reports
        self.stderr_tail: "collections.deque[str]" = collections.deque(
            maxlen=50)
        self._ready = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        # The pipe must keep draining after the ready line, or a chatty
        # server would block on a full pipe.
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True,
                                       name=f"bench-stderr-{label}")
        self._drain.start()

    def _drain_stderr(self) -> None:
        for line in self.popen.stderr:
            self.stderr_tail.append(line.rstrip("\n"))
            if self.address is None:
                match = _ADDRESS.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._ready.set()
        self._ready.set()  # EOF: wake a waiter so it can report the exit

    def wait_ready(self) -> Tuple[str, int]:
        """Block until the ``... on host:port`` line; -> (host, port)."""
        self._ready.wait(READY_TIMEOUT_S)
        if self.address is None:
            self.stop()
            raise RuntimeError(
                f"{self.label} never announced its address; stderr: "
                + " | ".join(self.stderr_tail))
        return self.address

    def stop(self, graceful: Optional[Callable[[], None]] = None) -> None:
        """Stop the process and everything in its group; always reaps it.

        ``graceful`` (e.g. sending the ``shutdown`` op) is tried first;
        without one, or when it raises, SIGTERM is sent.  Whatever is
        left in the group after the grace period gets SIGKILL.
        """
        if self.popen.poll() is None:
            asked = False
            if graceful is not None:
                try:
                    graceful()
                    asked = True
                except Exception:  # noqa: BLE001 - fall back to SIGTERM
                    asked = False
            if not asked:
                self.popen.terminate()
            try:
                self.popen.wait(GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        if group_alive(self.pgid):
            # the leader may be gone while forked workers linger
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.popen.wait()
        self._drain.join(2.0)
        self.popen.stderr.close()
        deadline = time.monotonic() + GRACE_S
        while group_alive(self.pgid) and time.monotonic() < deadline:
            time.sleep(0.01)


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def shm_segments() -> Set[str]:
    """Names of the POSIX shared-memory segments Python creates."""
    if not _SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in _SHM_DIR.glob("psm_*")}


def _mapped_somewhere(segment: str) -> bool:
    """Whether any live process still maps ``/dev/shm/<segment>``.

    A segment another benchmark run is using right now is not this
    run's leak; an unmapped one that appeared during this run is.
    """
    needle = f"/dev/shm/{segment}"
    for maps in Path("/proc").glob("[0-9]*/maps"):
        try:
            if needle in maps.read_text():
                return True
        except OSError:
            continue
    return False


_PR_SET_CHILD_SUBREAPER = 36


def own_every_descendant() -> None:
    """Call before anything forks: one resource tracker for the whole
    process tree, and orphaned descendants are re-parented to this
    process (where :func:`stop_descendants` finds them), not to init."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as they always did
    resource_tracker.ensure_running()


def _children() -> List[Tuple[int, str]]:
    """(pid, name) of every child of this process, adopted ones too."""
    me, found = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # ended while we were looking
        # pid (name) state ppid ...; the name may hold spaces and brackets
        name = text[text.index("(") + 1:text.rindex(")")]
        if int(text[text.rindex(")") + 2:].split()[1]) == me:
            found.append((int(stat.parent.name), name))
    return found


def stop_descendants(grace_s: float = 2.0) -> List[str]:
    """Every path out of a run ends here: no process of the run is left
    when this returns.  -> the children that had to be killed.

    Children first, the resource tracker last: it ends when the last
    copy of its pipe closes, and a worker still alive would hold one.
    A child that ends within ``grace_s`` (an orphan on its way out) is
    reaped and is no leak.
    """
    tracker = resource_tracker._resource_tracker
    killed = []
    deadline = time.monotonic() + grace_s
    while True:
        running = []
        for pid, name in _children():
            if pid == tracker._pid:
                continue
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    running.append((pid, name))
            except ChildProcessError:
                pass  # reaped by its owner meanwhile
        if not running:
            break
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for pid, name in running:
            killed.append(f"process {pid} ({name}) was still running")
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    # closes the pipe and waits: the tracker unlinks what is still
    # registered, then exits
    tracker._stop()
    return killed


def leaks(shm_before: Set[str]) -> List[str]:
    """What this run left behind, after its deployments were torn down:
    process groups, children (killed here), segments."""
    found = [f"process group {pgid} ({label}) is still alive"
             for label, pgid in _STARTED_GROUPS if group_alive(pgid)]
    found += stop_descendants()
    found += [f"shared-memory segment /dev/shm/{name} was left behind"
              for name in sorted(shm_segments() - shm_before)
              if not _mapped_somewhere(name)]
    return found


def peak_rss_mib() -> float:
    """Largest resident set of this process and its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB
