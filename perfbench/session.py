"""The benchmark's Ray session and what it reads about it from ``/proc``.

One process drives a local Ray session of a fixed size. CPU time is summed
over the driver and every process it started (including children they
reaped); worker memory is the RssAnon of processes whose command line Ray
renamed to ``ray::...``. Stopping the session waits until every process it
started has ended.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time

# Ray places its sockets under <temp_dir>/session_<stamp>_<pid>/sockets/;
# AF_UNIX paths are limited to 107 bytes.
_SOCKET_SUFFIX = 70
_AF_UNIX_MAX = 107
_TICK = os.sysconf("SC_CLK_TCK")


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return None


def _stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 onward)."""
    s = _read(f"/proc/{pid}/stat")
    return s[s.rindex(")") + 2 :].split() if s else None


def process_age_s() -> float:
    """Seconds since this process started, at clock-tick resolution."""
    start = int(_stat(os.getpid())[19]) / _TICK
    return float(_read("/proc/uptime").split()[0]) - start


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st:
                children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int, start: str) -> bool:
    st = _stat(pid)
    return st is not None and st[19] == start and st[0] != "Z"


class Session:
    """A local Ray session of ``num_cpus`` CPUs whose temporary files live
    under ``root`` when the socket paths fit, else in a private directory
    under the system temp dir that ``stop`` removes."""

    def __init__(self, root: str, num_cpus: int, object_store_mb: int):
        self.num_cpus = num_cpus
        self.object_store_mb = object_store_mb
        self.temp_dir = os.path.join(root, ".rt")
        self._own_temp = len(self.temp_dir) + _SOCKET_SUFFIX > _AF_UNIX_MAX
        self.pid = os.getpid()
        self._started: dict[int, str] = {}

    def start(self) -> None:
        import ray

        if self._own_temp:
            self.temp_dir = tempfile.mkdtemp(prefix="pb-")
        else:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=self.object_store_mb << 20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.temp_dir,
        )
        import logging

        from ray.data import DataContext

        logging.getLogger("ray").setLevel(logging.WARNING)

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def cpu_s(self) -> float:
        """CPU seconds used so far by the driver and its descendants."""
        ticks = 0
        for pid in [self.pid, *descendants(self.pid)]:
            st = _stat(pid)
            if st:
                ticks += sum(int(x) for x in st[11:15])
        return ticks / _TICK

    def workers(self) -> list[int]:
        """Pids of the live Ray workers (command line renamed to ray::...)."""
        return [
            p for p in descendants(self.pid)
            if (_read(f"/proc/{p}/cmdline") or "").startswith("ray::")
        ]

    def stop(self, timeout_s: float = 20.0) -> None:
        """Shut Ray down and wait until every process it started has ended,
        killing what is still running after ``timeout_s``."""
        for pid in descendants(self.pid):
            st = _stat(pid)
            if st:
                self._started[pid] = st[19]
        try:
            import ray

            ray.shutdown()
        finally:
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                live = [p for p, s in self._started.items() if _alive(p, s)]
                if not live:
                    break
                time.sleep(0.1)
            else:
                for p, s in self._started.items():
                    if _alive(p, s):
                        try:
                            os.kill(p, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                while any(_alive(p, s) for p, s in self._started.items()):
                    time.sleep(0.05)
            if self._own_temp:
                shutil.rmtree(self.temp_dir, ignore_errors=True)


def rss_anon_mb(pid: int) -> float:
    for line in (_read(f"/proc/{pid}/status") or "").splitlines():
        if line.startswith("RssAnon:"):
            return int(line.split()[1]) / 1024
    return 0.0


class PeakSampler:
    """Samples the RssAnon of every Ray worker every ``period_s`` on a
    thread while active (the worker list is refreshed every tenth sample);
    ``peak_mb`` is the largest value seen."""

    def __init__(self, session: Session, period_s: float = 0.05):
        self.session = session
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "PeakSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        n = 0
        pids: list[int] = []
        while True:
            if n % 10 == 0:
                pids = self.session.workers()
            n += 1
            for p in pids:
                self.peak_mb = max(self.peak_mb, rss_anon_mb(p))
            if self._stop.wait(self.period_s):
                return
