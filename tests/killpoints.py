"""Kill a desk training run just before one of its file operations, resume
it, and compare the result with an uninterrupted run's.

A forked child runs ``train`` with its file operations wrapped: ``open`` in
a write mode, ``os.replace``, ``os.rename``, ``os.unlink``, ``os.remove``,
``os.mkdir`` and ``shutil.rmtree`` (the unlinks an ``rmtree`` makes count
too).  It calls ``os._exit`` just before its k-th operation, counted from 1,
so no ``finally`` clause runs and no buffer is flushed, as under SIGKILL.
A second fork runs ``train --resume``.  The resumed output directory must
hold the uninterrupted run's files, each one outside ``snapshots/`` equal
(``.npz`` files by their arrays), and no staged or retired copy: no
``*.tmp``, ``<run>.part``, ``<run>.old``, ``snapshots.new`` or
``snapshots.old``.

A site is an operation with its path.  In mode ``fresh`` the killed train
starts in an empty output directory; in mode ``retrain`` it trains over a
complete run of the same spec.

The full sweep kills a 4-episode run at every k; from the repository root:

    PYTHONPATH=src python tests/killpoints.py [fresh] [retrain]
"""

import builtins
import contextlib
import functools
import io
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from sixdma_isac import harness

KILLED = 9
_WRITE_MODES = set("wax+")
_LEFTOVER_SUFFIXES = (".tmp", ".part", ".old", ".new")


def train_args(out: Path, episodes: int) -> list[str]:
    return ["train", "--preset", "desk", "--scheme", "1", "--seeds", "0", "--episodes", str(episodes),
            "--snapshot-interval", "1", "--episode-logs", "--out", str(out)]


class _Probe:
    """Records the site of each file operation and calls ``os._exit(KILLED)``
    just before operation ``kill_at``."""

    def __init__(self, root: Path, kill_at: int | None):
        self.root, self.kill_at, self.sites = os.fspath(root), kill_at, []

    def _site(self, path, dir_fd=None) -> str:
        path = os.fspath(path)
        if dir_fd is not None:  # rmtree unlinks by name within an open directory
            path = os.path.join(os.readlink(f"/proc/self/fd/{dir_fd}"), path)
        return os.path.relpath(path, self.root)

    def _before(self, site: str) -> None:
        self.sites.append(site)
        if len(self.sites) == self.kill_at:
            os._exit(KILLED)

    def install(self) -> None:
        real_open = builtins.open

        def probed_open(file, mode="r", *args, **kwargs):
            if _WRITE_MODES & set(mode):
                self._before(f"open {self._site(file)}")
            return real_open(file, mode, *args, **kwargs)

        builtins.open = io.open = probed_open  # pathlib and zipfile open through io.open
        for module, name in ((os, "replace"), (os, "rename"), (os, "unlink"), (os, "remove"), (os, "mkdir"),
                             (shutil, "rmtree")):
            def probed(path, *args, _name=name, _real=getattr(module, name), **kwargs):
                target = f" -> {self._site(args[0])}" if _name in ("replace", "rename") else ""
                self._before(f"{_name} {self._site(path, kwargs.get('dir_fd'))}{target}")
                return _real(path, *args, **kwargs)

            setattr(module, name, probed)


def _fork(argv: list[str], root: Path, kill_at: int | None = None) -> tuple[int, list[str]]:
    """Run ``harness.main(argv)`` in a forked child under the probe; returns
    its exit status (KILLED when the probe killed it) and the sites of the
    file operations it made (none when killed)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child leaves only through os._exit: no handler of the parent runs in it
        status = 70
        try:
            os.close(read_end)
            sys.stdout = open(os.devnull, "w")
            probe = _Probe(root, kill_at)
            probe.install()
            status = harness.main(argv)
            os.write(write_end, "\n".join(probe.sites).encode())
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    chunks = []
    while chunk := os.read(read_end, 1 << 16):
        chunks.append(chunk)
    os.close(read_end)
    _, wait_status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(wait_status), b"".join(chunks).decode().splitlines()


def run_files(root: Path) -> dict:
    """Every file under ``root`` outside ``snapshots/``, by relative path:
    the bytes, or an ``.npz`` file's arrays as (name, dtype, shape, bytes)."""
    files = {}
    for path in sorted(root.rglob("*")):
        relative = path.relative_to(root)
        if path.is_dir() or "snapshots" in relative.parts:
            continue
        if path.suffix == ".npz":
            with np.load(path) as arrays:
                files[relative] = [(key, arrays[key].dtype.str, arrays[key].shape, arrays[key].tobytes())
                                   for key in sorted(arrays.files)]
        else:
            files[relative] = path.read_bytes()
    return files


def compare(root: Path, reference: dict) -> str | None:
    """What keeps ``root`` from matching the uninterrupted run's files, or None."""
    leftovers = sorted(str(path.relative_to(root)) for path in root.rglob("*")
                       if path.name.endswith(_LEFTOVER_SUFFIXES))
    if leftovers:
        return f"left over: {', '.join(leftovers)}"
    files = run_files(root)
    differing = sorted(str(name) for name in files.keys() | reference.keys()
                       if files.get(name) != reference.get(name))
    return f"differs from the uninterrupted run: {', '.join(differing)}" if differing else None


class KillSweep:
    """The kill points of one mode, each killed and resumed in its own
    directory under ``workdir``."""

    def __init__(self, workdir, mode: str, episodes: int):
        if mode not in ("fresh", "retrain"):
            raise ValueError(f"unknown mode {mode!r}")
        self.workdir, self.mode = Path(workdir), mode
        self.args = functools.partial(train_args, episodes=episodes)
        self.reference_dir = self.workdir / "reference"
        with contextlib.redirect_stdout(io.StringIO()):  # in this process: its children fork warm
            status = harness.main(self.args(self.reference_dir))
        if status != 0:
            raise RuntimeError(f"the uninterrupted run exited {status}")
        self.reference = run_files(self.reference_dir)
        out = self._start("probe")
        status, self.sites = _fork(self.args(out), out)
        if status != 0 or compare(out, self.reference) is not None:
            raise RuntimeError(f"the probed {mode} run exited {status} or differs from the uninterrupted one")
        shutil.rmtree(out)

    def _start(self, name: str) -> Path:
        out = self.workdir / name
        if self.mode == "retrain":
            shutil.copytree(self.reference_dir, out)
        return out

    def kill(self, k: int) -> str | None:
        """Kill the run just before operation ``k`` and resume it; what is
        wrong with the result, or None."""
        out = self._start(f"k{k}")
        status, _ = _fork(self.args(out), out, kill_at=k)
        if status != KILLED:
            return f"the killed train exited {status}"
        status, _ = _fork([*self.args(out), "--resume"], out)
        problem = f"the resume exited {status}" if status else compare(out, self.reference)
        shutil.rmtree(out)
        return problem

    def tier1_points(self) -> list[int]:
        """The first k of each site, and the k just after the first snapshot
        is swapped in (its site's first k is the stale-copy removal before it)."""
        first: dict[str, int] = {}
        for k, site in enumerate(self.sites, start=1):
            first.setdefault(site, k)
        swapped = next(k for k, site in enumerate(self.sites, start=1)
                       if site.startswith("rename") and site.endswith("/snapshots"))
        return sorted({*first.values(), swapped + 1})

    def run(self, points) -> dict[int, str]:
        """The failing kill points among ``points``, with their site and problem."""
        failures = {}
        for k in points:
            problem = self.kill(k)
            if problem is not None:
                failures[k] = f"{self.sites[k - 1]}: {problem}"
        return failures


def main(modes) -> int:
    failed = 0
    for mode in modes or ("fresh", "retrain"):
        with tempfile.TemporaryDirectory() as workdir:
            sweep = KillSweep(workdir, mode, episodes=4)
            print(f"{mode}: {len(sweep.sites)} file operations over {len(set(sweep.sites))} sites", flush=True)
            failures = sweep.run(range(1, len(sweep.sites) + 1))
            for k, problem in failures.items():
                print(f"  k={k} {problem}")
            print(f"{mode}: {len(failures)} of {len(sweep.sites)} kill points fail", flush=True)
            failed += len(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
