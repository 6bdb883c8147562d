#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload mixed-put-get --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the cluster's data directory all live
under .bench_build/ in the current directory, and the Go toolchain is
kept off the network. The build's own diagnostics go to stderr, so the
last line of stdout is the benchmark's JSON result.

The data directory is a tmpfs mounted in a mount namespace of this
process's own: block files and the WAL stay in memory, every fsync is
still issued, and the mount is gone when the benchmark exits. Where a
private mount is not permitted the data stays on the checkout's
filesystem, and the benchmark says so.
"""
import ctypes
import ctypes.util
import os
import subprocess
import sys

CLONE_NEWNS = 0x00020000
MS_REC = 0x4000
MS_PRIVATE = 1 << 18


def private_tmpfs(path):
    """Mount a tmpfs at path, visible to this process and its children only."""
    libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6", use_errno=True)
    if libc.unshare(CLONE_NEWNS) != 0:
        return False
    # Keep the new mount out of the parent namespace.
    if libc.mount(b"none", b"/", None, MS_REC | MS_PRIVATE, None) != 0:
        return False
    return libc.mount(b"tmpfs", path.encode(), b"tmpfs", 0, b"size=3g,mode=0700") == 0


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    data = os.path.join(build, "data")
    os.makedirs(data, exist_ok=True)
    fs = "tmpfs" if private_tmpfs(data) else "disk"
    args = [binary, "-data", data, "-data-fs", fs] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
