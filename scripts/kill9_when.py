#!/usr/bin/env python3
"""Start a command, wait until it has written some files, then SIGKILL it.

  kill9_when.py --wait PATH [--wait PATH ...] -- CMD [ARG ...]

CMD inherits stdout and stderr, so the caller redirects them. Every
5 ms this checks whether each PATH exists and is non-empty; once all
of them are, or CMD has exited, or 10 s have passed, it kills CMD
with SIGKILL and reaps it. It exits 0 however CMD ended: the caller
checks what the killed run left behind, as the crash-and-resume smoke
steps in CI do. A malformed command line prints this text and exits 1.
"""

import os
import subprocess
import sys
import time

TIMEOUT_S = 10.0


def written(path):
    try:
        return os.path.getsize(path) > 0
    except OSError:
        return False


argv = sys.argv[1:]
split = argv.index("--") if "--" in argv else len(argv)
flags, paths, cmd = argv[:split:2], argv[1:split:2], argv[split + 1 :]
if not cmd or not paths or len(flags) != len(paths) or set(flags) != {"--wait"}:
    sys.exit(__doc__)
proc = subprocess.Popen(cmd)
deadline = time.monotonic() + TIMEOUT_S
while proc.poll() is None and time.monotonic() < deadline:
    if all(written(p) for p in paths):
        break
    time.sleep(0.005)
if proc.poll() is None:
    proc.kill()
proc.wait()
