"""A run leaves no process behind, however it ends."""

import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

SCRIPT = textwrap.dedent("""
    import multiprocessing as mp, subprocess, sys, time
    sys.path.insert(0, {root!r})
    from perf.procs import no_stragglers

    def worker():
        # An orphan-to-be, then a worker that never stops by itself.
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
        time.sleep(600)

    if __name__ == "__main__":
        with no_stragglers():
            # spawn: brings multiprocessing's resource tracker with it
            proc = mp.get_context("spawn").Process(target=worker, daemon=True)
            proc.start()
            time.sleep(1.0)
            {ending}
""")


def _session_members(sid: int) -> list[str]:
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(f"{name}:{fields[0]}")
    return found


def _run(tmp_path, ending: str) -> tuple[int, list[str]]:
    script = tmp_path / "victim.py"
    script.write_text(SCRIPT.format(root=str(ROOT), ending=ending))
    done = subprocess.Popen(
        [sys.executable, str(script)], start_new_session=True, stderr=subprocess.DEVNULL
    )
    code = done.wait(timeout=60)
    return code, _session_members(done.pid)


def test_nothing_is_left_after_a_normal_return(tmp_path):
    code, left = _run(tmp_path, "pass")
    assert code == 0
    assert left == []


def test_nothing_is_left_after_an_exception_or_a_sigterm(tmp_path):
    code, left = _run(tmp_path, "raise RuntimeError('mid-run')")
    assert code == 1
    assert left == []
    code, left = _run(tmp_path, "import os, signal; os.kill(os.getpid(), signal.SIGTERM)")
    assert code == 128 + 15
    assert left == []
