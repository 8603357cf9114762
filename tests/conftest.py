import os
import subprocess
import sys

import pytest

# prepended to every peak-RSS child script; VmHWM is the peak of the child's own
# address space, where ru_maxrss also counts the peak of the process that
# spawned it (a vfork child inherits the pytest process's peak)
_PEAK_RSS = '''
def peak_rss():
    """This process's peak resident set size in bytes."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
'''


@pytest.fixture
def rss_growth():
    """Runner of a peak-RSS child script against the source tree: the script
    may call ``peak_rss()``, and the runner returns the growth in bytes that
    it prints."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(script: str) -> int:
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS + script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    return run
