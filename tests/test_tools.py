import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scale_passes_on_a_failed_run_error():
    # n = 2 at c1 = c2 = 0.003 gives eps far above 1, so the run refuses
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "scale.py"),
                           "practical-1rep", "--n", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode != 0
    assert "must lie in (0, 1)" in done.stderr
    assert "CalledProcessError" not in done.stderr
