"""Run test code in a fresh interpreter, for checks on what importing
``repro`` loads (``sys.modules`` of the test process is already full)."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def fresh_interpreter(code, stdin=""):
    """Run *code* in a new interpreter that imports ``repro`` from this
    tree; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          input=stdin, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout
