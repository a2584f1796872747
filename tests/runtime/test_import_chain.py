"""The runtime's transport sits below the protocols: importing the scenario
engine (which imports the transports) loads no protocol, crypto or
crash-recovery module until a run asks for one."""

import os
import subprocess
import sys

import repro


def test_importing_the_scenario_engine_loads_no_protocol_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, repro.scenarios; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.protocols', 'repro.crypto', 'repro.recovery'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
