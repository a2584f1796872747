"""The protocols meet their theorems' exact worst-case coalitions, which
``tests/weighted/extremal.py`` computes: that directory goes on the import
path here too."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "weighted"))
