"""Makes the shared test helpers next to this file (``scan_reference``)
importable from every test directory, however pytest was invoked."""

import os
import sys

_HERE = os.path.dirname(__file__)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
