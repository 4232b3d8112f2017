"""Put the checkout's ``src`` on the import path for the benchmark's tests."""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
if os.path.abspath(_SRC) not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))
