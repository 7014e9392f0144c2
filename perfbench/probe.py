"""Set-up probe: import every fixcat module and parse the given documents.

    python3 perfbench/probe.py SRC_DIR [DOCUMENT ...]

run.py times this in a fresh process to measure set-up.
"""

import sys

sys.path.insert(0, sys.argv[1])

from fixcat import cli, serialize  # noqa: E402,F401

for path in sys.argv[2:]:
    serialize.load_document(path)
