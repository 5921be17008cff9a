"""Write verify_slacks.json, next to this script: the digests of every verify suite's
per-trial slacks at seeds 0, 1 and 2, and the reports of run_all(1000, 20260814), as
test_verify.py computes them.

Run from the repository root, at a commit whose slacks the file should pin:

    PYTHONPATH=src python tests/data/write_verify_slacks.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_verify import SLACKS, pinned_slacks  # noqa: E402

if __name__ == "__main__":
    SLACKS.write_text(json.dumps(pinned_slacks(), indent=1) + "\n")
    print(f"wrote {SLACKS}")
