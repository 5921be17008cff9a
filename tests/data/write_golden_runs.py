"""Write golden_runs.json, next to this script: conftest.py's pinned runs, summarized
as test_golden_runs.py summarizes them.

Run from the repository root, at a commit whose picks the file should pin:

    PYTHONPATH=src python tests/data/write_golden_runs.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden_runs import GOLDEN, summaries  # noqa: E402

if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(summaries(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
