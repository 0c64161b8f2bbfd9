"""Rewrite `tests/golden.json` from the files this checkout writes.

    python tests/make_golden.py

A digest may change only with a declared change of the byte contract: name
every moved file in README and CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_golden import GOLDEN, produce, record  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp))
        golden = record(Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(golden['files'])} files")
