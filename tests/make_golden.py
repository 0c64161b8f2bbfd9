"""Rewrite `tests/golden.json` from the files this checkout writes.

    python tests/make_golden.py

A digest may change only with a declared change of the byte contract: name
every moved file in README and CHANGES.md.  The script prints the name of
every digest it moved, added or removed.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_golden import GOLDEN, produce, record  # noqa: E402

if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["files"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp))
        golden = record(Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    new = golden["files"]
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            print(f"removed {name}")
        elif name not in old:
            print(f"added {name}")
        elif old[name]["sha256"] != new[name]["sha256"]:
            print(f"moved {name}")
    print(f"{GOLDEN}: {len(new)} files")
