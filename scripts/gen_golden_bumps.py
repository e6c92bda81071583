"""Regenerate the golden microbump-assignment records.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_golden_bumps.py

Only rerun this when an *intentional* behavior change invalidates the
golden values — the whole point of ``tests/data/golden_bumps.json`` is
that bump assignment (and so the reward's wirelength term) stays
bitwise-faithful to the per-net greedy loop it was generated from.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_bumps_utils import GOLDEN_BUMPS_PATH, run_golden_bumps


def main() -> int:
    record = run_golden_bumps()
    out_path = REPO_ROOT / GOLDEN_BUMPS_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")
    for method, cases in record.items():
        print(f"{method}: {len(cases)} placements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
