#!/usr/bin/env python3
"""Write the pinned references the checker compares against: block hashes
of the ``simulate*`` CSVs and the default verify report, all at the default
seed.  Run from the root of a checkout::

    python3 perfbench/pin.py

The pins record the outputs of the commit they were made at; a change that
keeps the program's outputs leaves them untouched.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import checks
import run


def main() -> None:
    fm = run.import_package()
    pinned = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in run.SIMULATE:
            spec = run.plan(workload, run.DEFAULT_SEED)
            argv = [a.replace("{out}", tmp) for a in spec["calls"][0]]
            assert fm["cli"].main(argv) == 0
            csv_path = Path(tmp) / "endpoints.csv"
            lines = checks.read_lines(csv_path)[1:]
            pinned[workload] = {"seed": run.DEFAULT_SEED, "rows": len(lines),
                                "sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                                "block_rows": checks.BLOCK_ROWS,
                                "blocks": checks.block_hashes(lines)}
        assert fm["cli"].main(["verify", "--out", f"{tmp}/report.json"]) == 0
        checks.PINNED_REPORT.parent.mkdir(exist_ok=True)
        checks.PINNED_REPORT.write_text((Path(tmp) / "report.json").read_text())
    checks.PINNED_SIMULATE.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
