"""Output checks for one CLI run and lattice-cell counts for the metrics."""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

LATTICE_HEADERS = ["alpha_db", "weight_db", "gamma", "theta", "ad_deg",
                   "max_current_ma", "status"]
# CSV status column: "ok" for a valid (optimal) cell, else the solver status
OK_STATUSES = ("ok", "degenerate")
FAILED_STATUSES = ("max_iter", "infeasible", "unbounded")
# a cell whose solver raised carries the reason "ExcType: message"
ERROR_STATUS = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*: .*", re.DOTALL)
EXIT_OK, EXIT_NO_CANDIDATE = 0, 2


class CheckError(RuntimeError):
    pass


def check_run(out_dir: Path, exit_codes: list[int], mu: float) -> dict:
    """Check a finished search in ``out_dir``; return its cell counts.

    Raises CheckError when an exit code is unexpected, results.json fails
    the shipped schema, or a lattice row has an unknown status or a channel
    current above mu/2.  A cell whose solver raised counts as failed.
    Lattices that several (case, channels) searches share are written once
    per search with identical bytes, so cells are counted over distinct
    lattice files.
    """
    from tesopt import io

    *stages, search_code = exit_codes
    if any(code != EXIT_OK for code in stages) or \
            search_code not in (EXIT_OK, EXIT_NO_CANDIDATE):
        raise CheckError(f"CLI exit codes {exit_codes}")
    raw = (out_dir / "results.json").read_bytes()
    data = json.loads(raw)
    try:
        io.validate_results(data)
    except io.IoError as exc:
        raise CheckError(f"results.json: {exc}") from exc
    no_candidate = any(r["status"] == "no-feasible-candidate" for r in data["records"])
    if (search_code == EXIT_NO_CANDIDATE) != no_candidate:
        raise CheckError(f"search exited {search_code} "
                         f"(no-feasible-candidate record: {no_candidate})")

    cap_ma = 1e3 * mu / 2.0 * (1.0 + 1e-9)
    counts = {"cells": 0, "ok": 0, "failed": 0}
    seen = set()
    for path in sorted(out_dir.glob("lattice_*.csv")):
        text = path.read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        rows = list(csv.reader(text.decode().splitlines()))
        if rows[0] != LATTICE_HEADERS:
            raise CheckError(f"{path.name}: headers {rows[0]}")
        statuses = []
        for row in rows[1:]:
            if len(row) < len(LATTICE_HEADERS):
                raise CheckError(f"{path.name}: short row {row}")
            # the status is the last column; an error reason may hold commas
            status = ",".join(row[6:])
            if status not in OK_STATUSES + FAILED_STATUSES and \
                    not ERROR_STATUS.fullmatch(status):
                raise CheckError(f"{path.name}: unknown status {status!r}")
            if float(row[5]) > cap_ma:
                raise CheckError(f"{path.name}: max current {row[5]} mA above cap")
            statuses.append(status)
        if digest in seen:
            continue
        seen.add(digest)
        counts["cells"] += len(statuses)
        counts["ok"] += sum(s in OK_STATUSES for s in statuses)
        counts["failed"] += sum(s not in OK_STATUSES for s in statuses)
    if counts["cells"] == 0:
        raise CheckError("no lattice rows written")
    counts["lattices"] = len(seen)
    counts["results_sha256"] = hashlib.sha256(raw).hexdigest()
    return counts
