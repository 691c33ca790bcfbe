"""Row-by-row arrays reader: the reference the CLI's columnar reader is
tested against.

Each row is read with ``csv.DictReader`` and checked as it arrives, so
the first row out of order is where it stops.  It takes what Python's
``int`` takes and does not check the field count or the int64 range;
on files that hold four fields of int64 integers per row it defines
the arrays that the columns of ``spacerloss.cli._read_arrays`` hold and
which replicate and leaf it names.
"""

import csv

from spacerloss.cli import CliError


def read_arrays(path: str) -> dict[int, dict[str, tuple[int, ...]]]:
    replicates: dict[int, dict[str, list[int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["replicate", "leaf", "position", "spacer"]:
            raise CliError(f"unexpected arrays header in {path}: {reader.fieldnames}")
        for row in reader:
            try:
                rep, pos, spacer = int(row["replicate"]), int(row["position"]), int(row["spacer"])
            except (TypeError, ValueError):
                got = ", ".join(f"{k}={row[k]!r}" for k in reader.fieldnames)
                raise CliError(
                    f"{path}, line {reader.line_num}: expected integers, got {got}"
                ) from None
            leaf = row["leaf"]
            arr = replicates.setdefault(rep, {}).setdefault(leaf, [])
            if pos != len(arr) + 1:
                raise CliError(f"non-contiguous positions for replicate {rep}, leaf {leaf!r}")
            arr.append(spacer)
    return {
        rep: {leaf: tuple(a) for leaf, a in leaves.items()}
        for rep, leaves in replicates.items()
    }
