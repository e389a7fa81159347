"""Write the reference tables the benchmark checks its results against.

    python3 benchmark/make_reference.py [workload ...]

Runs every config of each workload (default: all) at the reference seed and
stores its table.  Regenerate only from code whose results are trusted; the
tables are the benchmark's definition of a correct result.
"""

from __future__ import annotations

import hashlib
import json
import sys

from measure import build_configs, reference_path
from osclab.ensembles import run_ensemble
from osclab.results import render_csv
from workloads import REFERENCE_SAMPLES, REFERENCE_SEED, WORKLOADS


def reference_document(workload) -> dict:
    configs = build_configs(workload, REFERENCE_SEED, samples=REFERENCE_SAMPLES)
    tables = {}
    for label, config in configs.items():
        result = run_ensemble(config)
        tables[label] = {
            "csv_sha256": hashlib.sha256(render_csv(result).encode()).hexdigest(),
            "rows": [[list(r.key), r.mean, r.stderr, r.count] for r in result.sorted_rows()],
        }
    return {"seed": REFERENCE_SEED, "samples": REFERENCE_SAMPLES, "configs": tables}


def dump(doc: dict) -> str:
    """JSON with one table row per line."""
    tables = []
    for label, table in doc["configs"].items():
        rows = ",\n".join("    " + json.dumps(row) for row in table["rows"])
        tables.append(
            f'  {json.dumps(label)}: {{"csv_sha256": {json.dumps(table["csv_sha256"])}, '
            f'"rows": [\n{rows}\n  ]}}'
        )
    body = ",\n".join(tables)
    return f'{{"seed": {doc["seed"]}, "samples": {doc["samples"]}, "configs": {{\n{body}\n}}}}\n'


def main(names) -> int:
    workloads = [WORKLOADS[n] for n in names] if names else WORKLOADS.values()
    for workload in workloads:
        path = reference_path(workload.name)
        path.parent.mkdir(exist_ok=True)
        doc = reference_document(workload)
        path.write_text(dump(doc), encoding="utf-8")
        if json.loads(path.read_text(encoding="utf-8")) != json.loads(json.dumps(doc)):
            raise SystemExit(f"{path} does not read back as written")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
