"""Regenerate expected_cases.json: verify's case count per check for each (p, n).

    PYTHONPATH=src python3 bench/make_expected.py

The counts were taken once from the seed code and are the oracle the
verify-sweep workload checks every `mulli verify` run against.  Case
counts are fixed by (p, n), so a change that alters them has changed
what verify checks.  Rerun this only when that change is intended.
"""

import json
import os

from mulli import run_checks
from workloads import PRIMES, VERIFY_N

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    names, cases = None, {}
    for p in PRIMES:
        for n in range(VERIFY_N[0], VERIFY_N[1] + 1):
            results = run_checks(p, n)
            if not all(r.ok for r in results):
                raise SystemExit(f"verify fails at p={p}, n={n}; not recording its counts")
            names = [r.name for r in results]
            cases[f"{p}:{n}"] = [r.cases for r in results]
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(counts)}" for key, counts in cases.items())
    with open(os.path.join(HERE, "expected_cases.json"), "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "checks": {json.dumps(names)},\n "cases": {{\n{rows}\n }}\n}}\n')


if __name__ == "__main__":
    main()
