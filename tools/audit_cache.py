"""Byte-exactness audit of the cached acceptance dataset.

Relabels every record of tests/_cache/dataset.jsonl with generate_instance at
its own depth, p_start = p_cap = p_min (a censored record keeps its cached
range), and compares the new line with the cached one, p_start and p_cap
aside. Each depth draws its own seed, so a machine that reproduces the cache
matches every line. Prints the number of byte-exact lines, the ids of the
others and the largest ratio_achieved difference; writes no file.

    PYTHONPATH=src python tools/audit_cache.py

It runs one worker process per CPU (os.cpu_count()), each with one BLAS
thread, and takes a few minutes.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # one BLAS thread per worker; this has to precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import dataclasses  # noqa: E402
import multiprocessing  # noqa: E402

from acceptance_profile import DATASET_PATH, acceptance_config  # noqa: E402
from symqaoa.dataset import (  # noqa: E402
    DatasetConfig,
    generate_instance,
    parse_record,
    record_line,
)
from symqaoa.graphs import GraphFamily  # noqa: E402


def audit_line(line: str) -> tuple[str, bool, float]:
    """Relabel one cached line at its own depth. Returns the record id, whether
    the new line equals the cached one byte for byte once p_start and p_cap
    are set back, and the absolute ratio_achieved difference."""
    line = line.rstrip("\n")
    cached = parse_record(line)
    fam = GraphFamily(cached.family, cached.params, cached.graph_seed)
    p_start, p_cap = (cached.p_start, cached.p_cap) if cached.censored else (cached.p_min,) * 2
    search = dataclasses.replace(cached.search, p_start=p_start, p_cap=p_cap)
    config = DatasetConfig((fam,), seed=acceptance_config().seed, **dataclasses.asdict(search))
    fresh = generate_instance(fam, config)
    fresh = dataclasses.replace(fresh, p_start=cached.p_start, p_cap=cached.p_cap)
    return cached.id, record_line(fresh) == line, abs(fresh.ratio_achieved - cached.ratio_achieved)


def main() -> int:
    with open(DATASET_PATH, encoding="utf-8") as fh:
        lines = fh.readlines()
    results = []
    with multiprocessing.get_context("spawn").Pool(os.cpu_count() or 1) as pool:
        for result in pool.imap(audit_line, lines):
            results.append(result)
            print(f"[{len(results)}/{len(lines)}] {result[0]}", file=sys.stderr)
    exact = sum(same for _, same, _ in results)
    print(f"byte-exact lines (p_start and p_cap aside): {exact} of {len(results)}")
    for iid, same, diff in results:
        if not same:
            print(f"differs: {iid} (ratio_achieved by {diff:.2e})")
    print(f"largest ratio_achieved difference: {max(diff for _, _, diff in results):.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
