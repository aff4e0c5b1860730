"""Compare two result documents after stripping their volatile blocks.

Usage: ``python scripts/diff_stripped.py A.json B.json``

Exits 0 when the documents are byte-identical in canonical form once
every manifest ``volatile`` block and the manifest's host keys
(``git_rev``, ``env``) are removed, and 1 (naming the schema) when they
differ — the cross-worker-count determinism gate for any schema
(FIGURE_v1, WORKLOAD_v1, ALLOCATION_v1, CACHESTATS_v1, ...) and the pin
of the committed ``results/report.json`` to the code.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs.manifest import dump_document, strip_host


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: diff_stripped.py A.json B.json", file=sys.stderr)
        return 2
    documents = [strip_host(json.loads(pathlib.Path(path).read_text())) for path in argv]
    schema = documents[0].get("schema", "document")
    if dump_document(documents[0]) != dump_document(documents[1]):
        print(f"stripped {schema} differs: {argv[0]} vs {argv[1]}", file=sys.stderr)
        return 1
    print(f"stripped {schema} identical: {argv[0]} == {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
