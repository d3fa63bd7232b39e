"""Regenerate perfbench/pinned.json from the code in ./src.

    python3 perfbench/pin.py

Pins, for both census keys, the digest of every connected graph's exact key
string for n = 5 and n = 7.  The census gate checks each screened graph
against this table, so the pinned values must only change with a stated
reason (a fingerprint schema bump).
"""

import json
import sys

import rep


def main() -> int:
    es = rep.import_edgesector()
    keys_all = rep.CENSUS_KEYS["census7_store"]
    table = {",".join(keys): {} for keys in rep.CENSUS_KEYS.values()}
    for n in (5, 7):
        lines = [(i + 1, es.encode_graph6(g)) for i, g in enumerate(es.builtin_generate(n))]
        result = es.run_screen(lines, es.ScreenConfig(keys=keys_all, jobs=2))
        for keys in rep.CENSUS_KEYS.values():
            for fp in result.fingerprints:
                table[",".join(keys)][fp.graph6] = rep.key_digest(es, fp, keys)
    (rep.HERE / "pinned.json").write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
