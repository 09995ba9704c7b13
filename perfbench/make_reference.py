"""Regenerate reference_seed0.json: the oracle's values for every zoo
instance of the reference seed, each confirmed equal to bnb's before the
file is written.

    python3 perfbench/make_reference.py

Run it again only when the zoo generator changes; run.py refuses stored
references whose fingerprint does not match the generated zoo.
"""

import json
import sys
from pathlib import Path

import checks
import zoo
from workloads import REFERENCE_FILE, REFERENCE_SEED, ZOO_COUNT, load_instance, load_lipbound


def main() -> int:
    lb = load_lipbound(Path(__file__).resolve().parent.parent)
    instances = [zoo.zoo_instance(REFERENCE_SEED, i) for i in range(ZOO_COUNT)]
    reports, bad = [], []
    for inst in instances:
        net, dom = load_instance(lb, inst)
        runs = {
            mode: checks.canon_from_report(
                lb.bounds.compute_report(net, dom, inst["p"], checks.EPS_LIST, mode=mode)
            )
            for mode in ("oracle", "bnb")
        }
        diff = checks.compare(runs["bnb"], runs["oracle"])
        if diff:
            bad.append(f"instance {inst['index']}: {'; '.join(diff)}")
        reports.append(checks.to_jsonable(runs["oracle"]))
    if bad:
        print("bnb disagrees with the oracle; reference not written:", *bad, sep="\n  ")
        return 1
    head = {"seed": REFERENCE_SEED, "eps": list(checks.EPS_LIST), "fingerprint": zoo.fingerprint(instances)}
    body = ",\n  ".join(json.dumps(r) for r in reports)
    REFERENCE_FILE.write_text(json.dumps(head)[:-1] + f',\n "reports": [\n  {body}\n ]\n}}\n')
    print(f"wrote {len(reports)} oracle references to {REFERENCE_FILE.name}; bnb agrees on all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
