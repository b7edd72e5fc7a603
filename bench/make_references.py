"""Record reference sha256s of every workload's outputs for a range of seeds.

    python3 bench/make_references.py --seeds 0-15

Each pass is replayed in-process through ``assayqc.cli.main`` with
``SOURCE_DATE_EPOCH`` pinned, and the hashes are stored in
bench/references.json under the running Python (major.minor) and numpy
versions, replacing any earlier entry for that pair. Run it only on a
commit whose outputs are known to be right: the benchmark treats these
hashes as the truth. The checks that hold for any RNG stream run on every
replayed output, and the script refuses to record a seed that fails them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import SOURCE_DATE_EPOCH, SRC, WORK


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    sys.path.insert(0, str(SRC))
    os.environ.pop("ASSAYQC_THREADS", None)
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    import checks
    import workloads

    env = checks.environment_key()
    seeds: dict[str, dict] = {}
    scratch = WORK / f"references-{os.getpid()}"
    try:
        for seed in range(first, last + 1):
            seeds[str(seed)] = {}
            for name in workloads.WORKLOADS:
                shutil.rmtree(scratch, ignore_errors=True)
                wl = workloads.prepare(name, seed, scratch)
                hashes = checks.replay_reference(wl, scratch / "out")
                problems = [p for cmd in wl.commands(scratch / "out")
                            for p in checks.check_outputs(wl, cmd)]
                if problems:
                    print(f"seed {seed} {name}: not recorded: {problems}", file=sys.stderr)
                    return 1
                seeds[str(seed)][name] = hashes
            print(f"seed {seed}: {len(workloads.WORKLOADS)} workloads recorded", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    data = {"environments": []}
    if checks.REFERENCE_FILE.is_file():
        data = json.loads(checks.REFERENCE_FILE.read_text(encoding="utf-8"))
    data["environments"] = [e for e in data["environments"]
                            if {"python": e["python"], "numpy": e["numpy"]} != env]
    data["environments"].append({**env, "source_date_epoch": SOURCE_DATE_EPOCH, "seeds": seeds})
    checks.REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
