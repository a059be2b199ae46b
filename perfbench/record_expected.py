"""Record the seed-independent results that the "recorded" checks compare
against, by running every such op of every workload once.

    python3 perfbench/record_expected.py

Run it only on a commit whose results are trusted; it rewrites
perfbench/expected.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from smoothsieve import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    recorded = {}
    for build in workloads.WORKLOADS.values():
        for pick in (0, 1):
            ops, _ = build(lambda a, b: (a, b)[pick])
            for o in ops:
                if o["check"] != "recorded":
                    continue
                argv = o["argv"] + ["--seed", "0"]
                key = checks.unseeded(argv)
                if key in recorded:
                    continue
                code, report = cli.run(cli.parse_args(argv))
                assert code == 0, (key, code)
                recorded[key] = checks.summarize(argv, report)
                print(key, file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(recorded[k])}"
             for k in sorted(recorded)]
    checks.EXPECTED_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
