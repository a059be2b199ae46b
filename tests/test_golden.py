"""Golden reports: the `result` member of nineteen CLI runs, byte for byte.

Sampled scans through Z and embedding chains map a candidate index to a
form through the canonical basis rows of the candidate space, and
`points` reports ranks over the residue fields, so these files pin the
row-reduction core's canonical echelon form.  The runs over F_3 and F_5
pin the seeded draw and the scan counts over odd characteristic.  The
two exhaustive exact scans of P^2 pin the certified counts.  The F_2
sample at d = 9 pins draws of two words with a shifted last word, the
exact F_3 sample the drawn candidates' certificates, and the embedding
over F_3 the embedder's odd-q draws across two degrees.  The three
predictions pin the X - V factor and the violated case.  The embeddings
of the cuspidal cubic (16 rejected draws at d = 2, then 25 tries at
d = 3) and of the nodal cubic over F_4 pin the tries and the chosen forms
behind the embedder's jet-condition filter.  The two low-degree products
through Z, over the nodal cubic at r = 4 and the cuspidal cubic over F_3
at r = 3, pin the per-stratum and X - V factors.
Regenerate a file only for a deliberate change of report content.
"""

import json
import pathlib

import pytest

from smoothsieve import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "estimate_nodal_sample": ["estimate", "--scheme", "nodal_cubic.scm",
                              "-d", "4", "--budget", "sample:300",
                              "--seed", "3"],
    "embed_nodal": ["embed", "--scheme", "nodal_cubic.scm", "--d-min", "3",
                    "--seed", "5"],
    "estimate_p2_q4_sample": ["estimate", "--scheme", "p2.scm", "--q", "4",
                              "-d", "2", "--budget", "sample:50",
                              "--seed", "1"],
    "points_cuspidal": ["points", "--scheme", "cuspidal_cubic.scm",
                        "--max-degree", "3"],
    "singdist_p2_q3_exhaustive": ["singdist", "estimate", "--scheme",
                                  "p2.scm", "--q", "3", "-d", "2",
                                  "--budget", "exhaustive",
                                  "--sing-bound", "3"],
    "lowdeg_p1_q3_sample": ["lowdeg", "--scheme", "p1.scm", "--q", "3",
                            "--r", "2", "-d", "8", "--samples", "500",
                            "--seed", "4"],
    "estimate_p2_q5_sample": ["estimate", "--scheme", "p2.scm", "--q", "5",
                              "-d", "2", "--budget", "sample:100",
                              "--seed", "2"],
    "singdist_p2_q2_d4_exact_b1": ["singdist", "estimate", "--scheme",
                                   "p2.scm", "--q", "2", "-d", "4",
                                   "--budget", "exhaustive",
                                   "--sing-bound", "1", "--exact",
                                   "--ell-max", "3"],
    "estimate_p2_q3_d2_exact_b2": ["estimate", "--scheme", "p2.scm",
                                   "--q", "3", "-d", "2",
                                   "--budget", "exhaustive",
                                   "--sing-bound", "2", "--exact"],
    "estimate_p2_d9_sample_b3": ["estimate", "--scheme", "p2.scm", "-d", "9",
                                 "--budget", "sample:300", "--sing-bound",
                                 "3", "--seed", "11"],
    "estimate_p2_q3_d4_sample_exact": ["estimate", "--scheme", "p2.scm",
                                       "--q", "3", "-d", "4", "--budget",
                                       "sample:60", "--sing-bound", "2",
                                       "--exact", "--seed", "6"],
    "embed_nodal_q3": ["embed", "--scheme", "nodal_cubic.scm", "--q", "3",
                       "--d-min", "2", "--seed", "5"],
    "predict_nodal": ["predict", "--scheme", "nodal_cubic.scm"],
    "predict_cuspidal": ["predict", "--scheme", "cuspidal_cubic.scm"],
    "predict_nonreduced": ["predict", "--scheme", "nonreduced_line.scm"],
    "embed_cuspidal_d2": ["embed", "--scheme", "cuspidal_cubic.scm",
                          "--d-min", "2", "--seed", "7"],
    "embed_nodal_q4": ["embed", "--scheme", "nodal_cubic.scm", "--q", "4",
                       "--d-min", "3", "--seed", "2"],
    "lowdeg_nodal_r4": ["lowdeg", "--scheme", "nodal_cubic.scm", "--r", "4"],
    "lowdeg_cuspidal_q3_r3": ["lowdeg", "--scheme", "cuspidal_cubic.scm",
                              "--q", "3", "--r", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_result(name, schemes_dir):
    argv = list(CASES[name])
    i = argv.index("--scheme") + 1
    argv[i] = str(schemes_dir / argv[i])
    code, report = cli.run(cli.parse_args(argv))
    assert code == 0
    expected = (GOLDEN / f"{name}.json").read_text()
    assert json.dumps(report["result"], indent=2) + "\n" == expected
