"""Golden output of ``cltcert bound --moments`` for every theorem.

One hand-written summary sets every field with a nonzero value (n = 10⁸ keeps
the bootstrap certificates feasible); each theorem is evaluated at β = 0.829
and with ``--beta optimize``.  The path is scalar float arithmetic with no
BLAS, so stdout must match ``golden/bound_moments.txt`` byte for byte.
"""

import json
from pathlib import Path

from cltcert import cli
from cltcert.engine import THEOREM_TABLE

GOLDEN = Path(__file__).parent / "golden" / "bound_moments.txt"

SUMMARY = {
    "d": 3, "n": 10 ** 8,
    "sigma_op": 1.3, "sigma_frob": 1.9, "sigma_min_eig": 0.8,
    "sigma_cond": 1.625, "sigma_t_op": 1.4, "sigma_t_min_eig": 0.7,
    "cov_gap_frob": 0.25, "cov_gap_op": 0.2,
    "x_w3_frob": 0.9, "x_w3_op": 0.45, "x_w3_max": 0.35, "x_w3_nonzero": 10,
    "x_w4_mean": 17.5, "x_w4_op": 3.4, "t_w4_mean": 16.2, "t_w4_op": 3.1,
    "dw3_frob": 0.3, "dw3_op": 0.12, "dw3_max": 0.09, "dw3_nonzero": 14,
    "x_c3_frob": 1.1, "x_c4_mean": 24.0, "t_c4_mean": 27.0,
    "x_raw4_op": 5.2, "t_raw4_op": 6.1,
    "d3_frob": 0.4, "d3_op": 0.18, "d3_max": 0.11, "d3_nonzero": 20,
    "lambda0_sq": 0.7,
    "x_m6": 110.0, "l_m6": 120.0, "u6_mean": 30.0, "z6_mean": 105.0,
    "d4_frob": 0.6, "d4_max": 0.2, "m6_sym": 15.5, "lambda_z_sq": 0.45,
    "sigma2": 1.5, "coord_var_max": 1.3,
}


def bound_outputs(tmp_path, capsys) -> str:
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(SUMMARY))
    out = []
    for theorem in THEOREM_TABLE:
        for beta in ("0.829", "optimize"):
            code = cli.main(["bound", "--theorem", theorem, "--moments",
                             str(path), "--beta", beta])
            assert code == 0, (theorem, beta)
            out.append(capsys.readouterr().out)
    return "".join(out)


def test_bound_from_moments_matches_golden_output(tmp_path, capsys):
    assert bound_outputs(tmp_path, capsys) == GOLDEN.read_text()
