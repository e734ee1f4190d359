"""Byte-exact CLI reports on a fixed input set.

Each case is one CLI invocation whose stdout must equal the stored report in
``tests/golden/<name>.out`` byte for byte, with the stored exit code.  The
set covers the README examples and one input each for the report commands.
Cases with exit code 1 pin a command's error path instead: stdout stays
empty and stderr must equal ``tests/golden/<name>.err``.  Every case runs
with the golden directory as the working directory, so error messages that
quote an input path are machine independent.
The stored reports are regression values: they record what the program
printed when the set was made, not independently checked answers.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from picstab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv with {dir} standing for the golden directory, exit code)
CASES = {
    # README examples
    "readme_compute_t": (["compute-t", "{dir}/readme_sl2z_f4.json"], 0),
    "readme_endotrivial": (["endotrivial", "C4", "F2", "syzygy(trivial)"], 0),
    "readme_stable_end": (["stable-end", "Q8", "F4"], 0),
    "readme_components": (["components", "{dir}/readme_sl2z_f4.json", "--p", "2"], 0),
    "readme_restrict_class": (
        ["restrict-class", "--group", "Q8", "--subgroup", "C4", "--embed", "x",
         "--field", "F2", "--module", "syzygy(trivial)"],
        0,
    ),
    "readme_snf": (["snf", "{dir}/matrix.json"], 0),
    "readme_verify": (["verify"], 0),
    # one more input per report command, on groups whose Sylow subgroup has
    # a non-trivial complement
    "compute_t_c12_c4c4_f9": (["compute-t", "{dir}/c12_c4c4_f9.json"], 0),
    "compute_t_c6_c3c6_f4_text": (
        ["compute-t", "--format", "text", "{dir}/c6_c3c6_f4.json"], 0,
    ),
    "compute_t_hnn_c3_f3": (["compute-t", "{dir}/hnn_c3_f3.json"], 2),
    "compute_t_verify_c4_c6_f3": (["compute-t", "--verify", "{dir}/c4_c6_free_f3.json"], 0),
    "endotrivial_c6_f3": (["endotrivial", "C6", "F3", "syzygy(syzygy(trivial))"], 0),
    "endotrivial_c2_f256": (["endotrivial", "C2", "F256", "syzygy(trivial)"], 0),
    "stable_end_c6_f3": (["stable-end", "C6", "F3"], 0),
    "restrict_class_c6_c3_f3": (
        ["restrict-class", "--group", "C6", "--subgroup", "C3", "--embed", "g^2",
         "--field", "F3", "--module", "syzygy(trivial)"],
        0,
    ),
    "components_group_c4xc2": (["components", "group_c4xc2.json", "--p", "2"], 0),
    # S4: a non-normal Sylow subgroup at both primes, classes of size 3 and 6
    "components_group_s4_p2": (["components", "group_s4.json", "--p", "2"], 0),
    "components_group_s4_p3": (["components", "group_s4.json", "--p", "3"], 0),
    # C6 *_C3 C6 at p = 2: the edge group has no 2-torsion, so nothing glues
    "components_c6_c3c6_p2": (["components", "c6_c3c6_f4.json", "--p", "2"], 0),
    "snf_text": (["snf", "--format", "text", "matrix.json"], 0),
    "verify_text": (["verify", "--format", "text"], 0),
    # one failing invocation per command: the typed error on stderr, exit 1
    "compute_t_bad_json": (["compute-t", "bad_json.json"], 1),
    "endotrivial_bad_recipe": (["endotrivial", "C4", "F2", "bogus(trivial)"], 1),
    "stable_end_bad_field": (["stable-end", "C6", "F6"], 1),
    "components_wrong_schema": (["components", "wrong_schema.json", "--p", "2"], 1),
    "restrict_class_bad_field": (
        ["restrict-class", "--group", "C6", "--subgroup", "C3", "--embed", "g^2",
         "--field", "F10", "--module", "syzygy(trivial)"],
        1,
    ),
    "snf_ragged": (["snf", "ragged_matrix.json"], 1),
}


def _golden(name: str) -> Path:
    return GOLDEN / f"{name}.{'err' if CASES[name][1] == 1 else 'out'}"


def _run(name: str):
    argv, code = CASES[name]
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        result = CliRunner().invoke(main, [a.replace("{dir}", str(GOLDEN)) for a in argv])
    finally:
        os.chdir(cwd)
    assert result.exit_code == code, result.output
    if code == 1:
        assert result.stdout_bytes == b""
        return result.stderr_bytes
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    assert _run(name) == _golden(name).read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for case in sorted(CASES):
        _golden(case).write_bytes(_run(case))
        print("wrote", case)
