"""Byte-exact CLI reports on a fixed input set.

Each case is one CLI invocation whose stdout must equal the stored report in
``tests/golden/<name>.out`` byte for byte, with the stored exit code.  The
set covers the README examples and one input each for the report commands.
The stored reports are regression values: they record what the program
printed when the set was made, not independently checked answers.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

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
}


def _run(name: str):
    argv, code = CASES[name]
    result = CliRunner().invoke(main, [a.replace("{dir}", str(GOLDEN)) for a in argv])
    assert result.exit_code == code, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    assert _run(name) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.out").write_bytes(_run(case))
        print("wrote", case)
