"""Byte-for-byte golden outputs of the command line.

Each run's stdout, and each file that ``figures`` writes, is compared with
``tests/data/golden``.  Files of up to 64 KB are stored whole, and a
mismatch names the first differing line; larger ones are stored as a
SHA-256 digest in ``<name>.sha256``.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from lomnitz import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
FIGURE_FILES = ("creep_linear.csv", "creep_log.csv", "relax_linear.csv", "relax_log.csv")

RUNS = {
    "creep": ["creep"],
    "creep-table": ["creep", "--format", "table"],
    "creep-q-tau0": ["creep", "--nu", "0.3,0.7", "--q", "1.3", "--tau0", "0.6",
                     "--t-max", "777"],
    "creep-linear": ["creep", "--nu", "0.5", "--t-max", "2", "--no-log-spacing"],
    "relax": ["relax"],
    "relax-t100": ["relax", "--t-max", "100"],
    "relax-q-tau0": ["relax", "--q", "1.5", "--tau0", "0.5", "--t-max", "20"],
    "operator-check": ["operator-check"],
    "operator-check-table": ["operator-check", "--format", "table"],
    "operator-check-nu": ["operator-check", "--nu", "0.25,0.6,0.9"],
    "laplace-check": ["laplace-check"],
    "laplace-check-nu": ["laplace-check", "--nu", "0.3,0.7"],
    "figures": ["figures"],
}


def outputs(name: str, workdir: Path) -> dict[str, bytes]:
    """Run ``RUNS[name]`` in ``workdir``; return its stdout and figure files by golden name."""
    argv = RUNS[name]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as info:
            cli.main(argv)
    finally:
        os.chdir(cwd)
    assert info.value.code == 0, f"{argv} exited {info.value.code}"
    found = {f"{name}.stdout": stdout.getvalue().encode()}
    for fname in FIGURE_FILES:
        path = workdir / "figures" / fname
        if path.exists():
            found[f"{name}.{fname}"] = path.read_bytes()
    return found


def first_difference(expected: bytes, actual: bytes) -> str:
    exp, act = expected.decode().splitlines(), actual.decode().splitlines()
    for i, (e, a) in enumerate(zip(exp, act), start=1):
        if e != a:
            return f"line {i}: expected {e!r}, got {a!r}"
    if len(exp) != len(act):
        return f"expected {len(exp)} lines, got {len(act)}"
    return "same lines, different line endings"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, tmp_path):
    found = outputs(name, tmp_path)
    if name == "figures":
        assert len(found) == 1 + len(FIGURE_FILES)
    for key, data in found.items():
        whole = GOLDEN / key
        if whole.exists():
            expected = whole.read_bytes()
            assert data == expected, f"{key}: {first_difference(expected, data)}"
        else:
            digest = (GOLDEN / f"{key}.sha256").read_text().strip()
            assert hashlib.sha256(data).hexdigest() == digest, f"{key}: SHA-256 differs"

