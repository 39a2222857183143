"""Golden digests: the SHA-256 of `diagnostics.csv`, `outcome.json` and the
last N snapshot of five tiny `hotspot simulate` runs, the main and the Short
model each with the centered and the upwind flux, one of them halving its
step down to `blowup_suspected` (exit 3), and one main-model run whose last
output interval is short, so its last energy window is skipped.  A change
that alters one output bit fails here.  A change that alters bits on
purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hotspotsim import cli

DIGESTS = Path(__file__).with_name("golden_digests.json")

MAIN = {"kind": "main", "eta": 0.1, "psi": 0.0046667, "omega": 84.0,
        "atilde": 0.7, "chi": 2.0}
SHORT = {"kind": "short", "eta": 0.05, "a0": 0.2, "abar": 0.8}

# name: (model, flux scheme, time, ic, exit code)
CASES = {
    "main-centered": (MAIN, "centered",
                      {"t_end": 0.03, "dt_init": 1e-3, "output_every": 0.01},
                      {"recipe": "perturbed_steady", "amplitude": 0.01}, 0),
    # the last output interval is short: the window of t = 0.03 is skipped
    "main-centered-short-last": (MAIN, "centered",
                                 {"t_end": 0.035, "dt_init": 1e-3, "output_every": 0.01},
                                 {"recipe": "perturbed_steady", "amplitude": 0.01}, 0),
    "main-upwind": (MAIN, "upwind",
                    {"t_end": 0.03, "dt_init": 1e-3, "output_every": 0.01},
                    {"recipe": "perturbed_steady", "amplitude": 0.05,
                     "mode_j": 2, "mode_k": 1}, 0),
    "short-centered-halving": ({**SHORT, "chi": 4.0}, "centered",
                               {"t_end": 2.0, "dt_init": 5e-4, "output_every": 0.16},
                               {"recipe": "perturbed_steady", "amplitude": 0.5,
                                "mode_j": 2, "mode_k": 1}, 3),
    "short-upwind": ({**SHORT, "chi": 1.0}, "upwind",
                     {"t_end": 0.05, "dt_init": 5e-4, "output_every": 0.025},
                     {"recipe": "perturbed_steady", "amplitude": 0.01,
                      "mode_j": 2, "mode_k": 1}, 0),
}


def digests(name: str, work: Path) -> dict:
    """Run case `name` in `work` and return its exit code and digests."""
    model, scheme, time, ic, _ = CASES[name]
    out = work / "out"
    config = {
        "model": model,
        "grid": {"L": 1.0, "n": 16},
        "time": {**time, "dt_min": 1e-9},
        "ic": ic,
        "numerics": {"flux_scheme": scheme, "cfl": 0.5},
        "outputs": {"dir": str(out), "snapshots": True, "diagnostics": True},
    }
    path = work / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main(["simulate", str(path)])
    field = sorted(out.glob("N_*.field"))[-1]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in (out / "diagnostics.csv", out / "outcome.json", field)}
    return {"exit": code, "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path, capsys):
    want = json.loads(DIGESTS.read_text())[name]
    got = digests(name, tmp_path)
    assert got["exit"] == CASES[name][4]
    assert got == want


if __name__ == "__main__":
    import tempfile

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = digests(case, Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
