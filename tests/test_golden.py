"""The deterministic artifacts' bytes, checked against a committed manifest.

`tests/golden.sha256` holds, in `sha256sum` format, the SHA-256 of every file
that the runs below write: `path`, `mtcm` and `profile --format json` on each
model in MODELS, a two-level `comono` path, and three `--format svg` runs.
The test writes them again through `cli.main` and names each file whose bytes
moved, went missing, or are not in the manifest.

`sample` and `figure` are left out: their bytes come from numpy's Generator,
whose streams numpy does not promise to keep across releases (NEP 19).

A change that moves bytes on purpose rewrites the manifest from this
checkout's `src/` with

    python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

if __name__ == "__main__":
    # Hash this checkout's source, not an installed tailpath.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tailpath.cli import main

MANIFEST = Path(__file__).with_name("golden.sha256")

# smo:alpha=1e-7,beta=1 peaks at b = sqrt(1e7), far out in mtcm's search
# domain. Non-integer nu sends the t cdf through its quadrature route; at
# nu = 30 the t quantile mostly starts from its Cornish-Fisher point.
MODELS = (
    "smo:alpha=0.35,beta=0.7",
    "smo:alpha=1e-7,beta=1",
    "sag:alpha=0.35,beta=0.7,theta=2",
    "comono",
    "t:nu=4,rho=0.5",
    "t:nu=4.5,rho=0.5",
    "t:nu=30,rho=0.5",
    "mo:alpha=0.35,beta=0.7",
    "fgm:theta=0.6",
)
# mtcm and profile exit 3 on these, whose tails vanish.
TAIL_INDEPENDENT = ("mo:alpha=0.35,beta=0.7", "fgm:theta=0.6")

# (output directory, arguments) for every run.
RUNS = [
    (f"{cmd}/{model}", [cmd, "--model", model, "--format", "json"])
    for model in MODELS
    for cmd in (("path",) if model in TAIL_INDEPENDENT else ("path", "mtcm", "profile"))
] + [
    # Two levels leave aitken_limit no ratio to estimate, so the error is infinite.
    ("path-two-level/comono", ["path", "--model", "comono", "--schedule", "1e-1,5e-2", "--format", "json"]),
    ("singular-svg/smo:alpha=0.35,beta=0.7", ["singular", "--model", "smo:alpha=0.35,beta=0.7", "--format", "svg"]),
    ("spectral-svg/t:nu=4,rho=0.5", ["spectral", "--model", "t:nu=4,rho=0.5", "--format", "svg"]),
    # The profile table over [1e-7, 1e7] and its chart.
    ("profile-svg/smo:alpha=1e-7,beta=1", ["profile", "--model", "smo:alpha=1e-7,beta=1", "--format", "svg"]),
]


def write_artifacts(root: Path) -> dict[str, str]:
    """Write every run's files under root; map each file's relative path to its SHA-256."""
    for label, argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(root / label)])
        if code != 0:
            raise RuntimeError(f"tailpath {' '.join(argv)} exited {code}")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def read_manifest() -> dict[str, str]:
    digests = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def test_artifacts_match_manifest(tmp_path):
    got = write_artifacts(tmp_path)
    want = read_manifest()
    problems = [f"moved: {name}" for name in want if name in got and got[name] != want[name]]
    problems += [f"missing: {name}" for name in want if name not in got]
    problems += [f"not in manifest: {name}" for name in got if name not in want]
    assert not problems, "artifact bytes differ from tests/golden.sha256:\n" + "\n".join(problems)
    assert '"lambda_err": Infinity' in (tmp_path / "path-two-level/comono/path.json").read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = write_artifacts(Path(tmp))
    MANIFEST.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()))
    print(f"wrote {len(digests)} digests to {MANIFEST}")
