"""Byte-identical outputs: SHA-256 of every stdout and artifact against committed digests.

``data/artifact_digests.json`` maps ``case/seed/command/name`` to the
SHA-256 of one output, for the ten presets and a dense seven-cell case
at seeds 1-3 and the commands ``run``, ``consumption`` and ``validate``.
``name`` is ``stdout`` (with the ``--out`` directory replaced by
``<out>``) or the file name of an artifact.  A change that claims
byte-identical outputs must pass this unchanged.

Regenerate with ``PYTHONPATH=src python tests/test_digests.py`` -- only
when an output changes on purpose, in its own commit, naming each changed
key and its reason.  It prints the keys that changed before it overwrites
the file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hapsim.cli import main
from hapsim.config import preset_names

DIGESTS = Path(__file__).parent / "data" / "artifact_digests.json"
DENSE = "dense"
CASES = [*preset_names(), DENSE]
SEEDS = (1, 2, 3)
COMMANDS = ("run", "consumption", "validate")
# the dense case: seven cells, beam selection, rooftop terminals, probabilistic LOS
_DENSE_CFG = ("layout = seven_cell\nattachment_mode = beam_selection\n"
              "terminal_kind = cpe_directional\nterminal_count = 336\n"
              "los_assignment = probabilistic\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(case: str, seed: int, command: str, tmp: Path) -> tuple[str, Path]:
    """Run one CLI call in-process; returns its stdout and its artifact directory."""
    if case == DENSE:
        cfg = tmp / f"{DENSE}.cfg"
        cfg.write_text(_DENSE_CFG)
        source = ["--config", str(cfg)]
    else:
        source = ["--preset", case]
    out = tmp / f"{case}-{seed}-{command}"
    argv = [command, *source, "--seed", str(seed)]
    if command != "validate":
        argv += ["--out", str(out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, (case, seed, command)
    return buf.getvalue().replace(str(out), "<out>"), out


def digests_of(prefix: str, stdout: str, out: Path) -> dict[str, str]:
    """The digest of the stdout and of every file in ``out``, keyed under ``prefix``."""
    found = {f"{prefix}/stdout": _sha(stdout.encode())}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            found[f"{prefix}/{path.name}"] = _sha(path.read_bytes())
    return found


def compute_all(tmp: Path) -> dict[str, str]:
    found = {}
    for case in CASES:
        for seed in SEEDS:
            for command in COMMANDS:
                stdout, out = run_command(case, seed, command, tmp)
                found.update(digests_of(f"{case}/{seed}/{command}", stdout, out))
    return found


def mismatches(found: dict[str, str], stored: dict[str, str]) -> list[str]:
    """Keys missing from either side or holding another digest, sorted."""
    return sorted(k for k in found.keys() | stored.keys() if found.get(k) != stored.get(k))


def _stored() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def test_every_output_matches_its_committed_digest(tmp_path):
    found = compute_all(tmp_path)
    # three stdouts, four run artifacts and one consumption artifact per case and seed
    assert len(found) == len(CASES) * len(SEEDS) * (3 + 4 + 1)
    assert mismatches(found, _stored()) == []


def test_one_flipped_artifact_byte_fails_the_check(tmp_path):
    stdout, out = run_command("single-cell-bp", 2, "consumption", tmp_path)
    path = out / "consumption.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    prefix = "single-cell-bp/2/consumption"
    stored = {k: v for k, v in _stored().items() if k.startswith(prefix + "/")}
    assert mismatches(digests_of(prefix, stdout, out), stored) == [f"{prefix}/consumption.csv"]


if __name__ == "__main__":
    old = _stored() if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = compute_all(Path(tmp))
    for key in mismatches(new, old):
        print(f"changed: {key}")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} digests to {DIGESTS}", file=sys.stderr)
