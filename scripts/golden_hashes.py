"""Print the sha256 of every file the ten reference CLI commands write.

    python3 scripts/golden_hashes.py > hashes.txt

Run from the root of a checkout; the package is imported from its ``src/``.
The commands run in a temporary directory that holds the config files they
read, and each writes into its own subdirectory of an ``out`` directory there;
the output is one ``<sha256>  <subdirectory>/<file>`` line per file, sorted
by path, so that the outputs of two checkouts compare with ``diff``.  A
command that fails stops the script with its exit code.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The default targets are centred at 0; an off-centre one shows a control
# law that depends on where the seam -pi lies.
CONFIGS = {"mu1.json": {"mu": 1.0}}
COMMANDS = (
    ("mono", ["regulate-mono", "--seed", "7"]),
    ("cont", ["continuum"]),
    ("track", ["track", "--noise-dbw", "20", "--seed", "3"]),
    ("open", ["open-loop", "--t-end", "1"]),
    ("bi", ["regulate-bimodal", "--t-end", "0.5"]),
    ("swn", ["sweep-n", "--n-list", "1,5,inf", "--t-end", "0.2", "--workers", "1"]),
    ("swnoise", ["sweep-noise", "--p-list", "0,40", "--seeds", "2", "--t-end", "0.1",
                 "--n", "10", "--workers", "1"]),
    ("cont-mu1", ["continuum", "--config", "mu1.json"]),
    # At kp = 10 the sampling instants bind before the continuum's step cap
    # 1/kp does; at kp = 100 the cap 0.01 sets the longest steps.
    ("cont-kp100", ["continuum", "--kp", "100", "--t-end", "0.5"]),
    # The benchmark's mono-n1000 path: at N = 1000 every interaction sum
    # takes the four-class path, which N = 50 mostly skips.
    ("mono-n1000", ["regulate-mono", "--n", "1000", "--t-end", "0.06"]),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("RINGSWARM_OUT", None)
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, config in CONFIGS.items():
            (Path(tmp) / file_name).write_text(json.dumps(config))
        out = Path(tmp) / "out"
        for name, args in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "ringswarm.cli", *args,
                                   "--out", str(out / name)],
                                  cwd=tmp, env=env, stdout=subprocess.DEVNULL)
            if proc.returncode:
                print(f"golden_hashes: {' '.join(args)} exited with {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
