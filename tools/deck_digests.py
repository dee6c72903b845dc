"""SHA-256 digests of everything the benchmark decks make dynderiv print or write.

Imports dynderiv from the given ``src/`` directory, writes the
``bench/inputs.generate`` decks of every ``bench/inputs.WORKLOADS`` entry at the
chosen seeds into a temporary directory, runs every deck command through
``dynderiv.cli.main`` in this process, and prints one ``key sha256`` line
for each command's exit code, stdout, stderr and output file, for the
canonical rendering of each config a ``sweep`` or ``simulate`` command reads
(``render_case_config(parse_case_config(text))``), and for ``dynderiv
validate``'s stdout.  The temporary directory's path is replaced by
``<deck>`` before hashing, so two runs compare key by key.

``--against OTHER_SRC`` runs the same decks for a second ``src/`` in a
child interpreter, at the same time, and prints only the keys whose
digests differ (or that only one side has); it exits 1 if there are any.
The child gets a string hash seed other than this process's, so output that
depends on set or dict order differs too.  One command then checks that a
change leaves every output byte as it was:

    python3 tools/deck_digests.py --src src --against OLD/src

The decks come from this checkout's ``bench/inputs.py`` whichever ``src/``
is imported, so both runs see the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest(data: bytes, deck_dir: Path | None = None) -> str:
    if deck_dir is not None:
        data = data.replace(str(deck_dir).encode(), b"<deck>")
    return hashlib.sha256(data).hexdigest()


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _output_files(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        files += sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    return [f for f in files if f.exists()]


def _digest_lines(seeds: list[int]) -> list[str]:
    import inputs
    import dynderiv
    from dynderiv.cli import main as cli_main
    from dynderiv.config import parse_case_config, render_case_config

    print(f"dynderiv from {Path(dynderiv.__file__).parent}", file=sys.stderr)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in inputs.WORKLOADS:
            for seed in seeds:
                deck_dir = Path(tmp) / f"{workload}-{seed}"
                deck = inputs.generate(workload, seed, deck_dir)
                for i, command in enumerate(deck.commands):
                    key = f"{workload}/{seed}/{i:03d}-{command.name}"
                    if command.kind in ("sweep", "simulate"):
                        text = Path(command.argv[1]).read_text(encoding="utf-8")
                        rendered = render_case_config(parse_case_config(text))
                        lines.append(f"{key}/render {_digest(rendered.encode())}")
                    code, out, err = _run(cli_main, command.argv)
                    lines.append(f"{key}/exit {_digest(str(code).encode())}")
                    lines.append(f"{key}/stdout {_digest(out.encode(), deck_dir)}")
                    lines.append(f"{key}/stderr {_digest(err.encode(), deck_dir)}")
                    for path in _output_files(command.outputs):
                        name = path.relative_to(deck_dir).as_posix()
                        lines.append(f"{key}/{name} {_digest(path.read_bytes(), deck_dir)}")
    code, out, _ = _run(cli_main, ["validate"])
    lines.append(f"validate/exit {_digest(str(code).encode())}")
    lines.append(f"validate/stdout {_digest(out.encode())}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the src/ directory to import dynderiv from")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="print only the keys whose digests differ for this src/ directory")
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 4, 5])
    args = parser.parse_args()

    if args.against is not None:
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        child = subprocess.Popen(
            [sys.executable, __file__, "--src", str(args.against),
             "--seeds", *map(str, args.seeds)],
            env=dict(os.environ, PYTHONHASHSEED=seed), stdout=subprocess.PIPE, encoding="utf-8")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    lines = _digest_lines(args.seeds)
    if args.against is None:
        print("\n".join(lines))
        return 0
    other = child.communicate()[0]
    if child.returncode != 0:
        sys.exit(f"the run for {args.against} exited {child.returncode}")
    ours, theirs = (dict(line.rsplit(" ", 1) for line in side)
                    for side in (lines, other.splitlines()))
    differ = [key for key in {**ours, **theirs} if ours.get(key) != theirs.get(key)]
    print("\n".join(differ), end="\n" if differ else "")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
