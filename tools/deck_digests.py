"""SHA-256 digests of everything the benchmark decks make dynderiv print or write.

Imports dynderiv from the given ``src/`` directory, writes the
``bench/inputs.generate`` decks of every ``bench/inputs.WORKLOADS`` entry at the
chosen seeds into a temporary directory, runs every deck command through
``dynderiv.cli.main`` in this process, and prints one ``key sha256`` line
for each command's exit code, stdout, stderr and output file, for the
canonical rendering of each config a ``sweep`` or ``simulate`` command reads
(``render_case_config(parse_case_config(text))``), and for ``dynderiv
validate``'s stdout.  The temporary directory's path is replaced by
``<deck>`` before hashing, so two runs compare by ``diff``:

    python3 tools/deck_digests.py --src OLD/src > old.txt
    python3 tools/deck_digests.py --src src > new.txt
    diff old.txt new.txt        # empty: the outputs are byte-identical

The decks come from this checkout's ``bench/inputs.py`` whichever ``src/``
is imported, so both runs see the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the src/ directory to import dynderiv from")
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 4, 5])
    args = parser.parse_args()

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import inputs
    import dynderiv
    from dynderiv.cli import main as cli_main
    from dynderiv.config import parse_case_config, render_case_config

    print(f"dynderiv from {Path(dynderiv.__file__).parent}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        for workload in inputs.WORKLOADS:
            for seed in args.seeds:
                deck_dir = Path(tmp) / f"{workload}-{seed}"
                deck = inputs.generate(workload, seed, deck_dir)
                for i, command in enumerate(deck.commands):
                    key = f"{workload}/{seed}/{i:03d}-{command.name}"
                    if command.kind in ("sweep", "simulate"):
                        text = Path(command.argv[1]).read_text(encoding="utf-8")
                        rendered = render_case_config(parse_case_config(text))
                        print(f"{key}/render {_digest(rendered.encode())}")
                    code, out, err = _run(cli_main, command.argv)
                    print(f"{key}/exit {_digest(str(code).encode())}")
                    print(f"{key}/stdout {_digest(out.encode(), deck_dir)}")
                    print(f"{key}/stderr {_digest(err.encode(), deck_dir)}")
                    for path in _output_files(command.outputs):
                        name = path.relative_to(deck_dir).as_posix()
                        print(f"{key}/{name} {_digest(path.read_bytes(), deck_dir)}")
    code, out, _ = _run(cli_main, ["validate"])
    print(f"validate/exit {_digest(str(code).encode())}")
    print(f"validate/stdout {_digest(out.encode())}")


if __name__ == "__main__":
    main()
