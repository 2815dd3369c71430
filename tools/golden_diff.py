"""Regenerate each golden output into a temporary directory and list the numbers that moved.

The command lines are GOLDEN_CASES of tests/test_cli.py.  Each new output
is compared with its file under tests/golden number by number: every number
that changed prints as file:line: old -> new with its relative change, and
a file whose text between the numbers changed is named.  Nothing under
tests/golden is written.  Exits 1 if any output differs from its golden file.
Usage: python3 tools/golden_diff.py
"""
import pathlib, re, sys, tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from deoq_dyn.cli import main  # noqa: E402
from test_cli import GOLDEN, GOLDEN_CASES  # noqa: E402

NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def moved(old: str, new: str) -> list:
    """(line, old, new) of each number that differs, or None if the text between the numbers differs."""
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[::2] != new_parts[::2]:
        return None
    line, changes = 1, []
    for text, a, b in zip(old_parts[::2], old_parts[1::2], new_parts[1::2]):
        line += text.count("\n")
        if a != b:
            changes.append((line, a, b))
    return changes


if __name__ == "__main__":
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, *extra) in GOLDEN_CASES.items():
            out = pathlib.Path(tmp) / name
            config = GOLDEN / f"{name.rsplit('.', 1)[0]}.config.json"
            if main([command, "--config", str(config), "--out", str(out), *extra]) != 0:
                sys.exit(f"{name}: {command} failed")
            old, new = (GOLDEN / name).read_text(), out.read_text()
            changes = moved(old, new)
            differ |= old != new
            if changes is None:
                print(f"{name}: text between the numbers changed")
            for line, a, b in changes or []:
                rel = (float(b) - float(a)) / abs(float(a)) if float(a) else float("inf")
                print(f"{name}:{line}: {a} -> {b} ({rel:+.2e})")
            if old == new:
                print(f"{name}: unchanged")
    sys.exit(1 if differ else 0)
