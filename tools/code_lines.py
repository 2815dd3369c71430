"""Print the code lines of each module of src/deoq_dyn and their total.

A code line is one that is not blank, comment or docstring.
Usage: python3 tools/code_lines.py
"""
import ast, io, pathlib, tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "deoq_dyn"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    toks = tokenize.generate_tokens(io.StringIO(text).readline)
    return len({n for t in toks if t.type not in LAYOUT for n in range(t.start[0], t.end[0] + 1)} - docs)


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        total += (n := code_lines(path.read_text()))
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
