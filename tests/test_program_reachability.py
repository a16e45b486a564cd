"""Every module-level function and class of the package has a program
caller.

A definition that only tests reach is code the program carries without
using.  Each module-level function and class of `src/radonlab` must be
named outside its own body somewhere in `src/`, `scripts/` or
`perfbench/`, and a use inside a definition that fails this test does
not count, so a block of test-only code is found whole, not just its
entry points.  The Python sources of `src/` and `scripts/` are parsed,
so docstrings and comments never count as a use; `perfbench/` is read as
text, because its tracer resolves functions by their names in strings.
Files are parsed and read, never run.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radonlab"

# Reference code that tests check live code against: name -> why it stays.
ALLOWED = {
    "plane_sign_kernel": "the only k = 2 kernel, the input of the k = 2 "
                         "annulus-rule test against dblquad",
    "delta_function": "the point mass whose image under an operator is "
                      "its kernel, the input of the operator tests",
    "read_csv": "the reader that checks the CSV tables round-trip",
}


def _names(node) -> Counter:
    """Names that the code under `node` loads or reaches as attributes."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _definitions() -> list[tuple[str, str, Counter]]:
    """(module, name, names used inside the definition's own body)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out += [(path.stem, node.name, _names(node)) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))]
    return out


def _test_only() -> tuple[dict[str, str], set[str]]:
    """(test-only definitions: name -> module, allowed names that no
    program code names).

    Definitions are dropped until none is left that only dropped code
    names.  Names in perfbench's text are kept, and so are the allowed
    names and what they use.
    """
    parsed = Counter()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        parsed += _names(ast.parse(path.read_text(encoding="utf-8")))
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted((ROOT / "perfbench").glob("*.py")))
    candidates = [(module, name, own) for module, name, own in _definitions()
            if not re.search(rf"\b{re.escape(name)}\b", text)]
    dropped = {}
    while fresh := [(module, name, own) for module, name, own in candidates
                    if name not in dropped and name not in ALLOWED
                    and parsed[name] == own[name]]:
        for module, name, own in fresh:
            dropped[name] = module
            parsed -= own
    unused = {name for _, name, own in candidates
              if name in ALLOWED and parsed[name] == own[name]}
    return dropped, unused


def test_every_definition_has_a_program_caller():
    test_only, _ = _test_only()
    assert not test_only, (
        "only tests reach these definitions; give each a program caller "
        "or delete it: "
        + ", ".join(sorted(f"{m}.{n}" for n, m in test_only.items())))


def test_every_allowance_is_still_needed():
    _, unused = _test_only()
    assert unused == set(ALLOWED), (
        "allowed names that are gone or now have a program caller: "
        + ", ".join(sorted(set(ALLOWED) - unused)))
