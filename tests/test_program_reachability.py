"""Every module-level function and class of the package, and every named
method and property of its classes, has a program caller.

A definition that only tests reach is code the program carries without
using.  Each module-level function and class of `src/radonlab`, and
each method or property of such a class whose name is not a dunder,
must be named outside its own body somewhere in `src/`, `scripts/` or
`perfbench/`, and a use inside a definition that fails this test does
not count, so a block of test-only code is found whole, not just its
entry points.  A member counts as named wherever its name is, whatever
the object: the sources carry no types to tell two same-named members
apart.  The Python sources of `src/` and `scripts/` are parsed, so
docstrings and comments never count as a use; `perfbench/` is read as
text, because its tracer resolves functions by their names in strings.
Files are parsed and read, never run.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radonlab"

# Reference code that tests check live code against: label -> why it
# stays.  A member's label is `Class.member`.
ALLOWED = {
    "plane_sign_kernel": "the only k = 2 kernel, the input of the k = 2 "
                         "annulus-rule test against dblquad",
    "delta_function": "the point mass whose image under an operator is "
                      "its kernel, the input of the operator tests",
    "read_csv": "the reader that checks the CSV tables round-trip",
    "CZKernelSpec.size_certificate": "checks a bundled kernel's size "
                                     "constant, |y|^k |K| + |y|^{k+1} "
                                     "|grad K| <= 1",
    "CZKernelSpec.validate": "checks a bundled kernel's cancellation "
                             "over three annuli through "
                             "`cancellation_defect`",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node) -> Counter:
    """Names that the code under `node` loads or reaches as attributes."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _definitions() -> list[dict]:
    """Each module-level definition and named class member: its module,
    label, name, the names used inside its own body, and its class's
    label (None at module level)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                continue
            out.append({"module": path.stem, "label": node.name,
                        "name": node.name, "own": _names(node),
                        "owner": None})
            if isinstance(node, ast.ClassDef):
                out += [{"module": path.stem,
                         "label": f"{node.name}.{member.name}",
                         "name": member.name, "own": _names(member),
                         "owner": node.name}
                        for member in node.body
                        if isinstance(member, _FUNCTIONS)
                        and not (member.name.startswith("__")
                                 and member.name.endswith("__"))]
    return out


def _test_only() -> tuple[dict[str, str], set[str]]:
    """(test-only definitions: label -> module, allowed labels that no
    program code names).

    Definitions are dropped until none is left that only dropped code
    names.  A dropped class takes its members along, and a dropped
    member's names leave its class's body.  Names in perfbench's text
    are kept, and so are the allowed definitions and what they use.
    """
    parsed = Counter()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        parsed += _names(ast.parse(path.read_text(encoding="utf-8")))
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted((ROOT / "perfbench").glob("*.py")))
    defs = _definitions()
    classes = {d["label"]: d for d in defs if d["owner"] is None}
    candidates = [d for d in defs
                  if not re.search(rf"\b{re.escape(d['name'])}\b", text)]
    dropped = {}

    def drop(d):
        dropped[d["label"]] = d["module"]
        parsed.subtract(d["own"])
        if d["owner"] is not None:
            classes[d["owner"]]["own"] -= d["own"]
        else:
            dropped.update((m["label"], m["module"]) for m in defs
                           if m["owner"] == d["label"])

    while fresh := [d for d in candidates
                    if d["label"] not in dropped
                    and d["label"] not in ALLOWED
                    and parsed[d["name"]] == d["own"][d["name"]]]:
        for d in fresh:
            if d["label"] not in dropped:
                drop(d)
    unused = {d["label"] for d in candidates if d["label"] in ALLOWED
              and parsed[d["name"]] == d["own"][d["name"]]}
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
