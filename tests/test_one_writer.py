"""Every file that `pursuit_lab` writes goes through one of three writers:
`rl.RunDir`, the one writer of run and report directories; `nn.save_arrays`,
the checkpoint zip codec that `RunDir.archive` calls; and `cli.cmd_render`,
whose `--out` is one SVG file, not a run directory.

The sources of `src/pursuit_lab` are scanned with `ast` for the calls that
make or write files: `open` and `zipfile.ZipFile` in a mode that writes (or
in a mode known only at run time), `os.makedirs`, the `csv` module's
writers, `json.dump`, and any `mkdir`, `write_text` or `write_bytes` method. A file format added to a run directory belongs in `rl.RunDir`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "pursuit_lab"

#: The definitions that may write files, as `module.qualname`; their nested
#: definitions (the methods of `rl.RunDir`) may too.
WRITERS = ("rl.RunDir", "nn.save_arrays", "cli.cmd_render")

#: Calls that write whatever their arguments, by `name` or `module.name`.
ALWAYS_WRITES = {"os.makedirs", "csv.writer", "csv.DictWriter", "json.dump"}

#: Methods that write, matched by attribute name on any object (`os.mkdir` and a path's).
METHOD_WRITES = {"mkdir", "write_text", "write_bytes"}

#: Calls whose second argument (or `mode` keyword) is a file mode; they read by default.
MODE_CALLS = {"open", "io.open", "zipfile.ZipFile"}


def call_name(func: ast.expr) -> str:
    """`name`, `module.name` or `.attr` of a call's function."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return f"{func.value.id}.{func.attr}" if isinstance(func.value, ast.Name) else f".{func.attr}"
    return ""


def writes(call: ast.Call) -> bool:
    name = call_name(call.func)
    if name in ALWAYS_WRITES or (isinstance(call.func, ast.Attribute) and call.func.attr in METHOD_WRITES):
        return True
    if name not in MODE_CALLS:
        return False
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def write_sites(source: str, module: str) -> list[str]:
    """`module.qualname:line` of every writing call in `source`."""
    found = []

    def visit(node, qualname):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}"
        elif isinstance(node, ast.Call) and writes(node):
            found.append(f"{qualname}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, qualname)

    visit(ast.parse(source), module)
    return found


def src_write_sites() -> list[str]:
    return [site for path in sorted(SRC.glob("*.py")) for site in write_sites(path.read_text(encoding="utf-8"), path.stem)]


def in_writer(site: str) -> str | None:
    qualname = site.split(":")[0]
    return next((w for w in WRITERS if qualname == w or qualname.startswith(w + ".")), None)


def test_every_file_write_sits_in_one_of_the_writers():
    assert [site for site in src_write_sites() if in_writer(site) is None] == []


def test_each_writer_still_writes():
    # an entry whose writes moved or went leaves the list
    assert sorted({in_writer(site) for site in src_write_sites()} - {None}) == sorted(WRITERS)


def test_the_scan_finds_each_kind_of_write():
    source = """
import csv, json, os, zipfile
def f(path, mode, fh):
    open(path, "w")
    open(path, mode="a", encoding="utf-8")
    open(path, "rb+")
    open(path, mode)
    zipfile.ZipFile(path, "w")
    os.makedirs(path)
    csv.writer(fh)
    csv.DictWriter(fh, fieldnames=[])
    json.dump({}, fh)
    path.write_text("")
    path.parent.mkdir()
def g(path):
    open(path)
    open(path, "rb")
    zipfile.ZipFile(path, "r")
    json.dumps({})
    os.path.join(path, "x")
"""
    assert write_sites(source, "m") == [f"m.f:{line}" for line in range(4, 15)]
