"""Every name a module of the package imports is used in that module, and
every name a module defines is read somewhere in the package.

No linter ships with the package's toolchain, so these stdlib-`ast` checks
stand in for one. `__init__.py` is exempt from both: its imports are the
package's re-exports, and a re-export counts as a read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "streammem"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_guard_sees_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "np.zeros(1)\nc()\n")
    assert unused_imports(source) == ["e (line 3)", "os (line 1)"]


def _defined(tree) -> dict:
    """The module-level functions, classes and assigned names of `tree`,
    each with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


def dead_definitions(sources: dict) -> list:
    """The module-level definitions of the modules in `sources` (file name
    to source) that no module reads as a `Name` or an `Attribute`, and that
    `__init__.py` does not re-export."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name == "__init__.py":
                read.update(alias.name for alias in node.names)
    return sorted(f"{name}: {defined} (line {line})"
                  for name, tree in trees.items() if name != "__init__.py"
                  for defined, line in _defined(tree).items()
                  if defined not in read)


def test_no_dead_definition():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert dead_definitions(sources) == []


def test_guard_sees_dead_definitions():
    sources = {
        "a.py": ("from . import b\nX = 1\nY, Z = 2, 3\n\n\n"
                 "def f():\n    return Y + b.g()\n\n\nclass C:\n"
                 "    pass\n"),
        "b.py": "def g():\n    return 0\n\n\nH: int = 0\n",
        "__init__.py": "from .a import C, f\n__version__ = '0'\n",
    }
    assert dead_definitions(sources) == ["a.py: X (line 2)",
                                         "a.py: Z (line 3)",
                                         "b.py: H (line 5)"]


# the calls that open and read record files; `codec.Record` is their one
# caller, so every binary file is read through one checked reader
RECORD_IO = {"open", "pread", "preadv", "sendfile"}


def record_io(source: str) -> list:
    """Each use of os.open, os.pread, os.preadv or os.sendfile in `source`,
    as an attribute of `os` or imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in RECORD_IO
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            found.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name in RECORD_IO]
    return sorted(found)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "codec.py"))
def test_only_the_codec_reads_records(module):
    assert record_io((SRC / module).read_text(encoding="utf-8")) == []


def test_guard_sees_record_io():
    source = ("import os\nfrom os import sendfile, close\n"
              "fd = os.open('f', os.O_RDONLY)\nos.pread(fd, 4, 0)\n"
              "os.close(fd)\nopen('f').read()\n")
    assert record_io(source) == ["os.open (line 3)", "os.pread (line 4)",
                                 "os.sendfile (line 2)"]


# the ways to pack record bytes; `codec.Format.save` is their one user, so
# every binary file is written through one checked writer
RECORD_PACKING = {"tobytes", "tofile", "writelines"}


def record_packing(source: str) -> list:
    """Each import of `struct` in `source`, and each use of a `tobytes`,
    `tofile` or `writelines` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"struct (line {node.lineno})" for alias in node.names
                      if alias.name == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            found.append(f"struct (line {node.lineno})")
        elif (isinstance(node, ast.Attribute)
              and node.attr in RECORD_PACKING):
            found.append(f".{node.attr} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "codec.py"))
def test_only_the_codec_packs_records(module):
    assert record_packing((SRC / module).read_text(encoding="utf-8")) == []


def test_guard_sees_record_packing():
    source = ("import os, struct\nfrom struct import pack\n"
              "import numpy as np\nnp.ones(2).tobytes()\n"
              "fh.writelines([b''])\nwrite = x.tofile\nx.tolist()\n")
    assert record_packing(source) == [".tobytes (line 4)",
                                      ".tofile (line 6)",
                                      ".writelines (line 5)",
                                      "struct (line 1)", "struct (line 2)"]
