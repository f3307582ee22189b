"""Static checks on the package source, using the standard library only."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qseed"


def unused_imports(source):
    """(line, name) for each name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_checker_finds_unused_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == [(1, "field")]


def test_no_unused_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# The reference simulator serves the tests and the benchmark's oracle check,
# and the benchmark builds its oracle circuits from these two ttn functions.
REFERENCE_MODULES = {"statevector.py"}
READ_OUTSIDE_PRODUCT = {("ttn.py", "encoding_gates"), ("ttn.py", "circuit_gates")}


def _registers_command(decorator):
    """True for `@command(...)` or `@<group>.command(...)`: click calls the
    function it registers."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "command"


def unreferenced_definitions(sources):
    """(module, name) for each top-level function or class, and each public
    method, whose name no module of `sources` (module -> source) reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not any(_registers_command(d) for d in node.decorator_list):
                    defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return sorted((module, name) for module, name in defined if name not in read)


def test_checker_finds_unreferenced_definition():
    source = (
        "def used():\n    pass\n\n"
        "def unused():\n    used()\n\n"
        "class A:\n    def read(self):\n        pass\n\n    def unread(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n\n"
        "A().read()\n\n"
        "@command('x')\ndef registered():\n    pass\n"
    )
    assert unreferenced_definitions({"m.py": source}) == [("m.py", "unread"), ("m.py", "unused")]


def test_every_definition_has_a_product_caller():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = [
        f"{module}: {name}"
        for module, name in unreferenced_definitions(sources)
        if module not in REFERENCE_MODULES and (module, name) not in READ_OUTSIDE_PRODUCT
    ]
    assert found == []


def text_reads_without_text_encoding(source):
    """Lines of each `open(` that reads text without `encoding=TEXT_ENCODING`.
    Binary opens ("b" in the mode) and write-only opens are exempt; a mode
    that is not a string literal is flagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if "b" in mode.value or (set(mode.value) & set("wax") and "+" not in mode.value):
                continue
        if getattr(keywords.get("encoding"), "id", None) != "TEXT_ENCODING":
            found.append(node.lineno)
    return found


def test_checker_finds_text_read_without_text_encoding():
    source = (
        "open(p)\n"
        "open(p, 'r', encoding='utf-8')\n"
        "open(p, encoding=TEXT_ENCODING, newline='')\n"
        "open(p, 'rb')\n"
        "open(p, mode='w', encoding='utf-8')\n"
        "open(p, 'r+', encoding='utf-8')\n"
        "open(p, m, encoding='utf-8')\n"
        "open(p, 'r', encoding=TEXT_ENCODING, errors='surrogateescape')\n"
    )
    assert text_reads_without_text_encoding(source) == [1, 2, 6, 7]


def test_every_text_read_decodes_with_text_encoding():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in text_reads_without_text_encoding(path.read_text(encoding="utf-8"))
    ]
    assert found == []
