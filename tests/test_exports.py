import ast
import re
from pathlib import Path

import ddfl
from ddfl.backends.filesystem import FilesystemStore
from ddfl.config import KEYS, experiment_config, parse_config_file
from ddfl.store import ModelRecord, StoreKey, global_key

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in ddfl.__all__ if not hasattr(ddfl, name)]
    assert not missing, f"ddfl.__all__ names undefined attributes: {missing}"
    assert len(set(ddfl.__all__)) == len(ddfl.__all__), "ddfl.__all__ repeats a name"


def test_no_module_imports_another_modules_private_names():
    package = Path(ddfl.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.relative_to(package)}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found


def test_no_module_holds_an_assert_statement():
    # python -O strips assert statements, so a check written as one vanishes.
    package = Path(ddfl.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, f"expected one python block in README, found {len(blocks)}"
    exec(compile(blocks[0], f"{README}:quick start", "exec"), {})


def readme_ini_block():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, f"expected one ini block in README, found {len(blocks)}"
    return blocks[0]


def test_readme_config_example_parses(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(readme_ini_block(), encoding="utf-8")
    cfg = experiment_config(parse_config_file(path))
    assert cfg.n_clients == 8 and cfg.rounds == 10


def test_readme_config_example_names_every_key_once():
    # A key line is set, or commented out at the start of its line; an
    # indented comment continues the line above it.
    named = re.findall(r"^(?:#\s*)?(\w+)\s*=", readme_ini_block(), re.MULTILINE)
    assert sorted(named) == sorted(KEYS)


def test_readme_filesystem_layout_matches_the_store(tmp_path):
    (layout,) = re.findall(r"Filesystem records: `<root>/([^`]*)`", README.read_text())
    # Each <name> in the README's path matches one path component, named <name>.
    pattern = "".join(
        f"(?P<{part[1:-1]}>[^/]+)" if part.startswith("<") else re.escape(part)
        for part in re.split(r"(<\w+>)", layout)
    )
    store = FilesystemStore(tmp_path, "ns")
    # Round 4 is still open, so its client record outlives the global of round 3.
    for key in (StoreKey(7, 4), global_key(3)):
        store.put(ModelRecord(key=key, payload=b"p"))
    found = set()
    for path in tmp_path.rglob("*.rec"):
        match = re.fullmatch(pattern, path.relative_to(tmp_path).as_posix())
        assert match, f"{path} does not match the README's {layout}"
        found.add((match["namespace"], match["round"], match["client"]))
    assert found == {("ns", "4", "7"), ("ns", "3", "global")}
