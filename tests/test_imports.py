import ast
from pathlib import Path

import dapclust

PACKAGE = Path(dapclust.__file__).parent


def imported_names(path) -> set[str]:
    """Every module and name that the source file at ``path`` imports,
    modules by their last dotted part."""
    tree = ast.parse(Path(path).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
    return imported


def test_no_module_uses_the_union_find_or_the_tree():
    # Every clusterer links points by label propagation and queries a grid;
    # the SS+tree stays importable only for the benchmark trace.
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"naive.py", "pipeline.py", "sstree.py", "__init__.py"} <= {p.name for p in paths}
    for path in paths:
        imported = imported_names(path)
        assert not imported & {"unionfind", "UnionFind"}, path.name
        if path.name not in ("sstree.py", "__init__.py"):
            assert not imported & {"sstree", "SsTree"}, path.name
    assert not (PACKAGE / "unionfind.py").exists()
    assert not hasattr(dapclust, "UnionFind")
