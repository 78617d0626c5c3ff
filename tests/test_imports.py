import ast
from pathlib import Path

import pytest

import dapclust
from dapclust import pipeline
from dapclust.datagen import make_blobs

PACKAGE = Path(dapclust.__file__).parent


def called_names(path) -> set[str]:
    """Every name that the source file at ``path`` calls, as ``f(...)`` or
    ``module.f(...)``, by its last dotted part."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


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


def test_only_the_tree_may_call_lexsort():
    # np.lexsort makes one merge pass per key; the clusterers' pair arrays
    # sort by one int64 key instead, through core.pair_order.
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "sstree.py":
            assert "lexsort" not in called_names(path) | imported_names(path), path.name
    assert "pair_order" in called_names(PACKAGE / "pipeline.py") & called_names(PACKAGE / "grid.py")


def test_cluster_builds_regions_once_and_no_region_objects(monkeypatch):
    # The benchmark keeps the regions of a call by patching
    # pipeline.build_regions, so cluster calls it by that name, once; the map
    # reads the arrays it returns, so cluster's own path builds no Region.
    module = ast.parse(Path(pipeline.__file__).read_text())
    [body] = [node for node in module.body if getattr(node, "name", None) == "cluster"]
    calls = [node.func for node in ast.walk(body) if isinstance(node, ast.Call)]
    assert [getattr(f, "id", None) for f in calls].count("build_regions") == 1
    built = []
    real = pipeline.build_regions

    def keep(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("a Region was built")

    monkeypatch.setattr(pipeline, "build_regions", keep)
    monkeypatch.setattr(pipeline, "Region", refuse)
    data, _ = make_blobs(600, 3, seed=3)
    # A cap of 2 makes points over the cap leave regions.
    result = pipeline.cluster(data, pipeline.PipelineConfig(m=4, max_regions_per_point=2))
    assert len(built) == 1 and result.n_clusters > 0
    with pytest.raises(AssertionError, match="a Region was built"):
        built[0][0]
