"""The gate CI enforces: the repro tree itself lints clean with an
empty baseline and every shipped rule enabled."""

from __future__ import annotations

from pathlib import Path

from repro.devtools import lint_paths

SRC_REPRO = Path(__file__).resolve().parents[3] / "src" / "repro"


def test_tree_is_clean():
    assert SRC_REPRO.is_dir()
    report = lint_paths([SRC_REPRO])
    assert report.render() == "ok: no findings", report.render()


def test_annotation_registries_are_present():
    """The RT103/RT201 registries the linter relies on must not be
    silently dropped from the modules they guard — an empty registry
    would make the tree gate vacuous for those rules."""
    import ast

    def module_has(path: Path, name: str) -> bool:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == name for t in stmt.targets
            )
            for stmt in tree.body
        )

    assert module_has(SRC_REPRO / "storage" / "snapshot.py", "__lock_registry__")
    assert module_has(SRC_REPRO / "constraints" / "cache.py", "__lock_registry__")
    assert module_has(SRC_REPRO / "indexing" / "rstar.py", "__cache_registry__")
