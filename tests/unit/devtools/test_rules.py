"""Fixture tests for the RT AST rules: each rule has a golden violation
it must fire on and a corrected twin it must stay silent on.

Fixture sources are embedded as strings and written to ``tmp_path``
(never on-disk modules: several deliberately contain the exact patterns
— bare except, ``except BaseException`` without re-raise — that the
repo's own ruff gate rejects).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import RT_CODE_CATALOG, Baseline, lint_paths
from repro.devtools.linter import lint_file


def lint_source(tmp_path: Path, source: str, name: str = "fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path)


def codes(diagnostics) -> list[str]:
    return [d.code for d in diagnostics]


# -- RT101: blocking calls in async def --------------------------------------

RT101_FIRES = """
    import time

    async def handler():
        time.sleep(0.1)
"""

RT101_SILENT = """
    import asyncio
    import time

    async def handler():
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, time.sleep, 0.1)

    def sync_helper():
        time.sleep(0.1)  # not on the loop: sync function

    async def nested_scope():
        def inner():
            time.sleep(0.1)  # runs wherever inner is called, not here
        return inner
"""


def test_rt101_fires(tmp_path):
    report = lint_source(tmp_path, RT101_FIRES)
    assert codes(report) == ["RT101"]
    assert report[0].symbol == "handler"


def test_rt101_silent_on_corrected_twin(tmp_path):
    assert codes(lint_source(tmp_path, RT101_SILENT)) == []


def test_rt101_matches_method_tails(tmp_path):
    source = """
        async def drain(self):
            self._executor.shutdown()
    """
    assert codes(lint_source(tmp_path, source)) == ["RT101"]


# -- RT102: stack push without try/finally pop --------------------------------

RT102_FIRES = """
    from repro._concurrency import ThreadLocalStack

    _STACK = ThreadLocalStack()

    def activate(item):
        _STACK.push(item)
        do_work()
        _STACK.pop()
"""

RT102_SILENT = """
    from contextlib import contextmanager

    from repro._concurrency import ThreadLocalStack

    _STACK = ThreadLocalStack()

    @contextmanager
    def activate(item):
        _STACK.push(item)
        try:
            yield item
        finally:
            _STACK.pop()

    def activate_inside_try(item):
        try:
            _STACK.push(item)
            do_work()
        finally:
            _STACK.pop()

    @contextmanager
    def activate_via_cm(item):
        with _STACK.pushed(item):
            yield item
"""


def test_rt102_fires(tmp_path):
    report = lint_source(tmp_path, RT102_FIRES)
    assert codes(report) == ["RT102"]
    assert report[0].symbol == "activate"


def test_rt102_silent_on_corrected_twin(tmp_path):
    assert codes(lint_source(tmp_path, RT102_SILENT)) == []


def test_rt102_detects_threading_local_subclasses(tmp_path):
    source = """
        import threading

        class _ActiveStack(threading.local):
            def __init__(self):
                self.items = []

        _TLS = _ActiveStack()

        def activate(item):
            _TLS.items.append(item)
    """
    assert codes(lint_source(tmp_path, source)) == ["RT102"]


# -- RT103: mutation outside the declared lock --------------------------------

RT103_FIRES = """
    import threading

    __lock_registry__ = {"Counter": {"_count": "_lock"}}

    class Counter:
        def __init__(self):
            self._count = 0  # __init__ is exempt: no concurrent access yet
            self._lock = threading.Lock()

        def bump(self):
            self._count += 1
"""

RT103_SILENT = """
    import threading

    __lock_registry__ = {"Counter": {"_count": "_lock"}}

    class Counter:
        def __init__(self):
            self._count = 0
            self._lock = threading.Lock()

        def bump(self):
            with self._lock:
                self._count += 1

        def read(self):
            return self._count  # reads are not mutations
"""


def test_rt103_fires(tmp_path):
    report = lint_source(tmp_path, RT103_FIRES)
    assert codes(report) == ["RT103"]
    assert report[0].symbol == "Counter.bump"


def test_rt103_silent_on_corrected_twin(tmp_path):
    assert codes(lint_source(tmp_path, RT103_SILENT)) == []


def test_rt103_catches_mutator_methods(tmp_path):
    source = """
        __lock_registry__ = {"Box": {"items": "_lock"}}

        class Box:
            def add(self, x):
                self.items.append(x)
    """
    assert codes(lint_source(tmp_path, source)) == ["RT103"]


# -- RT201: cache-backed mutation without invalidation ------------------------

RT201_FIRES = """
    __cache_registry__ = {"entries": "invalidate"}

    def grow(node, entry):
        node.entries.append(entry)
"""

RT201_SILENT = """
    __cache_registry__ = {"entries": "invalidate"}

    def grow(node, entry):
        node.entries.append(entry)
        node.invalidate()

    def replace(node, items):
        node.entries = items
        node.invalidate()

    def untracked(node, entry):
        node.other.append(entry)  # field not in the registry
"""


def test_rt201_fires(tmp_path):
    report = lint_source(tmp_path, RT201_FIRES)
    assert codes(report) == ["RT201"]


def test_rt201_silent_on_corrected_twin(tmp_path):
    assert codes(lint_source(tmp_path, RT201_SILENT)) == []


def test_rt201_requires_matching_base(tmp_path):
    # Invalidating a *different* object does not satisfy the pairing.
    source = """
        __cache_registry__ = {"entries": "invalidate"}

        def grow(node, other, entry):
            node.entries.append(entry)
            other.invalidate()
    """
    assert codes(lint_source(tmp_path, source)) == ["RT201"]


def test_rt201_inline_waiver(tmp_path):
    source = """
        __cache_registry__ = {"entries": "invalidate"}

        def fresh(klass):
            node = klass()
            node.entries = []  # devtools: allow[RT201]
            return node
    """
    assert codes(lint_source(tmp_path, source)) == []


# -- RT301: governed loop without checkpoint ----------------------------------

RT301_FIRES = """
    def drain(heap, pages):
        rows = []
        for index in pages:
            rows.extend(heap.read_page(index))
        return rows
"""

RT301_SILENT = """
    def drain(heap, pages):
        rows = []
        for index in pages:
            checkpoint()
            rows.extend(heap.read_page(index))
        return rows

    def drain_generator(heap, pages):
        for index in pages:
            yield heap.read_page(index)  # generators hand control back

    def harmless(items):
        for item in items:
            item.accumulate()  # no IO/solver work in the loop
"""


def test_rt301_fires(tmp_path):
    report = lint_source(tmp_path, RT301_FIRES)
    assert codes(report) == ["RT301"]


def test_rt301_silent_on_corrected_twin(tmp_path):
    assert codes(lint_source(tmp_path, RT301_SILENT)) == []


# -- RT401 / RT402: exception hygiene -----------------------------------------

RT401_FIRES = """
    def recover_pages(path):
        try:
            return replay(path)
        except Exception:
            return None
"""

RT401_SILENT = """
    def recover_pages(path):
        try:
            return replay(path)
        except OSError:
            return None

    def recover_logged(path):
        try:
            return replay(path)
        except Exception:
            log()
            raise

    def ordinary_function(path):
        try:
            return parse(path)
        except Exception:
            return None  # not a durability/recovery path
"""


def test_rt401_fires(tmp_path):
    report = lint_source(tmp_path, RT401_FIRES)
    assert codes(report) == ["RT401"]
    assert report[0].symbol == "recover_pages"


def test_rt401_silent_on_corrected_twin(tmp_path):
    assert codes(lint_source(tmp_path, RT401_SILENT)) == []


RT402_FIRES = """
    def run(task):
        try:
            return task()
        except BaseException:
            return None
"""

RT402_SILENT = """
    def run(task):
        try:
            return task()
        except BaseException:
            cleanup()
            raise

    def narrow(task):
        try:
            return task()
        except Exception:
            return None
"""


def test_rt402_fires(tmp_path):
    assert codes(lint_source(tmp_path, RT402_FIRES)) == ["RT402"]


def test_rt402_fires_on_bare_except(tmp_path):
    source = """
        def run(task):
            try:
                return task()
            except:
                return None
    """
    assert codes(lint_source(tmp_path, source)) == ["RT402"]


def test_rt402_silent_on_corrected_twin(tmp_path):
    assert codes(lint_source(tmp_path, RT402_SILENT)) == []


# -- framework: baselines, fingerprints, rendering, catalog -------------------


def test_every_ast_rule_has_catalog_entry():
    from repro.devtools import all_rt_rules

    for rule in all_rt_rules():
        assert rule.code in RT_CODE_CATALOG


def test_fingerprint_is_line_independent(tmp_path):
    first = lint_source(tmp_path, RT101_FIRES, "mod_a.py")
    shifted = lint_source(tmp_path, "\n\n# comment\n" + textwrap.dedent(RT101_FIRES), "mod_a.py")
    assert first[0].fingerprint == shifted[0].fingerprint
    assert first[0].line != shifted[0].line


def test_baseline_filters_accepted_findings(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(RT101_FIRES), encoding="utf-8")
    report = lint_paths([path])
    assert report.has_errors
    baseline = Baseline.from_report(report)
    assert not lint_paths([path], baseline=baseline)
    # Round-trip through the JSON file the CLI uses.
    baseline_file = tmp_path / "baseline.json"
    baseline.write(baseline_file)
    assert not lint_paths([path], baseline=Baseline.load(baseline_file))


def test_missing_baseline_file_is_empty():
    assert Baseline.load(Path("/nonexistent/baseline.json")).fingerprints == frozenset()


def test_report_renders_summary_and_clean_marker(tmp_path):
    clean = lint_source(tmp_path, "x = 1\n")
    from repro.devtools import RuntimeReport

    assert RuntimeReport(clean).render() == "ok: no findings"
    path = tmp_path / "bad.py"
    path.write_text(textwrap.dedent(RT101_FIRES), encoding="utf-8")
    rendered = lint_paths([path]).render()
    assert rendered.endswith("1 error")
    assert "RT101 error" in rendered


def test_select_limits_rules(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        textwrap.dedent(RT101_FIRES) + textwrap.dedent(RT402_FIRES),
        encoding="utf-8",
    )
    only_401 = lint_paths([path], select=["RT402"])
    assert codes(only_401) == ["RT402"]


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent(RT101_FIRES), encoding="utf-8")
    assert main(["devtools", "lint", str(bad)]) == 2
    assert "RT101" in capsys.readouterr().out

    baseline = tmp_path / "baseline.json"
    assert main(["devtools", "lint", str(bad), "--write-baseline", str(baseline)]) == 0
    assert main(["devtools", "lint", str(bad), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "ok: no findings" in out


def test_cli_warnings_do_not_gate(tmp_path, capsys):
    from repro.cli import main

    warn_only = tmp_path / "warn.py"
    warn_only.write_text(textwrap.dedent(RT301_FIRES), encoding="utf-8")
    assert main(["devtools", "lint", str(warn_only)]) == 0
    assert "RT301 warning" in capsys.readouterr().out
