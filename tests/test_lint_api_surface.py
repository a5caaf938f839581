"""``tools/lint_api_surface.py``: its checks pass on the tree, and the
uncalled-definition scan flags exactly what it documents.

The scan's rules are checked on small trees written to a temp directory,
with the tool's ``ROOT`` pointed there; the benchmark's tracer targets are
stubbed in those trees so each case controls every reference.
"""

import importlib.util
import pathlib
import textwrap

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "lint_api_surface.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_api_surface", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root, relative, source):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture()
def tree(lint, tmp_path, monkeypatch):
    """An empty repository layout the scan runs over, with no allowlist
    and no tracer targets unless a test sets them."""
    for directory in lint.CALLER_DIRS:
        (tmp_path / directory).mkdir()
    (tmp_path / "src" / "repro").mkdir()
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    monkeypatch.setattr(lint, "UNCALLED_ALLOWED", {})
    monkeypatch.setattr(lint, "_tracing_targets", lambda: set())
    return tmp_path


def flagged(lint):
    """The names the scan reports as uncalled."""
    problems = lint.check_uncalled_definitions()
    return sorted(problem.split("`")[1] for problem in problems)


class TestOnTheTree:
    def test_every_definition_has_a_caller(self, lint):
        assert lint.check_uncalled_definitions() == []

    def test_generated_reference_is_current(self, lint):
        assert lint.check_generated_block() == []

    def test_cli_reference_matches_the_parser(self, lint):
        assert lint.check_cli_flags() == []

    def test_main_reports_success(self, lint, capsys):
        assert lint.main() == 0
        assert "api-surface lint OK" in capsys.readouterr().out

    def test_allowlisted_names_are_still_uncalled(self, lint):
        called = lint.referenced_names()
        defined = {name for name, *_ in lint.definitions()}
        for name in lint.UNCALLED_ALLOWED:
            assert name in defined
            assert name not in called

    def test_tracing_targets_split_dotted_paths(self, lint):
        targets = lint._tracing_targets()
        # "SpectralDecomposition.of" and "ContentStore._scan_disk"
        assert {"SpectralDecomposition", "of", "ContentStore", "_scan_disk"} <= targets


class TestDocumentedFlags:
    def test_rows_are_grouped_by_command_heading(self, lint):
        text = textwrap.dedent(
            """\
            # CLI
            | `--ignored` | before any command heading |
            ## `run`
            | `--seed N` | the seed |
            | `--seed N` | a repeated row keeps its first line |
            ## Notes
            | `--stray` | under a heading that names no command |
            ## `store-gc`
            | `--dry-run` | list only |
            """
        )
        assert lint.documented_flags(text) == {
            "run": {"--seed": 4},
            "store-gc": {"--dry-run": 9},
        }


class TestUncalledDefinitions:
    def test_uncalled_function_is_reported_with_place_and_length(self, lint, tree):
        write(
            tree,
            "src/repro/mod.py",
            """\
            def used():
                return 1


            def unused():
                x = 1
                return x
            """,
        )
        write(tree, "tools/run.py", "from repro.mod import used\nused()\n")
        assert lint.check_uncalled_definitions() == [
            "src/repro/mod.py:5: `unused` (3 lines) is called by nothing "
            "outside tests/; delete it, or allowlist it in UNCALLED_ALLOWED "
            "with a reason"
        ]

    def test_methods_and_classes_count(self, lint, tree):
        write(
            tree,
            "src/repro/mod.py",
            """\
            class Kept:
                def called(self):
                    return self.helper()

                def helper(self):
                    return 0

                def orphan(self):
                    return 1


            class Orphan:
                pass


            Kept().called()
            """,
        )
        assert flagged(lint) == ["Orphan", "orphan"]

    def test_attribute_references_count(self, lint, tree):
        write(tree, "src/repro/mod.py", "def target():\n    pass\n")
        write(tree, "examples/demo.py", "import repro.mod\nrepro.mod.target()\n")
        assert flagged(lint) == []

    def test_references_from_tests_do_not_count(self, lint, tree):
        write(tree, "src/repro/mod.py", "def target():\n    pass\n")
        write(tree, "perfbench/tests/test_mod.py", "target()\n")
        write(tree, "tests/test_mod.py", "target()\n")
        assert flagged(lint) == ["target"]

    def test_string_references_do_not_count(self, lint, tree):
        write(tree, "src/repro/mod.py", "def target():\n    pass\n")
        write(tree, "benchmarks/bench.py", 'NAME = "target"\n')
        assert flagged(lint) == ["target"]

    def test_tracing_targets_count(self, lint, tree, monkeypatch):
        write(tree, "src/repro/mod.py", "def target():\n    pass\n")
        monkeypatch.setattr(lint, "_tracing_targets", lambda: {"target"})
        assert flagged(lint) == []

    def test_dunders_are_skipped(self, lint, tree):
        write(
            tree,
            "src/repro/mod.py",
            """\
            class Box:
                def __init__(self):
                    self.value = 0

                def __repr__(self):
                    return "Box"


            Box()
            """,
        )
        assert flagged(lint) == []

    def test_allowlisted_name_passes(self, lint, tree, monkeypatch):
        write(tree, "src/repro/mod.py", "def kept():\n    pass\n")
        monkeypatch.setattr(lint, "UNCALLED_ALLOWED", {"kept": "public entry point"})
        assert lint.check_uncalled_definitions() == []

    def test_stale_allowlist_entries_are_reported(self, lint, tree, monkeypatch):
        write(tree, "src/repro/mod.py", "def now_called():\n    pass\n")
        write(tree, "tools/run.py", "now_called()\n")
        monkeypatch.setattr(
            lint,
            "UNCALLED_ALLOWED",
            {"gone": "deleted since", "now_called": "was uncalled"},
        )
        assert lint.check_uncalled_definitions() == [
            "UNCALLED_ALLOWED: `gone` is no longer defined",
            "UNCALLED_ALLOWED: `now_called` is called now",
        ]

    def test_main_fails_and_names_the_definition(self, lint, tree, monkeypatch, capsys):
        write(tree, "src/repro/mod.py", "def unused():\n    pass\n")
        monkeypatch.setattr(lint, "check_generated_block", lambda: [])
        monkeypatch.setattr(lint, "check_cli_flags", lambda: [])
        assert lint.main() == 1
        out = capsys.readouterr().out
        assert "`unused`" in out
        assert "api-surface lint: 1 problem(s)" in out
