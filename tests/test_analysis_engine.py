"""Unit tests for the whole-program analysis engine.

Covers the three layers under the interprocedural rules: the project
symbol table (:mod:`repro.analysis.symbols`), the call-graph builder
(:mod:`repro.analysis.callgraph`) and the intraprocedural dataflow
summaries (:mod:`repro.analysis.dataflow`) — in particular the call
resolution strategies the rules rely on: module functions, methods
(including inherited, overridden and decorated ones), typed receivers
and fork-shipped callables.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.callgraph import Project
from repro.analysis.dataflow import free_names, summarize
from repro.analysis.symbols import (
    annotation_class_name,
    build_symbol_table,
    module_name_for_path,
)


def project_from(files):
    """Build a :class:`Project` from ``{path: source}``."""
    modules = [
        (path, textwrap.dedent(source), ast.parse(textwrap.dedent(source)))
        for path, source in files.items()
    ]
    return Project(build_symbol_table(modules))


def fn_node(project, qualname):
    return project.symbols.functions[qualname].node


# --------------------------------------------------------------------- #
# Symbol table
# --------------------------------------------------------------------- #


def test_module_name_for_path():
    assert module_name_for_path("src/repro/store/store.py") == "repro.store.store"
    assert module_name_for_path("src/repro/io/__init__.py") == "repro.io"
    assert module_name_for_path("tests/test_x.py") == "tests.test_x"


def test_symbol_table_indexes_functions_classes_and_nested_defs():
    project = project_from(
        {
            "src/repro/core/m.py": """
                def outer():
                    def inner():
                        return 1
                    return inner

                class Sketch:
                    def update(self, item):
                        return item

                handler = lambda x: x
            """
        }
    )
    functions = project.symbols.functions
    assert "repro.core.m.outer" in functions
    assert "repro.core.m.outer.inner" in functions
    assert "repro.core.m.Sketch.update" in functions
    assert functions["repro.core.m.Sketch.update"].is_method
    assert functions["repro.core.m.outer.inner"].parent == "repro.core.m.outer"
    assert "repro.core.m.Sketch" in project.symbols.classes


def test_symbol_table_collects_imports():
    project = project_from(
        {
            "src/repro/core/m.py": """
                import numpy as np
                from repro.io.atomic import atomic_write_text as awt
                from .other import helper
            """
        }
    )
    module = project.symbols.modules["repro.core.m"]
    assert module.imports["np"] == "numpy"
    assert module.imports["awt"] == "repro.io.atomic.atomic_write_text"
    assert module.imports["helper"] == "repro.core.other.helper"


def test_attr_types_from_annotations_and_constructor_bindings():
    project = project_from(
        {
            "src/repro/core/m.py": """
                class Engine:
                    pass

                class Holder:
                    slot: Engine

                    def __init__(self, engine: Engine, other=None):
                        self.built = Engine()
                        self.stored = engine
                        self.unknown = other
            """
        }
    )
    cls = project.symbols.classes["repro.core.m.Holder"]
    assert cls.attr_types["slot"] == "Engine"
    assert cls.attr_types["built"] == "Engine"
    assert cls.attr_types["stored"] == "Engine"
    assert "unknown" not in cls.attr_types


def test_annotation_class_name_unwraps_optional_and_unions():
    def parse(text):
        return ast.parse(text, mode="eval").body

    assert annotation_class_name(parse("Engine")) == "Engine"
    assert annotation_class_name(parse("Engine | None")) == "Engine"
    assert annotation_class_name(parse("Optional[Engine]")) == "Engine"
    assert annotation_class_name(parse("'Engine'")) == "Engine"
    assert annotation_class_name(parse("a.b.Engine")) == "Engine"
    assert annotation_class_name(parse("Engine | Other")) is None
    assert annotation_class_name(parse("list[int]")) is None


# --------------------------------------------------------------------- #
# Call graph resolution
# --------------------------------------------------------------------- #


def test_resolves_module_function_calls():
    project = project_from(
        {
            "src/repro/core/m.py": """
                def helper():
                    return 1

                def entry():
                    return helper()
            """
        }
    )
    assert project.graph.callees("repro.core.m.entry") == {
        "repro.core.m.helper"
    }


def test_resolves_self_method_and_subclass_overrides():
    project = project_from(
        {
            "src/repro/core/m.py": """
                class Base:
                    def run(self):
                        return self.step()

                    def step(self):
                        return 0

                class Child(Base):
                    def step(self):
                        return 1
            """
        }
    )
    callees = project.graph.callees("repro.core.m.Base.run")
    # Static target plus the virtual edge to the override.
    assert callees == {"repro.core.m.Base.step", "repro.core.m.Child.step"}


def test_resolves_inherited_method_through_mro():
    project = project_from(
        {
            "src/repro/core/m.py": """
                class Base:
                    def save(self):
                        return 1

                class Child(Base):
                    def run(self):
                        return self.save()
            """
        }
    )
    assert project.graph.callees("repro.core.m.Child.run") == {
        "repro.core.m.Base.save"
    }


def test_resolves_decorated_callees():
    project = project_from(
        {
            "src/repro/core/m.py": """
                class Tracker:
                    @contracts.monotone_timestamps(param="t")
                    def feed(self, t):
                        return t

                    def push(self, t):
                        return self.feed(t)

                @functools.cache
                def helper():
                    return 2

                def entry():
                    return helper()
            """
        }
    )
    assert project.graph.callees("repro.core.m.Tracker.push") == {
        "repro.core.m.Tracker.feed"
    }
    assert project.graph.callees("repro.core.m.entry") == {
        "repro.core.m.helper"
    }
    feed = project.symbols.functions["repro.core.m.Tracker.feed"]
    assert feed.decorators == ("monotone_timestamps",)


def test_resolves_cross_module_imported_function():
    project = project_from(
        {
            "src/repro/a.py": """
                from repro.b import work

                def entry():
                    return work()
            """,
            "src/repro/b.py": """
                def work():
                    return 1
            """,
        }
    )
    assert project.graph.callees("repro.a.entry") == {"repro.b.work"}


def test_resolves_typed_attribute_receiver():
    project = project_from(
        {
            "src/repro/core/m.py": """
                class Inner:
                    def feed(self, t):
                        return t

                class Facade:
                    def __init__(self):
                        self._inner = Inner()

                    def push(self, t):
                        return self._inner.feed(t)
            """
        }
    )
    assert project.graph.callees("repro.core.m.Facade.push") == {
        "repro.core.m.Inner.feed"
    }


def test_resolves_receiver_typed_by_return_annotation():
    project = project_from(
        {
            "src/repro/core/m.py": """
                class Pool:
                    def feed(self, batch):
                        return batch

                class Sketch:
                    def _ensure_pool(self) -> Pool:
                        return Pool()

                    def ingest(self, batch):
                        pool = self._ensure_pool()
                        return pool.feed(batch)
            """
        }
    )
    callees = project.graph.callees("repro.core.m.Sketch.ingest")
    assert "repro.core.m.Pool.feed" in callees


def test_class_call_resolves_to_init():
    project = project_from(
        {
            "src/repro/core/m.py": """
                class Snapshot:
                    def __init__(self, data):
                        self.data = data

                def freeze(data):
                    return Snapshot(data)
            """
        }
    )
    assert project.graph.callees("repro.core.m.freeze") == {
        "repro.core.m.Snapshot.__init__"
    }


def test_unresolvable_call_has_no_targets():
    project = project_from(
        {
            "src/repro/core/m.py": """
                def entry(thing):
                    return thing.mystery_method()
            """
        }
    )
    assert project.graph.callees("repro.core.m.entry") == set()


def test_reachable_bfs_with_stop_nodes_and_paths():
    project = project_from(
        {
            "src/repro/core/m.py": """
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return d()

                def d():
                    return 1
            """
        }
    )
    full = project.reachable(["repro.core.m.a"])
    assert "repro.core.m.d" in full
    assert Project.path_to(full, "repro.core.m.d") == [
        "repro.core.m.a",
        "repro.core.m.b",
        "repro.core.m.c",
        "repro.core.m.d",
    ]
    # b is reached but not expanded: c and d stay invisible.
    stopped = project.reachable(
        ["repro.core.m.a"], stop=frozenset({"repro.core.m.b"})
    )
    assert "repro.core.m.b" in stopped
    assert "repro.core.m.c" not in stopped


# --------------------------------------------------------------------- #
# Dataflow summaries
# --------------------------------------------------------------------- #


def scope(source, name):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name}")


def test_summary_self_attribute_tracking():
    node = scope(
        """
        def feed(self, t):
            self._clock = t
            self._runs.append(t)
            return self._delta
        """,
        "feed",
    )
    summary = summarize(node)
    assert "_delta" in summary.self_reads


def test_summary_excludes_nested_scopes_but_links_captures():
    node = scope(
        """
        def outer(items):
            acc = []

            def inner(x):
                acc.append(x)
                return OUTSIDE

            return [inner(i) for i in items]
        """,
        "outer",
    )
    summary = summarize(node)
    # The closure link is recorded, and free_names sees through.
    assert "acc" in summary.captured
    assert "inner" in summary.nested
    assert "OUTSIDE" in free_names(node)
    assert "acc" not in free_names(node)  # bound by the enclosing scope


def test_summary_local_constructor_types():
    node = scope(
        """
        def f():
            tracker = Tracker(2)
            n = helper()
            return tracker, n
        """,
        "f",
    )
    summary = summarize(node)
    assert summary.local_types == {"tracker": "Tracker"}
