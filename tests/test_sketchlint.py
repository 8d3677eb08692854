"""Rule-by-rule tests of the sketchlint static analyzer.

Every SLxxx rule gets at least one fixture that triggers it and one that
passes clean, plus engine-level tests (suppression, scoping, selection,
output formats, exit codes, self-check on ``src/``).
"""

import json
import textwrap
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis import PROJECT_RULES, RULES, analyze_paths, lint_source
from repro.analysis.sketchlint import lint_paths, run_lint

SRC_PATH = "src/repro/core/module.py"  # in-scope for every rule


def codes(source, path=SRC_PATH, select=None):
    """Lint a snippet and return the set of rule codes found."""
    return {
        finding.code
        for finding in lint_source(textwrap.dedent(source), path, select=select)
    }


def tree_codes(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    findings, errors = lint_paths([tmp_path])
    assert errors == []
    return {finding.code for finding in findings}


# --------------------------------------------------------------------- #
# SL001 — unseeded / module-global RNG
# --------------------------------------------------------------------- #


def test_sl001_flags_module_global_random():
    assert "SL001" in codes(
        """
        import random
        x = random.random()
        """
    )


def test_sl001_flags_unseeded_constructors():
    assert "SL001" in codes("rng = Random()\n")
    assert "SL001" in codes("rng = np.random.default_rng()\n")
    assert "SL001" in codes("x = np.random.rand(5)\n")


def test_sl001_passes_seeded_rng():
    assert "SL001" not in codes(
        """
        from random import Random
        rng = Random(7)
        value = rng.random()
        generator = np.random.default_rng(seed)
        """
    )


def test_sl001_exempts_stream_generators():
    source = "x = random.random()\n"
    assert "SL001" not in codes(source, path="src/repro/streams/generators.py")
    assert "SL001" in codes(source, path="src/repro/streams/other.py")


# --------------------------------------------------------------------- #
# SL002 — float equality
# --------------------------------------------------------------------- #


def test_sl002_flags_float_equality():
    assert "SL002" in codes("ok = slope == 0.5\n")
    assert "SL002" in codes("ok = float(a) != b\n")
    assert "SL002" in codes("ok = (a / b) == c\n")


def test_sl002_passes_integer_equality_and_tolerance():
    assert "SL002" not in codes("ok = count == 0\n")
    assert "SL002" not in codes("ok = abs(a - b) < 1e-9\n")


# --------------------------------------------------------------------- #
# SL003 — mutable defaults
# --------------------------------------------------------------------- #


def test_sl003_flags_mutable_default():
    assert "SL003" in codes("def f(xs=[]):\n    return xs\n")
    assert "SL003" in codes("def f(*, m=dict()):\n    return m\n")


def test_sl003_passes_none_default():
    assert "SL003" not in codes(
        """
        def f(xs=None):
            return [] if xs is None else xs
        """
    )


# --------------------------------------------------------------------- #
# SL004 — broad except
# --------------------------------------------------------------------- #


def test_sl004_flags_bare_and_broad_except():
    assert "SL004" in codes(
        """
        try:
            work()
        except:
            pass
        """
    )
    assert "SL004" in codes(
        """
        try:
            work()
        except Exception:
            cleanup()
        """
    )


def test_sl004_passes_narrow_or_reraising_handlers():
    assert "SL004" not in codes(
        """
        try:
            work()
        except ValueError:
            cleanup()
        """
    )
    assert "SL004" not in codes(
        """
        try:
            work()
        except Exception:
            cleanup()
            raise
        """
    )


# --------------------------------------------------------------------- #
# SL005 — assert in library code
# --------------------------------------------------------------------- #


def test_sl005_flags_assert_under_src():
    assert "SL005" in codes("assert delta > 0\n")


def test_sl005_ignores_tests_and_benchmarks():
    assert "SL005" not in codes(
        "assert delta > 0\n", path="benchmarks/bench_fig1.py"
    )
    assert "SL005" not in codes("assert delta > 0\n", path="tests/test_x.py")


# --------------------------------------------------------------------- #
# SL006 — future annotations import
# --------------------------------------------------------------------- #


def test_sl006_flags_missing_future_import():
    assert "SL006" in codes("import math\n")


def test_sl006_passes_with_future_import_or_empty_module():
    assert "SL006" not in codes(
        "from __future__ import annotations\nimport math\n"
    )
    assert "SL006" not in codes("")


# --------------------------------------------------------------------- #
# SL007 — untyped public API
# --------------------------------------------------------------------- #


def test_sl007_flags_untyped_public_method():
    source = """
        class Sketch:
            def point(self, item, s=0):
                return 0
    """
    assert "SL007" in codes(source)


def test_sl007_passes_annotated_and_out_of_scope():
    annotated = """
        class Sketch:
            def point(self, item: int, s: float = 0) -> float:
                return 0.0

            def _internal(self, anything):
                return anything
    """
    assert "SL007" not in codes(annotated)
    untyped = """
        class Helper:
            def render(self, chart):
                return chart
    """
    assert "SL007" not in codes(untyped, path="src/repro/eval/module.py")


# --------------------------------------------------------------------- #
# SL010 — per-record scalar loops on hot paths
# --------------------------------------------------------------------- #


def test_sl010_flags_zip_loop_over_stream_columns():
    source = """
        for t, i, c in zip(stream.times, stream.items, stream.counts):
            sketch.update(i, c, t)
    """
    assert "SL010" in codes(source)
    tolist = """
        for t, i in zip(times.tolist(), items.tolist()):
            handle(t, i)
    """
    assert "SL010" in codes(tolist, path="src/repro/sketch/module.py")


def test_sl010_flags_enumerated_zip_and_scalar_hashing_in_loops():
    enumerated = """
        for idx, (t, i) in enumerate(zip(times, items)):
            handle(idx, t, i)
    """
    assert "SL010" in codes(enumerated)
    hashing = """
        for row, col in enumerate(self.hashes.buckets(item)):
            counters[row][col] += count
    """
    assert "SL010" in codes(hashing)
    signs = """
        while pending:
            sgns = self.signs.signs(pending.pop())
    """
    assert "SL010" in codes(signs)


def test_sl010_passes_vectorized_and_unrelated_loops():
    assert "SL010" not in codes(
        """
        columns = self.hashes.buckets_many(items)
        for row in range(self.depth):
            np.add.at(self.counters[row], columns[row], counts)
        """
    )
    assert "SL010" not in codes("cols = self.hashes.buckets(item)\n")
    assert "SL010" not in codes(
        """
        for a, b in zip(starts, ends):
            handle(a, b)
        """
    )


def test_sl010_scoped_to_core_and_sketch():
    source = """
        for t, i, c in zip(stream.times, stream.items, stream.counts):
            sketch.update(i, c, t)
    """
    assert "SL010" not in codes(source, path="src/repro/streams/model.py")
    assert "SL010" not in codes(source, path="benchmarks/bench_x.py")
    assert "SL010" not in codes(source, path="tests/test_core.py")


def test_sl010_suppression_for_scalar_references():
    source = (
        "for t, i in zip(times, items):  "
        "# sketchlint: disable=SL010 — scalar reference\n"
        "    feed(t, i)\n"
    )
    assert "SL010" not in codes(source)


# --------------------------------------------------------------------- #
# SL012 — durability escape (interprocedural)
# --------------------------------------------------------------------- #

STORE_PATH = "src/repro/store/module.py"


def test_sl012_flags_raw_write_open_in_durability_scope():
    source = """
        def save(path, data):
            with open(path, "w") as handle:
                handle.write(data)
    """
    assert "SL012" in codes(source, path=STORE_PATH)


def test_sl012_flags_direct_writes_in_durable_scopes():
    in_function = """
        def save(path, data):
            path.write_text(data)
    """
    module_level = 'path.write_text("data")\n'
    for scope in ("store", "io", "runtime"):
        path = f"src/repro/{scope}/module.py"
        assert "SL012" in codes(in_function, path=path)
        assert "SL012" in codes(module_level, path=path)
    assert "SL012" in codes(
        'path.write_bytes(b"data")\n', path="src/repro/store/store.py"
    )


def test_sl012_ignores_direct_writes_outside_durability_layer():
    source = 'path.write_text("data")\n'
    assert "SL012" not in codes(source, path="src/repro/core/module.py")
    assert "SL012" not in codes(source, path="tests/test_store.py")


def test_sl012_passes_atomic_helpers():
    source = """
        from repro.io.atomic import atomic_write_text
        atomic_write_text(path, "data")
    """
    assert "SL012" not in codes(source, path="src/repro/runtime/module.py")


def test_sl012_flags_wrapped_write_one_call_deep():
    source = """
        def checkpoint(path, payload):
            _spill(path, payload)

        def _spill(path, payload):
            with open(path, "wb") as handle:
                handle.write(payload)
    """
    assert "SL012" in codes(source, path="src/repro/runtime/module.py")


def test_sl012_passes_read_open_and_atomic_helpers():
    assert "SL012" not in codes(
        """
        def load(path):
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        """,
        path=STORE_PATH,
    )
    assert "SL012" not in codes(
        """
        def save(path, data):
            atomic_write_text(path, data)
        """,
        path=STORE_PATH,
    )


def test_sl012_exempts_the_atomic_module_itself():
    source = """
        def atomic_write_text(path, data):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(data)
    """
    assert "SL012" not in codes(source, path="src/repro/io/atomic.py")


def test_sl012_ignores_non_durability_packages():
    source = """
        def save(path, data):
            with open(path, "w") as handle:
                handle.write(data)
    """
    assert "SL012" not in codes(source, path="src/repro/eval/module.py")


def test_sl012_suppression():
    source = (
        "def save(path, data):\n"
        '    with open(path, "a") as handle:  '
        "# sketchlint: disable=SL012 — fsync'd append log\n"
        "        handle.write(data)\n"
    )
    assert "SL012" not in codes(source, path=STORE_PATH)


def test_sl012_suppression_at_module_level():
    source = (
        'path.write_text("x")  # sketchlint: disable=SL012 — staging file\n'
    )
    assert "SL012" not in codes(source, path="src/repro/io/module.py")


def test_sl012_regression_cross_module_wrapper_defeats_sl009(tmp_path):
    """A write helper outside store/ is invisible to a syntactic check of
    store/ (the retired SL009), but SL012 follows the call edge from the
    durability entry point into it."""
    found = tree_codes(
        tmp_path,
        {
            "src/repro/store/checkpoint.py": """
                from __future__ import annotations

                from repro.util.spill import spill_text

                def checkpoint(path, payload):
                    spill_text(path, payload)
            """,
            "src/repro/util/spill.py": """
                from __future__ import annotations

                def spill_text(path, payload):
                    path.write_text(payload)
            """,
        },
    )
    assert "SL012" in found


# --------------------------------------------------------------------- #
# SL014 — contract-coverage gap (interprocedural)
# --------------------------------------------------------------------- #


def test_sl014_flags_unguarded_public_ingest():
    assert "SL014" in codes(
        """
        class Tracker:
            def feed(self, t, value):
                self.value = value
        """
    )


def test_sl014_passes_locally_guarded_ingest():
    assert "SL014" not in codes(
        """
        class Tracker:
            def feed(self, t, value):
                if t <= self.last:
                    raise ValueError("time went backwards")
                self.value = value
        """
    )
    assert "SL014" not in codes(
        """
        class Tracker:
            @contracts.monotone_timestamps(param="t")
            def feed(self, t, value):
                self.value = value
        """
    )


def test_sl014_flags_unguarded_feed_when_selected():
    assert "SL014" in codes(
        """
        class Tracker:
            def feed(self, t, value):
                self.value = value
        """,
        select=["SL014"],
    )


def test_sl014_passes_guarded_or_contracted_feed_when_selected():
    guarded = """
        class Tracker:
            def feed(self, t, value):
                if t <= self.last:
                    raise ValueError("time went backwards")
                self.value = value
    """
    assert "SL014" not in codes(guarded, select=["SL014"])
    contracted = """
        class Tracker:
            @contracts.monotone_timestamps(param="t")
            def feed(self, t, value):
                self.value = value
    """
    assert "SL014" not in codes(contracted, select=["SL014"])


def test_retired_rule_codes_are_gone():
    # SL008, SL009 and SL011 were folded into SL014, SL012 and SL015;
    # SL013, SL015 and SL017 guarded forks and memory mappings, and
    # none is left in the tree.
    for code in ("SL008", "SL009", "SL011", "SL013", "SL015", "SL017"):
        assert code not in RULES
        assert code not in PROJECT_RULES
        with pytest.raises(KeyError):
            lint_source("x = 1\n", SRC_PATH, select=[code])
    unguarded = """
        class Tracker:
            def feed(self, t, value):
                self.value = value
    """
    assert "SL014" in codes(unguarded)


def test_sl014_passes_facade_delegating_to_guarded_tracker():
    """The wrapper-indirection case a per-function check over-reports:
    an unguarded facade whose call path ends in a guarded ingest
    function is safe."""
    source = """
        class Inner:
            def feed(self, t, value):
                if t <= self.last:
                    raise ValueError("time went backwards")
                self.value = value

        class Facade:
            def __init__(self):
                self._inner = Inner()

            def feed(self, t, value):
                self._inner.feed(t, value)
    """
    assert "SL014" not in codes(source)


def test_sl014_flags_private_ingest_exposed_by_public_wrapper():
    """The wrapper-indirection case a per-function check under-reports:
    the unguarded
    worker is only dangerous because a public route reaches it."""
    assert "SL014" in codes(
        """
        class _Worker:
            def feed(self, t, value):
                self.value = value

        class Facade:
            def __init__(self):
                self._worker = _Worker()

            def accept(self, t, value):
                self._worker.feed(t, value)
        """
    )


def test_sl014_passes_private_ingest_behind_guarded_route():
    assert "SL014" not in codes(
        """
        class _Worker:
            def feed(self, t, value):
                self.value = value

        class Facade:
            def __init__(self):
                self._worker = _Worker()

            @contracts.monotone_timestamps(param="t")
            def accept(self, t, value):
                self._worker.feed(t, value)
        """
    )


def test_sl014_suppression():
    source = (
        "class Tracker:\n"
        "    def feed(self, t, value):  "
        "# sketchlint: disable=SL014 — clock owned by the delegate\n"
        "        self.value = value\n"
    )
    assert "SL014" not in codes(source)


# --------------------------------------------------------------------- #
# SL016 — swallowed durability error (interprocedural)
# --------------------------------------------------------------------- #


def test_sl016_flags_swallowed_oserror_in_durability_scope():
    source = """
        def append(path, frame):
            try:
                _write(path, frame)
            except OSError:
                pass
    """
    found = codes(source, path="src/repro/runtime/module.py")
    assert "SL016" in found
    assert "SL004" not in found  # OSError is narrow; only SL016 sees it


def test_sl016_flags_swallow_one_call_deep(tmp_path):
    """The swallow lives outside runtime/ but is reached from it."""
    found = tree_codes(
        tmp_path,
        {
            "src/repro/runtime/flush.py": """
                from __future__ import annotations

                from repro.util.writer import best_effort_write

                def flush(path, frames):
                    for frame in frames:
                        best_effort_write(path, frame)
            """,
            "src/repro/util/writer.py": """
                from __future__ import annotations

                def best_effort_write(path, frame):
                    try:
                        frame_bytes = bytes(frame)
                        path.write_bytes(frame_bytes)
                    except OSError:
                        return None
            """,
        },
    )
    assert "SL016" in found


def test_sl016_passes_reraise_degrade_and_retry_idioms():
    assert "SL016" not in codes(
        """
        def append(path, frame):
            try:
                _write(path, frame)
            except OSError as exc:
                raise DegradedError("wal-io-error", str(exc)) from exc
        """,
        path="src/repro/runtime/module.py",
    )
    assert "SL016" not in codes(
        """
        def checkpoint(self, state):
            try:
                _snapshot(state)
            except OSError as exc:
                self.monitor.degrade("disk-full", str(exc))
        """,
        path="src/repro/runtime/module.py",
    )
    assert "SL016" not in codes(
        """
        def run_with_retry(action, attempts):
            last = None
            for _ in range(attempts):
                try:
                    return action()
                except OSError as exc:
                    last = exc
            raise SnapshotRetryError("exhausted") from last
        """,
        path="src/repro/runtime/module.py",
    )


def test_sl016_exempts_atomic_module_and_other_packages():
    source = """
        def _cleanup(tmp):
            try:
                tmp.unlink()
            except OSError:
                pass
    """
    assert "SL016" not in codes(source, path="src/repro/io/atomic.py")
    assert "SL016" not in codes(source, path="src/repro/eval/module.py")


def test_sl016_suppression():
    source = (
        "def append(path, frame):\n"
        "    try:\n"
        "        _write(path, frame)\n"
        "    except OSError:  "
        "# sketchlint: disable=SL016 — probe write, caller re-checks\n"
        "        pass\n"
    )
    assert "SL016" not in codes(source, path="src/repro/runtime/module.py")


# --------------------------------------------------------------------- #
# SL018 — buffer-tier bypass (interprocedural)
# --------------------------------------------------------------------- #


def test_sl018_flags_direct_below_buffer_feed():
    assert "SL018" in codes(
        """
        class Loader:
            def bulk_load(self, sketch, times, items, counts):
                sketch._ingest_batch(times, items, counts)
        """
    )


def test_sl018_passes_buffered_entry_points():
    assert "SL018" not in codes(
        """
        class Loader:
            def bulk_load(self, sketch, times, items, counts):
                sketch.ingest_batch(times, items, counts)
        """
    )


def test_sl018_exempts_the_dispatch_module():
    # repro.core.base owns the buffer: its own dispatch into the
    # below-buffer verbs is the mechanism, not a bypass.
    assert "SL018" not in codes(
        """
        class PersistentSketch:
            def ingest_batch(self, times, items, counts):
                self._ingest_batch(times, items, counts)
        """,
        path="src/repro/core/base.py",
    )


def test_sl018_flags_unflushed_history_read():
    assert "SL018" in codes(
        """
        class PersistentSketch:
            pass

        class MySketch(PersistentSketch):
            def point(self, item, t):
                tracker = self._trackers.get(item)
                return tracker.value_at(t)
        """
    )


def test_sl018_passes_flushed_history_read():
    assert "SL018" not in codes(
        """
        class PersistentSketch:
            pass

        class MySketch(PersistentSketch):
            def _ensure_synced(self):
                self.flush_buffer()

            def point(self, item, t):
                self._ensure_synced()
                tracker = self._trackers.get(item)
                return tracker.value_at(t)
        """
    )


def test_sl018_flush_may_sit_anywhere_on_the_path():
    # The flush lives in a delegate the query resolves into, not in the
    # public method itself — the whole-path property SL018 checks.
    assert "SL018" not in codes(
        """
        class PersistentSketch:
            pass

        class MySketch(PersistentSketch):
            def _counter_at(self, item, t):
                self.flush_buffer()
                return self._trackers[item].value_at(t)

            def point(self, item, t):
                return self._counter_at(item, t)
        """
    )


def test_sl018_ignores_non_sketch_classes():
    # Trackers and frozen views read history by design; only the
    # PersistentSketch hierarchy carries the buffer-flush contract.
    assert "SL018" not in codes(
        """
        class PLATracker:
            def value_at(self, t):
                return self._pla.value_at(t)
        """
    )


def test_sl018_regression_bypass_hidden_in_helper_module(tmp_path):
    """A helper module feeding the below-buffer verb is invisible to
    per-module scans of the sketch file alone."""
    found = tree_codes(
        tmp_path,
        {
            "src/repro/core/fastpath.py": """
                from __future__ import annotations

                def turbo_load(sketch, times, items, counts):
                    sketch._ingest_batch(times, items, counts)
            """,
        },
    )
    assert "SL018" in found


def test_sl018_suppression():
    source = (
        "class Replayer:\n"
        "    def replay(self, sketch, times, items, counts):\n"
        "        sketch._ingest_batch(times, items, counts)  "
        "# sketchlint: disable=SL018 — recovery replay runs below the buffer by design\n"
    )
    assert "SL018" not in codes(source)


# --------------------------------------------------------------------- #
# Engine behaviour
# --------------------------------------------------------------------- #


def test_per_line_suppression():
    source = "x = random.random()  # sketchlint: disable=SL001\n"
    assert "SL001" not in codes(source)
    source_all = "x = random.random()  # sketchlint: disable=all\n"
    assert "SL001" not in codes(source_all)
    wrong_code = "x = random.random()  # sketchlint: disable=SL002\n"
    assert "SL001" in codes(wrong_code)


def test_select_restricts_rules():
    source = "import math\nx = random.random()\n"
    assert codes(source, select=["SL001"]) == {"SL001"}


def test_unknown_select_is_operational_error():
    out, err = StringIO(), StringIO()
    status = run_lint(["src"], select=["SL999"], out=out, err=err)
    assert status == 2
    assert "SL999" in err.getvalue()


def test_lint_paths_reports_syntax_errors(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings, errors = lint_paths([tmp_path])
    assert findings == []
    assert len(errors) == 1 and "syntax error" in errors[0]


def test_run_lint_text_and_json(tmp_path):
    module = tmp_path / "src" / "repro" / "core" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("from __future__ import annotations\nassert True\n")
    out = StringIO()
    status = run_lint([tmp_path], fmt="json", out=out, err=StringIO())
    assert status == 1
    payload = json.loads(out.getvalue())
    assert payload["count"] == 1
    assert payload["findings"][0]["code"] == "SL005"
    out = StringIO()
    status = run_lint(
        [tmp_path], fmt="text", warn_only=True, out=out, err=StringIO()
    )
    assert status == 0
    assert "SL005" in out.getvalue()


def test_rule_table_is_complete():
    assert sorted(RULES) == [f"SL00{i}" for i in range(1, 8)] + ["SL010"]
    assert sorted(PROJECT_RULES) == ["SL012", "SL014", "SL016", "SL018"]
    for cls in (*RULES.values(), *PROJECT_RULES.values()):
        assert cls.summary and cls.rationale


def test_sarif_output(tmp_path):
    module = tmp_path / "src" / "repro" / "core" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("from __future__ import annotations\nassert True\n")
    out = StringIO()
    status = run_lint([tmp_path], fmt="sarif", out=out, err=StringIO())
    assert status == 1
    sarif = json.loads(out.getvalue())
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "sketchlint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"SL001", "SL012", "SL016"} <= rule_ids
    results = run["results"]
    assert results[0]["ruleId"] == "SL005"
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 2


def test_baseline_ratchet(tmp_path):
    module = tmp_path / "tree" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("import math\n")  # SL006
    baseline = tmp_path / "baseline.json"
    # Record the current findings as the accepted debt.
    status = run_lint(
        [module.parent],
        baseline=baseline,
        update_baseline=True,
        out=StringIO(),
        err=StringIO(),
    )
    assert status == 0
    # Unchanged tree: the known finding is held, gate passes.
    out = StringIO()
    status = run_lint(
        [module.parent], baseline=baseline, out=out, err=StringIO()
    )
    assert status == 0
    assert "known finding" in out.getvalue()
    # A new finding in another file trips the ratchet.
    (module.parent / "n.py").write_text("import math\n")
    out = StringIO()
    status = run_lint(
        [module.parent], baseline=baseline, out=out, err=StringIO()
    )
    assert status == 1
    assert "n.py" in out.getvalue()
    assert "m.py:1" not in out.getvalue()  # old debt stays suppressed


def test_update_baseline_requires_baseline_path():
    err = StringIO()
    status = run_lint(
        ["src"], update_baseline=True, out=StringIO(), err=err
    )
    assert status == 2
    assert "--baseline" in err.getvalue()


def test_stats_output(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n\n\ndef f() -> int:\n"
        "    return g()\n\n\ndef g() -> int:\n    return 1\n"
    )
    out = StringIO()
    status = run_lint([tmp_path], stats=True, out=out, err=StringIO())
    assert status == 0
    text = out.getvalue()
    assert "sketchlint stats:" in text
    assert "call graph" in text
    assert "wall time" in text


def test_time_budget_is_operational_error():
    err = StringIO()
    status = run_lint(
        ["src"], time_budget=1e-9, out=StringIO(), err=err
    )
    assert status == 2
    assert "time budget" in err.getvalue()


def test_parse_cache_round_trip(tmp_path):
    module = tmp_path / "tree" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("from __future__ import annotations\nx = 1\n")
    cache = tmp_path / "cache"
    first = analyze_paths([module.parent], cache_dir=cache)
    assert first[2].cache_hits == 0
    second = analyze_paths([module.parent], cache_dir=cache)
    assert second[2].cache_hits == 1
    assert [f.format() for f in first[0]] == [f.format() for f in second[0]]
    # A content change invalidates the entry, results stay correct.
    module.write_text("import math\n")
    third = analyze_paths([module.parent], cache_dir=cache)
    assert third[2].cache_hits == 0
    assert {f.code for f in third[0]} == {"SL006"}


def test_src_tree_is_self_clean():
    src = Path(__file__).resolve().parent.parent / "src"
    if not src.is_dir():  # pragma: no cover - sdist layouts
        pytest.skip("src tree not present")
    findings, errors = lint_paths([src])
    assert errors == []
    assert [finding.format() for finding in findings] == []


def test_cli_lint_subcommand(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    captured = capsys.readouterr()
    assert "SL001" in captured.out
