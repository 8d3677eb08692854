"""Tests for the command-line interface."""

import pytest

import repro.cli as cli


class TestExperimentDispatch:
    def test_legacy_shortcut_and_subcommand(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fig3",
            (lambda ds: calls.append(("fig3", ds)), True),
        )
        assert cli.main(["fig3", "--dataset", "Zipf_3"]) == 0
        assert cli.main(["experiment", "fig3", "--dataset", "Zipf_3"]) == 0
        assert calls == [("fig3", "Zipf_3")] * 2

    def test_all_datasets_by_default(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fig4",
            (lambda ds: calls.append(ds), True),
        )
        assert cli.main(["fig4"]) == 0
        assert calls == ["ClientID", "ObjectID", "Zipf_3"]

    def test_dataset_free_experiment(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            cli.EXPERIMENTS, "table1", (lambda: calls.append("t1"), False)
        )
        assert cli.main(["table1"]) == 0
        assert calls == ["t1"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["nope"])


class TestPipeline:
    def test_synth_build_query(self, tmp_path, capsys):
        log = tmp_path / "day.log"
        archive = tmp_path / "urls.sketch.gz"
        assert cli.main(["synth", str(log), "--length", "2000"]) == 0
        assert log.stat().st_size == 2000 * 20
        assert (
            cli.main(
                [
                    "build", str(log), str(archive),
                    "--attribute", "object_id",
                    "--width", "256", "--depth", "3", "--delta", "10",
                ]
            )
            == 0
        )
        assert archive.exists()
        capsys.readouterr()
        # Find a real item to query.
        from repro.streams.logs import read_worldcup_log

        item = next(iter(read_worldcup_log(log))).object_id
        assert (
            cli.main(
                ["query", str(archive), "point", "--item", str(item)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"f_{item}" in out

    def test_build_from_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("key\n1\n2\n1\n")
        archive = tmp_path / "s.json"
        assert (
            cli.main(
                [
                    "build", str(csv_path), str(archive),
                    "--csv-column", "key",
                    "--width", "64", "--depth", "2", "--delta", "4",
                ]
            )
            == 0
        )
        assert cli.main(
            ["query", str(archive), "point", "--item", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "f_1" in out

    def test_ams_build_and_self_join(self, tmp_path, capsys):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("key\n" + "\n".join("12" for _ in range(50)) + "\n")
        archive = tmp_path / "a.json"
        assert (
            cli.main(
                [
                    "build", str(csv_path), str(archive),
                    "--csv-column", "key", "--kind", "ams",
                    "--width", "64", "--depth", "3", "--delta", "2",
                ]
            )
            == 0
        )
        assert cli.main(["query", str(archive), "self_join"]) == 0
        out = capsys.readouterr().out
        assert "F2" in out

    def test_point_query_requires_item(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("key\n1\n")
        archive = tmp_path / "s.json"
        cli.main(
            [
                "build", str(csv_path), str(archive), "--csv-column", "key",
                "--width", "16", "--depth", "2", "--delta", "2",
            ]
        )
        with pytest.raises(SystemExit):
            cli.main(["query", str(archive), "point"])


class TestIngestRecover:
    def _write_records(self, path, lines):
        import json

        with open(path, "w") as handle:
            for line in lines:
                handle.write(
                    line if isinstance(line, str) else json.dumps(line)
                )
                handle.write("\n")

    def test_ingest_fresh_then_resume(self, tmp_path, capsys):
        records = tmp_path / "batch1.jsonl"
        self._write_records(
            records,
            [{"stream": "urls", "item": i % 9} for i in range(40)],
        )
        rc = cli.main(
            [
                "ingest", str(tmp_path / "rt"), str(records),
                "--create-stream", "urls:8:64",
                "--checkpoint-every", "10",
                "--width", "64", "--depth", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ingested: 40" in out

        more = tmp_path / "batch2.jsonl"
        self._write_records(
            more, [{"stream": "urls", "item": 3} for _ in range(5)]
        )
        rc = cli.main(
            [
                "ingest", str(tmp_path / "rt"), str(more),
                "--resume", "--checkpoint-every", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed at seq 40" in out
        assert "ingested: 5" in out

    def test_a_created_hierarchy_stream_records_fanout_16(self, tmp_path):
        from repro.io.generations import read_manifest

        records = tmp_path / "records.jsonl"
        self._write_records(
            records, [{"stream": "urls", "item": i % 9} for i in range(12)]
        )
        rc = cli.main(
            [
                "ingest", str(tmp_path / "rt"), str(records),
                "--create-stream", "urls:8:64",
                "--create-stream", "ads:8",
                "--checkpoint-every", "10",
            ]
        )
        assert rc == 0
        newest = sorted((tmp_path / "rt" / "checkpoints").glob("ckpt-*"))[-1]
        entries = {
            entry["name"]: entry for entry in read_manifest(newest)["streams"]
        }
        assert entries["urls"]["fanout"] == 16
        assert "fanout" not in entries["ads"]  # no hierarchy, no fan-out

    def test_ingest_quarantines_garbage(self, tmp_path, capsys):
        records = tmp_path / "dirty.jsonl"
        self._write_records(
            records,
            [
                {"stream": "urls", "item": 1, "time": 5},
                "{not json at all",
                {"stream": "urls", "item": "mistyped"},
                {"stream": "urls", "item": 2, "time": 5},  # duplicate tick
                {"stream": "urls", "item": 3, "time": 9},
            ],
        )
        rc = cli.main(
            [
                "ingest", str(tmp_path / "rt"), str(records),
                "--create-stream", "urls:8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ingested: 2" in out
        assert "malformed: 2" in out
        assert "late: 1" in out
        assert "quarantined: 3" in out
        dead = (tmp_path / "rt" / "deadletter.jsonl").read_text()
        assert dead.count("\n") == 3

    def test_ingest_fresh_requires_stream_spec(self, tmp_path):
        records = tmp_path / "r.jsonl"
        records.write_text("")
        with pytest.raises(SystemExit):
            cli.main(["ingest", str(tmp_path / "rt"), str(records)])

    def test_bad_stream_spec_rejected(self, tmp_path):
        records = tmp_path / "r.jsonl"
        records.write_text("")
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "ingest", str(tmp_path / "rt"), str(records),
                    "--create-stream", "just-a-name",
                ]
            )

    def test_recover_reports_and_exports(self, tmp_path, capsys):
        import json

        records = tmp_path / "r.jsonl"
        self._write_records(
            records, [{"stream": "urls", "item": 7} for _ in range(12)]
        )
        assert (
            cli.main(
                [
                    "ingest", str(tmp_path / "rt"), str(records),
                    "--create-stream", "urls:8",
                    "--width", "64", "--depth", "3",
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = cli.main(
            ["recover", str(tmp_path / "rt"),
             "--export", str(tmp_path / "exported")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "exported recovered store" in out
        summary = json.loads(out[out.index("{"):])
        assert summary["applied_seq"] == 12
        assert summary["streams"] == {"urls": 12}
        from repro.store import SketchStore

        store = SketchStore.open(tmp_path / "exported")
        assert store.point("urls", 7) == 12.0

    def test_recover_empty_directory_fails(self, tmp_path, capsys):
        rc = cli.main(["recover", str(tmp_path / "void")])
        assert rc == 1
        assert "recovery failed" in capsys.readouterr().err
