import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import whatif as wi
from whatif.cli import BenchRow, main, summarize
from whatif.oracle import exact_interventional
from whatif.scm import load_model, query_to_json, scm_to_json

TWO_NODE = {
    "nodes": [
        {"id": "x", "kind": "prior", "p": 0.5},
        {"id": "y", "kind": "dependent", "parents": ["x"], "theta": [1.0], "q": 0.2},
    ]
}
FLIP_QUERY = {
    "evidence": {"y": 1},
    "do": {"id": "x", "value": 1, "type": "CF"},
    "predict": "y",
}
RUN_KEYS = ["estimate", "ess", "n_rejected", "wall_seconds", "n_samples", "seed"]
# Queries every engine must turn down with the same exit code and a one-line
# message naming the node: (p of root x, query, exit code, node).
REFUSED = {
    "unknown do node": (
        0.5, {**FLIP_QUERY, "do": {"id": "zzz", "value": 1, "type": "CF"}}, 1, "zzz"
    ),
    "unknown target": (0.5, {**FLIP_QUERY, "predict": "zzz"}, 1, "zzz"),
    "unknown evidence node": (0.5, {**FLIP_QUERY, "evidence": {"zzz": 1}}, 1, "zzz"),
    "impossible root evidence": (0.0, {**FLIP_QUERY, "evidence": {"x": 1}}, 2, "x"),
    "iv do on dependent evidence": (
        0.5, {**FLIP_QUERY, "do": {"id": "y", "value": 1, "type": "IV"}}, 1, "y"
    ),
    # the pinned root proposal used to slip past the iv force: estimate 0.23
    "iv do on root evidence": (
        0.5,
        {"evidence": {"x": 1}, "do": {"id": "x", "value": 0, "type": "IV"}, "predict": "y"},
        1,
        "x",
    ),
}


@pytest.fixture
def two_node_files(tmp_path):
    model = tmp_path / "model.json"
    query = tmp_path / "query.json"
    model.write_text(json.dumps(TWO_NODE))
    query.write_text(json.dumps(FLIP_QUERY))
    return str(model), str(query)


def read_bench_rows(path):
    """The bench CSV back as BenchRow records."""
    casts = {"model_id": str, "engine": str, "n_samples": int, "n_rejected": int, "seed": int}
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            BenchRow(**{k: casts.get(k, float)(v) for k, v in rec.items()})
            for rec in csv.DictReader(fh)
        ]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_sampled_estimate(self, two_node_files, capsys):
        model, query = two_node_files
        code, out, err = run_cli(
            ["run", "--model", model, "--query", query,
             "--samples", "20000", "--seed", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["estimate"] - 0.8) < 0.01
        assert doc["n_samples"] == 20000
        assert doc["seed"] == 2
        assert doc["n_rejected"] == 0
        assert doc["ess"] > 0
        assert doc["wall_seconds"] > 0

    def test_lazy_engine_matches_eager(self, two_node_files, capsys):
        model, query = two_node_files
        _, out_e, _ = run_cli(
            ["run", "--model", model, "--query", query,
             "--samples", "5000", "--seed", "3", "--engine", "eager"],
            capsys,
        )
        _, out_l, _ = run_cli(
            ["run", "--model", model, "--query", query,
             "--samples", "5000", "--seed", "3", "--engine", "lazy"],
            capsys,
        )
        assert json.loads(out_e)["estimate"] == json.loads(out_l)["estimate"]

    def test_exact_engine(self, two_node_files, capsys):
        model, query = two_node_files
        code, out, _ = run_cli(
            ["run", "--model", model, "--query", query, "--engine", "exact"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] == pytest.approx(0.8, abs=1e-12)
        assert doc["n_samples"] == 0
        assert doc["ess"] == 0.0

    def test_exact_interventional_query(self, two_node_files, tmp_path, capsys):
        model, _ = two_node_files
        query = tmp_path / "iv.json"
        query.write_text(json.dumps(
            {"evidence": {}, "do": {"id": "x", "value": 0, "type": "IV"}, "predict": "y"}
        ))
        code, out, _ = run_cli(
            ["run", "--model", model, "--query", str(query), "--engine", "exact"], capsys
        )
        assert code == 0
        estimate = json.loads(out)["estimate"]
        assert estimate == exact_interventional(load_model(model), {}, {"x": False}, "y")
        assert estimate == pytest.approx(0.2, abs=1e-12)  # y = x xor flip, q = 0.2

    def test_output_keys_are_the_same_for_every_engine(self, two_node_files, capsys):
        model, query = two_node_files
        for engine in ("exact", "eager", "lazy"):
            code, out, _ = run_cli(
                ["run", "--model", model, "--query", query, "--samples", "50",
                 "--engine", engine],
                capsys,
            )
            assert code == 0
            assert list(json.loads(out)) == RUN_KEYS

    def test_exact_engine_with_dump_traces_is_a_usage_error(
        self, two_node_files, tmp_path, capsys, monkeypatch
    ):
        model, query = two_node_files
        dump = tmp_path / "traces.jsonl"

        def no_work(path):
            raise AssertionError("the model was read before the usage check")

        monkeypatch.setattr("whatif.cli.load_model", no_work)
        code, out, err = run_cli(
            ["run", "--model", model, "--query", query, "--engine", "exact",
             "--dump-traces", str(dump)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--dump-traces" in err
        assert not dump.exists()

    def test_schema_violation_exits_one_and_names_the_node(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        query = tmp_path / "query.json"
        query.write_text(json.dumps(FLIP_QUERY))
        for y_keys, word in (
            ({"parents": ["x"], "theta": [0.7]}, "theta"),
            ({"parents": [["x"]], "theta": [1.0]}, "parent"),
        ):
            bad = {
                "nodes": [
                    {"id": "x", "kind": "prior", "p": 0.5},
                    {"id": "y", "kind": "dependent", "q": 0.2, **y_keys},
                ]
            }
            model.write_text(json.dumps(bad))
            code, out, err = run_cli(
                ["run", "--model", str(model), "--query", str(query)], capsys
            )
            assert code == 1
            assert out == ""
            assert "node 'y'" in err and word in err

    def test_integer_past_the_float_range_exits_one(self, tmp_path, capsys):
        # was an OverflowError traceback
        model = tmp_path / "model.json"
        query = tmp_path / "query.json"
        model.write_text(json.dumps(
            {"nodes": [{**TWO_NODE["nodes"][0], "p": 10**400}, TWO_NODE["nodes"][1]]}
        ))
        query.write_text(json.dumps(FLIP_QUERY))
        code, out, err = run_cli(["run", "--model", str(model), "--query", str(query)], capsys)
        assert (code, out) == (1, "")
        assert err == "model: node 'x': p is too large for a float\n"

    def test_exact_engine_node_bound_is_a_message(self, tmp_path, capsys):
        # was a ValueError traceback
        nodes = [{"id": f"r{i}", "kind": "prior", "p": 0.5} for i in range(25)]
        nodes.append({"id": "y", "kind": "dependent", "parents": ["r0"], "theta": [1.0],
                      "q": 0.2})
        model = tmp_path / "model.json"
        query = tmp_path / "query.json"
        model.write_text(json.dumps({"nodes": nodes}))
        query.write_text(json.dumps({**FLIP_QUERY, "do": {"id": "r0", "value": 1}}))
        code, out, err = run_cli(
            ["run", "--model", str(model), "--query", str(query), "--engine", "exact"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "26 exogenous bits (max 25)" in err

    def test_missing_file_exits_one_and_names_the_path(self, tmp_path, two_node_files, capsys):
        model, query = two_node_files
        missing = str(tmp_path / "missing.json")
        for files in (("--model", missing, "--query", query),
                      ("--model", model, "--query", missing)):
            code, out, err = run_cli(["run", *files], capsys)
            assert code == 1
            assert out == ""
            assert missing in err

    def test_non_positive_samples_is_a_usage_error(self, two_node_files, capsys):
        model, query = two_node_files
        for flag, value in (("--samples", "0"), ("--samples", "-3"),
                            ("--workers", "0"), ("--workers", "-4")):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--model", model, "--query", query, flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_invalid_json_exits_one_with_line(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"nodes": [\n!]}')
        query = tmp_path / "query.json"
        query.write_text(json.dumps(FLIP_QUERY))
        code, _, err = run_cli(
            ["run", "--model", str(model), "--query", str(query)], capsys
        )
        assert code == 1
        assert "invalid JSON at line 2" in err

    def test_degenerate_posterior_exits_two(self, tmp_path, capsys):
        # x is surely True and y copies it noiselessly; observing y=False
        # rejects every sample
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {
                    "nodes": [
                        {"id": "x", "kind": "prior", "p": 1.0},
                        {"id": "y", "kind": "dependent", "parents": ["x"],
                         "theta": [1.0], "q": 0.0},
                        {"id": "z", "kind": "dependent", "parents": ["y"],
                         "theta": [1.0], "q": 0.5},
                    ]
                }
            )
        )
        query = tmp_path / "query.json"
        query.write_text(
            json.dumps(
                {
                    "evidence": {"y": 0},
                    "do": {"id": "y", "value": 1, "type": "CF"},
                    "predict": "z",
                }
            )
        )
        code, out, err = run_cli(
            ["run", "--model", str(model), "--query", str(query), "--samples", "50"],
            capsys,
        )
        assert code == 2
        assert "degenerate posterior" in err

    def test_dump_traces_writes_jsonl(self, two_node_files, tmp_path, capsys):
        model, query = two_node_files
        dump = tmp_path / "traces.jsonl"
        code, _, _ = run_cli(
            ["run", "--model", model, "--query", query, "--samples", "20",
             "--dump-traces", str(dump)],
            capsys,
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert first["sample_index"] == 0
        assert "log_weight" in first
        for line in lines:
            choices = json.loads(line)["choices"]
            # the noise key precedes its output, and y = f(x) xor noise, f = x
            assert list(choices) == ["x", "y::noise", "y"]
            assert choices["y"] == (choices["x"] != choices["y::noise"])

    def test_unwritable_dump_path_exits_one_before_inference(
        self, two_node_files, tmp_path, capsys, monkeypatch
    ):
        model, query = two_node_files
        dump = str(tmp_path / "missing" / "traces.jsonl")

        def no_inference(*args, **kwargs):
            raise AssertionError("inference ran before the output was opened")

        monkeypatch.setattr("whatif.cli.run_inference", no_inference)
        code, out, err = run_cli(
            ["run", "--model", model, "--query", query, "--dump-traces", dump], capsys
        )
        assert code == 1
        assert out == ""
        assert dump in err

    def test_console_script_entry_point(self, two_node_files):
        model, query = two_node_files
        proc = subprocess.run(
            [sys.executable, "-m", "whatif.cli", "run", "--model", model,
             "--query", query, "--samples", "500", "--seed", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "estimate" in json.loads(proc.stdout)

    def test_package_runs_as_a_module_from_a_checkout(self, two_node_files):
        # python -m whatif with only the source directory on the path
        model, query = two_node_files
        src = str(Path(wi.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "whatif", "run", "--model", model,
             "--query", query, "--samples", "500", "--seed", "0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert "estimate" in json.loads(proc.stdout)

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_every_engine_refuses_alike(self, case, tmp_path, capsys):
        p_x, query_doc, want, node = REFUSED[case]
        model = tmp_path / "model.json"
        query = tmp_path / "query.json"
        model.write_text(json.dumps(
            {"nodes": [{**TWO_NODE["nodes"][0], "p": p_x}, TWO_NODE["nodes"][1]]}
        ))
        query.write_text(json.dumps(query_doc))
        for engine in ("exact", "eager", "lazy"):
            code, out, err = run_cli(
                ["run", "--model", str(model), "--query", str(query),
                 "--samples", "50", "--engine", engine],
                capsys,
            )
            assert (engine, code, out) == (engine, want, "")
            assert len(err.splitlines()) == 1, err
            assert repr(node) in err and "Traceback" not in err


class TestBench:
    def bench(self, tmp_path, capsys, name="bench.csv", extra=()):
        out = tmp_path / name
        code, stdout, _ = run_cli(
            ["bench", "--models", "3", "--blocks", "6", "--samples", "100,400",
             "--seed", "0", "--out", str(out), "--no-timing", *extra],
            capsys,
        )
        assert code == 0
        return out, stdout

    def test_bad_budget_or_block_count_is_a_usage_error(self, tmp_path, capsys):
        # two blocks used to redraw degenerate graphs forever
        out = tmp_path / "bench.csv"
        # --models 0 used to exit 0 with a header-only CSV
        for flag, value in (("--samples", "100,0"), ("--blocks", "2"),
                            ("--models", "0"), ("--models", "-2"),
                            ("--workers", "0"), ("--workers", "-4")):
            with pytest.raises(SystemExit) as exc:
                main(["bench", "--models", "1", flag, value, "--out", str(out)])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()

    def test_blocks_beyond_the_exact_bound_is_a_usage_error(self, tmp_path, capsys):
        # was a ValueError traceback after an empty CSV had been written
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--models", "1", "--blocks", "26", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--blocks" in err and "at most 25" in err
        assert not out.exists()

    def test_unwritable_out_path_exits_one_before_the_study(
        self, tmp_path, capsys, monkeypatch
    ):
        out = str(tmp_path / "missing" / "bench.csv")

        def no_study(job):
            raise AssertionError("the study ran before the output was opened")

        monkeypatch.setattr("whatif.cli._bench_model", no_study)
        code, stdout, err = run_cli(["bench", "--models", "1", "--out", out], capsys)
        assert code == 1
        assert stdout == ""
        assert out in err

    def test_csv_shape_and_sorting(self, tmp_path, capsys):
        path, _ = self.bench(tmp_path, capsys)
        text = path.read_text()
        header = text.splitlines()[0]
        assert header == (
            "model_id,n_samples,engine,estimate,exact_value,abs_error,"
            "ess,n_rejected,wall_seconds,seed"
        )
        rows = read_bench_rows(path)
        assert len(rows) == 3 * (1 + 2 * 2)  # exact + 2 engines x 2 budgets
        keys = [(r.model_id, r.engine, r.n_samples) for r in rows]
        assert keys == sorted(keys)

    def test_output_is_reproducible_byte_for_byte(self, tmp_path, capsys):
        a, _ = self.bench(tmp_path, capsys, "a.csv")
        b, _ = self.bench(tmp_path, capsys, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_model_workers_do_not_change_output(self, tmp_path, capsys):
        a, _ = self.bench(tmp_path, capsys, "serial.csv")
        b, _ = self.bench(tmp_path, capsys, "pooled.csv", extra=("--workers", "2"))
        assert a.read_bytes() == b.read_bytes()

    def test_workers_fork_only_where_the_platform_can(self, tmp_path, capsys, monkeypatch):
        asked = []
        real_get_context = multiprocessing.get_context

        def get_context(method=None):
            asked.append(method)
            return real_get_context(method)

        # a platform without fork gets its default start method
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        self.bench(tmp_path, capsys, extra=("--workers", "2"))
        assert asked == [None]

    def test_pool_is_capped_at_one_worker_per_model(self, tmp_path, capsys, monkeypatch):
        sizes = []

        def process_pool(workers, **kwargs):
            sizes.append(workers)
            return wi.engine.process_pool(workers, **kwargs)

        monkeypatch.setattr("whatif.cli.process_pool", process_pool)
        self.bench(tmp_path, capsys, extra=("--workers", "5"))  # 3 models
        assert sizes == [3]
        code, _, _ = run_cli(
            ["bench", "--models", "1", "--blocks", "4", "--samples", "10",
             "--workers", "3", "--out", str(tmp_path / "one.csv")],
            capsys,
        )
        assert code == 0
        assert sizes == [3]  # one model runs serially, with no pool

    def test_rows_are_consistent(self, tmp_path, capsys):
        path, _ = self.bench(tmp_path, capsys)
        rows = read_bench_rows(path)
        by_engine = {}
        for r in rows:
            assert r.abs_error == abs(r.estimate - r.exact_value)
            if r.engine == "exact":
                assert r.n_samples == 0 and r.ess == 0.0 and r.n_rejected == 0
                assert r.abs_error == 0.0
            else:
                assert 0 < r.ess <= r.n_samples
                by_engine.setdefault((r.model_id, r.n_samples), {})[r.engine] = r
        for pair in by_engine.values():
            # same derived seed, so lazy and eager agree bitwise
            assert pair["eager"].estimate == pair["lazy"].estimate
            assert pair["eager"].seed == pair["lazy"].seed

    def test_summary_lines_match_rows(self, tmp_path, capsys):
        path, stdout = self.bench(tmp_path, capsys)
        rows = read_bench_rows(path)
        summary = summarize(rows)
        assert {(e, n) for e, n, *_ in summary} == {
            ("eager", 100), ("eager", 400), ("lazy", 100), ("lazy", 400)
        }
        for engine, n, mean, p10, p90 in summary:
            assert p10 <= mean <= p90 or p10 <= p90  # percentiles ordered
            assert f"{engine} n={n}" in stdout


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    """Bits of the command line's output, pinned so a refactor cannot move them."""

    def test_bench_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run_cli(
            ["bench", "--models", "4", "--blocks", "8", "--samples", "50,200",
             "--seed", "0", "--no-timing", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert sha256(out.read_bytes()) == (
            "521c2584c92deb539ec57ff59db3bbfd5613cbb138577a659f1a62b0bb68fff6"
        )
        assert sha256(stdout.encode()) == (
            "35dc1bf9dfb8a3bf2d482eb30649992d86c79444f4a3237bacbe8aa33361a4c1"
        )

    @pytest.mark.parametrize("engine, estimate, ess, n_samples", [
        ("exact", 0.8, 0.0, 0),
        ("eager", 0.8155339805825242, 149.42253521126761, 200),
        ("lazy", 0.8155339805825242, 149.42253521126761, 200),
    ])
    def test_run_json(self, engine, estimate, ess, n_samples, two_node_files, capsys):
        model, query = two_node_files
        code, out, _ = run_cli(
            ["run", "--model", model, "--query", query, "--samples", "200",
             "--seed", "1", "--engine", engine],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        del doc["wall_seconds"]
        assert list(doc.items()) == [
            ("estimate", estimate), ("ess", ess), ("n_rejected", 0),
            ("n_samples", n_samples), ("seed", 1),
        ]

    @pytest.mark.parametrize("engine", ["eager", "lazy"])
    def test_dump_traces(self, engine, two_node_files, tmp_path, capsys):
        model, query = two_node_files
        dump = tmp_path / "traces.jsonl"
        code, _, _ = run_cli(
            ["run", "--model", model, "--query", query, "--samples", "20",
             "--seed", "1", "--engine", engine, "--dump-traces", str(dump)],
            capsys,
        )
        assert code == 0
        assert sha256(dump.read_bytes()) == (
            "7235f62dc99bb3834ddef7063e53ef414a087e3e5ca46fcfd7efc48f2b3143e6"
        )
