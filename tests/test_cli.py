"""End-to-end command flows through the installed console entry point."""

import csv
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from privemb import cli, graphcore, training
from privemb.cli import load_config, load_dataset, main, resolve_config
from privemb.graphcore import AttributeSchema, load_graph, split_edges
from privemb.numkit import derive_seed
from privemb.training import ConfigError, load_embeddings


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "privemb", *argv],
                          capture_output=True, text=True, cwd=cwd)


def write_config(tmp_path, name="config.json", **overrides):
    conf = {
        "seed": 3,
        "output": str(tmp_path / "out"),
        "synth": {"n": 60, "private_classes": 2, "utility_classes": 3,
                  "p_in": 0.3, "p_out": 0.05},
        "model": {"variant": "GAE", "d": 8, "hidden": 10, "T": 4},
        "eval": {"repeats": 2, "classifiers": ["softmax"]},
    }
    for key, value in overrides.items():
        if value is None:
            conf.pop(key, None)
        elif isinstance(value, dict) and isinstance(conf.get(key), dict):
            conf[key].update(value)
        else:
            conf[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(conf))
    return path


# --------------------------------------------------------------- resolve


class TestResolveConfig:
    def test_defaults_merged(self):
        conf = resolve_config({"synth": {}})
        assert conf["model"]["variant"] == "GAE"
        assert conf["model"]["T"] == 200
        assert conf["eval"]["repeats"] == 10
        assert conf["synth"]["n"] == 500

    def test_defaults_golden(self):
        """The defaults derived from TrainConfig and SynthParams, key for key."""
        want = {
            "seed": 0,
            "output": "out",
            "model": {"variant": "GAE", "d": 64, "d_prime": None, "hidden": 128,
                      "lambda": None, "T": 200, "k_att": 1, "k_dis": 1, "lr": 1e-3,
                      "lr_att": 1e-3, "lr_dis": 1e-3, "lr_gen": None,
                      "link_loss": "auto", "negatives_per_positive": 5,
                      "edge_holdout": 0.15},
            "eval": {"classifiers": ["mlp"], "fraction": 0.5, "utility_fraction": 0.7,
                     "repeats": 10, "lambda_values": [0.0, 1.0, 10.0, 100.0],
                     "dprime_values": [2, 4, 8, 16],
                     "fractions": [0.1, 0.3, 0.5, 0.7, 0.9], "sweep_repeats": 5},
            "synth": {"n": 500, "private_classes": 2, "utility_classes": 4,
                      "p_in": 0.08, "p_out": 0.01, "rho": 0.3, "flip_rate": 0.1},
        }
        conf = resolve_config({"synth": {}})
        # the JSON echo also tells 64 from 64.0
        assert json.dumps(conf, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_value_types(self):
        conf = resolve_config({"synth": {"p_in": 1}, "model": {"lr": 1, "lambda": None}})
        assert conf["synth"]["p_in"] == 1 and conf["model"]["lr"] == 1
        for raw in ({"model": {"lr": True}}, {"model": {"d_prime": 2.0}},
                    {"eval": {"classifiers": "mlp"}}, {"model": {"variant": None}}):
            with pytest.raises(ConfigError, match="must be"):
                resolve_config(raw)

    def test_list_element_types(self):
        # a float list accepts ints; an empty list has no element to check
        conf = resolve_config({"eval": {"lambda_values": [0, 2.5], "fractions": [],
                                        "dprime_values": [3]}})
        assert conf["eval"]["lambda_values"] == [0, 2.5]
        for raw in ({"eval": {"dprime_values": [4, 2.0]}},
                    {"eval": {"fractions": [None]}},
                    {"eval": {"lambda_values": [False]}},
                    {"eval": {"classifiers": ["mlp", ["knn"]]}}):
            with pytest.raises(ConfigError, match="elements must be"):
                resolve_config(raw)

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError, match="unknown key 'momentum'"):
            resolve_config({"model": {"momentum": 0.9}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            resolve_config({"mdoel": {}})

    def test_data_and_synth_exclusive(self):
        with pytest.raises(ConfigError, match="either 'data' or 'synth'"):
            resolve_config({"data": {"edges": "e", "attributes": "a",
                                     "schema": {}}, "synth": {}})

    def test_data_needs_all_parts(self):
        with pytest.raises(ConfigError, match="'data' needs 'schema'"):
            resolve_config({"data": {"edges": "e", "attributes": "a"}})


# --------------------------------------------------------------- commands


class TestCommands:
    def test_synth_then_train_then_audits(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"

        r = run_cli("synth", "--config", str(config))
        assert r.returncode == 0, r.stderr
        assert (out / "edges.tsv").exists()
        assert (out / "attributes.csv").exists()
        # attribute file: header plus one line per node
        assert len((out / "attributes.csv").read_text().splitlines()) == 61

        r = run_cli("train", "--config", str(config))
        assert r.returncode == 0, r.stderr
        z = load_embeddings(out / "embeddings.csv")
        assert z.shape == (60, 8)
        trace_lines = (out / "loss_trace.csv").read_text().splitlines()
        assert len(trace_lines) == 5
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["model"]["variant"] == "GAE"

        for command in ("attack", "eval-attr", "eval-link"):
            r = run_cli(command, "--config", str(config),
                        "--embeddings", str(out / "embeddings.csv"))
            assert r.returncode == 0, (command, r.stderr)
            with open(out / "report.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["method", "task", "classifier", "fraction",
                               "metric", "mean", "std", "repeats"]
            assert len(rows) > 1 and len(rows[1]) == 8

    def test_train_deterministic_across_processes(self, tmp_path):
        # --deterministic is accepted and changes nothing
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("train", "--config", str(config), "--out", str(out_a),
                       "--deterministic").returncode == 0
        assert run_cli("train", "--config", str(config), "--out", str(out_b)).returncode == 0
        assert (out_a / "embeddings.csv").read_bytes() == \
            (out_b / "embeddings.csv").read_bytes()

    def test_train_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # at n=500 OpenBLAS splits the encoder's products over two threads
        config = write_config(tmp_path, synth={"n": 500, "p_in": 0.08, "p_out": 0.01},
                              model={"d": 64, "hidden": 128, "T": 2})
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            r = subprocess.run([sys.executable, "-m", "privemb", "train", "--config",
                                str(config), "--out", str(out)], capture_output=True,
                               text=True, timeout=120,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert r.returncode == 0, r.stderr
            outs.append((out / "embeddings.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_only_training_loads_scipy_sparse(self, tmp_path):
        # a fresh interpreter: the test process has loaded scipy.sparse already
        config = write_config(tmp_path)
        emb = tmp_path / "z.csv"
        np.savetxt(emb, np.random.default_rng(0).standard_normal((60, 4)), delimiter=",",
                   header="z_0,z_1,z_2,z_3", comments="")
        script = (
            "import sys\n"
            "from privemb.cli import main\n"
            "conf, emb = sys.argv[1:]\n"
            "assert 'scipy.sparse' not in sys.modules, 'import'\n"
            "for command in ('synth', 'attack', 'eval-attr', 'eval-link'):\n"
            "    extra = [] if command == 'synth' else ['--embeddings', emb]\n"
            "    assert main([command, '--config', conf] + extra) == 0, command\n"
            "    assert 'scipy.sparse' not in sys.modules, command\n"
            "assert main(['train', '--config', conf]) == 0\n"
            "assert 'scipy.sparse' in sys.modules, 'train'\n")
        r = subprocess.run([sys.executable, "-c", script, str(config), str(emb)],
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr

    def test_apge_accepts_adversarial_keys(self, tmp_path):
        config = write_config(tmp_path, model={"variant": "APGE", "d": 8,
                                               "d_prime": 4, "lambda": 1.0,
                                               "T": 3})
        r = run_cli("train", "--config", str(config))
        assert r.returncode == 0, r.stderr

    def test_sweep_fraction(self, tmp_path):
        config = write_config(tmp_path, eval={"fractions": [0.3, 0.5],
                                              "sweep_repeats": 1,
                                              "repeats": 1})
        r = run_cli("sweep", "--config", str(config), "--axis", "fraction")
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "out" / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {row[3] for row in rows} == {"0.3", "0.5"}

    def test_sweep_reads_utility_fraction(self, tmp_path):
        config = write_config(tmp_path, model={"variant": "APGE", "d": 8, "d_prime": 4, "T": 2},
                              eval={"lambda_values": [1.0], "sweep_repeats": 1,
                                    "fraction": 0.6, "utility_fraction": 0.4})
        r = run_cli("sweep", "--config", str(config), "--axis", "lambda")
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "out" / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fractions = {row["task"]: row["fraction"] for row in rows}
        # the link row's fraction is the one eval-link writes for the split
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval-link", "--config", str(config), "--out", str(tmp_path / "link"),
                     "--embeddings", str(tmp_path / "out" / "embeddings.csv")]) == 0
        with open(tmp_path / "link" / "report.csv", newline="") as fh:
            link = {row["fraction"] for row in csv.DictReader(fh)}
        assert link == {fractions.pop("link")}
        assert fractions == {"privacy": "0.6", "utility:utility": "0.4"}

    def test_sweep_audits_every_classifier(self, tmp_path):
        """Each classifier's rows of a sweep are the rows of a sweep with it alone."""
        reports = {}
        for kinds in (["softmax", "mlp"], ["softmax"], ["mlp"]):
            config = write_config(tmp_path, model={"variant": "APGE", "d": 8, "d_prime": 4},
                                  eval={"classifiers": kinds, "lambda_values": [0.0, 1.0],
                                        "sweep_repeats": 1})
            out = tmp_path / "-".join(kinds)
            assert main(["sweep", "--config", str(config), "--axis", "lambda",
                         "--out", str(out)]) == 0
            with open(out / "report.csv", newline="") as fh:
                reports["-".join(kinds)] = list(csv.DictReader(fh))
        both = reports["softmax-mlp"]
        assert len(both) == 24  # 2 values x 3 tasks x 2 classifiers x 2 metrics
        for kind in ("softmax", "mlp"):
            assert [row for row in both if row["classifier"] == kind] == reports[kind]

    def test_gradcheck_passes(self):
        r = run_cli("gradcheck")
        assert r.returncode == 0, r.stderr
        lines = [l for l in r.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)


# --------------------------------------------------------------- exit codes


class TestExitCodes:
    def test_unknown_variant_is_config_error(self, tmp_path):
        config = write_config(tmp_path, model={"variant": "DGI"})
        r = run_cli("train", "--config", str(config))
        assert r.returncode == 1
        assert "config error" in r.stderr

    def test_unknown_key_is_config_error(self, tmp_path):
        config = write_config(tmp_path, model={"epochs": 5})
        r = run_cli("train", "--config", str(config))
        assert r.returncode == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        r = run_cli("train", "--config", str(tmp_path / "nope.json"))
        assert r.returncode == 2

    def test_missing_embeddings_is_io_error(self, tmp_path):
        config = write_config(tmp_path)
        r = run_cli("attack", "--config", str(config),
                    "--embeddings", str(tmp_path / "nope.csv"))
        assert r.returncode == 2

    def test_row_count_mismatch_is_io_error(self, tmp_path):
        config = write_config(tmp_path)
        emb = tmp_path / "short.csv"
        emb.write_text("z_0,z_1\n1.0,2.0\n")
        r = run_cli("attack", "--config", str(config), "--embeddings", str(emb))
        assert r.returncode == 2
        assert "rows" in r.stderr

    @pytest.mark.parametrize("command", ["attack", "eval-link"])
    @pytest.mark.parametrize("fault,bad_row,message", [
        ("non-numeric", "abc,1.0", "non-numeric"),
        ("short row", "1.0", "1 values, expected 2"),
        ("nan", "nan,1.0", "non-finite"),
        ("inf", "1.0,inf", "non-finite"),
    ])
    def test_bad_embeddings_row_is_input_error(self, tmp_path, command, fault,
                                               bad_row, message):
        config = write_config(tmp_path)
        rows = [f"{i}.0,1.0" for i in range(60)]
        rows[4] = bad_row
        emb = tmp_path / "bad.csv"
        emb.write_text("z_0,z_1\n" + "\n".join(rows) + "\n")
        r = run_cli(command, "--config", str(config), "--embeddings", str(emb))
        assert r.returncode == 2, (fault, r.stderr)
        assert "input error" in r.stderr and f"line 6: {message}" in r.stderr

    @pytest.mark.parametrize("override,code,key", [
        ({"model": {"T": "5"}}, 1, "'model.T'"),
        ({"eval": {"repeats": "3"}}, 1, "'eval.repeats'"),
        ({"model": {"d": 8.5}}, 1, "'model.d'"),
        ({"synth": {"n": 60.5}}, 1, "'synth.n'"),
        ({"output": 5}, 1, "output"),
        ({"model": {"hidden": True}}, 1, "'model.hidden'"),
        ({"seed": True}, 1, "seed"),
        ({"synth": None, "data": {"edges": "e.tsv", "attributes": "a.csv",
                                  "schema": [1]}}, 2, "schema"),
        ({"synth": None, "data": {"edges": "e.tsv", "attributes": "a.csv", "schema": {
            "private": {"classes": 2, "role": "private"},
            "utility": {"classes": 2, "role": "utility"},
            "feature": {"classes": True, "role": "feature"}}}}, 2, "'feature'"),
    ], ids=["T-str", "repeats-str", "d-float", "n-float", "output-int", "hidden-bool",
            "seed-bool", "schema-list", "classes-bool"])
    def test_wrongly_typed_value_is_one_error_line(self, tmp_path, override, code, key):
        config = write_config(tmp_path, **override)
        r = run_cli("train", "--config", str(config))
        assert r.returncode == code, r.stderr
        prefix = "config error:" if code == 1 else "input error:"
        assert "Traceback" not in r.stderr
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith(prefix), r.stderr
        assert key in r.stderr, r.stderr

    @pytest.mark.parametrize("axis,eval_override", [
        ("lambda", {"lambda_values": [None]}),
        ("dprime", {"dprime_values": [2.7]}),
        ("lambda", {"lambda_values": [1.0, True]}),
        ("fraction", {"fractions": [0.5, "0.3"]}),
        ("fraction", {"classifiers": [1]}),
    ], ids=["lambda-null", "dprime-float", "lambda-bool", "fractions-str", "classifiers-int"])
    def test_wrongly_typed_sweep_value_is_one_error_line(self, tmp_path, axis, eval_override):
        config = write_config(tmp_path, model={"variant": "APGE", "T": 2},
                              eval=dict(eval_override, sweep_repeats=1, repeats=1))
        r = run_cli("sweep", "--config", str(config), "--axis", axis)
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert r.stderr.startswith("config error:") and "elements must be" in r.stderr

    def test_bad_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = run_cli("train", "--config", str(bad))
        assert r.returncode == 1

    def test_too_few_non_edges_for_link_eval_is_input_error(self, tmp_path):
        # 39 of the 66 pairs are edges: the held-out split fits, but not the
        # 33 training non-edges link evaluation draws
        config = write_config(tmp_path, seed=0,
                              synth={"n": 12, "p_in": 0.7, "p_out": 0.5},
                              model={"T": 2})
        out = tmp_path / "out"
        assert run_cli("synth", "--config", str(config)).returncode == 0
        assert run_cli("train", "--config", str(config)).returncode == 0
        r = subprocess.run([sys.executable, "-m", "privemb", "eval-link", "--config",
                            str(config), "--embeddings", str(out / "embeddings.csv")],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 2, r.stderr
        assert "non-edges" in r.stderr

    def test_oversized_link_table_is_refused_before_allocating(self, tmp_path, monkeypatch,
                                                               capsys):
        config = write_config(tmp_path, synth={"n": 300})
        g, _ = load_dataset(resolve_config(load_config(config)))
        split = split_edges(g, 0.15, derive_seed(3, "edges"))
        width = 256
        need = 8 * width * 2 * len(split.train_edges)
        emb = tmp_path / "z.csv"
        np.savetxt(emb, np.random.default_rng(0).standard_normal((g.n, width)), delimiter=",",
                   header=",".join(f"z_{j}" for j in range(width)), comments="")
        monkeypatch.setattr(training, "LINK_MEMORY_BUDGET", need - 1)
        tracemalloc.start()
        try:
            code = main(["eval-link", "--config", str(config), "--embeddings", str(emb)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and err.count("\n") == 1, err
        assert f"{need} bytes" in err and f"{need - 1}-byte budget" in err, err
        assert peak < need / 10

    def test_one_labeled_private_node_is_input_error(self, tmp_path):
        n = 12
        (tmp_path / "edges.tsv").write_text("".join(f"{i}\t{i + 1}\n" for i in range(n - 1)))
        rows = [f"{i},{1 if i == 0 else 0},{1 + i % 2}" for i in range(n)]
        (tmp_path / "attributes.csv").write_text("node_id,private,utility\n" + "\n".join(rows) + "\n")
        emb = tmp_path / "embeddings.csv"
        emb.write_text("z_0,z_1\n" + "".join(f"{i}.0,1.0\n" for i in range(n)))
        config = write_config(tmp_path, synth=None, data={
            "edges": str(tmp_path / "edges.tsv"),
            "attributes": str(tmp_path / "attributes.csv"),
            "schema": {"private": {"classes": 2, "role": "private"},
                       "utility": {"classes": 2, "role": "utility"}}})
        r = run_cli("attack", "--config", str(config), "--embeddings", str(emb))
        assert r.returncode == 2, r.stderr
        assert "input error" in r.stderr and "labeled nodes" in r.stderr

    def test_huge_negative_count_is_one_config_line(self, tmp_path):
        # 10**11 negatives per positive would draw terabytes of pairs
        (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n2\t3\n")
        (tmp_path / "attributes.csv").write_text(
            "node_id,private,utility\n0,1,1\n1,2,2\n2,1,2\n3,2,1\n")
        config = write_config(tmp_path, synth=None, data={
            "edges": str(tmp_path / "edges.tsv"),
            "attributes": str(tmp_path / "attributes.csv"),
            "schema": {"private": {"classes": 2, "role": "private"},
                       "utility": {"classes": 2, "role": "utility"}}},
            model={"T": 2, "edge_holdout": 0.4, "link_loss": "sampled",
                   "negatives_per_positive": 100000000000})
        r = run_cli("train", "--config", str(config))
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("config error:"), r.stderr
        assert "negatives_per_positive" in r.stderr

    @pytest.mark.parametrize("model,message", [
        ({"variant": "APGE", "lambda": -1.0}, "lambda must be non-negative"),
        ({"lambda": 1.0}, "lambda does not apply to variant 'GAE'"),
        ({"negatives_per_positive": 0}, "negatives_per_positive must be at least 1"),
        ({"link_loss": "minibatch"}, "unknown link_loss 'minibatch'"),
        ({"T": 0}, "T must be at least 1"),
    ])
    def test_bad_model_value_names_the_config_key(self, tmp_path, capsys, model, message):
        config = write_config(tmp_path, model=model)
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_lambda_on_gae_is_config_error(self, tmp_path):
        config = write_config(tmp_path, model={"lambda": 1.0})
        r = run_cli("train", "--config", str(config))
        assert r.returncode == 1

    def test_diverging_training_is_one_numeric_line(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 3, "output": str(tmp_path / "out"), "synth": {"n": 80},
            "model": {"variant": "APGE", "T": 30, "lr": 1e300, "lr_att": 1e300,
                      "lr_dis": 1e300}}))
        r = run_cli("train", "--config", str(config))
        assert r.returncode == 3, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert r.stderr.startswith("numeric failure:") and "at iteration" in r.stderr, r.stderr

    def test_failed_command_leaves_no_output(self, tmp_path, capsys):
        """A command that fails leaves none of its output files in the
        folder, not even those of an earlier run."""
        config = write_config(tmp_path)
        out = tmp_path / "out"
        embeddings = out / "embeddings.csv"
        assert main(["train", "--config", str(config)]) == 0
        assert main(["attack", "--config", str(config), "--embeddings", str(embeddings)]) == 0
        assert (out / "report.csv").exists()

        diverging = write_config(tmp_path, "diverging.json", model={"lr": 1e300})
        assert main(["train", "--config", str(diverging)]) == 3
        assert not embeddings.exists() and not (out / "loss_trace.csv").exists()
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("z_0\n1.0\n")
        assert main(["attack", "--config", str(config), "--embeddings", str(one_row)]) == 2
        assert not (out / "report.csv").exists()
        assert capsys.readouterr().err.count("\n") == 2

    def test_write_that_fails_midway_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """A train whose embedding write fails after its first block exits 2
        and leaves neither the embeddings nor a temporary file."""
        config = write_config(tmp_path)
        out = tmp_path / "out"
        blocks = []

        def full_after_one(v, seps, _cells=graphcore._float_cells):
            if blocks:
                raise OSError(28, "No space left on device")
            blocks.append(v.size)
            return _cells(v, seps)

        monkeypatch.setattr(graphcore, "_FLOAT_VALUES", 64)
        monkeypatch.setattr(graphcore, "_float_cells", full_after_one)
        assert main(["train", "--config", str(config)]) == 2
        assert blocks == [64]
        assert capsys.readouterr().err == "input error: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in out.iterdir()) == []

    # each writing command's last writer, and the call of it that fails
    LAST_WRITERS = {"synth": (graphcore, "write_rows", 2),  # the attribute rows
                    "train": (cli, "export_trace", 1), "attack": (cli, "write_report", 1),
                    "eval-attr": (cli, "write_report", 1), "eval-link": (cli, "write_report", 1),
                    "sweep": (cli, "write_report", 1)}

    @pytest.mark.parametrize("command", LAST_WRITERS)
    def test_last_write_that_fails_leaves_no_output(self, tmp_path, monkeypatch, capsys,
                                                    command):
        """A command whose last write fails exits 2 with one line and leaves
        none of its outputs and no temporary file; the config_resolved.json
        of the run before it is left as it was."""
        module, writer, failing_call = self.LAST_WRITERS[command]
        out = tmp_path / "out"
        extra = ["--axis", "fraction"] if command == "sweep" else []
        if command in cli.AUDIT_LABELS:
            trained = tmp_path / "trained"
            assert main(["train", "--config", str(write_config(tmp_path)),
                         "--out", str(trained)]) == 0
            extra = ["--embeddings", str(trained / "embeddings.csv")]

        def run(seed):
            config = write_config(tmp_path, f"seed{seed}.json", seed=seed,
                                  eval={"fractions": [0.5], "sweep_repeats": 1})
            return main([command, "--config", str(config), "--out", str(out), *extra])

        assert run(3) == 0
        earlier = (out / "config_resolved.json").read_bytes()
        capsys.readouterr()
        real, calls = getattr(module, writer), []

        def write_then_fail(*args):
            real(*args)
            calls.append(args)
            if len(calls) == failing_call:
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(module, writer, write_then_fail)
        assert run(4) == 2
        assert len(calls) == failing_call
        assert capsys.readouterr().err == "input error: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in out.iterdir()) == ["config_resolved.json"]
        assert (out / "config_resolved.json").read_bytes() == earlier


def _data_config(tmp_path, edges, rows, model=None, eval_section=None,
                 schema=(("private", 2, "private"), ("utility", 3, "utility"))):
    """A config whose 'data' section reads the given edge pairs and
    attribute rows (node id first)."""
    (tmp_path / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    (tmp_path / "attributes.csv").write_text(
        ",".join(["node_id"] + [name for name, _, _ in schema]) + "\n"
        + "".join(",".join(map(str, row)) + "\n" for row in rows))
    return write_config(tmp_path, synth=None, model=model or {}, eval=eval_section or {}, data={
        "edges": str(tmp_path / "edges.tsv"), "attributes": str(tmp_path / "attributes.csv"),
        "schema": {name: {"classes": m, "role": role} for name, m, role in schema}})


def _synth_with_blank_column(tmp_path, column, variant):
    """The n=60 test graph of write_config, its attribute column ``column``
    set to 0 (missing) on every node."""
    assert main(["synth", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "attributes.csv").read_text().splitlines()
    j = lines[0].split(",").index(column)
    rows = [[0 if i == j else int(v) for i, v in enumerate(line.split(","))]
            for line in lines[1:]]
    edges = [line.split("\t") for line in (tmp_path / "edges.tsv").read_text().splitlines()]
    return _data_config(tmp_path, edges, rows, model={"variant": variant, "T": 2},
                        schema=(("private", 2, "private"), ("utility", 3, "utility"),
                                ("feature", 3, "feature")))


class TestDataTooThinToTrain:
    """Data that leaves a loss with nothing to train on exits 2 with one line."""

    @pytest.mark.parametrize("variant", ["GAE", "GAE_RM", "APDGE", "APPGE", "APGE",
                                         "APGE_NOEXP"])
    def test_unlabeled_utility_attribute(self, tmp_path, capsys, variant):
        config = _synth_with_blank_column(tmp_path, "utility", variant)
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == \
            "input error: attribute 'utility' has no labeled node to train on\n"

    @pytest.mark.parametrize("variant", ["APPGE", "APGE", "APGE_NOEXP"])
    def test_unlabeled_private_attribute_of_a_purging_variant(self, tmp_path, capsys, variant):
        config = _synth_with_blank_column(tmp_path, "private", variant)
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == \
            "input error: attribute 'private' has no labeled node to train on\n"

    @pytest.mark.parametrize("variant", ["GAE", "GAE_RM", "APDGE"])
    def test_unlabeled_private_attribute_without_an_attacker_trains(self, tmp_path, capsys,
                                                                     variant):
        config = _synth_with_blank_column(tmp_path, "private", variant)
        assert main(["train", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""

    def test_three_edges_leave_an_empty_split_side(self, tmp_path, capsys):
        config = _data_config(tmp_path, [(0, 1), (1, 2), (2, 3)],
                              [(i, 1 + i % 2, 1 + i % 3) for i in range(4)])
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == \
            "input error: holding out 0 of 3 edges leaves an empty split side\n"

    def test_two_labeled_nodes_leave_an_empty_split_side(self, tmp_path, capsys):
        config = _data_config(tmp_path, [(i, i + 1) for i in range(5)],
                              [(i, i if i < 3 else 0, 1 + i % 3) for i in range(6)],
                              eval_section={"fraction": 0.1})
        emb = tmp_path / "z.csv"
        emb.write_text("z_0\n" + "".join(f"{i}.0\n" for i in range(6)))
        assert main(["attack", "--config", str(config), "--embeddings", str(emb)]) == 2
        assert capsys.readouterr().err == \
            "input error: a 0.1 split of 2 labeled nodes leaves an empty side\n"


def _address_space_of_2_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command,overrides,schema", [
    ("train", {"synth": {"n": 50}, "model": {"hidden": 1000000000}}, None),
    ("train", {"synth": {"n": 50}, "model": {"d": 100000000}}, None),
    ("synth", {"synth": {"n": 3000000000}}, None),
    ("train", {}, (("private", 2, "private"), ("utility", 2, "utility"),
                   ("big", 2000000000, "feature"))),
], ids=["hidden", "d", "synth-n", "feature-classes"])
def test_out_of_memory_is_one_line(tmp_path, command, overrides, schema):
    """Each probe asks for GiBs more than the 2 GiB of address space it runs
    with, which no probe may run without."""
    if schema:
        config = _data_config(tmp_path, [(i, i + 1) for i in range(11)],
                              [(i, 1 + i % 2, 1 + i // 2 % 2, 1 + i) for i in range(12)],
                              schema=schema)
    else:
        config = write_config(tmp_path, **overrides)
    r = subprocess.run([sys.executable, "-m", "privemb", command, "--config", str(config)],
                       capture_output=True, text=True, timeout=60,
                       preexec_fn=_address_space_of_2_gib)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("out of memory: Unable to allocate") and \
        r.stderr.count("\n") == 1, r.stderr


@pytest.fixture(scope="module")
def overflowing_audit(tmp_path_factory):
    """A GAE embedding with column 0 scaled by 1e200, and a config maker
    for auditing it with one classifier."""
    root = tmp_path_factory.mktemp("overflow")
    conf = {"seed": 3, "output": str(root / "out"), "synth": {"n": 80},
            "model": {"variant": "GAE", "T": 5, "d": 3}, "eval": {"repeats": 1}}
    (root / "train.json").write_text(json.dumps(conf))
    assert run_cli("train", "--config", str(root / "train.json")).returncode == 0
    z = load_embeddings(root / "out" / "embeddings.csv")
    z[:, 0] *= 1e200
    training.export_embeddings(z, root / "big.csv")

    def config(kind):
        path = root / f"{kind}.json"
        path.write_text(json.dumps(dict(conf, eval={"repeats": 1, "classifiers": [kind]})))
        return path

    return root / "big.csv", config


@pytest.mark.parametrize("kind", ["softmax", "mlp", "knn"])
@pytest.mark.parametrize("command,task", [("attack", "privacy"), ("eval-link", "link")])
def test_overflowing_embedding_is_one_numeric_line(overflowing_audit, command, task, kind):
    emb, config = overflowing_audit
    r = run_cli(command, "--config", str(config(kind)), "--embeddings", str(emb))
    assert r.returncode == 3, r.stderr
    assert r.stderr == f"numeric failure: {task} {kind} fit is not finite\n"


# --------------------------------------------------------------- input forms

# head, first data line and the other data lines of three files that load
_PLAIN = {
    "edges": ("", "0\t1\n", "".join(f"{i}\t{i + 1}\n" for i in range(1, 11)) + "0\t6\n3\t9\n"),
    "attributes": ("node_id,private,utility\n", "0,1,1\n",
                   "".join(f"{i},{1 + i % 2},{1 + i // 2 % 2}\n" for i in range(1, 12))),
    "embeddings": ("z_0,z_1\n", "0.5,-1.25\n", "".join(f"{i}.5,-{i}.25\n" for i in range(1, 12))),
}

# one file in another form, written from {head} and {rest}; the exit code of
# `attack` and a part of its one stderr line, which starts with the prefix
# of that exit code. The marked rows read otherwise before the reader was
# one strict table reader, or before every audit fit was checked for
# non-finite values.
INPUT_FORMS = [
    ("edges", "+0\t+1\n{rest}", 0, ""),
    ("edges", "00\t01\n{rest}", 0, ""),
    ("edges", " 0 \t 1 \n{rest}", 0, ""),
    ("edges", "# a comment\n0\t1\n{rest}", 0, ""),
    ("edges", "\n0\t1\n{rest}", 0, ""),
    ("edges", "0\t1\r\n{rest}", 0, ""),
    ("edges", "0\t1 # inline\n{rest}", 0, ""),  # refused before
    ("edges", "  # indented\n0\t1\n{rest}", 2, "edge line 1:"),  # accepted before
    ("edges", " \n0\t1\n{rest}", 2, "edge line 1:"),  # accepted before
    ("edges", "0_0\t1\n{rest}", 2, "edge line 1:"),  # accepted before
    ("edges", "٠\t1\n{rest}", 2, "edge line 1:"),  # accepted before
    ("edges", "0 1\n{rest}", 2, "expected two tab-separated"),
    ("edges", "0\t1e0\n{rest}", 2, "edge line 1:"),
    ("edges", "0\t1\t2\n{rest}", 2, "edge line 1:"),
    ("edges", "0\t1\n{rest}0\t\n", 2, "edge line 14:"),
    ("edges", "0\t99\n{rest}", 2, "edge line 1: unknown node id 99"),
    ("edges", "-1\t1\n{rest}", 2, "edge line 1: unknown node id -1"),
    ("edges", "0\t99999999999999999999\n{rest}", 2, "edge line 1:"),
    ("attributes", "{head}+0,+1,1\n{rest}", 0, ""),
    ("attributes", "{head}00,01,1\n{rest}", 0, ""),
    ("attributes", "{head} 0 , 1 , 1 \n{rest}", 0, ""),
    ("attributes", "{head}# a comment\n0,1,1\n{rest}", 0, ""),  # refused before
    ("attributes", "{head}\n0,1,1\n{rest}", 0, ""),
    ("attributes", "node_id,private,utility\r\n0,1,1\r\n{rest}", 0, ""),
    ("attributes", '{head}"0",1,1\n{rest}', 2, "attribute line 2:"),  # accepted before
    ("attributes", "{head}0_0,1,1\n{rest}", 2, "attribute line 2:"),  # accepted before
    ("attributes", "{head}0 1 1\n{rest}", 2, "attribute line 2:"),
    ("attributes", "{head}0,1e0,1\n{rest}", 2, "attribute line 2:"),
    ("attributes", "{head}0,1\n{rest}", 2, "attribute line 2:"),
    ("attributes", "{head}0,1,1\n0,2,2\n{rest}0,1,1\n", 2,
     "attribute line 3: duplicate node id 0"),
    ("attributes", "{head}0,x,1\n{rest}", 2, "attribute line 2:"),
    ("attributes", "{head}0,99999999999999999999,1\n{rest}", 2,
     "attribute line 2:"),  # a traceback and exit 1 before
    ("attributes", "{head}99999999999999999999,1,1\n{rest}", 2,
     "attribute line 2:"),  # an unknown edge id before
    ("attributes", "{head}0,3,1\n{rest}", 2, "out of range"),
    ("embeddings", "{head}+0.5,-1.25\n{rest}", 0, ""),
    ("embeddings", "{head} 0.5 , -1.25 \n{rest}", 0, ""),
    ("embeddings", "{head}5e-1,-125e-2\n{rest}", 0, ""),
    ("embeddings", "{head}# a comment\n0.5,-1.25\n{rest}", 0, ""),
    ("embeddings", "{head}\n0.5,-1.25\n{rest}", 0, ""),
    ("embeddings", "{head}0.5,-1.25\r\n{rest}", 0, ""),
    ("embeddings", "{head}0.5,-1.25 # inline\n{rest}", 0, ""),
    ("embeddings", "{head}0.5 -1.25\n{rest}", 2, "embeddings line 2: non-numeric"),
    ("embeddings", "{head}0.5,-1.25\n1.5\n{rest}", 2, "embeddings line 3: 1 values, expected 2"),
    ("embeddings", "{head}abc,-1.25\n{rest}", 2, "embeddings line 2: non-numeric"),
    ("embeddings", "{head}0_5,-1.25\n{rest}", 2, "embeddings"),
    ("embeddings", "{head}0.5,-1.25\n \n{rest}", 2, "embeddings"),
    ("embeddings", "{head}nan,-1.25\n{rest}", 2, "embeddings line 2: non-finite"),
    ("embeddings", "{head}0.5,-inf\n{rest}", 2, "embeddings line 2: non-finite"),
    ("embeddings", "{head}1e200,-1.25\n{rest}", 3, "numeric failure:"),  # exit 0 before
    ("embeddings", "{head}", 2, "embeddings have 0 rows"),  # and a warning before
    ("embeddings", "", 2, "embeddings have 0 rows"),  # and a warning before
]


def _write_inputs(folder, form=None):
    """The three input files, plain or with one of them in ``form``."""
    folder.mkdir()
    paths = {}
    for name, (head, first, rest) in _PLAIN.items():
        text = head + first + rest
        if form is not None and form[0] == name:
            text = form[1].format(head=head, rest=rest)
        paths[name] = folder / name
        paths[name].write_text(text, encoding="utf-8", newline="")
    return paths


_SCHEMA = {"private": {"classes": 2, "role": "private"},
           "utility": {"classes": 2, "role": "utility"}}


def _loaded(paths):
    g = load_graph(paths["edges"], paths["attributes"], AttributeSchema.from_config(_SCHEMA))
    return g.edges, g.attributes, load_embeddings(paths["embeddings"])


@pytest.mark.parametrize("form", INPUT_FORMS, ids=lambda form: repr(form[:2]))
def test_input_forms(tmp_path, capsys, form):
    paths = _write_inputs(tmp_path / "in", form)
    config = write_config(tmp_path, synth=None, eval={"repeats": 1}, data={
        "edges": str(paths["edges"]), "attributes": str(paths["attributes"]), "schema": _SCHEMA})
    # outside pytest a warning prints to stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["attack", "--config", str(config), "--embeddings", str(paths["embeddings"])])
    err = capsys.readouterr().err
    _, _, want_code, message = form
    assert code == want_code, err
    if code:
        prefix = {2: "input error:", 3: "numeric failure:"}[code]
        assert err.startswith(prefix) and err.count("\n") == 1 and message in err, err
    else:
        assert err == ""
        got, want = _loaded(paths), _loaded(_write_inputs(tmp_path / "plain"))
        assert np.array_equal(got[0], want[0])
        assert all(np.array_equal(got[1][k], want[1][k]) for k in want[1])
        assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("command,key", [("attack", "fraction"),
                                         ("eval-attr", "utility_fraction")])
@pytest.mark.parametrize("value,code", [(0.05, 1), (0.9, 0), (0.95, 1)])
def test_eval_fraction_bounds(tmp_path, capsys, command, key, value, code):
    """A training fraction outside [0.1, 0.9] is one config error line that
    names its key."""
    paths = _write_inputs(tmp_path / "in")
    config = write_config(tmp_path, synth=None, eval={"repeats": 1, key: value}, data={
        "edges": str(paths["edges"]), "attributes": str(paths["attributes"]), "schema": _SCHEMA})
    assert main([command, "--config", str(config), "--embeddings", str(paths["embeddings"])]) \
        == code
    err = capsys.readouterr().err
    assert err == (f"config error: 'eval.{key}' must lie in [0.1, 0.9]\n" if code else ""), err


@pytest.mark.parametrize("axis,key,value,message", [
    ("lambda", "sweep_repeats", 0, "must be at least 1"),
    ("lambda", "sweep_repeats", -2, "must be at least 1"),
    ("fraction", "sweep_repeats", 0, "must be at least 1"),
    ("fraction", "repeats", 0, "must be at least 1"),
    ("lambda", "fraction", 0.95, "must lie in [0.1, 0.9]"),
    ("lambda", "utility_fraction", 0.05, "must lie in [0.1, 0.9]"),
    ("fraction", "fractions", [0.5, 0.95], "must lie in [0.1, 0.9]"),
])
def test_sweep_refuses_eval_values_before_training(tmp_path, capsys, monkeypatch,
                                                   axis, key, value, message):
    """A bad eval value is one config error line naming its key, given
    before any model trains."""
    trained = []
    monkeypatch.setattr(training, "train", lambda *args: trained.append(args))
    config = write_config(tmp_path, eval={key: value})
    assert main(["sweep", "--config", str(config), "--axis", axis]) == 1
    assert capsys.readouterr().err == f"config error: 'eval.{key}' {message}\n"
    assert not trained and not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["edges", "attributes"])
@pytest.mark.parametrize("value", [0, True, None, 1.5, ["a"]], ids=repr)
def test_data_path_that_is_not_a_string_is_one_config_line(tmp_path, key, value):
    """A non-string data path is refused before anything opens it: 0 would
    read stdin and true would open fd 1. Stdin stays an open pipe, so a
    read of it would block until the timeout."""
    data = {"edges": "edges.tsv", "attributes": "attributes.csv", "schema": _SCHEMA, key: value}
    config = write_config(tmp_path, synth=None, data=data)
    proc = subprocess.Popen([sys.executable, "-m", "privemb", "train", "--config", str(config)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        code = proc.wait(timeout=30)
    finally:
        proc.kill()
        _, err = proc.communicate()
    assert code == 1, err
    assert err == f"config error: 'data.{key}' must be a path string\n", err


@pytest.mark.parametrize("argv,overrides,message", [
    (["train"], {"model": {"T": 0}}, "T must be at least 1"),
    (["attack"], {"model": {"T": 0}}, "T must be at least 1"),
    (["attack"], {"eval": {"classifiers": ["svm"]}}, "unknown classifier kind 'svm'"),
    (["sweep", "--axis", "lambda"], {"model": {"T": 0}}, "T must be at least 1"),
], ids=["train", "attack", "attack-classifier", "sweep"])
def test_config_error_comes_before_any_data_file(tmp_path, capsys, argv, overrides, message):
    """A config error is one config error line, given before any data file
    is read: none of them exists, so a read would exit 2."""
    data = {"edges": str(tmp_path / "edges.tsv"), "attributes": str(tmp_path / "attributes.csv"),
            "schema": _SCHEMA}
    config = write_config(tmp_path, synth=None, data=data, **overrides)
    if argv[0] == "attack":
        argv = argv + ["--embeddings", str(tmp_path / "embeddings.csv")]
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("key,values,message", [
    ("lambda_values", [1.0, -1.0], "lambda must be non-negative"),
    ("dprime_values", [4, 0], "d_prime must be positive"),
])
def test_sweep_resolves_every_run_before_training(tmp_path, capsys, monkeypatch,
                                                  key, values, message):
    """A bad swept value after a good one is one config error line, given
    before any model trains."""
    trained = []
    monkeypatch.setattr(training, "train", lambda *args: trained.append(args))
    config = write_config(tmp_path, model={"variant": "APGE", "T": 30},
                          eval={key: values, "sweep_repeats": 2})
    axis = {"lambda_values": "lambda", "dprime_values": "dprime"}[key]
    assert main(["sweep", "--config", str(config), "--axis", axis]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not trained


def test_data_section_roundtrip(tmp_path):
    """synth writes files that a 'data' config can consume."""
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("synth", "--config", str(config)).returncode == 0

    data_conf = {
        "seed": 3,
        "output": str(tmp_path / "out2"),
        "data": {
            "edges": str(out / "edges.tsv"),
            "attributes": str(out / "attributes.csv"),
            "schema": {
                "private": {"classes": 2, "role": "private"},
                "utility": {"classes": 3, "role": "utility"},
                "feature": {"classes": 3, "role": "feature"},
            },
        },
        "model": {"variant": "GAE_RM", "d": 8, "hidden": 10, "T": 3},
    }
    path = tmp_path / "data_config.json"
    path.write_text(json.dumps(data_conf))
    r = run_cli("train", "--config", str(path))
    assert r.returncode == 0, r.stderr
    z = load_embeddings(tmp_path / "out2" / "embeddings.csv")
    assert z.shape == (60, 8)
    assert np.all(np.isfinite(z))
