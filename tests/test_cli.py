import json
import os
import struct
import subprocess
from pathlib import Path

import numpy as np
import pytest

from conftest import (OVERSIZED_CHECKPOINT, OVERSIZED_EMBEDDINGS,
                      UNRUNNABLE_CHECKPOINTS, chain_checkpoint,
                      fifo_serving, openblas_thread_calls, write_idx_images,
                      write_idx_labels)
from cyclicff import cli
from cyclicff import data as data_module
from cyclicff.cli import (ConfigError, _git_describe, config_hash,
                          effective_config, main, parse_config_file,
                          to_train_config)
from cyclicff.data import load_mnist_idx, save_embeddings, synth_blobs
from cyclicff.graph import GeneratorSpec, generate
from cyclicff.network import (MAX_T, build_network, load_checkpoint,
                              save_checkpoint)
from cyclicff.numerics import make_rng
from cyclicff.training import Metrics, TrainConfig


SYNTH_CFG = """
# tiny run for tests
dataset = synth
synth_n_per_class = 60
synth_dim = 8
synth_classes = 2
synth_separation = 6.0
graph = complete
n = 3
d_out = 8
T = 2
max_epochs = 2
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "synth.cfg"
    p.write_text(SYNTH_CFG)
    return str(p)


def run_cli(args):
    return main(args)


# Synth values that synth_blobs or Dataset reject for the training pool and
# the test set alike, so train, eval and sweep all exit 2 on them.
BAD_SYNTH_VALUES = ["synth_separation=inf", "synth_separation=-1",
                    "synth_n_per_class=-1", "synth_classes=30", "synth_dim=x"]


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any run starts training."""
    def fail(*args, **kwargs):
        pytest.fail("run_config was called")
    monkeypatch.setattr(cli, "run_config", fail)


class TestConfigParsing:
    def test_defaults_plus_file_plus_overrides(self, cfg_path):
        cfg = effective_config(cfg_path, ["T=5"])
        assert cfg["T"] == "5"
        assert cfg["d_out"] == "8"       # from file
        assert cfg["theta"] == "1.0"     # default

    def test_unknown_key_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("d_out = 8\nbogus = 1\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config_file(str(p))

    def test_missing_equals_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config_file(str(p))

    def test_bad_value_is_config_error(self, cfg_path):
        cfg = effective_config(cfg_path, ["T=not-a-number"])
        with pytest.raises(ConfigError):
            to_train_config(cfg)

    def test_defaults_match_train_config(self):
        assert to_train_config(dict(cli.DEFAULTS)) == TrainConfig()

    def test_key_tables_follow_the_dataclasses(self):
        # The generator's seed is the run's, so it is no generator key.
        assert list(cli.GENERATOR_KEYS.items()) == [
            ("n", int), ("ws_k", int), ("ws_p", float), ("ba_m", int)]
        assert list(cli.TRAIN_KEYS.items()) == [
            ("d_out", int), ("T", int), ("theta", float), ("lr", float),
            ("weight_decay", float), ("batch_size", int),
            ("max_epochs", int), ("patience", int), ("seed", int),
            ("freeze_neurons", cli.boolean),
            ("freeze_readout", cli.boolean)]

    def test_defaults_hash_pinned(self):
        # Run artifacts are named by this hash; a change of a default's
        # text would rename every run.
        assert config_hash(dict(cli.DEFAULTS)) == "10a5e749"

    @pytest.mark.parametrize("key", ["d_out", "lr", "ws_p",
                                     "freeze_neurons"])
    def test_bad_typed_value_names_key_exit_2(self, cfg_path, tmp_path,
                                              capsys, no_training, key):
        rc = run_cli(["train", "--config", cfg_path, "--set", f"{key}=abc",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert f"{key}: expected " in capsys.readouterr().err

    def test_hash_ignores_seed(self, cfg_path):
        a = effective_config(cfg_path, ["seed=1"])
        b = effective_config(cfg_path, ["seed=2"])
        assert config_hash(a) == config_hash(b)
        c = effective_config(cfg_path, ["T=9"])
        assert config_hash(a) != config_hash(c)


class TestTrainCommand:
    def test_writes_artifacts_and_prints_error(self, cfg_path, tmp_path,
                                               capsys):
        out_dir = tmp_path / "out"
        rc = run_cli(["train", "--config", cfg_path, "--seed", "7",
                      "--set", f"out_dir={out_dir}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "test_error_pct=" in out
        files = os.listdir(out_dir)
        stems = {f.rsplit(".", 1)[0].replace(".manifest", "") for f in files}
        assert len(stems) == 1
        stem = stems.pop()
        assert stem.endswith("-7")
        assert f"{stem}.ckpt" in files
        assert f"{stem}.csv" in files
        manifest = json.loads((out_dir / f"{stem}.manifest.json").read_text())
        assert manifest["config"]["seed"] == "7"
        assert manifest["seeds"] == [7]
        for path in manifest["artifacts"].values():
            assert os.path.exists(path)

    def test_override_recorded_in_manifest(self, cfg_path, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(["train", "--config", cfg_path, "--set", "T=5",
                 "--set", f"out_dir={out_dir}"])
        manifest_file = [f for f in os.listdir(out_dir)
                         if f.endswith(".manifest.json")][0]
        manifest = json.loads((out_dir / manifest_file).read_text())
        assert manifest["config"]["T"] == "5"

    def test_default_out_dir(self, cfg_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["train", "--config", cfg_path, "--seed", "2"]) == 0
        files = sorted(os.listdir(tmp_path / "out"))
        assert [f.split(".", 1)[1] for f in files] == [
            "ckpt", "csv", "manifest.json"]

    def test_slow_git_still_writes_manifest(self, cfg_path, tmp_path,
                                            monkeypatch):
        def slow_git(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", slow_git)
        assert _git_describe() == ""
        out_dir = tmp_path / "out"
        assert run_cli(["train", "--config", cfg_path,
                        "--set", f"out_dir={out_dir}"]) == 0
        manifest_file = [f for f in os.listdir(out_dir)
                         if f.endswith(".manifest.json")][0]
        manifest = json.loads((out_dir / manifest_file).read_text())
        assert manifest["git_describe"] == ""

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        rc = run_cli(["train", "--set", "dataset=mnist",
                      "--set", f"mnist_images={tmp_path}/nope"])
        assert rc == 2

    @pytest.mark.parametrize("value", [
        "synth_dim=x", "synth_classes=30", "val_fraction=1.5",
        "synth_separation=-1", "synth_n_per_class=0", "synth_classes=1",
        "lr=nan", "lr=inf", "theta=nan", "weight_decay=nan",
        "synth_separation=inf", "synth_n_per_class=-1"])
    def test_bad_data_value_exit_2(self, cfg_path, tmp_path, monkeypatch,
                                   value):
        calls = []
        monkeypatch.setattr(cli, "run_config",
                            lambda *a, **kw: calls.append(1))
        assert run_cli(["train", "--config", cfg_path, "--set", value,
                        "--set", f"out_dir={tmp_path / 'out'}"]) == 2
        assert calls == []

    def test_truncated_embeddings_exit_2(self, tmp_path, capsys):
        emb = tmp_path / "emb.cnne"
        assert run_cli(["export-embeddings-template", "--out", str(emb)]) == 0
        emb.write_bytes(emb.read_bytes()[:-1])
        rc = run_cli(["train", "--set", "dataset=embeddings",
                      "--set", f"embeddings_train={emb}",
                      "--set", f"embeddings_test={emb}",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert "embeddings: truncated" in capsys.readouterr().err

    def test_non_finite_embeddings_exit_2(self, tmp_path, capsys):
        emb = tmp_path / "emb.cnne"
        assert run_cli(["export-embeddings-template", "--out", str(emb)]) == 0
        raw = bytearray(emb.read_bytes())
        raw[20:24] = struct.pack("<I", 0x7FA00000)  # a signaling NaN
        emb.write_bytes(bytes(raw))
        rc = run_cli(["train", "--set", "dataset=embeddings",
                      "--set", f"embeddings_train={emb}",
                      "--set", f"embeddings_test={emb}",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert "embeddings: non-finite features" in capsys.readouterr().err

    def test_oversized_embeddings_header_exit_2(self, tmp_path, capsys):
        emb = tmp_path / "emb.cnne"
        emb.write_bytes(OVERSIZED_EMBEDDINGS)
        rc = run_cli(["train", "--set", "dataset=embeddings",
                      "--set", f"embeddings_train={emb}",
                      "--set", f"embeddings_test={emb}",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert "embeddings: truncated" in capsys.readouterr().err

    def test_one_class_embeddings_exit_2(self, tmp_path, capsys,
                                         no_training):
        emb = tmp_path / "emb.cnne"
        save_embeddings(synth_blobs(4, 3, 1, 1.0, make_rng(0, 0)), emb)
        rc = run_cli(["train", "--set", "dataset=embeddings",
                      "--set", f"embeddings_train={emb}",
                      "--set", f"embeddings_test={emb}",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert "n_classes is 1, need at least 2" in capsys.readouterr().err

    def test_short_mnist_training_files_exit_2(self, tmp_path, capsys,
                                               no_training):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, np.zeros((100, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(100, dtype=np.uint8))
        rc = run_cli(["train", "--set", "dataset=mnist",
                      "--set", f"mnist_images={ip}",
                      "--set", f"mnist_labels={lp}",
                      "--set", f"mnist_test_images={ip}",
                      "--set", f"mnist_test_labels={lp}",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert "100 images, the fixed split needs at least 50000" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("train_file", ["", "."],
                             ids=["unset", "directory"])
    def test_directory_as_data_file_exit_2(self, tmp_path, capsys,
                                           monkeypatch, no_training,
                                           train_file):
        emb = tmp_path / "emb.cnne"
        assert run_cli(["export-embeddings-template", "--out", str(emb)]) == 0
        monkeypatch.chdir(tmp_path)
        rc = run_cli(["train", "--set", "dataset=embeddings",
                      "--set", f"embeddings_train={train_file}",
                      "--set", f"embeddings_test={emb}"])
        assert rc == 2
        message = ("embeddings_train is not set" if not train_file
                   else "Is a directory")
        assert message in capsys.readouterr().err

    def test_t_above_max_exit_2(self, cfg_path, tmp_path, capsys,
                                no_training):
        rc = run_cli(["train", "--config", cfg_path,
                      "--set", f"T={MAX_T + 1}",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert f"T is {MAX_T + 1}, need T <= {MAX_T}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_exit_2(self, cfg_path, tmp_path, capsys,
                                      no_training, seed):
        rc = run_cli(["train", "--config", cfg_path, "--set", f"seed={seed}",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert f"seed {seed} is outside [0, 2**64)" in capsys.readouterr().err

    def test_empty_training_split_exit_2(self, cfg_path, tmp_path, capsys,
                                         monkeypatch):
        # 2 rows, both to validation: nothing is built or trained.
        calls = []
        monkeypatch.setattr(cli, "run_config",
                            lambda *a, **kw: calls.append(1))
        rc = run_cli(["train", "--config", cfg_path,
                      "--set", "synth_n_per_class=1",
                      "--set", "val_fraction=0.9",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert calls == []
        assert ("val_fraction 0.9 leaves no training rows: 2 rows, 2 to "
                "validation") in capsys.readouterr().err

    def test_empty_embeddings_split_exit_2(self, tmp_path, capsys,
                                           no_training):
        emb = tmp_path / "emb.cnne"
        save_embeddings(synth_blobs(1, 8, 2, 1.0, make_rng(0, 0)), emb)
        rc = run_cli(["train", "--set", "dataset=embeddings",
                      "--set", f"embeddings_train={emb}",
                      "--set", f"embeddings_test={emb}",
                      "--set", "val_fraction=0.9",
                      "--set", f"out_dir={tmp_path / 'out'}"])
        assert rc == 2
        assert ("val_fraction 0.9 leaves no training rows: 2 rows, 2 to "
                "validation") in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train"], ["sweep", "--set", "T=1,2", "--seeds", "1"]],
        ids=["train", "sweep"])
    @pytest.mark.parametrize("test_shape,message", [
        ((9, 2), "embeddings: test set has dim 9, the training set "
                 "expects 8"),
        ((8, 5), "embeddings: test set has n_classes 5, the training set "
                 "expects 2"),
    ], ids=["dim", "n_classes"])
    def test_test_set_unlike_training_data_exit_2(
            self, tmp_path, capsys, no_training, command, test_shape,
            message):
        # Found before out_dir is made and before anything trains, not by
        # predict after a whole run, nor counted as a 5-class error rate.
        emb_train, emb_test = tmp_path / "train.cnne", tmp_path / "test.cnne"
        save_embeddings(synth_blobs(10, 8, 2, 1.0, make_rng(0, 0)),
                        emb_train)
        dim, n_classes = test_shape
        save_embeddings(synth_blobs(4, dim, n_classes, 1.0, make_rng(1, 0)),
                        emb_test)
        out_dir = tmp_path / "out"
        p = tmp_path / "emb.cfg"
        p.write_text(f"dataset = embeddings\nembeddings_train = {emb_train}\n"
                     f"embeddings_test = {emb_test}\nout_dir = {out_dir}\n")
        assert run_cli(command + ["--config", str(p)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_value_error_while_training_exit_1(self, cfg_path, tmp_path,
                                               monkeypatch):
        def diverge(*a, **kw):
            raise ValueError("adam_step: non-finite gradient")
        monkeypatch.setattr(cli, "run_config", diverge)
        assert run_cli(["train", "--config", cfg_path,
                        "--set", f"out_dir={tmp_path / 'out'}"]) == 1

    def test_missing_file_while_training_exit_1(self, cfg_path, tmp_path,
                                                monkeypatch, capsys):
        # Past the input phase, even a missing file is a runtime failure.
        def lost(net, path):
            raise FileNotFoundError(f"{path}: out_dir was removed")
        monkeypatch.setattr(cli, "save_checkpoint", lost)
        assert run_cli(["train", "--config", cfg_path,
                        "--set", f"out_dir={tmp_path / 'out'}"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense = 1\n")
        assert run_cli(["train", "--config", str(p)]) == 2

    @pytest.mark.parametrize("command", [
        ["train"], ["sweep", "--set", "T=1,2", "--seeds", "1"]],
        ids=["train", "sweep"])
    def test_out_dir_under_a_file_exit_2(self, tmp_path, capsys,
                                         no_training, command):
        (tmp_path / "file").write_text("")
        p = tmp_path / "s.cfg"
        p.write_text(SYNTH_CFG + f"out_dir = {tmp_path / 'file' / 'x'}\n")
        assert run_cli(command + ["--config", str(p)]) == 2
        assert "config error: out_dir: " in capsys.readouterr().err

    def test_config_error_creates_no_out_dir(self, cfg_path, tmp_path):
        out_dir = tmp_path / "out"
        assert run_cli(["train", "--config", cfg_path, "--set", "T=0",
                        "--set", f"out_dir={out_dir}"]) == 2
        assert not out_dir.exists()

    def test_git_describe_reads_the_source_tree(self, tmp_path,
                                                monkeypatch):
        package_dir = os.path.dirname(os.path.abspath(cli.__file__))
        try:
            want = subprocess.run(
                ["git", "-C", package_dir, "describe", "--always",
                 "--dirty"], capture_output=True, text=True, timeout=5)
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git is not available")
        if want.returncode != 0 or not want.stdout.strip():
            pytest.skip("the package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert _git_describe() == want.stdout.strip()

    def test_failed_checkpoint_save_keeps_previous(self, cfg_path, tmp_path,
                                                   monkeypatch):
        out_dir = tmp_path / "out"
        args = ["train", "--config", cfg_path, "--seed", "2",
                "--set", f"out_dir={out_dir}"]
        assert run_cli(args) == 0
        ckpt = out_dir / [f for f in os.listdir(out_dir)
                          if f.endswith(".ckpt")][0]
        before = ckpt.read_bytes()

        def broken_save(net, path):
            with open(path, "wb") as f:
                f.write(b"CNN1")
            raise OSError("disk full")
        monkeypatch.setattr(cli, "save_checkpoint", broken_save)
        assert run_cli(args) == 1
        assert ckpt.read_bytes() == before
        assert not [f for f in os.listdir(out_dir) if f.endswith(".tmp")]

    def test_deterministic_metrics_csv(self, cfg_path, tmp_path):
        csvs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            run_cli(["train", "--config", cfg_path, "--seed", "3",
                     "--set", f"out_dir={out_dir}"])
            csv_file = [f for f in os.listdir(out_dir)
                        if f.endswith(".csv")][0]
            # Strip the wall-clock column, everything else is byte-stable.
            rows = (out_dir / csv_file).read_text().splitlines()
            csvs.append("\n".join(r.rsplit(",", 1)[0] for r in rows))
        assert csvs[0] == csvs[1]


class TestEvalCommand:
    def test_checkpoint_error_matches_train(self, cfg_path, tmp_path,
                                            capsys):
        out_dir = tmp_path / "out"
        run_cli(["train", "--config", cfg_path, "--seed", "1",
                 "--set", f"out_dir={out_dir}"])
        train_out = capsys.readouterr().out
        ckpt = [f for f in os.listdir(out_dir) if f.endswith(".ckpt")][0]
        rc = run_cli(["eval", "--config", cfg_path, "--set", "seed=1",
                      "--checkpoint", str(out_dir / ckpt)])
        assert rc == 0
        eval_out = capsys.readouterr().out
        assert eval_out.strip() == train_out.strip()

    def test_truncated_checkpoint_exit_2(self, cfg_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        run_cli(["train", "--config", cfg_path, "--set", f"out_dir={out_dir}"])
        ckpt = out_dir / [f for f in os.listdir(out_dir)
                          if f.endswith(".ckpt")][0]
        ckpt.write_bytes(ckpt.read_bytes()[:-3])
        rc = run_cli(["eval", "--config", cfg_path,
                      "--checkpoint", str(ckpt)])
        assert rc == 2
        assert "checkpoint: truncated" in capsys.readouterr().err

    def test_oversized_checkpoint_header_exit_2(self, cfg_path, tmp_path,
                                                capsys):
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(OVERSIZED_CHECKPOINT)
        rc = run_cli(["eval", "--config", cfg_path,
                      "--checkpoint", str(ckpt)])
        assert rc == 2
        assert "checkpoint: truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("part,message", [
        ("neuron", "checkpoint: neuron 0 has d_in 7"),
        ("readout", "checkpoint: readout is 2x23, expected 2x24"),
    ], ids=["neuron", "readout"])
    def test_shape_disagrees_with_topology_exit_2(self, cfg_path, tmp_path,
                                                  capsys, part, message):
        out_dir = tmp_path / "out"
        run_cli(["train", "--config", cfg_path, "--set", f"out_dir={out_dir}"])
        ckpt = out_dir / [f for f in os.listdir(out_dir)
                          if f.endswith(".ckpt")][0]
        net = load_checkpoint(ckpt)
        if part == "neuron":
            net.neurons[0].W = net.neurons[0].W[:, :7]
        else:
            net.readout_W = net.readout_W[:, :-1]
        save_checkpoint(net, ckpt)
        capsys.readouterr()
        rc = run_cli(["eval", "--config", cfg_path,
                      "--checkpoint", str(ckpt)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("part,message", [
        ("W", "checkpoint: neuron 1 W is not finite"),
        ("theta", "checkpoint: neuron 0 theta is not finite"),
        ("readout", "checkpoint: readout W is not finite"),
    ], ids=["W", "theta", "readout"])
    def test_non_finite_checkpoint_exit_2(self, cfg_path, tmp_path, capsys,
                                          part, message):
        out_dir = tmp_path / "out"
        run_cli(["train", "--config", cfg_path, "--set", f"out_dir={out_dir}"])
        ckpt = out_dir / [f for f in os.listdir(out_dir)
                          if f.endswith(".ckpt")][0]
        net = load_checkpoint(ckpt)
        if part == "W":
            net.neurons[1].W[0, 0] = np.nan
        elif part == "theta":
            net.neurons[0].theta = np.nan
        else:
            net.readout_W[0, 0] = np.inf
        save_checkpoint(net, ckpt)
        capsys.readouterr()
        rc = run_cli(["eval", "--config", cfg_path,
                      "--checkpoint", str(ckpt)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_overflowing_logits_exit_1(self, cfg_path, tmp_path, capsys):
        # Every weight is finite, so the checkpoint loads; its logits
        # overflow, which predict reports after the input phase.
        ckpt = tmp_path / "big.ckpt"
        net = build_network(generate(GeneratorSpec("complete", 3)), 10, 8,
                            2, 1.0, 2, make_rng(0, "weights"))
        for p in net.neurons:
            p.W *= 1e10
        net.readout_W = 1e300 * np.sign(make_rng(0, 7).standard_normal(
            net.readout_W.shape))
        save_checkpoint(net, ckpt)
        assert run_cli(["eval", "--config", cfg_path,
                        "--checkpoint", str(ckpt)]) == 1
        assert "error: predict: non-finite logits" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE_CHECKPOINTS))
    def test_unrunnable_checkpoint_exit_2(self, cfg_path, tmp_path, capsys,
                                          case):
        args, message = UNRUNNABLE_CHECKPOINTS[case]
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(chain_checkpoint(*args))
        rc = run_cli(["eval", "--config", cfg_path,
                      "--checkpoint", str(ckpt)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("offset,value,message", [
        (8, 0, "checkpoint: T is 0"),
        (8, MAX_T + 1, f"checkpoint: T is {MAX_T + 1}, need T <= {MAX_T}"),
        (20, 7, "checkpoint: fusion flag is 7"),
    ], ids=["T", "T-above-max", "fusion"])
    def test_bad_header_field_exit_2(self, cfg_path, tmp_path, capsys,
                                     offset, value, message):
        out_dir = tmp_path / "out"
        run_cli(["train", "--config", cfg_path, "--set", f"out_dir={out_dir}"])
        ckpt = out_dir / [f for f in os.listdir(out_dir)
                          if f.endswith(".ckpt")][0]
        raw = bytearray(ckpt.read_bytes())
        raw[offset:offset + 4] = struct.pack("<I", value)
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        rc = run_cli(["eval", "--config", cfg_path,
                      "--checkpoint", str(ckpt)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dataset", ["embeddings", "mnist"])
    def test_reads_only_the_test_split(self, tmp_path, capsys, dataset):
        # Eval of a 16-dim checkpoint, first with only the test files on
        # disk, then with the training files written as well.
        rng = make_rng(1, 0)
        n_classes = 2 if dataset == "embeddings" else 10
        net = build_network(generate(GeneratorSpec("complete", 2)),
                            16 + n_classes, 4, n_classes, 1.0, 2,
                            make_rng(0, "weights"))
        net.readout_W = rng.standard_normal(net.readout_W.shape)
        save_checkpoint(net, tmp_path / "net.ckpt")
        files = {
            "embeddings": {"train": ["embeddings_train"],
                           "test": ["embeddings_test"]},
            "mnist": {"train": ["mnist_images", "mnist_labels"],
                      "test": ["mnist_test_images", "mnist_test_labels"]},
        }[dataset]

        def write(split):
            paths = [tmp_path / key for key in files[split]]
            if dataset == "embeddings":
                save_embeddings(synth_blobs(6, 16, 2, 1.0, rng), *paths)
            else:
                write_idx_images(paths[0], rng.integers(
                    0, 256, (12, 4, 4), dtype=np.uint8))
                write_idx_labels(paths[1], rng.integers(0, 10, 12))

        args = ["eval", "--checkpoint", str(tmp_path / "net.ckpt"),
                "--set", f"dataset={dataset}"]
        for key in files["train"] + files["test"]:
            args += ["--set", f"{key}={tmp_path / key}"]
        write("test")
        assert run_cli(args) == 0
        alone = capsys.readouterr().out
        assert alone.startswith("test_error_pct=")
        write("train")
        assert run_cli(args) == 0
        assert capsys.readouterr().out == alone

    def test_checkpoint_from_pipe(self, cfg_path, tmp_path, capsys):
        net = build_network(generate(GeneratorSpec("complete", 3)), 8 + 2,
                            8, 2, 1.0, 2, make_rng(0, "weights"))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        args = ["eval", "--config", cfg_path, "--checkpoint"]
        assert run_cli(args + [str(path)]) == 0
        from_file = capsys.readouterr().out
        with fifo_serving(tmp_path / "net.fifo", path.read_bytes()) as pipe:
            assert run_cli(args + [str(pipe)]) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("value", BAD_SYNTH_VALUES)
    def test_bad_synth_value_exit_2(self, cfg_path, tmp_path, monkeypatch,
                                    value):
        net = build_network(generate(GeneratorSpec("complete", 3)), 8 + 2,
                            8, 2, 1.0, 2, make_rng(0, "weights"))
        save_checkpoint(net, tmp_path / "net.ckpt")
        monkeypatch.setattr(cli, "evaluate",
                            lambda *a: pytest.fail("evaluate was called"))
        out_dir = tmp_path / "out"
        assert run_cli(["eval", "--config", cfg_path, "--set", value,
                        "--set", f"out_dir={out_dir}",
                        "--checkpoint", str(tmp_path / "net.ckpt")]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("override,message", [
        ("synth_dim=9", "dim 9, the checkpoint expects 8"),
        ("synth_classes=3", "n_classes 3, the checkpoint expects 2"),
    ], ids=["dim", "n_classes"])
    def test_data_mismatch_exit_2(self, cfg_path, tmp_path, capsys,
                                  override, message):
        out_dir = tmp_path / "out"
        run_cli(["train", "--config", cfg_path, "--set", f"out_dir={out_dir}"])
        ckpt = [f for f in os.listdir(out_dir) if f.endswith(".ckpt")][0]
        capsys.readouterr()
        rc = run_cli(["eval", "--config", cfg_path, "--set", override,
                      "--checkpoint", str(out_dir / ckpt)])
        assert rc == 2
        assert message in capsys.readouterr().err


@pytest.fixture
def sweep_cfg(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(SYNTH_CFG + f"out_dir = {tmp_path / 'out'}\n")
    return str(p)


def sweep_rows(args, capsys):
    """Run `cyclicff sweep` and return its summary rows without header."""
    assert run_cli(["sweep"] + args) == 0
    summary = capsys.readouterr().out.strip()
    return Path(summary).read_text().splitlines()[1:]


class TestSweepCommand:
    def test_grid_times_seeds(self, tmp_path, capsys):
        p = tmp_path / "s.cfg"
        p.write_text(SYNTH_CFG + f"out_dir = {tmp_path / 'out'}\n")
        rc = run_cli(["sweep", "--config", str(p),
                      "--set", "theta=0.5,1.0", "--set", "T=1,2",
                      "--seeds", "1..2"])
        assert rc == 0
        summary = capsys.readouterr().out.strip()
        lines = Path(summary).read_text().splitlines()
        assert lines[0] == "theta,T,mean_test_err,std_test_err,n_seeds"
        assert len(lines) == 5  # 2x2 grid, seeds aggregated per row

    def test_summary_rows(self, tmp_path, capsys):
        p = tmp_path / "s.cfg"
        p.write_text(SYNTH_CFG + f"out_dir = {tmp_path / 'out'}\n")
        rc = run_cli(["sweep", "--config", str(p),
                      "--set", "graph=chain,complete", "--seeds", "1,2"])
        assert rc == 0
        summary = capsys.readouterr().out.strip()
        lines = Path(summary).read_text().splitlines()
        assert lines[0] == "graph,mean_test_err,std_test_err,n_seeds"
        assert len(lines) == 3
        assert all(ln.endswith(",2") for ln in lines[1:])

    def test_empty_values_exit_2(self, cfg_path):
        assert run_cli(["sweep", "--config", cfg_path,
                        "--set", "theta=", "--seeds", "1"]) == 2

    def test_unknown_key_exit_2(self, cfg_path):
        assert run_cli(["sweep", "--config", cfg_path,
                        "--set", "bogus=1,2", "--seeds", "1"]) == 2

    @pytest.mark.parametrize("args", [
        ["--set", "T=1,2", "--seeds", "x"],
        ["--seeds", "1"],
        ["--set", "T=1,0", "--seeds", "1"],
        ["--set", "synth_dim=8,x", "--seeds", "1"],
        ["--set", "T=1,2", "--set", "val_fraction=0.2,1.5", "--seeds", "1"],
        ["--set", "out_dir=a,b", "--seeds", "1"],
        ["--set", "synth_n_per_class=1", "--set", "val_fraction=0.2,0.9",
         "--seeds", "1"],
    ], ids=["bad-seeds", "no-axes", "bad-combo", "bad-data-value",
            "bad-data-combo", "out-dir-axis", "empty-split"])
    def test_rejected_before_training(self, cfg_path, monkeypatch, args):
        calls = []
        real = cli.run_config

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(cli, "run_config", counting)
        assert run_cli(["sweep", "--config", cfg_path] + args) == 2
        assert calls == []

    def test_repeated_key_exit_2(self, sweep_cfg, tmp_path, capsys,
                                 no_training):
        # Both axes would set T, so every job would run at the last one.
        assert run_cli(["sweep", "--config", sweep_cfg, "--set", "T=1,2",
                        "--set", "T=3", "--seeds", "1"]) == 2
        assert "--set T is given twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case,val_fraction,message", [
        ("truncated", 0.2, "embeddings: truncated"),
        ("empty-split", 0.95, "split: val_fraction 0.95 leaves no training "
                              "rows: 8 rows, 8 to validation"),
    ], ids=["truncated", "empty-split"])
    def test_bad_data_file_creates_no_out_dir(self, tmp_path, capsys,
                                              no_training, case,
                                              val_fraction, message):
        # Every job's data is read before out_dir is made.
        emb = tmp_path / "emb.cnne"
        save_embeddings(synth_blobs(4, 8, 2, 1.0, make_rng(0, 0)), emb)
        if case == "truncated":
            emb.write_bytes(emb.read_bytes()[:-1])
        out_dir = tmp_path / "out"
        p = tmp_path / "emb.cfg"
        p.write_text(f"dataset = embeddings\nembeddings_train = {emb}\n"
                     f"embeddings_test = {emb}\n"
                     f"val_fraction = {val_fraction}\nout_dir = {out_dir}\n")
        assert run_cli(["sweep", "--config", str(p), "--set", "T=1,2",
                        "--seeds", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", BAD_SYNTH_VALUES + [
        "synth_n_per_class=0", "synth_classes=1"])
    def test_bad_synth_value_creates_no_out_dir(self, sweep_cfg, tmp_path,
                                                no_training, value):
        assert run_cli(["sweep", "--config", sweep_cfg, "--set", "T=1,2",
                        "--set", value, "--seeds", "1"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,message", [
        (["--set", "theta=1,1", "--seeds", "1"],
         "--set theta gives a value twice"),
        (["--set", "T=1,2", "--seeds", "3,3"], "--seeds gives a seed twice"),
        (["--set", "T=1,2", "--seeds", "03,3"],
         "--seeds gives a seed twice"),
    ], ids=["value", "seed", "seed-as-number"])
    def test_repeated_value_exit_2(self, sweep_cfg, tmp_path, capsys,
                                   no_training, args, message):
        # A repeat would train identical jobs as separate rows or seeds.
        assert run_cli(["sweep", "--config", sweep_cfg] + args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_axis_exit_2(self, cfg_path, capsys, no_training):
        # --seeds sets every job's seed, so a seed axis would be ignored.
        assert run_cli(["sweep", "--config", cfg_path, "--set", "seed=1,2",
                        "--seeds", "5"]) == 2
        assert "list the seeds with --seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["--seeds=-1..1"], "seed -1 is outside [0, 2**64)"),
        (["--seeds", "1", "--jobs", "0"], "--jobs is 0, need at least 1"),
        (["--seeds", "1", "--jobs", "-2"], "--jobs is -2, need at least 1"),
    ], ids=["negative-seed", "jobs-0", "jobs-negative"])
    def test_out_of_range_exit_2(self, cfg_path, capsys, no_training, args,
                                 message):
        assert run_cli(["sweep", "--config", cfg_path,
                        "--set", "T=1,2"] + args) == 2
        assert message in capsys.readouterr().err

    def test_single_run_matches_train(self, sweep_cfg, capsys):
        assert run_cli(["train", "--config", sweep_cfg, "--seed", "3"]) == 0
        train_err = float(capsys.readouterr().out.strip().split("=")[1])
        [row] = sweep_rows(["--config", sweep_cfg, "--set", "T=2",
                            "--seeds", "3"], capsys)
        assert row == f"2,{train_err:.6g},0,1"

    def test_data_key_is_swept(self, sweep_cfg, capsys):
        # Every run builds its own data, so the separation reaches it.
        rows = sweep_rows(["--config", sweep_cfg,
                           "--set", "synth_separation=0,20",
                           "--seeds", "1,2"], capsys)
        errs = [row.split(",")[1] for row in rows]
        assert errs[0] != errs[1]

    def test_jobs_do_not_change_summary(self, sweep_cfg, capsys):
        args = ["sweep", "--config", sweep_cfg, "--set", "T=1,2",
                "--seeds", "1,2"]
        assert run_cli(args + ["--jobs", "1"]) == 0
        summary = capsys.readouterr().out.strip()
        serial = Path(summary).read_bytes()
        assert run_cli(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out.strip() == summary
        assert Path(summary).read_bytes() == serial

    def test_different_axes_keep_separate_summaries(self, sweep_cfg,
                                                    tmp_path, capsys):
        for axis in ("T=1,2", "theta=0.5,1.0"):
            assert run_cli(["sweep", "--config", sweep_cfg, "--set", axis,
                            "--seeds", "1"]) == 0
        assert len(os.listdir(tmp_path / "out")) == 2


class TestSweepWorkerThreads:
    @pytest.mark.parametrize("parent", [1, 2])
    def test_workers_share_out_the_cores(self, sweep_cfg, tmp_path,
                                         monkeypatch, parent):
        # A forked worker would keep this process's OpenBLAS thread count,
        # so 2 workers on 2 cores would run 4 threads. Each worker logs its
        # count to a file, as the workers are other processes.
        calls = openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, set_ = calls
        log = tmp_path / "threads.log"

        def run(tc, train, val, test):
            with open(log, "a") as f:
                f.write(f"{get()}\n")
            return None, Metrics(test_err=0.0)

        monkeypatch.setattr(cli, "run_config", run)
        original = get()
        set_(parent)
        try:
            parent = get()
            assert run_cli(["sweep", "--config", sweep_cfg, "--set",
                            "T=1,2", "--seeds", "1,2", "--jobs", "2"]) == 0
            assert get() == parent
        finally:
            set_(original)
        cores = len(os.sched_getaffinity(0))
        want = min(parent, max(1, cores // 2))
        assert log.read_text().split() == [str(want)] * 4


def _logged(log, line, fn):
    """`fn`, appending `line` to the file `log` on every call: a file, as
    forked sweep workers are other processes."""
    def call(*args, **kwargs):
        with open(log, "a") as f:
            f.write(line + "\n")
        return fn(*args, **kwargs)
    return call


def fingerprint(train, val, test) -> float:
    """A number that changes with a job's rows and its split."""
    return float(train.features.sum() + 2 * val.features.sum()
                 + 3 * test.features.sum())


@pytest.fixture
def data_calls(tmp_path, monkeypatch):
    """Log each data file load (`load`), each Dataset scan (`scan`) and
    each run (`run`). Runs do not train: their test error is the
    fingerprint of their data. Returns a function that reads the log."""
    log = tmp_path / "calls.log"
    for name in ("load_embeddings", "load_mnist_idx"):
        monkeypatch.setattr(cli, name, _logged(log, "load",
                                               getattr(cli, name)))
    monkeypatch.setattr(data_module, "check_finite",
                        _logged(log, "scan", data_module.check_finite))

    def run(tc, train, val, test):
        return None, Metrics(test_err=fingerprint(train, val, test))

    monkeypatch.setattr(cli, "run_config", _logged(log, "run", run))
    return lambda: log.read_text().splitlines() if log.exists() else []


def data_cfg(tmp_path, kind, rng_seed=0) -> Path:
    """A config over a training and a test data file of `kind`: an
    embedding file each, or an IDX image/label pair each (the training
    pair one row longer than the fixed MNIST split)."""
    rng = make_rng(rng_seed, 0)
    if kind == "embeddings":
        for name, n in (("train", 30), ("test", 10)):
            save_embeddings(synth_blobs(n, 8, 2, 4.0, rng),
                            tmp_path / f"{name}.cnne")
        keys = (f"embeddings_train = {tmp_path / 'train.cnne'}\n"
                f"embeddings_test = {tmp_path / 'test.cnne'}\n")
    else:
        keys = ""
        for name, n in (("", cli.MNIST_TRAIN_ROWS + 1), ("test_", 5)):
            write_idx_images(tmp_path / f"{name}img", rng.integers(
                0, 256, (n, 2, 2), dtype=np.uint8))
            write_idx_labels(tmp_path / f"{name}lab",
                             rng.integers(0, 10, n))
            keys += (f"mnist_{name}images = {tmp_path / (name + 'img')}\n"
                     f"mnist_{name}labels = {tmp_path / (name + 'lab')}\n")
    p = tmp_path / "data.cfg"
    p.write_text(SYNTH_CFG + f"dataset = {kind}\n" + keys
                 + f"out_dir = {tmp_path / 'out'}\n")
    return p


class TestSweepReadsEachFileOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["embeddings", "mnist"])
    def test_one_load_and_one_scan_per_file(self, tmp_path, data_calls,
                                            kind, jobs):
        # 2 values x 3 seeds over a training and a test file (for mnist,
        # an IDX pair each, read by one load): each is read and scanned
        # once, in the input phase, and all six jobs run on those reads.
        cfg = data_cfg(tmp_path, kind)
        written = len(data_calls())
        assert run_cli(["sweep", "--config", str(cfg), "--set", "T=1,2",
                        "--seeds", "1..3", "--jobs", str(jobs)]) == 0
        calls = data_calls()[written:]
        assert calls == ["load", "scan"] * 2 + ["run"] * 6
        assert cli._SWEEP_FILES == {}

    @pytest.mark.parametrize("kind", ["synth", "embeddings"])
    def test_one_split_per_combination_in_the_input_phase(
            self, tmp_path, sweep_cfg, data_calls, monkeypatch, kind):
        # 2 x 2 combinations x 3 seeds: the input phase splits each
        # combination's data once, then each of the 12 jobs splits its own.
        cfg = sweep_cfg if kind == "synth" else str(data_cfg(tmp_path, kind))
        splits, before_out_dir = [], []
        real_split, real_make_out_dir = cli.split, cli._make_out_dir

        def counting_split(*args):
            splits.append(1)
            return real_split(*args)

        def make_out_dir(cfg):
            before_out_dir.append(len(splits))
            return real_make_out_dir(cfg)

        monkeypatch.setattr(cli, "split", counting_split)
        monkeypatch.setattr(cli, "_make_out_dir", make_out_dir)
        assert run_cli(["sweep", "--config", cfg, "--set", "T=1,2",
                        "--set", "theta=0.5,1", "--seeds", "1..3"]) == 0
        assert before_out_dir == [4]
        assert len(splits) == 4 + 12

    def test_synthetic_data_is_drawn_per_job(self, sweep_cfg, monkeypatch):
        real = cli.run_config

        def run(*args):
            assert cli._SWEEP_FILES == {}
            return real(*args)

        monkeypatch.setattr(cli, "run_config", run)
        assert run_cli(["sweep", "--config", sweep_cfg, "--set", "T=1,2",
                        "--seeds", "1"]) == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_file_cut_after_the_input_phase(self, tmp_path, monkeypatch,
                                            capsys, jobs):
        # The jobs train on the bytes the input phase checked, so a file
        # truncated after it changes nothing.
        cfg = data_cfg(tmp_path, "embeddings")
        args = ["sweep", "--config", str(cfg), "--set", "T=1,2",
                "--seeds", "1,2", "--jobs", str(jobs)]
        assert run_cli(args) == 0
        summary = Path(capsys.readouterr().out.strip())
        untouched = summary.read_bytes()
        summary.unlink()

        real = cli._make_out_dir

        def make_and_truncate(cfg):
            out_dir = real(cfg)
            train = tmp_path / "train.cnne"
            train.write_bytes(train.read_bytes()[:980])
            return out_dir

        monkeypatch.setattr(cli, "_make_out_dir", make_and_truncate)
        assert run_cli(args) == 0
        assert summary.read_bytes() == untouched
        assert (tmp_path / "train.cnne").stat().st_size == 980

    def test_each_sweep_reads_its_own_file(self, tmp_path, data_calls,
                                           capsys):
        # Two sweeps in one process; the training file is rewritten in
        # between, so the second must not see the first one's data.
        cfg = data_cfg(tmp_path, "embeddings")
        args = ["sweep", "--config", str(cfg), "--set", "T=1,2",
                "--seeds", "1"]
        seen = []
        for rng_seed in (0, 1):
            data_cfg(tmp_path, "embeddings", rng_seed)
            before = data_calls().count("load")
            assert run_cli(args) == 0
            assert data_calls().count("load") - before == 2
            summary = Path(capsys.readouterr().out.strip())
            seen.append([row.split(",")[1]
                         for row in summary.read_text().splitlines()[1:]])
            one = cli.load_datasets(effective_config(str(cfg), ["seed=1"]))
            assert seen[-1] == [f"{fingerprint(*one):.6g}"] * 2
        assert seen[0] != seen[1]

    @pytest.mark.parametrize("case,rc", [("job-fails", 1),
                                         ("bad-later-job", 2)])
    def test_files_released_on_error(self, tmp_path, monkeypatch, case, rc):
        cfg = data_cfg(tmp_path, "embeddings")
        sets = ["--set", "T=1,2"]
        if case == "job-fails":
            def diverge(*a, **kw):
                assert cli._SWEEP_FILES
                raise ValueError("adam_step: non-finite gradient")
            monkeypatch.setattr(cli, "run_config", diverge)
        else:
            sets = ["--set", "val_fraction=0.2,1.5"]
        assert run_cli(["sweep", "--config", str(cfg), *sets,
                        "--seeds", "1"]) == rc
        assert cli._SWEEP_FILES == {}


class TestInspectGraph:
    def test_complete_n4(self, capsys):
        rc = run_cli(["inspect-graph", "--set", "graph=complete",
                      "--set", "n=4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("n 4\n")
        assert out.count("\n") >= 13  # 12 edges + header + per-neuron lines
        assert "cyclic: yes" in out
        assert "in-degree 3" in out

    def test_chain_acyclic(self, capsys):
        rc = run_cli(["inspect-graph", "--set", "graph=chain",
                      "--set", "n=4"])
        assert rc == 0
        assert "cyclic: no" in capsys.readouterr().out

    def test_ws_lattice_degrees(self, capsys):
        rc = run_cli(["inspect-graph", "--set", "graph=ws", "--set", "n=8",
                      "--set", "ws_k=2", "--set", "ws_p=0", "--set", "seed=1"])
        assert rc == 0
        out = capsys.readouterr().out
        for j in range(8):
            assert f"neuron {j}: in-degree 2, out-degree 2" in out


class TestExportTemplate:
    def test_writes_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "template.cnne"
        rc = run_cli(["export-embeddings-template", "--out", str(out),
                      "--samples", "8", "--dim", "16", "--classes", "2"])
        assert rc == 0
        from cyclicff.data import load_embeddings
        d = load_embeddings(out)
        assert d.dim == 16 and d.n_classes == 2

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, where):
        # Writing the file is the command's whole input phase.
        out = tmp_path if where == "directory" else tmp_path / "no" / "t.cnne"
        assert run_cli(["export-embeddings-template", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("args,message", [
        (["--classes", "0"], "--classes must be >= 2"),
        (["--classes", "1"], "--classes must be >= 2"),
        (["--dim", "0"], "--dim 0 < --classes 2"),
        (["--classes", "20", "--dim", "4"], "--dim 4 < --classes 20"),
        (["--samples", "0"], "--samples 0 < --classes 2"),
    ], ids=["classes-0", "classes-1", "dim-0", "dim-below-classes",
            "samples-0"])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, args, message):
        out = tmp_path / "template.cnne"
        rc = run_cli(["export-embeddings-template", "--out", str(out)]
                     + args)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMnistConfig:
    def test_split_shares_the_loaded_arrays(self, tmp_path):
        # Train and val are basic slices of one loaded dataset, not copies.
        n = cli.MNIST_TRAIN_ROWS + 1
        rng = make_rng(2, 0)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, rng.integers(0, 256, (n, 1, 1), dtype=np.uint8))
        write_idx_labels(lp, rng.integers(0, 10, n))
        cfg = effective_config(None, [
            "dataset=mnist", f"mnist_images={ip}", f"mnist_labels={lp}",
            f"mnist_test_images={ip}", f"mnist_test_labels={lp}"])
        train, val, _ = cli.load_datasets(cfg)
        full = load_mnist_idx(ip, lp)
        assert (train.n_samples, val.n_samples) == (n - 1, 1)
        for name in ("features", "labels"):
            a, b = getattr(train, name), getattr(val, name)
            assert a.base is not None and a.base is b.base
            np.testing.assert_array_equal(np.concatenate([a, b]),
                                          getattr(full, name))

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzipped"])
    def test_names_find_plain_or_gzipped_files(self, tmp_path, monkeypatch,
                                               gz):
        # The default keys name the .gz files. Plain files under the plain
        # names are found from them, and .gz files from the plain names.
        n = cli.MNIST_TRAIN_ROWS + 1
        rng = make_rng(3, 0)
        names = {key: cli.DEFAULTS[key] for key in (
            "mnist_images", "mnist_labels", "mnist_test_images",
            "mnist_test_labels")}
        for key, name in names.items():
            rows = 3 if "test" in key else n
            path = tmp_path / (name if gz else name.removesuffix(".gz"))
            if key.endswith("images"):
                write_idx_images(path, rng.integers(
                    0, 256, (rows, 1, 1), dtype=np.uint8), gz=gz)
            else:
                write_idx_labels(path, rng.integers(0, 10, rows), gz=gz)
        monkeypatch.setenv("CYCLIC_FF_DATA_DIR", str(tmp_path))
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        sets = ["dataset=mnist"]
        if gz:
            sets += [f"{key}={name.removesuffix('.gz')}"
                     for key, name in names.items()]
        train, val, test = cli.load_datasets(effective_config(None, sets))
        assert (train.n_samples, val.n_samples, test.n_samples) == (
            n - 1, 1, 3)

    def test_fixed_split_from_idx_files(self, tmp_path, capsys):
        # Small synthetic IDX files standing in for the real layout check is
        # covered by data tests; here we check the failure contract only.
        rc = run_cli(["train", "--set", "dataset=mnist",
                      "--set", f"mnist_images={tmp_path}/missing.gz"])
        assert rc == 2
