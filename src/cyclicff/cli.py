"""Command-line harness: train, eval, sweep, inspect-graph, and the
embedding-file template exporter.

Configs are flat ``key = value`` text files; any key can be overridden on
the command line with ``--set key=value``. Exit codes: 0 success, 1 runtime
failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .data import (Dataset, FusionMode, load_embeddings, load_mnist_idx,
                   save_embeddings, split, synth_blobs)
from .graph import GeneratorSpec, generate, has_cycle, predecessors, to_edge_list
from .network import load_checkpoint, save_checkpoint
from .numerics import check_seed, make_rng
from .training import TrainConfig, evaluate, run_config


class ConfigError(Exception):
    pass


# `dataset = mnist` trains on this many leading images of the training
# files and validates on the rest.
MNIST_TRAIN_ROWS = 50000

DEFAULTS = {
    "graph": "complete",
    "n": "4",
    "ws_k": "2",
    "ws_p": "0.3",
    "ba_m": "2",
    "d_out": "200",
    "T": "3",
    "theta": "1.0",
    "lr": "0.001",
    "weight_decay": "0.0",
    "batch_size": "64",
    "max_epochs": "100",
    "patience": "10",
    "seed": "0",
    "freeze_neurons": "false",
    "freeze_readout": "false",
    "fusion": "concat",
    "baseline": "none",
    "dataset": "synth",
    "val_fraction": "0.2",
    "mnist_images": "train-images-idx3-ubyte.gz",
    "mnist_labels": "train-labels-idx1-ubyte.gz",
    "mnist_test_images": "t10k-images-idx3-ubyte.gz",
    "mnist_test_labels": "t10k-labels-idx1-ubyte.gz",
    "embeddings_train": "",
    "embeddings_test": "",
    "synth_n_per_class": "1000",
    "synth_dim": "20",
    "synth_classes": "2",
    "synth_separation": "6.0",
    "out_dir": "out",
}


def _setting(item: str, where: str) -> tuple[str, str]:
    """(key, value) of one `key = value` setting, both stripped; `where`
    names the setting in an error."""
    key, eq, value = item.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value.strip()


def parse_config_file(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _setting(line, f"{path}:{lineno}")
            out[key] = value
    return out


def apply_overrides(cfg: dict[str, str], sets: list[str]) -> dict[str, str]:
    cfg = dict(cfg)
    for item in sets or []:
        key, value = _setting(item, "--set")
        cfg[key] = value
    return cfg


def effective_config(config_path: str | None, sets: list[str]) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if config_path:
        cfg.update(parse_config_file(config_path))
    return apply_overrides(cfg, sets)


def _parse(cfg: dict[str, str], key: str, kind):
    """`kind(value)` of the key; a value `kind` rejects is a ConfigError
    that names the key."""
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(
            f"{key}: expected {kind.__name__}, got {cfg[key]!r}") from None


def boolean(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(s)


# Typed keys by the object that takes them; `seed` serves both.
GENERATOR_KEYS = {"n": int, "ws_k": int, "ws_p": float, "ba_m": int}
TRAIN_KEYS = {"d_out": int, "T": int, "theta": float, "lr": float,
              "weight_decay": float, "batch_size": int, "max_epochs": int,
              "patience": int, "seed": int, "freeze_neurons": boolean,
              "freeze_readout": boolean}


def to_train_config(cfg: dict[str, str]) -> TrainConfig:
    def parsed(kinds):
        return {key: _parse(cfg, key, kind) for key, kind in kinds.items()}

    train = parsed(TRAIN_KEYS)
    try:
        gen = GeneratorSpec(kind=cfg["graph"], seed=train["seed"],
                            **parsed(GENERATOR_KEYS))
        tc = TrainConfig(generator=gen, fusion=FusionMode(cfg["fusion"]),
                         baseline=cfg["baseline"], **train)
        tc.validate()
        return tc
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _data_path(cfg: dict[str, str], key: str) -> str:
    """The file named by the data key `key`: as given when it is absolute or
    exists, else under $CYCLIC_FF_DATA_DIR (default `.`)."""
    value = cfg[key]
    if not value:
        raise ConfigError(f"{key} is not set")
    if os.path.isabs(value) or os.path.exists(value):
        return value
    root = os.environ.get("CYCLIC_FF_DATA_DIR", ".")
    return os.path.join(root, value)


def _data_settings(cfg: dict[str, str]) -> dict:
    """Parse and range-check the data keys the config's dataset uses, so a
    bad value is a config error before any run trains."""
    kind = cfg["dataset"]
    if kind not in ("mnist", "embeddings", "synth"):
        raise ConfigError(f"unknown dataset {kind!r}")
    s = {"seed": _parse(cfg, "seed", int)}
    try:
        check_seed(s["seed"])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if kind == "mnist":
        return s
    s["val_fraction"] = _parse(cfg, "val_fraction", float)
    if not 0.0 <= s["val_fraction"] < 1.0:
        raise ConfigError("val_fraction must be in [0, 1)")
    if kind == "synth":
        n, dim, classes = (_parse(cfg, k, int) for k in (
            "synth_n_per_class", "synth_dim", "synth_classes"))
        sep = _parse(cfg, "synth_separation", float)
        if n < 1 or dim < 1:
            raise ConfigError("synth_n_per_class and synth_dim must be >= 1")
        if classes < 2:
            raise ConfigError(f"synth_classes is {classes}, need at least 2")
        if classes > dim:
            raise ConfigError(f"synth_classes {classes} > synth_dim {dim}")
        if not (np.isfinite(sep) and sep >= 0):
            raise ConfigError("synth_separation must be finite and >= 0")
        s.update(n=n, dim=dim, classes=classes, sep=sep)
    return s


def _load_file(loader, *paths):
    """`loader(*paths)`, with a malformed or unreadable file reported as an
    input error (exit 2) rather than a runtime failure."""
    try:
        return loader(*paths)
    except (ValueError, OSError) as e:
        raise ConfigError(str(e)) from None


def load_test_set(cfg: dict[str, str]) -> Dataset:
    """The test split of the config's dataset; no training data is read."""
    s = _data_settings(cfg)
    if cfg["dataset"] == "mnist":
        return _load_file(load_mnist_idx,
                          _data_path(cfg, "mnist_test_images"),
                          _data_path(cfg, "mnist_test_labels"))
    if cfg["dataset"] == "embeddings":
        return _load_file(load_embeddings, _data_path(cfg, "embeddings_test"))
    return synth_blobs(max(s["n"] // 4, 1), s["dim"], s["classes"], s["sep"],
                       make_rng(s["seed"], 101))


def load_datasets(cfg: dict[str, str]) -> tuple[Dataset, Dataset, Dataset]:
    """Resolve (train, val, test) from the config's dataset block."""
    s = _data_settings(cfg)
    seed = s["seed"]
    if cfg["dataset"] == "mnist":
        path = _data_path(cfg, "mnist_images")
        full = _load_file(load_mnist_idx, path,
                          _data_path(cfg, "mnist_labels"))
        if full.n_samples < MNIST_TRAIN_ROWS:
            raise ConfigError(f"{path}: {full.n_samples} images, the fixed "
                              f"split needs at least {MNIST_TRAIN_ROWS}")
        # Slices, not index arrays, so both parts share `full`'s memory.
        train = full.subset(slice(0, MNIST_TRAIN_ROWS))
        val = full.subset(slice(MNIST_TRAIN_ROWS, None))
        return train, val, load_test_set(cfg)
    if cfg["dataset"] == "embeddings":
        path = _data_path(cfg, "embeddings_train")
        full = _load_file(load_embeddings, path)
        if full.n_classes < 2:
            raise ConfigError(
                f"{path}: n_classes is {full.n_classes}, need at least 2")
    else:
        full = synth_blobs(s["n"], s["dim"], s["classes"], s["sep"],
                           make_rng(seed, 100))
    train, val = split(full, s["val_fraction"], make_rng(seed, "data-shuffle"))
    if not train.n_samples:
        raise ConfigError(
            f"val_fraction {s['val_fraction']} leaves no training rows: "
            f"{full.n_samples} rows, {val.n_samples} to validation")
    return train, val, load_test_set(cfg)


def config_hash(cfg: dict[str, str]) -> str:
    items = sorted((k, v) for k, v in cfg.items() if k != "seed")
    return hashlib.sha256(repr(items).encode()).hexdigest()[:8]


def _git_describe() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def _write_atomic(path: str, write) -> None:
    """`write(tmp)` a temporary file beside `path`, then rename it over
    `path`: a write that fails leaves the previous file as it was."""
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_manifest(path: str, cfg: dict[str, str], seeds: list[int],
                   artifacts: dict[str, str], started: float) -> None:
    manifest = {
        "config": cfg,
        "seeds": seeds,
        "artifacts": artifacts,
        "git_describe": _git_describe(),
        "started": started,
        "ended": time.time(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    _write_atomic(path, lambda tmp: Path(tmp).write_text(text))


def cmd_train(args) -> int:
    cfg = effective_config(args.config, args.set)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    tc = to_train_config(cfg)
    train, val, test = load_datasets(cfg)

    started = time.time()
    model, metrics = run_config(tc, train, val, test)

    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    stem = f"run-{config_hash(cfg)}-{tc.seed}"
    csv_path = os.path.join(out_dir, stem + ".csv")
    csv = metrics.to_csv()
    _write_atomic(csv_path, lambda tmp: Path(tmp).write_text(csv))
    artifacts = {"metrics_csv": csv_path}
    if tc.baseline == "none":
        ckpt_path = os.path.join(out_dir, stem + ".ckpt")
        _write_atomic(ckpt_path, lambda tmp: save_checkpoint(model, tmp))
        artifacts["checkpoint"] = ckpt_path
    write_manifest(os.path.join(out_dir, stem + ".manifest.json"),
                   cfg, [tc.seed], artifacts, started)
    print(f"test_error_pct={metrics.test_err}")
    return 0


def cmd_eval(args) -> int:
    cfg = effective_config(args.config, args.set)
    net = _load_file(load_checkpoint, args.checkpoint)
    test = load_test_set(cfg)
    for what, data_value, net_value in (
            ("dim", test.dim, net.raw_dim),
            ("n_classes", test.n_classes, net.n_classes)):
        if data_value != net_value:
            raise ConfigError(f"eval: test set has {what} {data_value}, "
                              f"the checkpoint expects {net_value}")
    print(f"test_error_pct={evaluate(net, test)}")
    return 0


def _parse_seeds(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(
            f"--seeds {spec!r}: expected a,b,... or lo..hi") from None


def _one_sweep_run(cfg: dict[str, str]) -> float:
    """One sweep job; it builds its own data, so data keys can be swept."""
    _, metrics = run_config(to_train_config(cfg), *load_datasets(cfg))
    return metrics.test_err


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs is {args.jobs}, need at least 1")
    base = effective_config(args.config, None)
    axes = []
    for item in args.set or []:
        key, values = _setting(item, "--set")
        if key == "out_dir":
            raise ConfigError("sweep: out_dir cannot be swept; the summary "
                              "goes to the config's out_dir")
        vals = [v.strip() for v in values.split(",") if v.strip()]
        if not vals:
            raise ConfigError(f"--set {key}: empty value list")
        axes.append((key, vals))
    if not axes:
        raise ConfigError("sweep: need at least one --set key=v1,v2,...")
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ConfigError("sweep: empty seed list")

    combos = list(itertools.product(*(vals for _, vals in axes)))
    keys = [k for k, _ in axes]

    jobs = []
    for combo in combos:
        for seed in seeds:
            cfg = dict(base)
            cfg.update(dict(zip(keys, combo)))
            cfg["seed"] = str(seed)
            jobs.append(cfg)
    # Reject a bad value in any combo before the first run trains.
    for cfg in jobs:
        to_train_config(cfg)
        _data_settings(cfg)

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            errs = list(pool.map(_one_sweep_run, jobs))
    else:
        errs = list(map(_one_sweep_run, jobs))

    out_dir = base["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    # Named from the base config, the swept values and the seeds, so
    # sweeps of one config over different axes keep separate summaries.
    sweep_id = hashlib.sha256(
        repr((config_hash(base), axes, seeds)).encode()).hexdigest()[:8]
    summary = os.path.join(out_dir, f"sweep-{sweep_id}.csv")
    lines = [",".join(keys) + ",mean_test_err,std_test_err,n_seeds\n"]
    for i, combo in enumerate(combos):
        es = errs[i * len(seeds):(i + 1) * len(seeds)]
        lines.append(",".join(combo)
                     + f",{np.mean(es):.6g},{np.std(es):.6g},{len(seeds)}\n")
    _write_atomic(summary, lambda tmp: Path(tmp).write_text("".join(lines)))
    print(summary)
    return 0


def cmd_inspect_graph(args) -> int:
    cfg = effective_config(args.config, args.set)
    tc = to_train_config(cfg)
    topo = generate(tc.generator)
    sys.stdout.write(to_edge_list(topo))
    for j in range(topo.n_neurons):
        preds = predecessors(topo, j)
        out_deg = sum(1 for s, _ in topo.synapses if s == j)
        d_in = f"base + {len(preds)}*{tc.d_out}"
        print(f"neuron {j}: in-degree {len(preds)}, out-degree {out_deg}, "
              f"d_in = {d_in}")
    print(f"cyclic: {'yes' if has_cycle(topo) else 'no'}")
    return 0


def cmd_export_embeddings_template(args) -> int:
    if args.classes < 2:
        raise ConfigError("--classes must be >= 2")
    if args.dim < args.classes:
        raise ConfigError(f"--dim {args.dim} < --classes {args.classes}")
    if args.samples < args.classes:
        raise ConfigError(
            f"--samples {args.samples} < --classes {args.classes}")
    d = synth_blobs(args.samples // args.classes, args.dim, args.classes,
                    1.0, make_rng(0, 0))
    save_embeddings(d, args.out)
    print(f"wrote template embedding file: {args.out} "
          f"({d.n_samples} samples, dim {d.dim}, {d.n_classes} classes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyclicff")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")

    p = sub.add_parser("train", help="train one model and write artifacts")
    common(p)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test set")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="grid sweep with per-config summaries")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=V1,V2,...")
    p.add_argument("--seeds", default="0")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("inspect-graph", help="print topology diagnostics")
    common(p)
    p.set_defaults(fn=cmd_inspect_graph)

    p = sub.add_parser("export-embeddings-template",
                       help="write a small example embedding file")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--classes", type=int, default=2)
    p.set_defaults(fn=cmd_export_embeddings_template)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
