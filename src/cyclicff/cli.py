"""Command-line harness: train, eval, sweep, inspect-graph, and the
embedding-file template exporter.

Configs are flat ``key = value`` text files; any key can be overridden on
the command line with ``--set key=value``. Exit codes: 0 success, 1 runtime
failure, 2 usage/config error: anything rejected in a command's input phase.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .data import (Dataset, FusionMode, load_embeddings, load_mnist_idx,
                   save_embeddings, split, synth_blobs)
from .graph import GeneratorSpec, generate, has_cycle, predecessors, to_edge_list
from .network import load_checkpoint, save_checkpoint
from .numerics import (check_seed, make_rng, openblas_config,
                       openblas_thread_calls)
from .training import TrainConfig, evaluate, run_config


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def input_phase():
    """A command's input phase: everything it reads and checks before its
    first run trains or its first output is written. A ValueError or
    OSError raised inside is an input error (exit 2); one raised after the
    phase is a runtime failure (exit 1)."""
    try:
        yield
    except (ValueError, OSError) as e:
        raise ConfigError(str(e)) from None


# `dataset = mnist` trains on this many leading images of the training
# files and validates on the rest.
MNIST_TRAIN_ROWS = 50000


def boolean(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(s)


# Typed keys by the object that takes them: its int, float and bool fields
# in field order, each with the parser of its config text. The generator's
# seed is not a key: TrainConfig gives it the run's.
_PARSERS = {int: int, float: float, bool: boolean}
GENERATOR_KEYS, TRAIN_KEYS = (
    {key: _PARSERS[kind] for key, kind in typing.get_type_hints(cls).items()
     if kind in _PARSERS and key not in leave_out}
    for cls, leave_out in ((GeneratorSpec, ("seed",)), (TrainConfig, ())))

# The model keys default to TrainConfig's values, as text a config file
# would hold; the data keys are the CLI's own.
_MODEL = TrainConfig()
DEFAULTS = {
    "graph": _MODEL.generator.kind,
    **{key: str(getattr(_MODEL.generator, key)).lower()
       for key in GENERATOR_KEYS},
    **{key: str(getattr(_MODEL, key)).lower() for key in TRAIN_KEYS},
    "fusion": _MODEL.fusion.mode,
    "baseline": _MODEL.baseline,
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
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _setting(line, f"{path}:{lineno}")
            out[key] = value
    return out


def effective_config(config_path: str | None, sets: list[str]) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if config_path:
        cfg.update(parse_config_file(config_path))
    for item in sets or []:
        key, value = _setting(item, "--set")
        cfg[key] = value
    return cfg


def _parse(cfg: dict[str, str], key: str, kind):
    """`kind(value)` of the key; a value `kind` rejects is a ConfigError
    that names the key."""
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(
            f"{key}: expected {kind.__name__}, got {cfg[key]!r}") from None


def to_train_config(cfg: dict[str, str]) -> TrainConfig:
    def parsed(kinds):
        return {key: _parse(cfg, key, kind) for key, kind in kinds.items()}

    train = parsed(TRAIN_KEYS)
    gen = GeneratorSpec(kind=cfg["graph"], **parsed(GENERATOR_KEYS))
    return TrainConfig(generator=gen, fusion=FusionMode(cfg["fusion"]),
                       baseline=cfg["baseline"], **train)


def _data_path(cfg: dict[str, str], key: str) -> str:
    """The file named by the data key `key`: as given when it is absolute or
    exists, else under $CYCLIC_FF_DATA_DIR (default `.`); a missing name is
    tried with `.gz` added or removed, as IDX files read plain or gzipped."""
    path = cfg[key]
    if not path:
        raise ConfigError(f"{key} is not set")
    if not (os.path.isabs(path) or os.path.exists(path)):
        path = os.path.join(os.environ.get("CYCLIC_FF_DATA_DIR", "."), path)
    other = path[:-3] if path.endswith(".gz") else path + ".gz"
    if not os.path.exists(path) and os.path.exists(other):
        return other
    return path


def _data_settings(cfg: dict[str, str]) -> dict:
    """Parse the data keys the config's dataset uses; their ranges are
    checked by what takes them (`check_seed`, `synth_blobs`, `split`)."""
    kind = cfg["dataset"]
    if kind not in ("mnist", "embeddings", "synth"):
        raise ConfigError(f"unknown dataset {kind!r}")
    s = {"seed": _parse(cfg, "seed", int)}
    check_seed(s["seed"])
    if kind == "mnist":
        return s
    s["val_fraction"] = _parse(cfg, "val_fraction", float)
    if kind == "synth":
        s.update(n=_parse(cfg, "synth_n_per_class", int),
                 dim=_parse(cfg, "synth_dim", int),
                 classes=_parse(cfg, "synth_classes", int),
                 sep=_parse(cfg, "synth_separation", float))
    return s


def _check_test_set(test: Dataset, dim: int, n_classes: int, who: str,
                    reference: str) -> None:
    """ConfigError, naming both values, unless the test set has the `dim`
    and `n_classes` that `reference` expects."""
    for what, data_value, want in (("dim", test.dim, dim),
                                   ("n_classes", test.n_classes, n_classes)):
        if data_value != want:
            raise ConfigError(f"{who}: test set has {what} {data_value}, "
                              f"{reference} expects {want}")


def _read(files: dict | None, loader, *paths: str) -> Dataset:
    """`loader(*paths)`. With a `files` memo the dataset is read once and
    kept under its files' resolved paths, which name it whatever config
    asks for it."""
    if files is None:
        return loader(*paths)
    key = tuple(map(os.path.realpath, paths))
    if key not in files:
        files[key] = loader(*paths)
    return files[key]


def _test_set(cfg: dict[str, str], s: dict,
              files: dict | None = None) -> Dataset:
    """The test split of the config's dataset, `s` its data settings."""
    if cfg["dataset"] == "mnist":
        return _read(files, load_mnist_idx,
                     _data_path(cfg, "mnist_test_images"),
                     _data_path(cfg, "mnist_test_labels"))
    if cfg["dataset"] == "embeddings":
        return _read(files, load_embeddings,
                     _data_path(cfg, "embeddings_test"))
    # At least one row per class; a negative n reaches synth_blobs' check.
    return synth_blobs(s["n"] // 4 or 1, s["dim"], s["classes"], s["sep"],
                       make_rng(s["seed"], "synth-test"))


def load_datasets(cfg: dict[str, str], files: dict | None = None
                  ) -> tuple[Dataset, Dataset, Dataset]:
    """Resolve (train, val, test) from the config's dataset block. A bad
    value or file, fewer than 2 classes, a split with no training rows or a
    test set unlike the training data raises: an input error (exit 2).
    Data files are read through the `files` memo (see `_read`); the split
    and synthetic data are drawn per call, from the config's seed."""
    s = _data_settings(cfg)
    if cfg["dataset"] == "mnist":
        path = _data_path(cfg, "mnist_images")
        full = _read(files, load_mnist_idx, path,
                     _data_path(cfg, "mnist_labels"))
        if full.n_samples < MNIST_TRAIN_ROWS:
            raise ConfigError(f"{path}: {full.n_samples} images, the fixed "
                              f"split needs at least {MNIST_TRAIN_ROWS}")
        # Slices, not index arrays, so both parts share `full`'s memory.
        train = full.subset(slice(0, MNIST_TRAIN_ROWS))
        val = full.subset(slice(MNIST_TRAIN_ROWS, None))
    else:
        if cfg["dataset"] == "embeddings":
            path = _data_path(cfg, "embeddings_train")
            full = _read(files, load_embeddings, path)
        else:
            path = "synth"
            full = synth_blobs(s["n"], s["dim"], s["classes"], s["sep"],
                               make_rng(s["seed"], "synth-data"))
        train, val = split(full, s["val_fraction"],
                           make_rng(s["seed"], "data-shuffle"))
    if full.n_classes < 2:
        raise ConfigError(
            f"{path}: n_classes is {full.n_classes}, need at least 2")
    test = _test_set(cfg, s, files)
    _check_test_set(test, full.dim, full.n_classes, cfg["dataset"],
                    "the training set")
    return train, val, test


def config_hash(cfg: dict[str, str]) -> str:
    items = sorted((k, v) for k, v in cfg.items() if k != "seed")
    return hashlib.sha256(repr(items).encode()).hexdigest()[:8]


def _git_describe() -> str:
    """`git describe` of the source tree this package runs from, whatever
    the working directory; "" outside a checkout."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
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
    """The run's record. Its bits depend on the BLAS build and thread
    count, so `blas` holds numpy's bundled OpenBLAS configuration (with
    its core name) and this process's thread count, or null without one."""
    calls = openblas_thread_calls()
    manifest = {
        "config": cfg,
        "seeds": seeds,
        "artifacts": artifacts,
        "git_describe": _git_describe(),
        "started": started,
        "ended": time.time(),
        "blas": None if calls is None else {"config": openblas_config(),
                                            "threads": calls[0]()},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    _write_atomic(path, lambda tmp: Path(tmp).write_text(text))


def _make_out_dir(cfg: dict[str, str]) -> str:
    """The config's out_dir, created before any run trains; a path that
    cannot be made a directory is a config error."""
    try:
        os.makedirs(cfg["out_dir"], exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out_dir: {e}") from None
    return cfg["out_dir"]


def cmd_train(args) -> int:
    with input_phase():
        cfg = effective_config(args.config, args.set)
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        tc = to_train_config(cfg)
        train, val, test = load_datasets(cfg)
        out_dir = _make_out_dir(cfg)

    started = time.time()
    model, metrics = run_config(tc, train, val, test)

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
    with input_phase():
        cfg = effective_config(args.config, args.set)
        net = load_checkpoint(args.checkpoint)
        test = _test_set(cfg, _data_settings(cfg))
        _check_test_set(test, net.raw_dim, net.n_classes, "eval",
                        "the checkpoint")
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


# The data files of the running sweep, by resolved paths (see `_read`):
# its input phase reads each file once, and its jobs train on those
# datasets, here or in workers forked after that phase. `cmd_sweep`
# empties it when it returns, so no data outlives the sweep.
_SWEEP_FILES: dict[tuple[str, ...], Dataset] = {}


def _one_sweep_run(job: tuple[TrainConfig, dict[str, str]]) -> float:
    """One sweep job, on the data files in `_SWEEP_FILES`; its split and
    synthetic data are its own, so data keys can be swept."""
    tc, cfg = job
    _, metrics = run_config(tc, *load_datasets(cfg, _SWEEP_FILES))
    return metrics.test_err


def _init_sweep_worker(jobs: int) -> None:
    """Share the usable cores out among `jobs` forked sweep workers: each
    runs numpy's bundled OpenBLAS (if any) on at least 1 thread and never
    more than its parent did. A forked worker would otherwise keep the
    parent's count, and `jobs` workers would each run that many threads
    on the same cores."""
    calls = openblas_thread_calls()
    if calls is None:
        return
    get, set_ = calls
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    set_(min(get(), max(1, cores // jobs)))


def cmd_sweep(args) -> int:
    try:
        return _sweep(args)
    finally:
        _SWEEP_FILES.clear()


def _sweep(args) -> int:
    # Every job's config is built, and every swept combination's data read
    # and checked, before out_dir is made and the first run trains.
    with input_phase():
        if args.jobs < 1:
            raise ConfigError(f"--jobs is {args.jobs}, need at least 1")
        base = effective_config(args.config, None)
        axes = []
        for item in args.set or []:
            key, values = _setting(item, "--set")
            if key in (k for k, _ in axes):
                raise ConfigError(f"sweep: --set {key} is given twice")
            if key == "out_dir":
                raise ConfigError("sweep: out_dir cannot be swept; the "
                                  "summary goes to the config's out_dir")
            if key == "seed":
                raise ConfigError("sweep: seed cannot be a --set axis; list "
                                  "the seeds with --seeds")
            vals = [v.strip() for v in values.split(",") if v.strip()]
            if not vals:
                raise ConfigError(f"--set {key}: empty value list")
            # A repeat would run identical jobs as separate rows or seeds.
            if len(set(vals)) < len(vals):
                raise ConfigError(f"sweep: --set {key} gives a value twice")
            axes.append((key, vals))
        if not axes:
            raise ConfigError("sweep: need at least one --set key=v1,v2,...")
        seeds = _parse_seeds(args.seeds)
        if not seeds:
            raise ConfigError("sweep: empty seed list")
        if len(set(seeds)) < len(seeds):
            raise ConfigError("sweep: --seeds gives a seed twice")

        combos = list(itertools.product(*(vals for _, vals in axes)))
        keys = [k for k, _ in axes]
        jobs = []
        for combo in combos:
            for seed in seeds:
                cfg = dict(base)
                cfg.update(dict(zip(keys, combo)))
                cfg["seed"] = str(seed)
                jobs.append((to_train_config(cfg), cfg))
            # No data check depends on the seed, which `to_train_config`
            # has range-checked, so one draw checks the combination's data
            # for every seed.
            load_datasets(cfg, _SWEEP_FILES)
        out_dir = _make_out_dir(base)

    if args.jobs > 1:
        # Forked, so the workers inherit the data read above rather than
        # being sent it or reading it again.
        with ProcessPoolExecutor(
                max_workers=args.jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_sweep_worker,
                initargs=(args.jobs,)) as pool:
            errs = list(pool.map(_one_sweep_run, jobs))
    else:
        errs = list(map(_one_sweep_run, jobs))

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
    with input_phase():
        tc = to_train_config(effective_config(args.config, args.set))
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
    # All of it is the input phase: an --out that cannot be written (a
    # directory, a missing parent) exits 2 like a bad flag.
    with input_phase():
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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
