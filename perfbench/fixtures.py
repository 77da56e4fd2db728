"""Fixture preparation for the benchmark, cached per workload seed.

Run as a child process of run.py so that the memory and time it takes never
reach a workload's metrics:

    python3 perfbench/fixtures.py --city demo --seed 7 --out perfbench/.cache/<key>/demo

Cities come from scripts/generate_synthetic.py, run unchanged. Checkpoints are
built through evrac's public functions:

* demo city: a short forecaster fit (`pipeline.train_reward_model`), read by
  the rac-shared workload;
* serve city: a seeded, unfitted `WaitForecastNet` (a full-batch fit on this
  city needs more memory than a small machine has) and a short shared
  actor-critic fit in the mean-wait environment.

Every produced file is listed with its sha256 in `manifest.json`, written
last, so a directory with a manifest is complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# City sizes (generate_synthetic.py arguments) per fixture.
CITIES = {
    "demo": {"drivers": 30, "events_per_driver": 40, "stations": 5},
    "serve": {"drivers": 200, "events_per_driver": 100, "stations": 50},
}
DEMO_FORECASTER_EPOCHS = 3
SERVE_RAC_EPOCHS = 20


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def manifest_ok(out: Path) -> bool:
    """True when `out` holds a finished fixture whose files match its digests."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return all(sha256_file(out / name) == digest for name, digest in manifest["files"].items())
    except (OSError, ValueError, KeyError):
        return False


def _generate_city(city: str, seed: int, out: Path) -> None:
    size = CITIES[city]
    # A path relative to the checkout root, so config.cfg holds relative paths.
    rel = out.resolve().relative_to(ROOT)
    subprocess.run(
        [sys.executable, "scripts/generate_synthetic.py", "--out-dir", str(rel),
         "--drivers", str(size["drivers"]), "--events-per-driver", str(size["events_per_driver"]),
         "--stations", str(size["stations"]), "--seed", str(seed)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def _demo_checkpoints(out: Path) -> None:
    from evrac.checkpoint import save_reward_net
    from evrac.config import apply_overrides, load_config
    from evrac.pipeline import load_data_bundle, train_reward_model

    config = apply_overrides(load_config(out / "config.cfg"), reward_epochs=DEMO_FORECASTER_EPOCHS)
    bundle = load_data_bundle(config)
    net, _ = train_reward_model(bundle)
    save_reward_net(net, config.reward_hyper(), out / "reward.ckpt")


def _serve_checkpoints(out: Path, seed: int) -> None:
    from evrac.checkpoint import save_rac_model, save_reward_net
    from evrac.config import apply_overrides, load_config
    from evrac.pipeline import load_data_bundle, train_shared_model, training_environment
    from evrac.reward import WaitForecastNet, reward_net_input_dim
    from evrac.seeding import rng_for

    config = apply_overrides(load_config(out / "config.cfg"), epochs=SERVE_RAC_EPOCHS)
    bundle = load_data_bundle(config)
    hyper = config.reward_hyper()
    net = WaitForecastNet(reward_net_input_dim(bundle.index), hyper.hidden, hyper.layers,
                          rng_for(seed, "perfbench-serve-forecaster"))
    save_reward_net(net, hyper, out / "reward.ckpt")
    model, _ = train_shared_model(bundle, training_environment(bundle, None))
    save_rac_model(model, out / "rac.ckpt")


def prepare(city: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _generate_city(city, seed, out)
    if city == "demo":
        _demo_checkpoints(out)
    else:
        _serve_checkpoints(out, seed)
    files = {p.name: sha256_file(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    manifest = {"city": city, "seed": seed, "size": CITIES[city], "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--city", choices=sorted(CITIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    prepare(args.city, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
