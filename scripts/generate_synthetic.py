#!/usr/bin/env python3
"""Generate a synthetic charging city for demos and experiments.

Writes canonical events.csv, stations.csv, poi.csv and a ready-to-run
config.cfg into --out-dir. The population mixes preference groups whose
favorite stations differ in how congested they are, plus a few cold-start
drivers, so preference/reward trade-off experiments have something to show.
"""

import argparse
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from evrac.dataset import EventColumns, _instant, write_events
from evrac.geospatial import EARTH_RADIUS_KM, NUM_POI_TYPES

T0 = datetime(2018, 6, 6, 6, 0, tzinfo=timezone.utc)


def lon_for_km(km: float) -> float:
    return math.degrees(km / EARTH_RADIUS_KM)


def build_events(rng: np.random.Generator, drivers: int, events_per_driver: int,
                 stations: list[str], busy: dict[str, float]) -> EventColumns:
    rows = []  # (event_id, driver_id, station_id, start_us, start_s, duration_min, energy_kwh)
    for d in range(drivers):
        driver_id = f"driver-{d:03d}"
        favorite = stations[d % len(stations)]
        n = events_per_driver if d % 7 else 4  # every 7th driver is cold-start
        t = T0 + timedelta(hours=int(rng.integers(0, 48)))
        for i in range(n):
            if rng.random() < 0.8:
                sid = favorite
            else:
                sid = stations[int(rng.integers(0, len(stations)))]
            # busier stations hold the charger longer
            duration = float(np.clip(rng.normal(busy[sid], 8.0), 5.0, 120.0))
            rows.append((f"{driver_id}-e{i:04d}", driver_id, sid, *_instant(t),
                         round(duration, 1), round(duration * 0.35, 2)))
            t += timedelta(hours=float(rng.integers(6, 36)))
    events = EventColumns.build(*(zip(*rows) if rows else [()] * 7))
    return events.take(events.time_order())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo-data")
    parser.add_argument("--drivers", type=int, default=30)
    parser.add_argument("--events-per-driver", type=int, default=40)
    parser.add_argument("--stations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    station_ids = [f"cs{i}" for i in range(args.stations)]
    busy = {sid: 15.0 + 18.0 * i for i, sid in enumerate(station_ids)}

    with open(out / "stations.csv", "w", encoding="utf-8") as fh:
        fh.write("station_id,latitude,longitude\n")
        for i, sid in enumerate(station_ids):
            fh.write(f"{sid},{0.01 * (i % 2)},{lon_for_km(1.5 * i)}\n")

    with open(out / "poi.csv", "w", encoding="utf-8") as fh:
        fh.write("station_id," + ",".join(f"c{i}" for i in range(NUM_POI_TYPES)) + "\n")
        for sid in station_ids:
            counts = rng.integers(0, 6, size=NUM_POI_TYPES)
            fh.write(sid + "," + ",".join(str(int(c)) for c in counts) + "\n")

    events = build_events(rng, args.drivers, args.events_per_driver, station_ids, busy)
    write_events(events, out / "events.csv")

    (out / "config.cfg").write_text(
        f"[data]\nevents = {out / 'events.csv'}\nstations = {out / 'stations.csv'}\n"
        f"poi = {out / 'poi.csv'}\n\n"
        "[model]\nhidden = 32\nembed = 24\ncritic_hidden = 24\n\n"
        "[training]\nalpha = 0.5\nepochs = 250\nsamples_per_epoch = 32\nseed = 0\n"
        "reward_alpha = 0.05\nreward_epochs = 150\n\n"
        "[mode]\nwarmup = true\n",
        encoding="utf-8",
    )

    print(f"wrote {len(events)} events, {len(station_ids)} stations to {out}/")
    print(f"try: evrac train-rac --config {out / 'config.cfg'} --out {out / 'model.ckpt'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
