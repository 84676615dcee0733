"""Build the stored tap reference for the trace-block13 workload.

Generates the 13-facet scene and a pool of receiver positions from a fixed
seed, traces the whole pool once with the ``chanem trace`` CLI of the
checkout, and stores scene, pool and taps in ``reference/block13.npz``.
Runs pick a seeded subset of the pool, so later tracer changes are checked
against the taps this tracer produced.  Run from the repository root:

    python3 e2ebench/make_reference.py
"""

import os
import subprocess
import sys
import tempfile

import numpy as np

import inputs

GENERATOR_SEED = 13
POOL_SIZE = 360
POOL_INTERVAL = 0.1

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "block13.npz")


def main():
    root = os.path.dirname(HERE)
    rng = np.random.default_rng(GENERATOR_SEED)
    scene, half = inputs.block13_scene(rng)
    pool = np.column_stack([rng.uniform(-90.0, 90.0, POOL_SIZE),
                            rng.uniform(-(half - 2.0), half - 2.0, POOL_SIZE),
                            rng.uniform(1.2, 2.0, POOL_SIZE)]).round(3)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        paths = {k: os.path.join(tmp, k) for k in ("scene.txt", "trace.csv", "out.cirt")}
        with open(paths["scene.txt"], "w") as fh:
            fh.write(scene)
        with open(paths["trace.csv"], "w") as fh:
            fh.write(inputs.trace_csv(pool, POOL_INTERVAL))
        subprocess.run([sys.executable, "-m", "chanem.cli", "trace",
                        "--scene", paths["scene.txt"], "--trace", paths["trace.csv"],
                        "--out", paths["out.cirt"]], env=env, check=True)
        timeline = inputs.read_cirt(paths["out.cirt"])
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    np.savez_compressed(REFERENCE, scene=np.array(scene), positions=pool,
                        taps=timeline.taps.astype(np.complex64))
    print(f"wrote {REFERENCE}: {len(pool)} positions x {timeline.taps.shape[1]} taps")


if __name__ == "__main__":
    main()
