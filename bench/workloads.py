"""The benchmark's workloads and how the program under test is loaded.

Each workload is a set of ``--set`` overrides on the experiment defaults;
the benchmark seed becomes the experiment's root ``seed``, from which the
program derives the synthetic dataset, the batch stream, the initial
weights and the gallery trials. This module uses the standard library only,
so it can pin the BLAS thread count before anything imports numpy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

#: One BLAS thread (at most ``nproc``): a second thread shares the same two
#: cores with the Python interpreter and makes step times depend on whatever
#: else the machine runs.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS: dict[str, dict[str, str]] = {
    # The experiment defaults (50 identities, P=4, K=4, margin-gated
    # class-conditional MMD, biased estimator) for 12 epochs = 600 steps.
    "train-default": {
        "train.epochs": "12",
    },
    # One 256-row batch per step: the marginal MMD over a 128x128 block per
    # modality pair, hc-tri over 16 identities; 20 epochs = 140 steps.
    "train-pk16-marginal": {
        "batch.p": "16",
        "batch.k": "8",
        "mmd.variant": "marginal",
        "train.epochs": "20",
    },
    # 1000 identities x 10 samples per modality: 800 train identities
    # (16000 rows, 500 steps per epoch) and 2000 thermal queries against a
    # 200-identity visible gallery.
    "large-gallery": {
        "data.num_identities": "1000",
        "data.samples_per_identity": "10",
        "train.epochs": "2",
    },
}


#: ``cmd_eval`` runs per round. An eval of the two small workloads takes
#: ~0.1 s, so one sample per round would leave ``eval_queries_per_s`` to a
#: handful of short, noisy timings.
EVAL_REPEATS = {"train-default": 5, "train-pk16-marginal": 5, "large-gallery": 1}


def pin_threads() -> None:
    """Fix the BLAS thread count; only effective before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def load_program():
    """Import ``xreid`` from this checkout's ``src/`` and return the package.

    Raises ``ImportError`` when the checkout has no ``src/xreid`` or when
    another copy of the package would be imported instead.
    """
    pin_threads()
    if not (SRC / "xreid" / "__init__.py").is_file():
        raise ImportError(f"no xreid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xreid

    if Path(xreid.__file__).resolve().parent != (SRC / "xreid").resolve():
        raise ImportError(f"imported xreid from {xreid.__file__}, not from {SRC}")
    return xreid


def config(workload: str, seed: int, output_dir, extra: dict[str, str] | None = None):
    """Resolve a workload's experiment config the way ``xreid --set`` does;
    ``extra`` overrides go last."""
    from xreid.config import ExperimentConfig

    cfg = ExperimentConfig.defaults()
    sets = {"seed": str(seed), **WORKLOADS[workload], "output.dir": str(output_dir), **(extra or {})}
    for key, value in sets.items():
        cfg.set(key, value, where="--set")
    return cfg
