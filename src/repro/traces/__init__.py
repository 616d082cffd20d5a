"""Network throughput traces: types, generators, formats, and datasets.

The paper evaluates on six datasets: two real cellular datasets (Norway
3G/HSDPA [40], Belgium 4G/LTE [58]) and four synthetic i.i.d. datasets
(Gamma(1,2), Gamma(2,2), Logistic(4, 0.5), Exponential(1)).  The real
datasets are not redistributable here, so :mod:`repro.traces.cellular`
simulates traces with the published characteristics of each (see DESIGN.md,
"Substitutions").  The synthetic datasets are generated exactly as the
paper describes (:mod:`repro.traces.synthetic`).

:mod:`repro.traces.mahimahi` reads and writes the Mahimahi packet-delivery
trace format used by the paper's emulation framework, and
:mod:`repro.traces.dataset` provides the 70/30 train/test split (with 30%
validation carved from training) and the registry of the six datasets.
"""

from repro.traces.cellular import belgium_4g_trace, norway_3g_trace
from repro.traces.dataset import (
    DATASET_NAMES,
    EMPIRICAL_DATASETS,
    SYNTHETIC_DATASETS,
    Dataset,
    DatasetSplit,
    make_dataset,
)
from repro.traces.mahimahi import read_mahimahi, write_mahimahi
from repro.traces.synthetic import (
    exponential_trace,
    gamma_trace,
    iid_trace,
    logistic_trace,
)
from repro.traces.trace import Trace
from repro.traces.transforms import (
    add_cross_traffic,
    concatenate,
    inject_outages,
    scale,
)

__all__ = [
    "DATASET_NAMES",
    "Dataset",
    "DatasetSplit",
    "EMPIRICAL_DATASETS",
    "SYNTHETIC_DATASETS",
    "Trace",
    "add_cross_traffic",
    "belgium_4g_trace",
    "concatenate",
    "exponential_trace",
    "gamma_trace",
    "iid_trace",
    "inject_outages",
    "logistic_trace",
    "make_dataset",
    "norway_3g_trace",
    "read_mahimahi",
    "scale",
    "write_mahimahi",
]
