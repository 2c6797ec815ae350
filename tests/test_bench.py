"""Tests for the benchmark harness: pairing, aggregation, parallel determinism."""

import numpy as np
import pytest

from robustfit.bench import (
    BenchSettings,
    derive_trial_seed,
    run_bench,
    run_trial,
    select_thresholds,
    summarize,
)
from robustfit.exceptions import InvalidInputError
from robustfit.fileio import BenchRecord, CorrespondenceFile, records_to_csv
from robustfit.geometry import HOMOGRAPHY
from robustfit.ransac import sample_stream_digest
from robustfit.synth import SynthConfig, synth_homography


def make_dataset(seed=0, n_in=60, n_out=60, noise=1.0):
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_in, n_out, noise_sigma=noise, seed=seed))
    return CorrespondenceFile(
        problem=HOMOGRAPHY,
        image_size=ds.image_size,
        x1=ds.x1,
        x2=ds.x2,
        labels=ds.labels,
    )


def test_derive_trial_seed_is_stable():
    a = derive_trial_seed(42, 0)
    b = derive_trial_seed(42, 0)
    c = derive_trial_seed(42, 1)
    assert a == b != c
    assert 0 <= a < 2**64


def test_bench_cardinality():
    data = make_dataset()
    records = run_bench(
        [("ds", data)],
        methods=["none", "dpcp"],
        sigmas=[0.00125, 0.0025, 0.005],
        trials=10,
        master_seed=7,
        settings=BenchSettings(t_max=300),
    )
    assert len(records) == 1 * 2 * 3 * 10


def test_bench_rejects_unlabeled_and_empty_sweeps():
    data = make_dataset()
    unlabeled = CorrespondenceFile(
        problem=data.problem, image_size=data.image_size, x1=data.x1, x2=data.x2, labels=None
    )
    with pytest.raises(InvalidInputError):
        run_bench([("ds", unlabeled)], ["none"], [0.0025], 2, 0)
    with pytest.raises(InvalidInputError):
        run_bench([("ds", data)], [], [0.0025], 2, 0)
    with pytest.raises(InvalidInputError):
        run_bench([("ds", data)], ["lmeds"], [0.0025], 2, 0)


@pytest.mark.parametrize(
    "dataset_id",
    ["a,b", "a\nb", "a\r", "a\x0bb", "caf\u00e9"],
    ids=["comma", "newline", "carriage-return", "vertical-tab", "non-ascii"],
)
def test_bench_rejects_dataset_id_the_csv_cannot_carry(monkeypatch, dataset_id):
    def no_trial(*args):
        raise AssertionError("a trial ran before the dataset id was checked")

    monkeypatch.setattr("robustfit.bench.run_trial", no_trial)
    with pytest.raises(InvalidInputError):
        run_bench([(dataset_id, make_dataset())], ["none"], [0.0025], 1, 0)


def test_paired_sampling_across_methods():
    data = make_dataset(seed=1)
    settings = BenchSettings(t_max=200)
    recs = {
        m: run_trial("ds", data, m, 0.005, trial=3, master_seed=99, settings=settings)
        for m in ("none", "dpcp")
    }
    assert recs["none"].seed == recs["dpcp"].seed
    # Same seed means both runs drew prefixes of the same sample stream;
    # iteration counts may differ because the budgets adapt differently.
    from robustfit.ransac import RansacConfig, run_ransac

    for m, rec in recs.items():
        cfg = RansacConfig(sigma=0.005, lo_method=m, seed=rec.seed, t_max=200)
        report = run_ransac(data.problem, data.x1, data.x2, cfg, data.image_size)
        assert report.sample_digest == sample_stream_digest(
            rec.seed, data.n, 4, report.iterations_used
        )


def test_parallel_and_sequential_runs_match():
    data = make_dataset(seed=2, n_in=40, n_out=40)
    kwargs = dict(
        datasets=[("ds", data)],
        methods=["none", "dlt"],
        sigmas=[0.0025, 0.005],
        trials=4,
        master_seed=11,
        settings=BenchSettings(t_max=150),
    )
    seq = run_bench(**kwargs, jobs=1)
    par = run_bench(**kwargs, jobs=3)

    def mask_wall(records):
        return records_to_csv(
            [BenchRecord(**{**r.__dict__, "wall_ms": 0.0}) for r in records]
        )

    assert mask_wall(seq) == mask_wall(par)


def test_summarize_matches_independent_recompute():
    rng = np.random.default_rng(3)
    records = [
        BenchRecord("d%d" % (i % 2), "dpcp", 0.005, i, i, float(rng.uniform(0.1, 2.0)),
                    50, 100, 3, float(rng.uniform(1, 5)))
        for i in range(40)
    ]
    summary = summarize(records)
    assert len(summary) == 1
    cell = summary[0]
    errors = np.array([r.error_px for r in records])
    d0 = np.array([r.error_px for r in records if r.dataset == "d0"])
    d1 = np.array([r.error_px for r in records if r.dataset == "d1"])
    assert cell["mean_error_px"] == pytest.approx((d0.mean() + d1.mean()) / 2.0, abs=1e-12)
    assert cell["median_error_px"] == pytest.approx(np.percentile(errors, 50), abs=1e-12)
    assert cell["iqr_error_px"] == pytest.approx(
        np.percentile(errors, 75) - np.percentile(errors, 25), abs=1e-12
    )


def test_select_thresholds_rule():
    # dpcp: sigma 0.01 slightly worse error but much faster -> within 1% picks it.
    records = []
    for trial in range(4):
        records.append(BenchRecord("ds", "dpcp", 0.005, trial, trial, 1.000, 50, 100, 3, 50.0))
        records.append(BenchRecord("ds", "dpcp", 0.010, trial, trial, 1.005, 50, 60, 3, 10.0))
        records.append(BenchRecord("ds", "dpcp", 0.020, trial, trial, 1.500, 50, 40, 3, 5.0))
        records.append(BenchRecord("ds", "none", 0.005, trial, trial, 2.000, 40, 100, 0, 20.0))
        records.append(BenchRecord("ds", "none", 0.010, trial, trial, 2.600, 40, 60, 0, 8.0))
    chosen = select_thresholds(records)
    assert chosen["dpcp"]["sigma"] == 0.010
    assert chosen["none"]["sigma"] == 0.005


def test_huber_sweep_averages_three_runs():
    data = make_dataset(seed=4, n_in=40, n_out=20)
    settings_sweep = BenchSettings(t_max=100, huber_sweep=True)
    rec = run_trial("ds", data, "huber", 0.005, trial=0, master_seed=5, settings=settings_sweep)
    singles = []
    for c in (0.1, 0.01, 0.001):
        s = BenchSettings(t_max=100, huber_c=c)
        singles.append(run_trial("ds", data, "huber", 0.005, 0, 5, s).error_px)
    assert rec.error_px == pytest.approx(np.mean(singles), abs=1e-12)
