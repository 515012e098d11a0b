"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import stats


def test_samples_beyond_p95():
    # 200 samples is the least that leaves ten beyond p95.
    assert [stats.beyond(n, 95) for n in (199, 200, 220)] == [9, 10, 11]
    assert stats.beyond(20, 50) == 10
    assert stats.beyond(0, 95) == 0


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert stats.percentile(values, 95) == 190
    assert stats.percentile(values, 50) == 100
    assert stats.percentile([3.0], 95) == 3.0
    assert stats.percentile([], 95) == 0.0
    assert stats.median([1.0, 3.0]) == 2.0



def test_class_median_reads_the_median_of_the_class_at_the_rank():
    classes = {"warm": [0.001, 0.002, 0.009], "cold": [0.1, 0.3]}
    # The mix's median request is warm, its p95 request cold; each
    # reads its class's median, not the sample at that rank.
    assert stats.class_median(classes, 50) == 0.002
    assert stats.class_median(classes, 95) == 0.2
