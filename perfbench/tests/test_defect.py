"""The program defect the benchmark screens out still reproduces.

When memcached@256 stops running away, this test fails: delete
``perfbench/screen.py`` and its call sites along with it.
"""

import screen


def test_memcached_256_runaway_reproduces():
    assert screen.runs_away("memcached", 256, 1592976436)


def test_the_same_request_at_64_threads_finishes():
    assert not screen.runs_away("memcached", 64, 1592976436)


def test_screen_counts_each_runaway_once():
    check = screen.Screen()
    assert not check("memcached", 256, 1592976436)
    assert not check("memcached", 256, 1592976436)
    assert check("vectoradd", 64, 1592976436)
    assert check.runaways == ["memcached@256 seed 1592976436"]
