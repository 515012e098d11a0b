"""The seed alone decides every request stream, byte for byte."""

import itertools
import subprocess
import sys

import schedule
from conftest import BENCH


def first_cycles(seed, n=3, screen=None):
    return list(itertools.islice(schedule.cold_mix(seed, screen), n))


def test_cold_mix_is_a_function_of_the_seed():
    assert schedule.dumps(first_cycles(5)) == schedule.dumps(first_cycles(5))
    assert schedule.dumps(first_cycles(5)) != schedule.dumps(first_cycles(6))


def test_cold_mix_cycle_shape_and_unique_seeds():
    cycles = first_cycles(9, n=4)
    for cycle in cycles:
        counts = {}
        for request in cycle:
            counts[request["program"]] = counts.get(request["program"], 0) + 1
        assert counts == {program: repeat
                          for program, _, repeat in schedule.COLD_CYCLE}
    seeds = [request["seed"] for cycle in cycles for request in cycle]
    assert len(seeds) == len(set(seeds))


def first_serve_cycles(seed, n=2):
    return list(itertools.islice(schedule.serve_mix(seed), n))


def test_serve_schedule_is_byte_identical_across_processes():
    here = schedule.dumps(first_serve_cycles(3))
    code = ("import itertools, sys, schedule; "
            "sys.stdout.buffer.write(schedule.dumps(list("
            "itertools.islice(schedule.serve_mix(3), 2))))")
    there = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                           capture_output=True, check=True).stdout
    assert here == there
    assert here != schedule.dumps(first_serve_cycles(4))


def test_serve_cycle_mix_and_unique_cold_seeds():
    popular = {schedule.dumps(r["body"]) for r in schedule.popular_set(1)}
    cold_seeds = []
    for cycle in first_serve_cycles(1, n=3):
        requests = {}
        for entry in cycle:
            sent = 2 if entry["kind"] == "pair" else 1
            requests[entry["kind"]] = requests.get(entry["kind"], 0) + sent
            if entry["kind"] == "popular":
                assert schedule.dumps(entry["body"]) in popular
            else:
                cold_seeds.append(entry["body"]["seed"])
        # 60% warm repeats, 25% cold, 10% pairs, 5% sweeps of 40.
        assert requests == {"popular": 24, "cold": 10, "pair": 4,
                            "sweep": 2}
        programs = [e["body"]["workload"] for e in cycle
                    if e["kind"] in ("cold", "pair")]
        assert sorted(programs) == sorted(
            [p for p, _ in schedule.SERVE_COLD] * 3)
    assert len(cold_seeds) == len(set(cold_seeds))


def test_screened_seeds_are_redrawn():
    rejected = []

    def screen(program, threads, seed):
        if program == "memcached" and len(rejected) < 3:
            rejected.append(seed)
            return False
        return True

    cycles = first_cycles(5, n=1, screen=screen)
    sent = {request["seed"] for request in cycles[0]}
    assert len(rejected) == 3 and not sent & set(rejected)
    assert len(cycles[0]) == sum(r for _, _, r in schedule.COLD_CYCLE)
