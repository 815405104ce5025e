"""The benchmark's own tests: BENCHMARK.json's form, each output check
rejecting a corrupted output, and the self-time partition.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from repro.channel.geometry import Deployment  # noqa: E402
from repro.sim.config import WIFI_CONFIG, ZIGBEE_CONFIG  # noqa: E402
from repro.sim.engine import (ExperimentSpec, MacExperimentSpec,  # noqa: E402
                              RunOptions, execute_run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- BENCHMARK.json -----------------------------------------------------------

@pytest.fixture(scope="module")
def bench():
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    return json.loads(path.read_text())


def test_benchmark_json_fixed_form(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOAD_NAMES)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    all_names = names + [m["name"] for m in bench["end_to_end"]
                         + bench["per_layer"]]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)


def test_benchmark_json_metrics_match_the_runner(bench):
    e2e = bench["end_to_end"]
    assert [(m["name"], m["unit"]) for m in e2e] == run.END_TO_END
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
        assert UNIT.match(m["unit"])
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    layer = bench["per_layer"]
    assert [(m["name"], m["unit"]) for m in layer] == run.PER_LAYER
    for m in layer:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("higher", "lower")
        assert UNIT.match(m["unit"])


def test_every_self_time_metric_is_a_per_layer_metric():
    layer = {name for name, _ in run.PER_LAYER}
    assert set(run.SELF_METRIC.values()) <= layer


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


# -- output checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def zigbee():
    spec = ExperimentSpec(ZIGBEE_CONFIG, Deployment.los(1.0),
                          (2, 8, 14, 20, 24), packets_per_point=6, seed=3)
    return spec, execute_run(spec, RunOptions(n_jobs=1)).points


@pytest.fixture(scope="module")
def wifi():
    spec = ExperimentSpec(WIFI_CONFIG, Deployment.los(1.0), (2, 6),
                          packets_per_point=2, seed=3)
    return spec, execute_run(spec, RunOptions(n_jobs=1)).points


@pytest.fixture(scope="module")
def mac():
    spec = MacExperimentSpec((4, 20), measured_rounds=12,
                             simulated_rounds=150, seed=3)
    return spec, execute_run(spec, RunOptions(n_jobs=1)).points


def _replace(points, index, **changes):
    out = list(points)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def _clean_indices(points):
    return [i for i, p in enumerate(points) if p.ber_valid and p.ber == 0]


def test_wifi_arithmetic():
    assert checks.WIFI_DATA_SYMBOLS == 501
    assert checks.WIFI_TAG_BITS == 124
    assert checks.WIFI_SLOT_US == 2074


def test_real_outputs_pass(zigbee, wifi, mac):
    for spec, points in (zigbee, wifi, mac):
        checks.check_spec_points(spec, points)
    assert _clean_indices(zigbee[1]) and _clean_indices(wifi[1])


def test_rejects_delivery_above_one(zigbee):
    spec, points = zigbee
    with pytest.raises(checks.CheckError, match="delivery"):
        checks.check_spec_points(spec, _replace(points, 0,
                                                delivery_ratio=1.2))


def test_rejects_rssi_off_the_noise_floor(zigbee):
    spec, points = zigbee
    with pytest.raises(checks.CheckError, match="noise floor"):
        checks.check_spec_points(spec, _replace(
            points, 1, rssi_dbm=points[1].rssi_dbm + 15.0))


def test_rejects_unequal_error_free_points(zigbee):
    spec, points = zigbee
    i = _clean_indices(points)[-1]
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_spec_points(spec, _replace(
            points, i, throughput_kbps=points[i].throughput_kbps * 0.99))


def test_rejects_a_point_above_the_raw_tag_rate(zigbee):
    spec, points = zigbee
    scaled = [dataclasses.replace(p, throughput_kbps=p.throughput_kbps * 1.2)
              for p in points]
    with pytest.raises(checks.CheckError, match="raw tag rate"):
        checks.check_spec_points(spec, scaled)


def test_rejects_wifi_rate_off_the_80211g_arithmetic(wifi):
    spec, points = wifi
    scaled = [dataclasses.replace(p, throughput_kbps=p.throughput_kbps * 0.99)
              for p in points]
    with pytest.raises(checks.CheckError, match="802.11g"):
        checks.check_spec_points(spec, scaled)


def test_rejects_tdm_below_aloha(mac):
    spec, points = mac
    p = points[0]
    with pytest.raises(checks.CheckError, match="TDM"):
        checks.check_spec_points(spec, _replace(
            points, 0, tdm_kbps=p.simulated_kbps - 1.0))


@pytest.mark.parametrize("fairness", [0.0, 1.05])
def test_rejects_fairness_outside_unit_interval(mac, fairness):
    spec, points = mac
    with pytest.raises(checks.CheckError, match="fairness"):
        checks.check_spec_points(spec, _replace(points, 0,
                                                fairness=fairness))


def test_rejects_aloha_outside_the_fig17_band(mac):
    spec, points = mac
    i = [p.n_tags for p in points].index(20)
    with pytest.raises(checks.CheckError, match="Fig 17"):
        checks.check_spec_points(spec, _replace(
            points, i, simulated_kbps=19.0, tdm_kbps=40.0))


def test_rejects_points_that_differ_from_the_reference(zigbee):
    _, points = zigbee
    checks.check_same_points("same", points, list(points))
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_same_points("n_jobs=2 vs 1", _replace(
            points, 2, snr_db=points[2].snr_db + 1e-9), points)
    with pytest.raises(checks.CheckError, match="points"):
        checks.check_same_points("short", points[:-1], points)


def test_rejects_a_job_that_did_not_finish():
    checks.check_job_done("job-1", {"state": "done"})
    with pytest.raises(checks.CheckError, match="failed"):
        checks.check_job_done("job-1", {"state": "failed", "error": "x"})


def test_hit_checks():
    job = {"job_id": "job-2", "cache_hit": True}
    checks.check_hit(job, 4, 4, b"abc", b"abc")
    with pytest.raises(checks.CheckError, match="not a cache hit"):
        checks.check_hit({"job_id": "job-2"}, 4, 4, b"abc", b"abc")
    with pytest.raises(checks.CheckError, match="ran the engine"):
        checks.check_hit(job, 4, 5, b"abc", b"abc")
    with pytest.raises(checks.CheckError, match="bytes differ"):
        checks.check_hit(job, 4, 4, b"abd", b"abc")


# -- self times -----------------------------------------------------------------

def _span(sid, name, start, end, depth=1, thread=1):
    return spans.Span(sid, name, start, end, 0, depth, thread)


def test_self_time_is_duration_minus_children():
    root = _span(0, "harness", 0.0, 10.0, depth=0)
    tree = [_span(1, "engine.run", 1.0, 9.0),
            _span(2, "linksim.wifi", 2.0, 8.0, depth=2),
            _span(3, "phy.wifi.decode", 3.0, 4.0, depth=3),
            _span(4, "phy.wifi.decode", 5.0, 7.0, depth=3)]
    got = spans.self_times(tree, root)
    assert got == pytest.approx({"harness": 2.0, "engine.run": 2.0,
                                 "linksim.wifi": 3.0,
                                 "phy.wifi.decode": 3.0})


def test_overlapping_threads_still_partition_the_wall_time():
    root = _span(0, "harness", 0.0, 10.0, depth=0)
    tree = [_span(1, "service.poll_sleep", 1.0, 9.0),
            _span(2, "engine.run", 2.0, 6.0, thread=2),
            _span(3, "service.status", 5.0, 5.5, depth=2),
            _span(4, "service.store_put", 6.0, 6.5, thread=2)]
    got = spans.self_times(tree, root)
    assert sum(got.values()) == pytest.approx(10.0)
    assert got == pytest.approx({"harness": 2.0, "service.poll_sleep": 3.5,
                                 "engine.run": 3.5, "service.status": 0.5,
                                 "service.store_put": 0.5})
