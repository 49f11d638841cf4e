"""Dataset model, JSONL round-trip, and synthetic generator tests."""

import json

import numpy as np
import pytest

from sensorprint.dataset import (
    RECORD_KEYS,
    Dataset,
    DeviceModel,
    DevicePrior,
    RawSample,
    generate_synthetic,
    load_dataset,
    synthesize_sample,
    write_dataset,
)


def make_record(device_id="d1", sample_id="s1", n=500, rate=100.0):
    t = np.arange(n) / rate
    return {
        "device_id": device_id,
        "sample_id": sample_id,
        "t": t.tolist(),
        "ax": [0.0] * n,
        "ay": [0.0] * n,
        "az": [9.81] * n,
        "gx": [0.0] * n,
        "gy": [0.0] * n,
        "gz": [0.0] * n,
    }


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    ds = load_dataset(p)
    assert len(ds.index) == 0
    assert len(ds.samples) == 0


def test_load_two_records_one_device(tmp_path):
    p = tmp_path / "two.jsonl"
    write_jsonl(p, [make_record(sample_id="s1"), make_record(sample_id="s2")])
    ds = load_dataset(p)
    assert len(ds.index) == 1
    assert len(ds.samples) == 2
    assert ds.index["d1"] == ["s1", "s2"]


def test_load_rejects_non_monotone_timestamps(tmp_path):
    rec = make_record()
    rec["t"][1] = rec["t"][0]  # duplicate timestamp
    p = tmp_path / "bad.jsonl"
    write_jsonl(p, [rec])
    with pytest.raises(ValueError, match="line 1.*non-monotone"):
        load_dataset(p)


def test_load_rejects_length_mismatch(tmp_path):
    rec = make_record()
    rec["gx"] = rec["gx"][:-1]
    p = tmp_path / "bad.jsonl"
    write_jsonl(p, [rec])
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(p)


def test_load_rejects_malformed_json_with_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    with open(p, "w") as fh:
        fh.write(json.dumps(make_record()) + "\n")
        fh.write("{not json\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(p)


def test_load_rejects_missing_key(tmp_path):
    rec = make_record()
    del rec["az"]
    p = tmp_path / "bad.jsonl"
    write_jsonl(p, [rec])
    with pytest.raises(ValueError, match="line 1.*az"):
        load_dataset(p)


def test_load_rejects_duplicate_sample(tmp_path):
    p = tmp_path / "dup.jsonl"
    write_jsonl(p, [make_record(), make_record()])
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(p)


def test_load_rejects_out_of_range_rate(tmp_path):
    rec = make_record(n=50, rate=10.0)  # 10 Hz, below the 20 Hz floor
    p = tmp_path / "slow.jsonl"
    write_jsonl(p, [rec])
    with pytest.raises(ValueError, match="rate"):
        load_dataset(p)


def test_load_rejects_bad_duration(tmp_path):
    rec = make_record(n=200, rate=100.0)  # 2 s, below 5 s - 20%
    p = tmp_path / "short.jsonl"
    write_jsonl(p, [rec])
    with pytest.raises(ValueError, match="duration"):
        load_dataset(p)


def test_round_trip_record_equivalent(tmp_path):
    ds = generate_synthetic(3, 2, seed=7)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset(ds, p1)
    write_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


# doubles whose stdlib json text and shortest round-trip text differ in form
TRICKY = [1e-05, -3.2e-07, 1e16, 1e22, 5e-324, 2.2250738585072014e-308,
          1.7976931348623157e308, -0.0, 0.1, 1 / 3, 123456789.12345679]


def _tricky_record():
    rec = make_record()
    rec["ax"][: len(TRICKY)] = TRICKY
    rec["gy"][: len(TRICKY)] = [-v for v in TRICKY]
    return rec


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_stdlib_json_file_loads_bit_identical(tmp_path):
    rec = _tricky_record()
    p = tmp_path / "old.jsonl"
    write_jsonl(p, [rec])
    assert "1e-05" in p.read_text() and "1e+16" in p.read_text()
    (s,) = load_dataset(p).samples
    np.testing.assert_array_equal(_bits(s.timestamps), _bits(rec["t"]))
    for j, k in enumerate(("ax", "ay", "az")):
        np.testing.assert_array_equal(_bits(s.accel[:, j]), _bits(rec[k]))
    for j, k in enumerate(("gx", "gy", "gz")):
        np.testing.assert_array_equal(_bits(s.gyro[:, j]), _bits(rec[k]))


def test_written_file_parses_to_the_same_floats_with_stdlib_json(tmp_path):
    ds = generate_synthetic(2, 2, seed=11)
    ds.samples[0].accel[: len(TRICKY), 0] = TRICKY
    p = tmp_path / "new.jsonl"
    write_dataset(ds, p)
    lines = p.read_bytes().splitlines()
    assert len(lines) == len(ds.samples)
    for line, s in zip(lines, ds.samples):
        rec = json.loads(line)
        assert tuple(rec) == RECORD_KEYS
        assert (rec["device_id"], rec["sample_id"]) == (s.device_id, s.sample_id)
        np.testing.assert_array_equal(_bits(rec["t"]), _bits(s.timestamps))
        got = np.column_stack([rec[k] for k in ("ax", "ay", "az", "gx", "gy", "gz")])
        np.testing.assert_array_equal(_bits(got), _bits(np.hstack([s.accel, s.gyro])))


def test_non_ascii_ids_and_strided_arrays_round_trip(tmp_path):
    # orjson refuses strided arrays; the writer copies them
    n = 500
    wide = np.random.default_rng(3).normal(size=(2 * n, 7))
    t = (np.arange(2 * n) / 200.0)[::2]
    sample = RawSample("gerät-ü", "s—1 😀", t, wide[::2, ::3], wide[1::2, 1:4])
    assert not (sample.timestamps.flags.c_contiguous or sample.accel.flags.c_contiguous)
    ds = Dataset()
    ds.add(sample)
    p = tmp_path / "views.jsonl"
    write_dataset(ds, p)
    assert "gerät-ü".encode() in p.read_bytes()  # raw UTF-8, not \u escapes
    (back,) = load_dataset(p).samples
    assert (back.device_id, back.sample_id) == ("gerät-ü", "s—1 😀")
    for a, b in ((back.timestamps, t), (back.accel, sample.accel), (back.gyro, sample.gyro)):
        np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("literal", ["18446744073709551617", "1.5", "true"])
def test_id_must_be_a_string_or_an_integer(tmp_path, literal):
    # orjson reads an integer past 64 bits as a float, so two such ids could
    # merge into one device; floats and booleans are refused as ids
    p = tmp_path / "ids.jsonl"
    with open(p, "w") as fh:
        fh.write(json.dumps(make_record(sample_id="s1")) + "\n")
        fh.write(json.dumps(make_record(sample_id="s2")).replace('"d1"', literal) + "\n")
    with pytest.raises(ValueError, match="line 2: 'device_id' must be a string or an integer"):
        load_dataset(p)


def test_integer_id_loads_as_its_digits(tmp_path):
    p = tmp_path / "ids.jsonl"
    write_jsonl(p, [make_record(device_id=7, sample_id=8)])
    (s,) = load_dataset(p).samples
    assert (s.device_id, s.sample_id) == ("7", "8")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e400", "int400"])
def test_non_finite_literals_are_malformed_records(tmp_path, literal):
    # stdlib json parsed the first four to non-finite floats ("non-finite
    # readings") and the integer to an OverflowError; strict JSON has none
    p = tmp_path / "bad.jsonl"
    with open(p, "w") as fh:
        fh.write(json.dumps(make_record(sample_id="s1")) + "\n")
        fh.write(json.dumps(make_record(sample_id="s2")).replace('"ay": [0.0', '"ay": [' + literal) + "\n")
    with pytest.raises(ValueError, match="line 2: malformed record"):
        load_dataset(p)


def test_countermeasure_key_of_older_files_is_ignored(tmp_path):
    # older versions tagged records with the defense that rewrote them; the
    # tag was checked (a string or null, one per file) but never read
    records = [make_record("d1", "s1"), make_record("d1", "s2", n=450), make_record("d2", "s1")]
    plain = tmp_path / "plain.jsonl"
    write_jsonl(plain, records)
    expected = load_dataset(plain)
    for tags in (["quantize"] * 3, [None] * 3, [[1]] * 3, [{}] * 3,
                 ["quantize", "obfuscate", None]):
        p = tmp_path / "tagged.jsonl"
        write_jsonl(p, [{**rec, "countermeasure": tag} for rec, tag in zip(records, tags)])
        loaded = load_dataset(p)
        assert loaded.index == expected.index
        for a, b in zip(loaded.samples, expected.samples):
            for x, y in ((a.timestamps, b.timestamps), (a.accel, b.accel), (a.gyro, b.gyro)):
                np.testing.assert_array_equal(_bits(x), _bits(y))


def test_generate_zero_devices_is_empty():
    ds = generate_synthetic(0, 5, seed=42)
    assert len(ds.index) == 0
    assert len(ds.samples) == 0


def test_generate_negative_count_rejected():
    with pytest.raises(ValueError):
        generate_synthetic(-1, 5)


def test_generate_same_seed_byte_identical(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset(generate_synthetic(4, 3, seed=123), p1)
    write_dataset(generate_synthetic(4, 3, seed=123), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_different_seeds_differ(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset(generate_synthetic(2, 2, seed=1), p1)
    write_dataset(generate_synthetic(2, 2, seed=2), p2)
    assert p1.read_bytes() != p2.read_bytes()


def test_generated_samples_satisfy_invariants():
    ds = generate_synthetic(5, 4, seed=99)
    assert len(ds.index) == 5
    assert len(ds.samples) == 20
    for s in ds.samples:
        s.validate()  # raises on any violation
        assert 90.0 <= s.mean_rate <= 110.0
        assert 4.9 <= s.duration <= 5.1


def test_offset_z_shift_separates_magnitude_means():
    # Two devices identical except accel_offset_z differs by 1.0 m/s^2, with
    # noise sigma 0.01. Mean |a| per sample is ~= 9.81 + offset_z (cross-axis
    # noise enters only at second order, ~sigma^2 / (2 * 9.81) ~ 5e-6), and the
    # mean over ~500 readings has std ~ 0.01 / sqrt(500) < 5e-4. So the gap
    # between the two devices' per-sample means must stay close to 1.0 and
    # certainly above 0.5.
    base = dict(
        accel_gain=np.ones(3),
        gyro_offset=np.zeros(3),
        noise_sigma_accel=0.01,
        noise_sigma_gyro=0.002,
    )
    dev_a = DeviceModel(accel_offset=np.array([0.0, 0.0, 0.0]), **base)
    dev_b = DeviceModel(accel_offset=np.array([0.0, 0.0, 1.0]), **base)
    rng = np.random.default_rng(5)
    means_a = []
    means_b = []
    for j in range(5):
        sa = synthesize_sample(dev_a, rng, "a", f"s{j}")
        sb = synthesize_sample(dev_b, rng, "b", f"s{j}")
        means_a.append(np.mean(np.linalg.norm(sa.accel, axis=1)))
        means_b.append(np.mean(np.linalg.norm(sb.accel, axis=1)))
    margin = min(means_b) - max(means_a)
    assert margin > 0.5
    assert abs(np.mean(means_b) - np.mean(means_a) - 1.0) < 0.01


def test_device_model_rejects_nonpositive_gain():
    with pytest.raises(ValueError, match="gain"):
        DeviceModel(
            accel_gain=np.array([1.0, 0.0, 1.0]),
            accel_offset=np.zeros(3),
            gyro_offset=np.zeros(3),
            noise_sigma_accel=0.02,
            noise_sigma_gyro=0.002,
        )


@pytest.mark.parametrize("field, value", [
    ("accel_gain", (1.05, 0.95)),
    ("accel_gain", (0.0, 1e-9)),
    ("accel_offset", (-np.inf, 0.0)),
    ("gyro_offset", (0.05, -0.05)),
    ("noise_sigma_accel", np.nan),
    ("noise_sigma_gyro", -1.0),
], ids=["gain_reversed", "gain_lo_zero", "offset_infinite", "gyro_reversed", "accel_sigma_nan",
        "gyro_sigma_negative"])
def test_device_prior_refuses_bad_values_at_construction(field, value):
    # a prior built in code is held to the rules the synth flags are
    with pytest.raises(ValueError, match=f"device prior {field!r}"):
        DevicePrior(**{field: value})


def test_underpopulated_devices_flagged():
    ds = Dataset()
    ds.add(RawSample("d1", "s1", np.arange(500) / 100.0, np.zeros((500, 3)), np.zeros((500, 3))))
    ds.add(RawSample("d2", "s1", np.arange(500) / 100.0, np.zeros((500, 3)), np.zeros((500, 3))))
    ds.add(RawSample("d2", "s2", np.arange(500) / 100.0, np.zeros((500, 3)), np.zeros((500, 3))))
    assert ds.underpopulated_devices() == ["d1"]


def _still(device_id, sample_id):
    return RawSample(device_id, sample_id, np.arange(500) / 100.0,
                     np.zeros((500, 3)), np.zeros((500, 3)))


def test_constructor_samples_go_through_add(tmp_path):
    given = [_still("d1", "s1"), _still("d2", "s1"), _still("d1", "s2")]
    ds = Dataset(samples=given)
    assert ds.index == {"d1": ["s1", "s2"], "d2": ["s1"]}
    assert ds.samples == given and ds.samples is not given  # the caller's list is not kept
    p = tmp_path / "built.jsonl"
    write_dataset(ds, p)
    assert load_dataset(p).index == ds.index


def test_constructor_refuses_a_duplicate_and_takes_no_index():
    s = _still("d1", "s1")
    with pytest.raises(ValueError, match="duplicate sample id 's1' for device 'd1'"):
        Dataset(samples=[s, s])
    with pytest.raises(TypeError):
        Dataset(index={"d1": ["s1"]})
