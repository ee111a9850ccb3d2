"""Tests for synthesis, binary formats, and task splitting."""
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfclab import data as D
from hfclab.seeding import stream_seed


def small_spec(**overrides):
    base = dict(classes=4, samples_per_class=6, side=8, channels=1,
                class_noise=(0.0, 0.02, 0.05, 0.05), seed=7)
    base.update(overrides)
    return D.SyntheticBlock(**base)


def nearest_template_accuracy(dataset: D.Dataset, spec: D.SyntheticBlock) -> float:
    """1-NN against the class templates; the difficulty oracle for synthesis."""
    templates = np.stack([D.class_template(spec, c).reshape(-1)
                          for c in range(spec.classes)])
    flat = dataset.images.reshape(len(dataset), -1)
    dists = ((flat[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2)
    return float((dists.argmin(axis=1) == dataset.labels).mean())


# ---------------------------------------------------------------------------
# synthetic generation


def test_zero_noise_reproduces_template_exactly():
    spec = small_spec(class_noise=(0.0,) * 4)
    ds = D.generate_synthetic(spec)
    for cls in range(spec.classes):
        template = D.class_template(spec, cls)
        for i in np.flatnonzero(ds.labels == cls):
            np.testing.assert_array_equal(ds.images[i], template)


def test_same_seed_gives_identical_dataset():
    a = D.generate_synthetic(small_spec())
    b = D.generate_synthetic(small_spec())
    assert a.images.tobytes() == b.images.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_different_seed_changes_dataset():
    a = D.generate_synthetic(small_spec())
    b = D.generate_synthetic(small_spec(seed=8))
    assert a.images.tobytes() != b.images.tobytes()


def test_low_noise_classes_match_templates():
    spec = D.SyntheticBlock(classes=6, samples_per_class=10, side=16,
                            class_noise=(0.05,) * 6, seed=3)
    ds = D.generate_synthetic(spec)
    assert nearest_template_accuracy(ds, spec) > 0.95


def test_difficulty_monotone_in_noise_on_average():
    means = []
    for sigma in (0.02, 0.3, 0.6):
        accs = []
        for seed in (11, 12, 13):
            spec = D.SyntheticBlock(classes=6, samples_per_class=12, side=16,
                                    class_noise=(sigma,) * 6, seed=seed)
            accs.append(nearest_template_accuracy(D.generate_synthetic(spec), spec))
        means.append(np.mean(accs))
    assert means[0] >= means[1] >= means[2]
    assert means[0] > means[2]


# sha256 of images.tobytes() and labels.tobytes(). Every generated dataset
# depends on these bytes, so a rewrite of the generator keeps them; one that
# does not is a declared change to every synthetic run.
# train and test draw from one block
RGB8 = D.SyntheticBlock(classes=3, samples_per_class=5, test_samples_per_class=5, side=8,
                        channels=3, class_noise=(0.0, 0.05, 1.0), seed=7)
GENERATOR_SHA256 = [
    (RGB8, "train",
     "17d45834ac658550ffb7bac3ef75d13326421dad2bc191cbb0644dcf5574ae39",
     "1f7e87a6d594c144e19148b8bca76ba8fddaf9d67dac688d626ed5ae17421734"),
    (RGB8, "test",
     "b5778ce3e654d6163cc778bfffee6f72efd4d3eef6e193556eb0d95a4a9aea50",
     "1f7e87a6d594c144e19148b8bca76ba8fddaf9d67dac688d626ed5ae17421734"),
    (D.SyntheticBlock(classes=4, samples_per_class=6, side=16, channels=1,
                      class_noise=(0.02, 0.3, 0.0, 0.12), seed=11), "train",
     "8004a0e38d3150839e139a804782866797246a05afb1a0ccb281e3c7ad974633",
     "b712b461082675ff9abb37d124bf685fbff24d77ac2e559f6b875e4da33a606f"),
    (D.SyntheticBlock(classes=2, samples_per_class=3, test_samples_per_class=3, side=16,
                      channels=3, class_noise=(0.3, 0.0), seed=5), "test",
     "9fdea68829ad1f376b68743b06dd29dfb3d743f0c60dad37d321ac3be41a1003",
     "0020bd656ca1c80cc5854d42f68b0ba484c370f6c4757fcb0809168482318e6e"),
    # the directional experiment's training set
    (D.SyntheticBlock(classes=10, samples_per_class=60, side=16,
                      class_noise=tuple(np.linspace(0.02, 0.3, 10)), seed=3), "train",
     "9cd59e89daf555840c41427b815fd4935e66b32f29e76195c7ba5b3f2de264d9",
     "cab70c4e3ef902db48e7dd505a614a4168ffea6af26cddfab1bca9e94600005b"),
]


@pytest.mark.parametrize("block, split, images_sha256, labels_sha256", GENERATOR_SHA256,
                         ids=["rgb8-train", "rgb8-test", "gray16-train", "rgb16-test",
                              "directional16-train"])
def test_generator_matches_the_pinned_hashes(block, split, images_sha256, labels_sha256):
    ds = D.generate_synthetic(block, split)
    assert hashlib.sha256(ds.images.tobytes()).hexdigest() == images_sha256
    assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == labels_sha256


def test_pixels_stay_in_unit_interval():
    ds = D.generate_synthetic(small_spec(class_noise=(0.4,) * 4))
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_spec_rejects_negative_noise():
    with pytest.raises(ValueError, match="noise levels must be nonnegative"):
        D.generate_synthetic(small_spec(class_noise=(-0.1, 0, 0, 0)))


@pytest.mark.parametrize("overrides, split, message", [
    ({"seed": None}, "train", "the dataset seed must be set"),
    ({}, "validation", "split must be 'train' or 'test', got 'validation'"),
    ({"class_noise": (0.05,) * 3}, "train", "class_noise needs 4 entries, got 3"),
], ids=["no-seed", "unknown-split", "short-noise"])
def test_generator_refuses_a_block_it_cannot_draw(overrides, split, message):
    with pytest.raises(ValueError, match=message):
        D.generate_synthetic(small_spec(**overrides), split)


@pytest.mark.parametrize("overrides, message", [
    ({"classes": 0}, "classes must be at least 1, got 0"),
    ({"test_samples_per_class": 0}, "test_samples_per_class must be at least 1, got 0"),
    ({"class_noise": (0.05,) * 2}, "class_noise needs 4 entries, got 2"),
    ({"class_noise": (0.05, -0.1, 0.05, 0.05)},
     "class_noise levels must be nonnegative, got -0.1"),
], ids=["no-classes", "no-test-samples", "short-noise", "negative-noise"])
def test_synthetic_block_refuses_its_own_out_of_range_values(overrides, message):
    with pytest.raises(ValueError) as refused:
        small_spec(**overrides)
    assert str(refused.value) == message


def test_class_template_refuses_a_block_without_a_seed():
    with pytest.raises(ValueError, match="the dataset seed must be set"):
        D.class_template(D.SyntheticBlock(classes=2, samples_per_class=1), 0)


def test_importing_data_loads_no_trainer_model_or_autodiff():
    code = ("import sys, hfclab.data; print(sorted(m for m in ('hfclab.continual', "
            "'hfclab.model', 'hfclab.autodiff') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(D.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_dataset_rejects_missing_class():
    with pytest.raises(ValueError):
        D.Dataset(np.zeros((2, 1, 4, 4)), np.array([0, 0]), n_classes=2)


# ---------------------------------------------------------------------------
# CIFAR-100-format binary records


def cifar_fixture_bytes(n=50, seed=0):
    rng = np.random.default_rng(seed)
    records = np.empty((n, D.CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 20, size=n)
    records[:, 1] = rng.integers(0, 100, size=n)
    records[:, 2:] = rng.integers(0, 256, size=(n, 3072))
    return records.tobytes()


def test_record_roundtrip_is_byte_exact(tmp_path):
    blob = cifar_fixture_bytes()
    src = tmp_path / "train.bin"
    src.write_bytes(blob)
    coarse, fine, pixels = D.read_label_records(src)
    assert len(fine) == 50
    dst = tmp_path / "rewritten.bin"
    D.write_label_records(dst, coarse, fine, pixels)
    assert dst.read_bytes() == blob


def test_record_count_follows_file_size(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(cifar_fixture_bytes(n=7))
    _, fine, _ = D.read_label_records(path)
    assert len(fine) == 7
    assert np.all(fine < 100)


def bad_records(case):
    """(coarse, fine, pixels) for three records, with the one argument `case` names spoiled."""
    coarse, fine = np.zeros(3, np.uint8), np.arange(3, dtype=np.uint8)
    pixels = (np.arange(3 * 3072) % 256).astype(np.uint8).reshape(3, 3, 32, 32)
    spoiled = {
        "coarse-300": (np.array([0, 300, 1]), fine, pixels),
        "fine-150": (coarse, np.array([0, 1, 150]), pixels),
        "fine-negative": (coarse, np.array([0, -1, 2]), pixels),
        "float-labels": (coarse, np.array([0.0, 1.0, 2.0]), pixels),
        "short-coarse": (coarse[:2], fine, pixels),
        "float-pixels": (coarse, fine, np.full(pixels.shape, 0.7)),
        "short-pixels": (coarse, fine, pixels[:2]),
        "flat-pixels": (coarse, fine, pixels.reshape(3, 3072)),
        "no-records": (coarse[:0], fine[:0], pixels[:0]),
    }
    return spoiled.get(case, (coarse, fine, pixels))


# each case was written before, and then misread or refused by read_label_records
@pytest.mark.parametrize("case, message", [
    ("coarse-300", r"coarse label 300 at record 1 is outside \[0, 100\)"),
    ("fine-150", r"fine label 150 at record 2"),
    ("fine-negative", r"fine label -1 at record 1"),
    ("float-labels", r"fine must be 3 integer labels, got float64"),
    ("short-coarse", r"coarse must be 3 integer labels, got uint8 of shape \(2,\)"),
    ("float-pixels", r"pixels must be uint8 of shape \(3, 3, 32, 32\), got float64"),
    ("short-pixels", r"pixels must be .*, got uint8 of shape \(2, 3, 32, 32\)"),
    ("flat-pixels", r"pixels must be .*, got uint8 of shape \(3, 3072\)"),
    ("no-records", r"fine holds no records"),
])
def test_write_label_records_refuses_what_the_reader_would_not_read_back(tmp_path, case,
                                                                         message):
    path = tmp_path / "records.bin"
    with pytest.raises(ValueError, match=message):
        D.write_label_records(path, *bad_records(case))
    assert not path.exists()
    D.write_label_records(path, *bad_records(None))  # unspoiled, they round-trip
    coarse, fine, pixels = D.read_label_records(path)
    for read, written in zip((coarse, fine, pixels), bad_records(None)):
        np.testing.assert_array_equal(read, written)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(cifar_fixture_bytes(n=3)[:-1])
    with pytest.raises(ValueError, match="multiple"):
        D.read_label_records(path)


def test_out_of_range_label_rejected_with_offset(tmp_path):
    blob = bytearray(cifar_fixture_bytes(n=3))
    blob[D.CIFAR_RECORD_BYTES + 1] = 200  # fine label of record 1
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as exc:
        D.read_label_records(path)
    assert str(D.CIFAR_RECORD_BYTES + 1) in str(exc.value)


def class_complete_fixture(n, seed):
    """Fixture whose fine labels cycle through all 100 classes."""
    blob = bytearray(cifar_fixture_bytes(n=n, seed=seed))
    for i in range(n):
        blob[i * D.CIFAR_RECORD_BYTES + 1] = i % 100
    return bytes(blob)


def test_loader_scales_pixels_and_uses_fine_labels(tmp_path):
    train_path = tmp_path / "train.bin"
    train_path.write_bytes(class_complete_fixture(200, seed=2))
    test_path = tmp_path / "test.bin"
    test_path.write_bytes(class_complete_fixture(100, seed=3))
    train, test = D.load_cifar100_binary(train_path, test_path)
    assert train.images.shape == (200, 3, 32, 32)
    assert test.images.shape == (100, 3, 32, 32)
    # pixels stay bytes; the model scales them by 1/255 per forward batch
    assert train.images.dtype == np.uint8
    scaled = train.images / 255.0
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0
    assert train.n_classes == 100
    np.testing.assert_array_equal(train.labels[:5], [0, 1, 2, 3, 4])
    # spot-check one pixel against the raw bytes
    raw = train_path.read_bytes()
    assert train.images[0, 0, 0, 0] == raw[2]
    assert scaled[0, 0, 0, 0] == raw[2] / 255.0


@pytest.mark.parametrize("missing_split, label", [("train", 10), ("test", 37)])
def test_loader_names_the_file_and_first_missing_fine_label(tmp_path, missing_split, label):
    paths = {}
    for split in ("train", "test"):
        blob = bytearray(class_complete_fixture(100, seed=4))
        if split == missing_split:
            for i in range(label, 100):  # leave only labels below `label`
                blob[i * D.CIFAR_RECORD_BYTES + 1] = i % label
        paths[split] = tmp_path / f"{split}.bin"
        paths[split].write_bytes(bytes(blob))
    with pytest.raises(ValueError) as exc:
        D.load_cifar100_binary(paths["train"], paths["test"])
    assert str(paths[missing_split]) in str(exc.value)
    assert f"fine label {label}" in str(exc.value)


def every_byte_fixture(n=100):
    """Class-complete records whose pixels hold all 256 byte values."""
    blob = bytearray(class_complete_fixture(n, seed=5))
    blob[2:2 + 256] = bytes(range(256))
    return bytes(blob)


def test_both_loaders_keep_one_byte_per_pixel(tmp_path):
    cifar = tmp_path / "cifar.bin"
    cifar.write_bytes(class_complete_fixture(100, seed=6))
    flat = tmp_path / "flat.bin"
    D.save_dataset_binary(D.generate_synthetic(small_spec(channels=3)), flat)
    loaded = [*D.load_cifar100_binary(cifar, cifar), D.load_dataset_binary(flat)]
    for ds in loaded:
        assert ds.images.dtype == np.uint8
        assert ds.images.nbytes == len(ds) * ds.channels * ds.side * ds.side
    assert (loaded[2].channels, loaded[2].side) == (3, 8)


def test_cifar_pixels_survive_the_flat_binary_unchanged(tmp_path):
    cifar = tmp_path / "cifar.bin"
    cifar.write_bytes(every_byte_fixture())
    train, _ = D.load_cifar100_binary(cifar, cifar)
    assert np.unique(train.images).size == 256
    flat = tmp_path / "flat.bin"
    D.save_dataset_binary(train, flat)
    loaded = D.load_dataset_binary(flat)
    assert loaded.images.dtype == np.uint8
    np.testing.assert_array_equal(loaded.images, train.images)
    np.testing.assert_array_equal(loaded.labels, train.labels)


# ---------------------------------------------------------------------------
# flat binary export


def test_dataset_binary_roundtrip(tmp_path):
    ds = D.generate_synthetic(small_spec())
    path = tmp_path / "ds.bin"
    D.save_dataset_binary(ds, path)
    loaded = D.load_dataset_binary(path)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.images.dtype == np.uint8
    # uint8 quantization: within half a step
    assert np.max(np.abs(loaded.images / 255.0 - ds.images)) <= 0.5 / 255.0 + 1e-12
    # byte-level: saving the loaded dataset reproduces the file
    path2 = tmp_path / "ds2.bin"
    D.save_dataset_binary(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("claimed, message", [
    (2, "label outside"),
    (5, "every class needs at least one sample"),
    (25, "25 classes but only 24 samples"),
    (0, "n_classes must be at least 1, got 0"),
])
def test_dataset_binary_names_the_file_when_header_classes_disagree(tmp_path, claimed,
                                                                   message):
    path = tmp_path / "ds.bin"
    D.save_dataset_binary(D.generate_synthetic(small_spec()), path)  # 4 classes, 24 samples
    blob = bytearray(path.read_bytes())
    blob[12:16] = claimed.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=rf"ds\.bin: .*{message}"):
        D.load_dataset_binary(path)


def dataset_file_bytes(n, n_classes, side, channels, version=D.DATASET_VERSION):
    """A flat binary whose size matches its header: labels cycle through the classes."""
    labels = np.arange(n) % max(n_classes, 1)
    return (D.DATASET_MAGIC + struct.pack("<IIIII", version, n, n_classes, side, channels)
            + labels.astype("<u2").tobytes() + bytes(n * channels * side * side))


@pytest.mark.parametrize("n, n_classes, side, channels, message", [
    (4, 2, 0, 1, "side must be at least 1, got 0"),
    (4, 2, 4, 0, "channels must be at least 1, got 0"),
    (4, 2, 0, 0, "channels must be at least 1, got 0"),
    (0, 0, 4, 1, "n_classes must be at least 1, got 0"),
])
def test_dataset_binary_names_the_file_when_header_extents_are_zero(tmp_path, n, n_classes,
                                                                   side, channels, message):
    path = tmp_path / "ds.bin"
    path.write_bytes(dataset_file_bytes(n, n_classes, side, channels))
    with pytest.raises(ValueError, match=rf"ds\.bin: {message}"):
        D.load_dataset_binary(path)


def test_dataset_binary_refuses_more_classes_than_u16_labels_hold(tmp_path):
    n = 2**16 + 1  # label 65,536 would be stored as 0
    dataset = D.Dataset(np.zeros((n, 1, 1, 1), np.uint8), np.arange(n), n)
    path = tmp_path / "ds.bin"
    with pytest.raises(ValueError, match="n_classes 65537"):
        D.save_dataset_binary(dataset, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [2.0, -0.1, float("nan"), float("inf")])
def test_dataset_binary_refuses_float_pixels_outside_the_unit_range(tmp_path, value):
    images = np.full((4, 1, 2, 2), 0.5)
    images[2, 0, 1, 0] = value  # round(2.0 * 255) would be stored as 254
    dataset = D.Dataset(images, [0, 1, 0, 1], 2)
    path = tmp_path / "ds.bin"
    with pytest.raises(ValueError, match=r"range \[0, 1\]; sample 2 holds"):
        D.save_dataset_binary(dataset, path)
    assert not path.exists()


def test_dataset_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ValueError, match="magic"):
        D.load_dataset_binary(path)


# ---------------------------------------------------------------------------
# task splitting


def test_equal_split_shapes():
    stream = D.split_tasks(D.StreamBlock(5, 0.0, class_order_seed=1), 100, 0)
    assert stream.task_sizes == [20] * 5
    assert stream.n_tasks == 5


def test_half_base_split_shapes():
    stream = D.split_tasks(D.StreamBlock(5, 0.5, class_order_seed=1), 100, 0)
    assert stream.task_sizes == [50, 10, 10, 10, 10, 10]
    assert stream.n_tasks == 6


def test_split_disjoint_and_exhaustive():
    stream = D.split_tasks(D.StreamBlock(4, 0.0, class_order_seed=9), 12, 0)
    spaces = stream.label_spaces()
    seen = [c for space in spaces for c in space]
    assert sorted(seen) == list(range(12))
    flat_orig = [stream.class_order[c] for c in seen]
    assert sorted(flat_orig) == list(range(12))


def test_split_is_pure_function_of_seed():
    a = D.split_tasks(D.StreamBlock(4, 0.0, class_order_seed=5), 20, 0)
    b = D.split_tasks(D.StreamBlock(4, 0.0, class_order_seed=5), 20, 0)
    c = D.split_tasks(D.StreamBlock(4, 0.0, class_order_seed=6), 20, 0)
    assert a.class_order == b.class_order
    assert a.class_order != c.class_order


def test_split_rejects_indivisible():
    with pytest.raises(ValueError, match="10 classes do not divide into 3 equal tasks"):
        D.split_tasks(D.StreamBlock(3, 0.0, class_order_seed=0), 10, 0)
    with pytest.raises(ValueError, match="5 remaining classes do not divide into 4 tasks"):
        D.split_tasks(D.StreamBlock(4, 0.5, class_order_seed=0), 10, 0)
    with pytest.raises(ValueError, match="base_fraction must be 0.0 or 0.5, got 0.3"):
        D.split_tasks(D.StreamBlock(2, 0.3, class_order_seed=0), 10, 0)


@pytest.mark.parametrize("tasks, base_fraction, message", [
    (0, 0.0, "tasks must be at least 1, got 0"),
    (2, 0.3, "base_fraction must be 0.0 or 0.5, got 0.3"),
], ids=["no-tasks", "third-base"])
def test_stream_block_refuses_a_split_it_cannot_cut(tasks, base_fraction, message):
    with pytest.raises(ValueError, match=message):
        D.StreamBlock(tasks, base_fraction)


def test_split_without_a_class_order_seed_derives_it_from_the_master_seed():
    derived = D.split_tasks(D.StreamBlock(4), 20, 7)
    explicit = D.StreamBlock(4, class_order_seed=stream_seed(7, "class-order-root"))
    assert derived == D.split_tasks(explicit, 20, 99)
    assert derived != D.split_tasks(D.StreamBlock(4), 20, 8)


def test_dataset_binary_rejects_cut_off_header_with_offset(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"HFCD\x01\x00")
    with pytest.raises(ValueError, match=r"short\.bin: header cut off at byte offset 6"):
        D.load_dataset_binary(path)


# ---------------------------------------------------------------------------
# fuzzing the two binary readers: any input loads or raises ValueError


FUZZ = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])


def load_or_none(load, path, blob: bytes):
    """Load `blob` from `path`; None if the loader raised ValueError. Any other
    exception fails the calling test."""
    path.write_bytes(blob)
    try:
        return load(path)
    except ValueError:
        return None


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=2 * D.CIFAR_RECORD_BYTES + 3),
    st.integers(1, 3).flatmap(lambda n: st.binary(min_size=n * D.CIFAR_RECORD_BYTES,
                                                  max_size=n * D.CIFAR_RECORD_BYTES)),
    st.integers(0, 2 * D.CIFAR_RECORD_BYTES).map(lambda cut: cifar_fixture_bytes(n=2)[:cut]),
))
def test_fuzzed_cifar_records_parse_or_raise_value_error(tmp_path, blob):
    parsed = load_or_none(D.read_label_records, tmp_path / "r.bin", blob)
    if parsed is not None:
        coarse, fine, pixels = parsed
        n = len(blob) // D.CIFAR_RECORD_BYTES
        assert pixels.dtype == np.uint8 and pixels.shape == (n, 3, 32, 32)
        assert coarse.max() < D.CIFAR_CLASSES and fine.max() < D.CIFAR_CLASSES


header_counts = st.one_of(st.integers(0, 6), st.sampled_from([2**16, 2**31, 2**32 - 1]))


@st.composite
def dataset_blobs(draw):
    """Random HFCD headers over random bodies, or well-formed files with one byte
    overwritten at random."""
    if draw(st.booleans()):
        version = draw(st.one_of(st.just(D.DATASET_VERSION), st.integers(0, 2**32 - 1)))
        n, n_classes, side, channels = (draw(header_counts) for _ in range(4))
        header = D.DATASET_MAGIC + struct.pack("<IIIII", version, n, n_classes, side, channels)
        size = 2 * n + n * channels * side * side
        if size <= 4096 and draw(st.booleans()):
            return header + draw(st.binary(min_size=size, max_size=size))
        return header + draw(st.binary(max_size=64))
    n_classes = draw(st.integers(1, 4))
    n = draw(st.integers(n_classes, 8))
    side, channels = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    blob = bytearray(dataset_file_bytes(n, n_classes, side, channels))
    pixel_bytes = n * channels * side * side
    blob[-pixel_bytes:] = draw(st.binary(min_size=pixel_bytes, max_size=pixel_bytes))
    if draw(st.booleans()):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=64),
    dataset_blobs(),
    st.integers(0, len(dataset_file_bytes(4, 2, 4, 3))).map(
        lambda cut: dataset_file_bytes(4, 2, 4, 3)[:cut]),
))
def test_fuzzed_dataset_binaries_load_or_raise_value_error(tmp_path, blob):
    ds = load_or_none(D.load_dataset_binary, tmp_path / "ds.bin", blob)
    if ds is not None:
        assert ds.images.dtype == np.uint8
        assert len(ds) > 0 and ds.channels > 0 and ds.side > 0 and ds.n_classes > 0
