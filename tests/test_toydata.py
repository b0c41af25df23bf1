"""Dataset generator, renderers, rule labeler and the dataset checkpoint's
round trip."""

import hashlib
import itertools
import json
import struct

import numpy as np
import pytest

from crossgen import toydata as td
from crossgen.checkpoint import load_checkpoint, save_checkpoint
from crossgen.errors import ArtifactError, ConfigError


def zero_factors(intensity=0.8):
    return np.array([0.0, 0.0, intensity])


def all_label_vectors():
    for bits in itertools.product((0, 1), repeat=td.NUM_CONDITIONS):
        yield np.array(bits, dtype=np.uint8)


def _save(ds, path):
    """Write ``ds`` as the checkpoint of stage "dataset" at ``path``."""
    save_checkpoint(path, "dataset", "00" * 32, *td.save_dataset(ds))
    return path


def _load(path):
    ck = load_checkpoint(path, "dataset")
    return td.load_dataset(ck["arrays"], ck["metadata"])


def test_same_seed_gives_byte_identical_datasets(tmp_path):
    a = _save(td.generate_dataset(seed=11, n=30), tmp_path / "a.xgck")
    b = _save(td.generate_dataset(seed=11, n=30), tmp_path / "b.xgck")
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_differs(tmp_path):
    a = _save(td.generate_dataset(seed=1, n=30), tmp_path / "a.xgck")
    b = _save(td.generate_dataset(seed=2, n=30), tmp_path / "b.xgck")
    assert a.read_bytes() != b.read_bytes()


def test_default_rates_match_profile_at_10k():
    # Table-style imbalance profile; +/- 2% absolute at n=10,000.
    ds = td.generate_dataset(seed=5, n=10_000)
    labels = np.stack([r.labels for r in ds.records])
    freq = labels.mean(axis=0)
    np.testing.assert_allclose(freq, td.DEFAULT_POSITIVE_RATES, atol=0.02)


def test_record_invariants_small_dataset():
    ds = td.generate_dataset(seed=3, n=10, positive_rates=[0.5] * 5)
    for rec in ds.records:
        assert rec.view_a.min() >= 0.0 and rec.view_a.max() <= 1.0
        assert rec.view_b.min() >= 0.0 and rec.view_b.max() <= 1.0
        assert len(rec.report) <= td.MAX_REPORT_LEN
        assert all(tok in td.TOKEN_TO_ID for tok in rec.report)
        np.testing.assert_array_equal(td.rule_label_text(rec.report), rec.labels)
        va, vb = td.render_views(rec.labels, rec.factors)
        np.testing.assert_array_equal(va, rec.view_a)
        np.testing.assert_array_equal(vb, rec.view_b)


def test_degenerate_rates_rejected():
    with pytest.raises(ConfigError):
        td.generate_dataset(seed=0, n=20, positive_rates=[0.5, 0.5, 1.0, 0.5, 0.5])
    with pytest.raises(ConfigError):
        td.generate_dataset(seed=0, n=20, positive_rates=[0.0, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ConfigError):
        td.generate_dataset(seed=0, n=5)


def test_splits_disjoint_and_exhaustive():
    ds = td.generate_dataset(seed=9, n=103)
    parts = [set(ds.split[k].tolist()) for k in ("train", "val", "test")]
    assert sum(len(p) for p in parts) == 103
    assert set().union(*parts) == set(range(103))
    assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) and not (parts[1] & parts[2])


def test_all_zero_labels_render_fixed_background():
    va, vb = td.render_views(np.zeros(5, dtype=np.uint8), zero_factors())
    np.testing.assert_array_equal(va, td.BACKGROUND)
    np.testing.assert_array_equal(vb, td.BACKGROUND)


def test_single_condition_changes_only_its_box():
    base = np.zeros(5, dtype=np.uint8)
    for k in range(5):
        on = base.copy()
        on[k] = 1
        for view, off_img, on_img in zip(
                ("view_a", "view_b"),
                td.render_views(base, zero_factors()),
                td.render_views(on, zero_factors())):
            diff = off_img != on_img
            r0, r1, c0, c1 = td.condition_box(k, view)
            outside = diff.copy()
            outside[r0:r1, c0:c1] = False
            assert not outside.any(), f"condition {k} leaked outside its {view} box"
            assert diff[r0:r1, c0:c1].any()


def test_factorial_label_vectors_distinct_patterns():
    # all 2^5 label vectors give distinct view_a images (background excluded)
    seen = {}
    for bits in all_label_vectors():
        va, _ = td.render_views(bits, zero_factors())
        key = (va - td.BACKGROUND).tobytes()
        assert key not in seen, f"collision between {bits} and {seen.get(key)}"
        seen[key] = tuple(bits)
    assert len(seen) == 32


def test_rendering_pure_across_calls():
    labels = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    factors = np.array([0.7, -1.2, 0.4])
    a1 = td.render_views(labels, factors)
    a2 = td.render_views(labels, factors)
    np.testing.assert_array_equal(a1[0], a2[0])
    np.testing.assert_array_equal(a1[1], a2[1])


def test_report_no_findings_phrase():
    report = td.render_report(np.zeros(5, dtype=np.uint8), style_seed=4)
    toks = list(report)
    i = toks.index("no")
    assert toks[i + 1] == "findings"
    for name in td.CONDITIONS:
        assert name not in toks


def test_report_contains_condition_phrase_once():
    labels = np.array([0, 0, 1, 0, 0], dtype=np.uint8)
    report = td.render_report(labels, style_seed=17)
    assert list(report).count(td.CONDITIONS[2]) == 1


def test_report_roundtrip_all_labels_and_seeds():
    for bits in all_label_vectors():
        for seed in (0, 1, 37, 71):
            rep = td.render_report(bits, seed)
            np.testing.assert_array_equal(td.rule_label_text(rep), bits)


def test_labeler_empty_and_negation():
    np.testing.assert_array_equal(td.rule_label_text(()), np.zeros(5, dtype=np.uint8))
    np.testing.assert_array_equal(
        td.rule_label_text(("no", td.CONDITIONS[3], "marker")),
        np.zeros(5, dtype=np.uint8))
    np.testing.assert_array_equal(
        td.rule_label_text(("junktoken", td.CONDITIONS[1])),
        np.array([0, 1, 0, 0, 0], dtype=np.uint8))


def test_two_style_seeds_same_labels_bleu_below_one():
    from crossgen.evalkit import bleu
    labels = np.array([1, 0, 0, 1, 0], dtype=np.uint8)
    r1 = td.render_report(labels, style_seed=3)
    r2 = td.render_report(labels, style_seed=10)
    np.testing.assert_array_equal(td.rule_label_text(r1), td.rule_label_text(r2))
    assert bleu(list(r1), [list(r2)], max_n=1)[0] < 1.0


def test_factor_bucket_consistency_with_report_descriptors():
    rng = np.random.default_rng(12)
    for _ in range(50):
        factors = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                            rng.uniform(0.25, 1.0)])
        b = td.factor_bucket(factors)
        assert 0 <= b < td.NUM_FACTOR_BUCKETS
        labels = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
        rep = td.render_report(labels, b)
        # descriptor words appear for non-empty label sets
        assert any(t in td._X_WORDS for t in rep)
        assert any(t in td._I_WORDS for t in rep)


@pytest.mark.parametrize("name, count", [("train", 25), ("train", None), ("val", 1),
                                         ("test", None), ("test", 0)])
def test_generate_subset_renders_the_records_of_generate_dataset(name, count, monkeypatch):
    ref = td.generate_dataset(seed=9, n=120).subset(name)[:count]
    rendered = []
    render = td.render_views
    monkeypatch.setattr(td, "render_views",
                        lambda *a: rendered.append(1) or render(*a))
    got = td.generate_subset(9, 120, name, count)
    assert len(rendered) == len(got) == len(ref)  # the records it returns, no others
    for a, b in zip(got, ref):
        assert (a.id, a.report) == (b.id, b.report)
        for field in ("view_a", "view_b", "labels", "factors"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_save_dataset_stores_one_row_per_record():
    ds = td.generate_dataset(seed=2, n=12)
    arrays, metadata = td.save_dataset(ds)
    assert metadata == {"seed": 2, "vocab": list(td.VOCAB)}
    for i, rec in enumerate(ds.records):
        assert rec.id == i
        for field in ("view_a", "view_b", "labels", "factors"):
            np.testing.assert_array_equal(arrays[field][i], getattr(rec, field))
        ids = arrays["tokens"][i]
        assert [td.VOCAB[int(t)] for t in ids[:len(rec.report)]] == list(rec.report)
        assert not ids[len(rec.report):].any()  # padded with 0
    for code, name in enumerate(td.SPLITS):
        assert np.flatnonzero(arrays["split"] == code).tolist() == ds.split[name].tolist()


def test_dataset_file_roundtrip(tmp_path):
    ds = td.generate_dataset(seed=21, n=40, positive_rates=[0.5] * 5)
    path = _save(ds, tmp_path / "dataset.xgck")
    back = _load(path)
    assert back.seed == ds.seed
    assert len(back.records) == len(ds.records)
    for a, b in zip(ds.records, back.records):
        assert a.id == b.id and a.report == b.report
        for field in ("view_a", "view_b", "labels", "factors"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    for name in td.SPLITS:
        x, y = ds.split[name], back.split[name]
        assert (x.dtype, x.tolist()) == (y.dtype, y.tolist())
    # save-load-save is byte stable
    assert _save(back, tmp_path / "again.xgck").read_bytes() == path.read_bytes()


def _packed_file(ds, cfg_hash) -> bytes:
    """The dataset checkpoint packed with struct, each array record by
    record: the reference for the layout README documents."""
    def text(value, length="<H"):
        return struct.pack(length, len(value.encode())) + value.encode()

    n, width = len(ds.records), td.MAX_REPORT_LEN
    codes = {int(i): code for code, name in enumerate(td.SPLITS) for i in ds.split[name]}
    rows = {  # array name -> (shape of one record's row, the row's values)
        "factors": ((3,), lambda r: r.factors),
        "labels": ((td.NUM_CONDITIONS,), lambda r: r.labels),
        "split": ((), lambda r: [codes[r.id]]),
        "tokens": ((width,), lambda r: [td.TOKEN_TO_ID[t] for t in r.report]
                   + [0] * (width - len(r.report))),
        "view_a": ((td.VIEW_SIZE, td.VIEW_SIZE), lambda r: r.view_a.ravel()),
        "view_b": ((td.VIEW_SIZE, td.VIEW_SIZE), lambda r: r.view_b.ravel()),
    }
    metadata = json.dumps({"seed": ds.seed, "vocab": list(td.VOCAB)}, sort_keys=True)
    out = [b"XGCK", struct.pack("<H", 1), text("dataset"), text(cfg_hash),
           text(metadata, "<I"), struct.pack("<I", len(rows))]
    for name, (shape, row) in sorted(rows.items()):
        out.append(text(name) + struct.pack(f"<B{len(shape) + 1}I", len(shape) + 1, n, *shape))
        for rec in ds.records:
            values = list(row(rec))
            out.append(struct.pack(f"<{len(values)}d", *values))
    body = b"".join(out)
    return body + hashlib.sha256(body).digest()


def test_dataset_file_matches_a_per_record_struct_packing(tmp_path):
    ds = td.generate_dataset(seed=5, n=300)
    assert _save(ds, tmp_path / "dataset.xgck").read_bytes() == _packed_file(ds, "00" * 32)


def test_dataset_file_rejects_corruption(tmp_path):
    path = _save(td.generate_dataset(seed=2, n=12), tmp_path / "dataset.xgck")
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match=f"^{path}: checksum mismatch"):
        _load(path)


@pytest.mark.parametrize("cut", [2, 10, 300, 5000])
def test_a_truncated_dataset_file_names_itself(tmp_path, cut):
    path = _save(td.generate_dataset(seed=2, n=12), tmp_path / "dataset.xgck")
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ArtifactError,
                       match=f"^{path}: (not a checkpoint file|checksum mismatch)"):
        _load(path)


#: case -> (byte offset into the body to overwrite, or None to append; the
#: bytes; the message). The body is sealed again, so each defect reaches the
#: parse past the checksum.
FILE_DEFECTS = {
    "bad_magic": (0, b"NOPE", "not a checkpoint file"),
    "version": (4, struct.pack("<H", 2), "checkpoint format version 2 not supported"),
    "stage": (8, b"D", "stage 'Dataset', expected 'dataset'"),
    "not_utf8": (8, b"\xff", "a text field of the checkpoint is not UTF-8"),
    "trailing": (None, b"\0", "1 trailing bytes"),
}


@pytest.mark.parametrize("case", sorted(FILE_DEFECTS))
def test_a_malformed_dataset_file_names_itself_and_its_defect(tmp_path, case):
    path = _save(td.generate_dataset(seed=2, n=12), tmp_path / "dataset.xgck")
    at, patch, message = FILE_DEFECTS[case]
    body = bytearray(path.read_bytes()[:-32])
    if at is None:
        body += patch
    else:
        body[at:at + len(patch)] = patch
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    with pytest.raises(ArtifactError, match=f"^{path}: {message}"):
        _load(path)


def test_loaded_records_keep_their_types(tmp_path):
    path = _save(td.generate_dataset(seed=5, n=20), tmp_path / "dataset.xgck")
    for rec in _load(path).records:
        assert type(rec.id) is int and type(rec.report) is tuple
        for view in (rec.view_a, rec.view_b):
            assert view.dtype == np.float64 and view.shape == (td.VIEW_SIZE, td.VIEW_SIZE)
            assert view.flags.c_contiguous
        assert rec.labels.dtype == np.uint8 and rec.labels.shape == (td.NUM_CONDITIONS,)
        assert rec.factors.dtype == np.float64 and rec.factors.shape == (3,)


def test_dataset_load_keeps_the_three_splits_of_valid_codes():
    arrays, metadata = td.save_dataset(td.generate_dataset(seed=2, n=12))
    arrays["split"][:] = 1
    arrays["split"][[0, 11]], arrays["split"][5] = 0, 2
    split = td.load_dataset(arrays, metadata).split
    assert sorted(split) == ["test", "train", "val"]
    assert split["train"].tolist() == [0, 11] and split["test"].tolist() == [5]
    assert len(split["val"]) == 9 and split["val"].dtype == np.int64
