"""Ingestion, validation, serialization round-trips, synthetic generator."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grmlr.dataset import (
    AbundanceMatrix,
    Dataset,
    MacrofaunaCounts,
    StageLabels,
    load_dataset,
    save_dataset,
    synthesize_dataset,
    taxa_blocks,
)
from grmlr.errors import (
    InvalidShape,
    InvalidValue,
    IoFailure,
    MissingSite,
    NegativeCount,
    NegativeValue,
    RowSumViolation,
    UnknownLabel,
)
from grmlr.rankstats import spearman_cross

SYNTH_ARGS = dict(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)

# with K = 2 classes and 2 blocks, each block carries one class's shift
SIGNAL_TAXA = np.concatenate(taxa_blocks(8, 2)[:2])


class TestLoad:
    def test_full_trio(self, csv_trio):
        ds = load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])
        assert ds.n_sites == 13
        assert ds.n_taxa == 26
        assert len(ds.stages.label_set) == 3
        assert ds.macrofauna.values.shape == (13, 4)

    def test_abundances_alone_is_inference_mode(self, csv_trio):
        ds = load_dataset(csv_trio["abundances"])
        assert ds.macrofauna is None
        assert ds.stages is None

    def test_rows_reordered_to_abundance_order(self, tmp_path, csv_trio):
        # reverse the macrofauna and labels row order on disk
        for key in ("macrofauna", "labels"):
            lines = csv_trio[key].read_text().splitlines()
            csv_trio[key].write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
        ds = load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])
        assert ds.macrofauna.site_ids == ds.abundances.site_ids
        assert ds.stages.site_ids == ds.abundances.site_ids

    def test_row_sum_violation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site_id,a,b\ns1,0.5,0.48\n")
        with pytest.raises(RowSumViolation):
            load_dataset(path)

    def test_missing_site_in_macrofauna(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\ns2,0.4,0.6\n")
        mf = tmp_path / "m.csv"
        mf.write_text("site_id,dead,adult,juvenile,clam\ns1,1,2,3,4\n")
        with pytest.raises(MissingSite):
            load_dataset(ab, mf)

    def test_extra_site_in_labels(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b,c\ns1,0.5,0.3,0.2\ns2,0.4,0.3,0.3\ns3,0.2,0.2,0.6\n")
        lab = tmp_path / "y.csv"
        lab.write_text("site_id,stage\ns1,adult\ns2,dead\ns3,juvenile\ns4,adult\n")
        with pytest.raises(MissingSite):
            load_dataset(ab, labels_path=lab)

    def test_negative_count(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\n")
        mf = tmp_path / "m.csv"
        mf.write_text("site_id,dead,adult,juvenile,clam\ns1,1,-2,3,4\n")
        with pytest.raises(NegativeCount):
            load_dataset(ab, mf)

    def test_count_beyond_int64(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\n")
        mf = tmp_path / "m.csv"
        mf.write_text("site_id,dead,adult,juvenile,clam\ns1,1,99999999999999999999,3,4\n")
        message = f"^{re.escape(str(mf))}: site_id 's1', column 'adult': count 9{{20}} above"
        with pytest.raises(InvalidValue, match=message):
            load_dataset(ab, mf)

    def test_non_integer_count(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\n")
        mf = tmp_path / "m.csv"
        mf.write_text("site_id,dead,adult,juvenile,clam\ns1,1,2.5,3,4\n")
        with pytest.raises(InvalidValue):
            load_dataset(ab, mf)

    @pytest.mark.parametrize("cell", ["1_000", "\u0663", " 4 ", "4 ", "0x10", "\uff14"])
    def test_count_that_is_not_a_plain_decimal_numeral(self, tmp_path, cell):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\n")
        mf = tmp_path / "m.csv"
        mf.write_text(f"site_id,dead,adult,juvenile,clam\ns1,1,{cell},3,+2\n", encoding="utf-8")
        message = f"site_id 's1', column 'adult': not an integer count: {re.escape(repr(cell))}$"
        with pytest.raises(InvalidValue, match=message):
            load_dataset(ab, mf)

    def test_signed_plain_counts_load(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\n")
        mf = tmp_path / "m.csv"
        mf.write_text("site_id,dead,adult,juvenile,clam\ns1,1000,-0,007,+2\n")
        assert load_dataset(ab, mf).macrofauna.values.tolist() == [[1000, 0, 7, 2]]

    @pytest.mark.parametrize("cell", ["0_5", "\u0660.5", " 0.5", "0.5 ", "0x1p-1", "5e-1_0", ".5e"])
    def test_abundance_that_is_not_a_plain_decimal_numeral(self, tmp_path, cell):
        path = tmp_path / "a.csv"
        path.write_text(f"site_id,a,b\ns1,{cell},0.5\n", encoding="utf-8")
        message = f"site_id 's1', column 'a': not a number: {re.escape(repr(cell))}$"
        with pytest.raises(InvalidValue, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["0.5", "+.5", "5e-1", "5.E-1", "50e-2"])
    def test_plain_decimal_abundance_loads(self, tmp_path, cell):
        path = tmp_path / "a.csv"
        path.write_text(f"site_id,a,b\ns1,{cell},0.5\n")
        assert load_dataset(path).abundances.values.tolist() == [[0.5, 0.5]]

    def test_duplicate_macrofauna_category(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\n")
        mf = tmp_path / "m.csv"
        mf.write_text("site_id,dead,adult,juvenile,dead\ns1,1,2,3,4\n")
        with pytest.raises(InvalidValue, match="^duplicate category names in macrofauna table$"):
            load_dataset(ab, mf)

    def test_unknown_label(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text(
            "site_id,a,b\ns1,0.5,0.5\ns2,0.4,0.6\ns3,0.3,0.7\ns4,0.2,0.8\n"
        )
        lab = tmp_path / "y.csv"
        lab.write_text("site_id,stage\ns1,adult\ns2,dead\ns3,juvenile\ns4,larva\n")
        with pytest.raises(UnknownLabel):
            load_dataset(ab, labels_path=lab)

    def test_labels_case_insensitive(self, tmp_path):
        ab = tmp_path / "a.csv"
        ab.write_text("site_id,a,b\ns1,0.5,0.5\ns2,0.4,0.6\ns3,0.3,0.7\n")
        lab = tmp_path / "y.csv"
        lab.write_text("site_id,stage\ns1,Adult\ns2,DEAD\ns3,Juvenile\n")
        ds = load_dataset(ab, labels_path=lab)
        assert ds.stages.labels == ["adult", "dead", "juvenile"]

    def test_negative_abundance(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("site_id,a,b\ns1,-0.1,1.1\n")
        with pytest.raises(NegativeValue):
            load_dataset(path)

    def test_nan_abundance(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("site_id,a,b\ns1,0.5,0.5\ns2,nan,1.0\n")
        with pytest.raises(InvalidValue, match="site 's2', taxon 'a'"):
            load_dataset(path)


@given(
    n=st.integers(min_value=1, max_value=6),
    p=st.integers(min_value=2, max_value=6),
    cell=st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80)
def test_non_finite_abundance_rejected(n, p, cell, bad, seed):
    raw = np.random.default_rng(seed).uniform(0.01, 1.0, size=(n, p))
    values = raw / raw.sum(axis=1, keepdims=True)
    i, j = cell[0] % n, cell[1] % p
    values[i, j] = bad
    sites = [f"s{k}" for k in range(n)]
    taxa = [f"t{k}" for k in range(p)]
    with pytest.raises(InvalidValue, match=f"site '{sites[i]}', taxon '{taxa[j]}'"):
        AbundanceMatrix(sites, taxa, values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_count_names_site_and_category(bad):
    counts = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, bad, 1.0, 2.0]])
    with pytest.raises(InvalidValue, match="site 's2', category 'adult'"):
        MacrofaunaCounts(["s1", "s2"], counts)


class TestRoundTrip:
    def test_load_save_load_identical(self, csv_trio, tmp_path):
        first = load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])
        out = {k: tmp_path / f"again_{k}.csv" for k in csv_trio}
        save_dataset(first, out["abundances"], out["macrofauna"], out["labels"])
        second = load_dataset(out["abundances"], out["macrofauna"], out["labels"])
        assert np.array_equal(first.abundances.values, second.abundances.values)
        assert np.array_equal(first.macrofauna.values, second.macrofauna.values)
        assert first.stages.labels == second.stages.labels
        assert first.abundances.site_ids == second.abundances.site_ids
        assert first.abundances.taxa_names == second.abundances.taxa_names

    def test_synthesized_passes_validation_when_serialized(self, tmp_path):
        ds = synthesize_dataset(n=9, p=12, K=3, n_blocks=3, coupling=0.5, noise=0.3, seed=3)
        paths = [tmp_path / f"{k}.csv" for k in ("a", "m", "y")]
        save_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert np.array_equal(ds.abundances.values, loaded.abundances.values)
        assert ds.stages.labels == loaded.stages.labels


class TestSynthesize:
    def test_rows_closed(self):
        ds = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        assert np.abs(ds.abundances.values.sum(axis=1) - 1.0).max() < 1e-12

    def test_deterministic(self):
        a = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        b = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        assert np.array_equal(a.abundances.values, b.abundances.values)
        assert np.array_equal(a.macrofauna.values, b.macrofauna.values)
        assert a.stages.labels == b.stages.labels

    def test_different_seed_differs(self):
        a = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        b = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=8)
        assert not np.array_equal(a.abundances.values, b.abundances.values)

    def test_numpy_integer_seed_is_its_value(self):
        # np.int64 cannot hold the 2**63 that the seed is reduced by
        a = synthesize_dataset(n=9, p=12, K=3, n_blocks=3, coupling=0.9, noise=0.1, seed=7)
        seed = np.int64(7)
        b = synthesize_dataset(n=9, p=12, K=3, n_blocks=3, coupling=0.9, noise=0.1, seed=seed)
        assert a.abundances.values.tobytes() == b.abundances.values.tobytes()
        assert a.macrofauna.values.tobytes() == b.macrofauna.values.tobytes()
        assert a.stages.labels == b.stages.labels

    def test_invalid_shapes(self):
        with pytest.raises(InvalidShape):
            synthesize_dataset(n=2, p=6, K=3, n_blocks=2, coupling=0.5, noise=0.1, seed=0)
        with pytest.raises(InvalidShape):
            synthesize_dataset(n=6, p=3, K=3, n_blocks=4, coupling=0.5, noise=0.1, seed=0)
        with pytest.raises(InvalidShape):
            synthesize_dataset(n=6, p=6, K=3, n_blocks=0, coupling=0.5, noise=0.1, seed=0)

    def test_perfect_coupling_no_noise_gives_unit_spearman(self):
        # every taxon in a shifted block must track some macrofauna category
        ds = synthesize_dataset(n=13, p=8, K=2, n_blocks=2, coupling=1.0, noise=0.0, seed=5)
        rho = spearman_cross(ds.abundances.values[:, SIGNAL_TAXA], ds.macrofauna.values)
        for best in np.abs(rho).max(axis=1):
            assert best == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_counts_independent_of_blocks(self):
        # Monte-Carlo: mean |Spearman| between signal taxa and the categories
        # tracking them should sit at the independence level, which we
        # estimate with a matched null (counts re-drawn independently).
        observed, null = [], []
        for seed in range(100):
            ds = synthesize_dataset(n=13, p=8, K=2, n_blocks=2, coupling=0.0, noise=0.5, seed=seed)
            rng = np.random.default_rng(10_000 + seed)
            fake = rng.permutation(ds.macrofauna.values.copy())
            signal = ds.abundances.values[:, SIGNAL_TAXA]
            observed.extend(np.abs(spearman_cross(signal, ds.macrofauna.values)).ravel())
            null.extend(np.abs(spearman_cross(signal, fake)).ravel())
        observed_mean = float(np.mean(observed))
        null_mean = float(np.mean(null))
        assert abs(observed_mean - null_mean) < 0.05
        assert observed_mean < 0.35

    def test_strong_coupling_far_from_null(self):
        vals = []
        for seed in range(20):
            ds = synthesize_dataset(n=13, p=8, K=2, n_blocks=2, coupling=0.9, noise=0.2, seed=seed)
            rho = spearman_cross(ds.abundances.values[:, SIGNAL_TAXA], ds.macrofauna.values)
            vals.extend(np.abs(rho).max(axis=1))
        assert float(np.mean(vals)) > 0.7

    def test_blocks_partition_taxa(self):
        blocks = taxa_blocks(26, 4)
        flat = sorted(int(j) for b in blocks for j in b)
        assert flat == list(range(26))


class TestContainers:
    def test_misaligned_components_rejected(self, synth_dataset):
        st = synth_dataset.stages
        shuffled = StageLabels(list(reversed(st.site_ids)), list(st.labels), st.label_set)
        with pytest.raises(MissingSite):
            Dataset(synth_dataset.abundances, synth_dataset.macrofauna, shuffled)

    def test_needs_one_sample_per_class(self, tiny_dataset):
        ab = tiny_dataset.abundances
        two = AbundanceMatrix(ab.site_ids[:2], ab.taxa_names, ab.values[:2])
        with pytest.raises(InvalidShape, match="2 sites for 3 classes"):
            Dataset(two, None, StageLabels(two.site_ids, ["juvenile", "adult"]))


def _rewrite_first_row(path, edit):
    lines = path.read_text().splitlines()
    lines[1] = edit(lines[1])
    path.write_text("\n".join(lines) + "\n")


class TestTableReader:
    """Rules that every table shares: key column, row width, unique keys."""

    @pytest.mark.parametrize("table", ["abundances", "macrofauna", "labels"])
    def test_duplicate_site_row(self, csv_trio, table):
        path = csv_trio[table]
        first_row = path.read_text().splitlines()[1]
        if table == "labels":
            first_row = first_row.split(",")[0] + ",dead"  # relabel the site in a second row
        with open(path, "a", newline="") as fh:
            fh.write(first_row + "\r\n")
        with pytest.raises(InvalidValue, match=rf"{table}\.csv: row 15 repeats site_id 'site_01'"):
            load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])

    @pytest.mark.parametrize("table", ["abundances", "macrofauna", "labels"])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("empty", "empty file"),
            ("key", "first header column must be 'site_id'"),
            ("no_columns", "no columns after 'site_id'"),
            ("short_row", "row 2 has"),
            ("not_utf8", "not UTF-8 text"),
            ("huge_cell", "not a CSV table: field larger than field limit"),
        ],
    )
    def test_malformed_table(self, csv_trio, table, defect, message):
        path = csv_trio[table]
        text = path.read_text()
        if defect == "empty":
            path.write_text("")
        elif defect == "key":
            path.write_text("site" + text[len("site_id"):])
        elif defect == "no_columns":
            path.write_text("".join(line.split(",")[0] + "\n" for line in text.splitlines()))
        elif defect == "short_row":
            _rewrite_first_row(path, lambda row: row.rsplit(",", 1)[0])
        elif defect == "huge_cell":
            _rewrite_first_row(path, lambda row: "s" * 200_000 + row)
        else:
            path.write_bytes(b"\xff" + text.encode())
        with pytest.raises(InvalidValue, match=rf"{table}\.csv: .*{message}"):
            load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])

    @pytest.mark.parametrize("table", ["abundances", "macrofauna"])
    def test_unparsable_cell_named(self, csv_trio, table):
        _rewrite_first_row(csv_trio[table], lambda row: row.rsplit(",", 1)[0] + ",x")
        with pytest.raises(InvalidValue, match=r"site_id 'site_01', column '\w+': not a"):
            load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])

    def test_labels_header_must_be_stage(self, csv_trio):
        path = csv_trio["labels"]
        path.write_text(path.read_text().replace("site_id,stage", "site_id,label", 1))
        with pytest.raises(InvalidValue, match="expected header 'site_id,stage'"):
            load_dataset(csv_trio["abundances"], labels_path=path)

    @pytest.mark.parametrize("table", ["abundances", "macrofauna", "labels"])
    def test_byte_order_mark_is_ignored(self, csv_trio, table):
        plain = load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])
        path = csv_trio[table]
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])
        assert marked.abundances.site_ids == plain.abundances.site_ids
        assert marked.abundances.taxa_names == plain.abundances.taxa_names
        assert np.array_equal(marked.abundances.values, plain.abundances.values)
        assert marked.macrofauna.category_names == plain.macrofauna.category_names
        assert np.array_equal(marked.macrofauna.values, plain.macrofauna.values)
        assert marked.stages.labels == plain.stages.labels

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot read"):
            load_dataset(tmp_path / "absent.csv")


def _closed(n, p):
    return np.full((n, p), 1.0 / p)


VALIDATION_RAISES = {
    "duplicate-site-ids": (
        lambda: AbundanceMatrix(["a", "a"], ["x", "y"], _closed(2, 2)),
        InvalidValue,
        "duplicate site ids in abundance table",
    ),
    "duplicate-taxa": (
        lambda: AbundanceMatrix(["a", "b"], ["x", "x"], _closed(2, 2)),
        InvalidValue,
        "duplicate taxa names in abundance table",
    ),
    "duplicate-categories": (
        lambda: MacrofaunaCounts(
            ["a"], np.zeros((1, 4), dtype=np.int64), ["dead", "adult", "juvenile", "dead"]
        ),
        InvalidValue,
        "duplicate category names in macrofauna table",
    ),
    "duplicate-macrofauna-site-ids": (
        lambda: MacrofaunaCounts(["a", "a"], np.zeros((2, 4), dtype=np.int64)),
        InvalidValue,
        "duplicate site ids in macrofauna table",
    ),
    "fractional-count": (
        lambda: MacrofaunaCounts(["a"], np.array([[1.0, 2.5, 0.0, 3.0]])),
        NegativeCount,
        "macrofauna counts must be integers",
    ),
    "macrofauna-site-ids": (
        lambda: Dataset(
            AbundanceMatrix(["a", "b"], ["x", "y"], _closed(2, 2)),
            MacrofaunaCounts(["b", "a"], np.zeros((2, 4), dtype=np.int64)),
        ),
        MissingSite,
        "macrofauna site ids do not match abundance site ids",
    ),
    "abundance-shape": (
        lambda: AbundanceMatrix(["a", "b"], ["x", "y", "z"], _closed(2, 2)),
        InvalidShape,
        r"abundance matrix shape \(2, 2\) does not match 2 sites x 3 taxa",
    ),
    "macrofauna-shape": (
        lambda: MacrofaunaCounts(["a", "b"], np.zeros((2, 3), dtype=np.int64)),
        InvalidShape,
        r"macrofauna matrix shape \(2, 3\) does not match 2 sites x 4 categories",
    ),
    "negative-count": (
        lambda: MacrofaunaCounts(["a", "b"], np.array([[0, 1, 2, 3], [4, -5, 6, 7]])),
        NegativeCount,
        "negative count at site 'b', category 'adult'",
    ),
    **{
        f"count-above-int64-{name}": (
            lambda values=values: MacrofaunaCounts(["a", "b"], values),
            InvalidValue,
            "count above the int64 maximum at site 'b', category 'juvenile'",
        )
        for name, values in [
            ("int", [[0, 1, 2, 3], [4, 5, 2**70, 7]]),
            ("uint64", np.array([[0, 1, 2, 3], [4, 5, 2**63, 7]], dtype=np.uint64)),
            ("float", np.array([[0, 1, 2, 3], [4, 5, 2.0**63, 7]])),
        ]
    },
    "duplicate-label-site-ids": (
        lambda: StageLabels(["a", "a", "b"], ["adult", "dead", "juvenile"]),
        InvalidValue,
        "duplicate site ids in stage labels",
    ),
    "label-count": (
        lambda: StageLabels(["a", "b"], ["adult"]),
        InvalidShape,
        "1 labels for 2 sites",
    ),
    "synth-coupling": (
        lambda: synthesize_dataset(n=6, p=6, K=3, n_blocks=2, coupling=1.5, noise=0.1, seed=0),
        InvalidShape,
        r"coupling must be in \[0, 1\], got 1.5",
    ),
    "synth-noise": (
        lambda: synthesize_dataset(n=6, p=6, K=3, n_blocks=2, coupling=0.5, noise=-0.1, seed=0),
        InvalidShape,
        r"noise must be in \[0, inf\), got -0.1",
    ),
    "synth-noise-nan": (
        lambda: synthesize_dataset(
            n=6, p=6, K=3, n_blocks=2, coupling=0.5, noise=float("nan"), seed=0
        ),
        InvalidShape,
        r"noise must be in \[0, inf\), got nan",
    ),
    **{
        f"synth-{name}-{type(value).__name__}": (
            lambda args={name: value}: synthesize_dataset(**{**SYNTH_ARGS, **args}),
            InvalidValue,
            re.escape(f"{name} must be {kind}, got {value!r}"),
        )
        for kind, name, value in [
            *[("an integer", name, 4.0) for name in ("n", "p", "K", "n_blocks")],
            ("an integer", "n", "13"),
            ("an integer", "K", True),
            ("an integer", "n_blocks", None),
            ("a real number", "coupling", "0.9"),
            ("a real number", "noise", True),
        ]
    },
    "synth-noise-inf": (
        lambda: synthesize_dataset(**{**SYNTH_ARGS, "noise": float("inf")}),
        InvalidShape,
        r"noise must be in \[0, inf\), got inf",
    ),
    **{
        f"synth-seed-{name}": (
            lambda seed=seed: synthesize_dataset(
                n=6, p=6, K=3, n_blocks=2, coupling=0.5, noise=0.1, seed=seed
            ),
            InvalidValue,
            f"seed must be an integer, got {seed!r}",
        )
        for name, seed in [("float", 1.5), ("none", None), ("bool", True), ("str", "3")]
    },
}


@pytest.mark.parametrize("make, error, message", VALIDATION_RAISES.values(), ids=VALIDATION_RAISES)
def test_validation_raises(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_largest_int64_count_is_kept_without_a_cast_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a count cast past int64 warns
        counts = MacrofaunaCounts(["a"], [[2**63 - 1, 0, 1, 2]])
        with pytest.raises(InvalidValue):
            MacrofaunaCounts(["a"], [[2**70, 0, 1, 2]])
    assert counts.values.dtype == np.int64 and counts.values[0, 0] == 2**63 - 1


def test_save_dataset_needs_the_tables_it_is_asked_to_write(tmp_path):
    bare = Dataset(AbundanceMatrix(["a"], ["x", "y"], _closed(1, 2)))
    with pytest.raises(InvalidValue, match="^dataset has no macrofauna counts to save$"):
        save_dataset(bare, tmp_path / "a.csv", tmp_path / "m.csv")
    with pytest.raises(InvalidValue, match="^dataset has no labels to save$"):
        save_dataset(bare, tmp_path / "a.csv", None, tmp_path / "l.csv")
