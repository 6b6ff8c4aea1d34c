"""Dataset surgery that only tests need: site subsets and replacement labels."""

from __future__ import annotations

from typing import Sequence

from grmlr.dataset import AbundanceMatrix, Dataset, MacrofaunaCounts, StageLabels


def subset(dataset: Dataset, indices: Sequence[int]) -> Dataset:
    """New Dataset holding only the selected sites, order preserved."""
    idx = list(indices)
    ab = dataset.abundances
    ids = [ab.site_ids[i] for i in idx]
    macrofauna = stages = None
    if dataset.macrofauna is not None:
        mf = dataset.macrofauna
        macrofauna = MacrofaunaCounts(list(ids), mf.values[idx], list(mf.category_names))
    if dataset.stages is not None:
        st = dataset.stages
        stages = StageLabels(list(ids), [st.labels[i] for i in idx], st.label_set)
    return Dataset(AbundanceMatrix(ids, list(ab.taxa_names), ab.values[idx]), macrofauna, stages)


def relabeled(dataset: Dataset, labels: Sequence[str]) -> Dataset:
    """The same observations under the stage labels ``labels``, from the dataset's label set."""
    stages = StageLabels(list(dataset.abundances.site_ids), list(labels), dataset.stages.label_set)
    return Dataset(dataset.abundances, dataset.macrofauna, stages)
