"""Shared fixtures: the hand-worked preprocessing golden case; and the one
Hypothesis profile, under which every property test runs the same examples
on every run and keeps no example database."""

import numpy as np
import pytest
from hypothesis import settings

from omivae.data import RawMatrix

settings.register_profile("omivae", derandomize=True, database=None, deadline=None)
settings.load_profile("omivae")


def _col(values):
    return np.array(values, dtype=np.float64)


@pytest.fixture
def golden_raw():
    """Ten samples; every filtering rule fires on exactly one feature.

    Expression (threshold 0.10, strictly more):
      eY     chromosome Y                          -> removed (y_chromosome)
      eZero  zero in every sample                  -> removed (all_zero)
      eMiss  missing in 2/10 samples (20%)         -> removed (high_missing)
      eEdge  missing in exactly 1/10 samples (10%) -> KEPT, imputed with the mean
      eOk    fully observed                        -> kept
      eConst constant 0.7                          -> kept, normalizes to 0
    Methylation:
      mUnmapped  annotation NA        -> removed (unmapped_or_control)
      mY         chromosome Y         -> removed (y_chromosome)
      mMiss      missing in 2/10      -> removed (high_missing)
      mOk2       chromosome 1         -> kept (block 1, first by input order)
      mEdge      chromosome 1, 1/10 missing -> kept, imputed
      mOk1       chromosome 2         -> kept (block 2)
    """
    nan = np.nan
    samples = [f"P{i:02d}" for i in range(10)]
    expr_features = ["eY", "eZero", "eMiss", "eEdge", "eOk", "eConst"]
    expr_cols = {
        "eY": _col([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
        "eZero": _col([0] * 10),
        "eMiss": _col([nan, nan, 3, 3, 3, 3, 3, 3, 3, 3]),
        "eEdge": _col([nan, 2, 4, 2, 4, 2, 4, 2, 4, 3]),
        "eOk": _col([0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        "eConst": _col([0.7] * 10),
    }
    expression = RawMatrix(
        sample_ids=list(samples),
        feature_ids=list(expr_features),
        values=np.column_stack([expr_cols[f] for f in expr_features]),
    )
    methyl_features = ["mUnmapped", "mY", "mMiss", "mOk2", "mEdge", "mOk1"]
    methyl_cols = {
        "mUnmapped": _col([0.5] * 10),
        "mY": _col([0.5] * 10),
        "mMiss": _col([nan, nan, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]),
        "mOk2": _col([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        "mEdge": _col([nan, 0.2, 0.2, 0.2, 0.2, 0.8, 0.8, 0.8, 0.8, 0.5]),
        "mOk1": _col([0.9] * 10),
    }
    methylation = RawMatrix(
        sample_ids=list(samples),
        feature_ids=list(methyl_features),
        values=np.column_stack([methyl_cols[f] for f in methyl_features]),
    )
    annotations = {
        "eY": "Y",
        "eZero": "3",
        "eMiss": "3",
        "eEdge": "3",
        "eOk": "4",
        "eConst": "4",
        "mUnmapped": "NA",
        "mY": "Y",
        "mMiss": "1",
        "mOk2": "1",
        "mEdge": "1",
        "mOk1": "2",
    }
    labels = {s: ("tumourA" if i % 2 == 0 else "tumourB") for i, s in enumerate(samples)}
    return expression, methylation, annotations, labels
