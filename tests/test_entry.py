"""Driver-contract tests for ``__ray_entry__``: the extraction queries are
checked value-for-value against their DuckDB oracles (the comparison the
driver performs), plus the flagship smoke run and the resumable sink."""

import os

import duckdb
import pandas as pd
import pytest

SF_DIR = '/root/testdata/sf0.001'


@pytest.fixture(scope='module')
def entrymod():
    # the oracles must join against THIS sf dir's corpus
    os.environ['GRAFT_ORACLE_SF_DIR'] = SF_DIR
    import __ray_entry__
    return __ray_entry__


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    if len(df):
        df = df.sort_values(by=list(df.columns), kind='mergesort').reset_index(drop=True)
    return df


@pytest.mark.parametrize('name', ['extract_fulltext', 'extract_spans',
                                  'extract_metrics'])
def test_query_matches_oracle(ray_session, entrymod, name):
    ray_df = entrymod.queries()[name](SF_DIR)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    sql_df = duckdb.connect().execute(entrymod.oracle_sql()[name]).fetchdf()
    assert sorted(ray_df.columns) == sorted(sql_df.columns)
    assert len(ray_df) == len(sql_df)
    pd.testing.assert_frame_equal(_canon(ray_df), _canon(sql_df),
                                  check_dtype=False)


def test_entry_smoke(ray_session, entrymod):
    df = entrymod.entry().to_pandas()
    assert len(df) > 0
    assert list(df.columns) == ['conv_id', 'turn_idx', 'text', 'n_spans',
                                'n_pages', 'decode_ok', 'error']
    assert df.decode_ok.mean() > 0.9  # corrupt_frac is small


def test_extract_sink_manifest(ray_session, entrymod):
    """The sink query's manifest totals must equal the extraction
    dataset's row count, and a re-run must resume to identical output.
    The sink root is wiped first so the first call exercises a FRESH
    write, not a resume of an earlier session's output."""
    import shutil
    shutil.rmtree('/tmp/graft_extract_out', ignore_errors=True)
    qs = entrymod.queries()
    t = qs['extract_to_parquet'](SF_DIR)
    rows = sum(t.column('rows').to_pylist())
    ds_rows = qs['extract_fulltext'](SF_DIR).count()
    assert rows == ds_rows
    t2 = qs['extract_to_parquet'](SF_DIR)
    assert t.equals(t2)
