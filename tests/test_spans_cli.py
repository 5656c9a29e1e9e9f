"""Spans dataset + CLI entry point tests."""

import json
import os
import subprocess
import sys


def _corpus(tmp_path):
    from engine.rayjob.transcripts import generate_transcripts
    d = str(tmp_path / 'corpus')
    generate_transcripts(d, n_convs=12, seed=7)
    return d


def test_spans_dataset(ray_session, tmp_path):
    from engine.rayjob.pipeline import build_spans_dataset, build_extract_dataset
    corpus = _corpus(tmp_path)
    spans = build_spans_dataset(corpus).to_pandas()
    assert set(spans.columns) == {'conv_id', 'turn_idx', 'page', 'x', 'y',
                                  'unicode', 'cid', 'width'}
    assert len(spans) > 0
    assert (spans.width >= 0).all()
    # span count must agree with the per-turn n_spans totals
    turns = build_extract_dataset(corpus).to_pandas()
    assert len(spans) == turns.n_spans.sum()
    # every glyph is a single char
    assert spans.unicode.str.len().ge(1).all()


def test_cli_end_to_end(tmp_path):
    """python -m engine.rayjob.main in a fresh process (own Ray session)."""
    corpus = _corpus(tmp_path)
    out = str(tmp_path / 'out')
    env = dict(os.environ, RAY_ADDRESS='local')
    r = subprocess.run(
        [sys.executable, '-m', 'engine.rayjob.main', '--input', corpus,
         '--output', out, '--num-buckets', '8', '--concurrency', '2'],
        capture_output=True, text=True, timeout=560,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))), env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary['rows_out'] > 0
    assert os.path.exists(os.path.join(out, '_MANIFEST.jsonl'))
    # resume: second run does no new work
    r2 = subprocess.run(
        [sys.executable, '-m', 'engine.rayjob.main', '--input', corpus,
         '--output', out, '--num-buckets', '8', '--concurrency', '2'],
        capture_output=True, text=True, timeout=560,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))), env=env)
    assert r2.returncode == 0, r2.stderr[-2000:]
    summary2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert summary2['rows_this_run'] == 0
    assert summary2['rows_out'] == summary['rows_out']


def test_cli_keeps_driver_session(tmp_path):
    """main() run under a driver's Ray session must leave that session up:
    it shuts down only a session it started.  Fresh process so a failure
    cannot tear down this test run's shared session."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = '''
import sys
import ray
ray.init(address='local', num_cpus=1, include_dashboard=False)
from engine.rayjob.transcripts import generate_transcripts
from engine.rayjob.main import main
generate_transcripts(sys.argv[1], n_convs=4, seed=7)
main(['--input', sys.argv[1], '--output', sys.argv[2], '--num-buckets', '2'])
print('initialized:', ray.is_initialized())
'''
    env = dict(os.environ, PYTHONPATH=root)
    env.pop('RAY_ADDRESS', None)
    r = subprocess.run(
        [sys.executable, '-c', code, str(tmp_path / 'corpus'),
         str(tmp_path / 'out')],
        capture_output=True, text=True, timeout=300, cwd=root, env=env)
    assert r.returncode == 0, r.stderr[-2000:]
    assert 'initialized: True' in r.stdout


def test_entry_module_does_not_init_ray():
    """Driver contract: importing __ray_entry__ must not start a Ray session.

    The driver calls ray.init() itself BEFORE importing the module; an
    import-time init would collide with (or shadow) the driver's session.
    Fresh process so this session's Ray state can't mask a violation.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, '-c',
         'import ray, __ray_entry__, engine.rayjob.pipeline;'
         'print("initialized:", ray.is_initialized())'],
        capture_output=True, text=True, timeout=120, cwd=root)
    assert r.returncode == 0, r.stderr[-2000:]
    assert 'initialized: False' in r.stdout
