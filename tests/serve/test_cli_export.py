"""``repro-serve export`` end to end: every exported program is servable.

The export trains, probes for picklability and writes the catalog; all
three must go through one store, or the probe misses the freshly
trained (not yet flushed) program and marks it unpicklable.
"""

import json

from repro.serve.cli import main
from repro.serve.router import load_catalog
from repro.store import BlueprintStore


def test_cli_export_marks_every_program_ready(tmp_path, monkeypatch, capsys):
    directory = str(tmp_path / "store")
    monkeypatch.setenv("REPRO_STORE_DIR", directory)
    assert main([
        "--store-dir", directory, "export", "--experiment", "forge_html",
        "--providers", "forge000", "--methods", "LRSyn",
        "--train", "3", "--test", "2", "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["entries"]
    assert report["counts"] == {"ready": len(report["entries"])}

    store = BlueprintStore(directory=directory, enabled=True)
    try:
        catalog = load_catalog(store)
    finally:
        store.close()
    assert len(catalog.entries) == len(report["entries"])
    for entry in catalog.entries:
        assert entry.ready, (entry.field, entry.reason)
        assert entry.extractor is not None
