"""Shared fixtures for the serving-layer suite.

One tiny forge catalog is exported per session — two providers, LRSyn
only, three training documents each — into its own store directory, and
every test serves from it.  Export goes through the real
:func:`repro.harness.export.export_experiment` path (training included),
so the suite exercises exactly the rows production would see; at this
scale it costs a couple of seconds once.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import pytest
from _pytest.monkeypatch import MonkeyPatch

PROVIDERS = ("forge000", "forge001")
TRAIN, TEST, SEED = 3, 2, 0


@pytest.fixture(scope="session")
def serve_setup(tmp_path_factory):
    """An exported serving catalog: ``(store, report, directory)``.

    The export must write to the same store ``train_method`` uses (the
    env-resolved shared store), so the store directory is pinned via
    ``REPRO_STORE_DIR`` for the duration of the export only.
    """
    directory = tmp_path_factory.mktemp("serve-store")
    mp = MonkeyPatch()
    mp.setenv("REPRO_STORE_DIR", str(directory))
    try:
        from repro.harness.export import export_experiment
        from repro.harness.runner import LrsynHtmlMethod

        report = export_experiment(
            "forge_html",
            methods=[LrsynHtmlMethod()],
            providers=list(PROVIDERS),
            train_size=TRAIN,
            test_size=TEST,
            seed=SEED,
        )
    finally:
        mp.undo()
    from repro.store import BlueprintStore

    store = BlueprintStore(directory=directory, enabled=True)
    yield SimpleNamespace(store=store, report=report, directory=directory)
    store.close()


@pytest.fixture(scope="session")
def sample_docs(serve_setup):
    """Per-provider forge documents: ``{provider: (training, test)}``."""
    from repro.datasets.base import CONTEMPORARY
    from repro.harness.forge import forge_corpora

    docs = {}
    for provider in PROVIDERS:
        corpus = forge_corpora(provider, TRAIN, TEST, SEED)[CONTEMPORARY]
        fields = sorted(
            {
                entry["field"]
                for entry in serve_setup.report["entries"]
                if entry["provider"] == provider
            }
        )
        field = fields[0]
        training = [ex.doc for ex in corpus.training_examples(field)]
        test = [labeled.doc for labeled in corpus.test]
        docs[provider] = SimpleNamespace(
            field=field, fields=fields, training=training, test=test
        )
    return docs


# ---------------------------------------------------------------------
# A minimal asyncio HTTP/1.1 client (the server is stdlib-only; so is
# the suite).
# ---------------------------------------------------------------------
async def http_request(
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    host: str = "127.0.0.1",
    reader=None,
    writer=None,
):
    """One request; returns ``(status, decoded_json, raw_body_bytes)``.

    Pass ``reader``/``writer`` to reuse a keep-alive connection.
    """
    own = reader is None
    if own:
        reader, writer = await asyncio.open_connection(host, port)
    body = b"" if payload is None else json.dumps(payload).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length)
    if own:
        writer.close()
    return status, json.loads(raw), raw


@pytest.fixture()
def client():
    return http_request


@pytest.fixture()
def run_app(serve_setup):
    """Run a coroutine against a started in-process :class:`ServeApp`.

    ``run_app(coro_fn, **app_kwargs)`` starts the app (port 0, watcher
    off unless asked), awaits ``coro_fn(app)``, then drains.
    """
    from repro.serve.server import ServeApp

    def runner(coro_fn, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("watch", 0)

        async def main():
            app = ServeApp(serve_setup.store, **kwargs)
            await app.start()
            try:
                return await coro_fn(app)
            finally:
                app.request_drain()
                await app.drain(deadline=5.0)

        return asyncio.run(main())

    return runner
