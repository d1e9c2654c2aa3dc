"""The module-to-layer map, profile folding and probe patching."""

import os

import pytest

from conftest import ROOT
from layers import (
    LAYER_PREFIXES,
    LAYERS,
    Probe,
    attribute_profile,
    layer_of,
    module_of_file,
    self_shares,
)

MODULES = sorted(
    module_of_file(os.path.join(dirpath, name))
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src", "repro"))
    for name in files
    if name.endswith(".py")
)

#: the layers whose self-time share the DES workloads report
DES_LAYERS = (
    "sim.core", "sim.network", "sim.disk", "sim.resources", "engine.des",
    "engine.replica", "blobseer.protocol", "blobseer.sim_vm",
    "blobseer.version_manager", "blobseer.metadata", "blobseer.pages",
    "bsfs", "hdfs", "mapreduce", "faults", "obs",
)
#: the live path's layers
LIVE_LAYERS = (
    "server.http", "server.app", "engine.aio", "blobseer.backends",
    "blobseer.placement", "bsfs.namespace",
)


def test_every_module_has_exactly_one_layer():
    assert len(MODULES) > 50
    for module in MODULES:
        matches = [
            p for p in LAYER_PREFIXES
            if module == p or module.startswith(p + ".")
        ]
        assert matches, f"{module} has no layer"
        longest = max(len(p) for p in matches)
        assert [len(p) for p in matches].count(longest) == 1, module
        assert layer_of(module) in LAYERS


def test_every_prefix_names_a_module():
    for prefix in LAYER_PREFIXES:
        assert prefix in MODULES, f"stale prefix {prefix}"


def test_named_layers_exist():
    for layer in DES_LAYERS + LIVE_LAYERS:
        assert layer in LAYERS


@pytest.mark.parametrize(
    "module, layer",
    [
        ("repro.sim.network", "sim.network"),
        ("repro.sim.cluster", "sim.other"),
        ("repro.blobseer.metadata.segment_tree", "blobseer.metadata"),
        ("repro.blobseer.backends.logstore", "blobseer.backends"),
        ("repro.blobseer.provider_manager", "blobseer.placement"),
        ("repro.bsfs.protocol", "bsfs"),
        ("repro.bsfs.namespace", "bsfs.namespace"),
        ("repro.server.cli", "server.app"),
        ("repro.mapreduce.io.input", "mapreduce"),
        ("asyncio.base_events", None),
    ],
)
def test_layer_of(module, layer):
    assert layer_of(module) == layer


def test_module_of_file():
    assert module_of_file("/x/src/repro/sim/core.py") == "repro.sim.core"
    assert module_of_file("/x/src/repro/obs/__init__.py") == "repro.obs"
    assert module_of_file("/usr/lib/python3/asyncio/events.py") is None
    assert module_of_file("~") is None


def test_foreign_time_folds_into_calling_layers():
    core = ("/r/src/repro/sim/core.py", 10, "run")
    net = ("/r/src/repro/sim/network.py", 20, "_fill")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/functools.py", 5, "wrapper")
    root = ("/r/perfbench/des_child.py", 1, "main")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        core: (1, 1, 3.0, 9.0, {root: (1, 1, 3.0, 9.0)}),
        net: (4, 4, 2.0, 3.0, {core: (4, 4, 2.0, 3.0)}),
        # heappush: 1.0s under sim.core, 0.5s under a foreign helper that
        # sim.network called, 0.5s straight from the root
        heap: (
            9, 9, 2.0, 2.0,
            {core: (5, 5, 1.0, 1.0), helper: (2, 2, 0.5, 0.5), root: (2, 2, 0.5, 0.5)},
        ),
        helper: (2, 2, 0.25, 0.75, {net: (2, 2, 0.25, 0.75)}),
    }
    by_layer, unattributed = attribute_profile(stats)
    assert by_layer["sim.core"] == pytest.approx(3.0 + 1.0)
    assert by_layer["sim.network"] == pytest.approx(2.0 + 0.5 + 0.25)
    assert unattributed == pytest.approx(0.5 + 0.5)
    shares = self_shares(stats)
    assert shares["named_share"] == pytest.approx(6.75 / 7.75)
    assert shares["sim.core.self_share"] == pytest.approx(4.0 / 7.75)
    assert shares["hdfs.self_share"] == 0.0


def test_probe_uninstall_restores_every_attribute():
    from repro.blobseer import protocol, provider
    from repro.blobseer.version_manager import ThreadedVersionManager

    before = (
        protocol.overlay,
        provider.Provider.__dict__["put_page"],
        ThreadedVersionManager.__dict__["commit"],
    )
    probe = Probe()
    probe.install_components()
    probe.install_parse()
    probe.install_network()
    assert protocol.overlay is not before[0]
    probe.uninstall()
    after = (
        protocol.overlay,
        provider.Provider.__dict__["put_page"],
        ThreadedVersionManager.__dict__["commit"],
    )
    assert after == before


def test_probe_counts_a_threaded_append_and_read():
    from repro.blobseer.client import BlobSeerService

    probe = Probe()
    probe.install_components()
    try:
        service = BlobSeerService(n_providers=2)
        client = service.client("c")
        blob = client.create_blob(4096)
        for _ in range(3):
            client.append(blob, b"x" * 1000)
        assert client.read(blob, 500, 2000) == b"x" * 2000
        service.close()
    finally:
        probe.uninstall()
    m = probe.live_metrics()
    assert probe.calls["ops.append"] == 3
    assert probe.calls["ops.read"] == 1
    assert m["blobseer.backends.stored_bytes_per_user_byte"] == pytest.approx(1.0)
    assert m["blobseer.backends.fetches_per_read"] == 3  # one per record touched
    assert m["blobseer.pages.fragments_per_overlay"] > 1
    assert m["blobseer.metadata.node_ops_per_read"] > 0
    assert m["blobseer.version_manager.calls_per_append"] >= 3
