"""Golden bytes for the streaming ingest path.

A seeded 32-meter x 4-day fleet is ingested one day per ``push_chunk`` +
``commit`` and finalized; the SHA-256 of every manifest and segment file
must match digests recorded from a known-good build.  Parity tests that
re-encode with ``OnlineEncoder`` cannot catch a change that alters the
encoder and its reference alike; fixed bytes can.

The fleet is built here with NumPy rather than imported from the
benchmark, so changing the benchmark cannot move these digests.  It
carries the cases the vectorised window path has to get right: NaN gaps
long enough to skip whole windows (meters then close windows at
different rates), scattered NaNs, readings quantised to 0.1 W (repeated
values) and a meter whose standby floor mixes ``0.0`` and ``-0.0``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.store import FleetIngestor

N_METERS = 32
DAYS = 4
SAMPLES_PER_DAY = 1440  # 60 s sampling


def _fleet():
    rng = np.random.default_rng(20131)
    n = DAYS * SAMPLES_PER_DAY
    times = np.arange(n) * 60.0
    hours = (np.arange(n) % SAMPLES_PER_DAY) / 60.0
    level = np.exp(rng.normal(5.0, 0.5, size=(N_METERS, 1)))
    evening = rng.uniform(17.0, 21.0, size=(N_METERS, 1))
    cycle = 0.5 + 1.5 * np.exp(-0.5 * ((hours - evening) / 2.0) ** 2)
    noise = rng.lognormal(0.0, 0.2, size=(N_METERS, n))
    values = np.round(level * cycle * noise, 1)
    # Meter 1: 0.0 / -0.0 standby floor every night.
    night = hours < 5.0
    values[1, night] = np.where(rng.random(int(night.sum())) < 0.5, 0.0, -0.0)
    # Meter 2: a five-hour outage on day 3 skips whole windows.
    outage = 2 * SAMPLES_PER_DAY + 10 * 60
    values[2, outage:outage + 5 * 60] = np.nan
    # Meter 3: scattered missing readings.
    values[3, rng.random(n) < 0.05] = np.nan
    # Meter 4: a gap straddling the day boundary (and so a push_chunk cut).
    values[4, 2 * SAMPLES_PER_DAY - 100:2 * SAMPLES_PER_DAY + 140] = np.nan
    return times, values


#: SHA-256 of every file of the finalized store, per aggregator.
GOLDEN = {
    "average": {
        "manifest-0000000001.json":
            "9ff077a3edac41269fd01f78813e20829b9dfd8fbab87afd41a99c40db5b8bad",
        "manifest-0000000002.json":
            "69c8efe4ab0bb3a92c39af57b59ac5ee65246e72cf85b70dbd6508398b7d57ac",
        "manifest-0000000003.json":
            "1cc7375d7bed14c25da1b99d2efa578a2fc46ea54fd3a6b85d5331f462a9614d",
        "manifest-0000000004.json":
            "258027df6255b42573cd56e78d38dad1504324a43e74035155c7636cf9724441",
        "seg-000000.rsym":
            "9953963ebfdad0dc1f4d42914b3d84429b42a06d61139c48a12b4b4c0dda5336",
        "seg-000001.rsym":
            "f9702dfe348a745cde08726f94563ae7e4c4d88ef77e641f291dd7bb37463eb1",
        "seg-000002.rsym":
            "4bc7478a34387bf85594ea85c56b385b39293049d882e9eedc2b48a7d8e8e85c",
    },
    "max": {
        "manifest-0000000001.json":
            "670a4825b5d80ccb68da45ff1d6c9ef3e43b5b0b88e8d7e2083156acc86bebd3",
        "manifest-0000000002.json":
            "ce05b3288002e0f189a6da59afacf9f7f712d45c11be5662c45a0de372b8fa6f",
        "manifest-0000000003.json":
            "236c2fa3f1ba75dd4c6629e2522abc59213a2a343a7f3b27196fce41466ac21d",
        "manifest-0000000004.json":
            "af164516dd4abbf3ceb25683a971be45802b15de7b56c5289044208d64d4c2b2",
        "seg-000000.rsym":
            "be92a1463f861b7024899586d0986b9d9e08260f0e391f8586227691187d7a1e",
        "seg-000001.rsym":
            "c4403a425c06f73447f8d038b5a4b4716fd22681b90e008db0a9d5d302d32f86",
        "seg-000002.rsym":
            "bbbd27a8d410c55d7b59458cb3e0b0775522e0bbfa91dfc6ee12ebc8f94551db",
    },
    "median": {
        "manifest-0000000001.json":
            "d8d86d894a87c301b7b08d6ffb7e774d61726a4e9f3f8ca36391b537c2968612",
        "manifest-0000000002.json":
            "9ed65ed52135b4628fd69e50c30aabf7a3e6eb8e863522097ca3cae189538360",
        "manifest-0000000003.json":
            "b568e60ca75ca32650af7b690c232eea93e67eb37bed94104c96306df2d848b7",
        "manifest-0000000004.json":
            "bb53c1231874628a739b40590e2826fafd93bf977e8a21d3eb1648562a878a7e",
        "seg-000000.rsym":
            "915bdbe96b926af5d41b37005e6a7fd86e401bd92f8fa2759877c243679d03fb",
        "seg-000001.rsym":
            "60353326010c635fa9a0b24a97d97c8a7f0a70be1a9f9904a7cada024e20bbd8",
        "seg-000002.rsym":
            "b3fb37e230158b73564938d17d5a3b62fecc04b0d93aa2ac3525c74453682d23",
    },
    "min": {
        "manifest-0000000001.json":
            "d79f132a9f7cbf8716ce21eb68752a019e54ab5774339d716f1f68fbb646111f",
        "manifest-0000000002.json":
            "5126ba0fde1fb5e7733fcbe7c470ab75b3f584667c9448efbb464195f92e0c4a",
        "manifest-0000000003.json":
            "2106622647d1b512c706519eb59d10cd0a4ee3e492cfcb3bed1a9ad0dcb97cc3",
        "manifest-0000000004.json":
            "ad9e5651d08365faef32f9ac93d31edd2a30757fe94b820e070df23574b6ee4c",
        "seg-000000.rsym":
            "fefa41b90fe83e59932508ef8a004a3586d872421523d0d48660be5fbece9a7d",
        "seg-000001.rsym":
            "4e5e26de1d0df4062f2081c0976c5d0c5971b87bafdc04f8078180ebb3078d86",
        "seg-000002.rsym":
            "8bbd00fec289d5c6e2074bc5fc100664b67e1cf24d120560b806488662c790df",
    },
    "sum": {
        "manifest-0000000001.json":
            "57aaef5b34b831763210a599e1fb883d922e545493afca5d0468a95f2f55761b",
        "manifest-0000000002.json":
            "0cedec148d193108fd0e30c68688b8cea913b1be1b445ca332c50f821c093bf4",
        "manifest-0000000003.json":
            "946841cdb7e319aa5a5103388c76a1e9dbed04ebaef3a90ace350ed2fa0a924f",
        "manifest-0000000004.json":
            "2ef921f2ad00c41840cb5fc0f508a33e767d11415196cf9f80910184161c15a7",
        "seg-000000.rsym":
            "8a1079bd552dd50c0ac454494aa80a4c270bc0eec280bd2329829a8ad963cb95",
        "seg-000001.rsym":
            "4b4a5a41a400b7c1478e378b6e663e1dbb67296f6b6fecab3eab98ebb043857b",
        "seg-000002.rsym":
            "95ea0b678f7db9b32034b9e76abdb071e5c0196d19b7648e9560052483e1be55",
    },
}


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


@pytest.mark.parametrize("aggregator", sorted(GOLDEN))
def test_ingest_bytes_match_golden(tmp_path, aggregator):
    times, values = _fleet()
    directory = tmp_path / "fleet.rsyms"
    ingestor = FleetIngestor(
        directory, list(range(N_METERS)), alphabet_size=8, method="median",
        window_seconds=900.0, aggregator=aggregator, segment_windows=0,
        workers=1,
    )
    for day in range(DAYS):
        span = slice(day * SAMPLES_PER_DAY, (day + 1) * SAMPLES_PER_DAY)
        ingestor.push_chunk(times[span], values[:, span])
        ingestor.commit()
    ingestor.finalize().close()
    assert _digests(directory) == GOLDEN[aggregator]
