"""The bytes of canonical artifacts, pinned as SHA-256 digests.

Six seed-42 replica files read the same on numpy's FMA loops and on its
baseline loops (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL"), and
have one digest each. series.csv, events.csv, metrics.json and report.json
hold complex-multiply and abs results whose last bits differ between the two
paths, so each has a set of accepted digests, one per float path; the same
holds for a short dense_bins-shaped run (N = 512, bins 56-255), whose
transform runs 8 full stages, and for a short wide_frames-shaped run
(N = 2048, bins 37-241, every stage pruned) through each detector, whose
generation crosses the 128-frame chunk edge. A digest changes only with an
intended byte change, named with its cause.
"""

import hashlib
import json

import pytest

from spectrig.cli import main

REPLICA_SEED_42_SHA256 = {
    "frames.bin": "ce94c940a39dc4ea2d8f9f13a9877984cdfe71136caf846f44a8241b3fec45af",
    "truth.csv": "3c622fdb88eceaf999da2be79979f706f3baeca817a152dc3c986e4201ea8ff3",
    "scenario.json": "85351a6a1ad0613a2d84dc8f35a0e08b010c1c71a4191d8704b988b96e8fc728",
    "pipeline.json": "883d3570d4567f8e02f81f6affa8af09f130a475256a8c615bdc400334ea29da",
    "confusion.csv": "1fe5e6e478702f2fe22158c5f141a5b4d733125723df1b1a2a8c0b3d01858bff",
    "per_phase.csv": "227c794867722dcb80b6a1e05da8dbf127f3b37a56347a7c4d48fbfcfd4500f6",
}

# Per float-path-dependent file, its accepted digests: one from numpy's default path, one
# from the baseline loops.
REPLICA_SEED_42_FLOAT_SHA256 = {
    "series.csv": {
        "0805099d39d46d88a137392d2ffec24c80c29e973c915348652919cc093e55b6",
        "539865b2949727bb543fd0b5964c7cef6fb3a1af64f569e76bf04c01eac35f2a",
    },
    "events.csv": {
        "f00ddd7be40cf0e871bd60f52aa3e3bf7dfb52f9de63c0acf9ce963923ab139c",
        "cfeb260b8bcb21eb53ff2a7b148ec1c061d3626c4074f15bd8abfed2115d4012",
    },
    "metrics.json": {
        "fa3979c9134eb4244fd8441ae80feb09a1c24087a6e669a2d6e428fc85eae1a3",
        "3abdc4e407d64a91847bfa12316a279613bf9d1d5e60b450681bf938f5b910ae",
    },
    "report.json": {
        "55970aa20b878066da692901cf57bf00dc669d4d4680073b55d5d28d82ff675b",
        "c9c5ae3dad6cf5d88b010d532d773df218b91411b914127c2c73a1a1482e7356",
    },
}

DENSE_FLOAT_SHA256 = {
    "series.csv": {
        "86d6aef2ebd0b11e96703df3fd9050c5ba4153bfe3dd63d1f1ceae8cf3618fc2",
        "ffecaf133a12af40388b7989c405753732f1d2f5d3ba8431c5fed320ecd62ed1",
    },
    "events.csv": {
        "0bc89e47b2a17060509f4fdb5d6181b92a230f7f77b60f64477c5b947d31faa0",
        "f7a83489141a36e58f898bf3ae80fc704522428e6358b9e302bd1938f4b87f17",
    },
    "metrics.json": {
        "5c97823bbdcb5d2510c1f1b534f294f90bb64b3d91de05cd41feec8e087838c7",
        "31b34ebd667399be37e379d4474c889c6a6ad4b9f76e65d0ace4af5abc9f922d",
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def replica(tmp_path_factory):
    out = tmp_path_factory.mktemp("replica")
    assert main(["replica", "--seed", "42", "--out-dir", str(out)]) == 0
    return out


def test_replica_seed_42_float_path_independent_bytes(replica):
    assert {name: sha256(replica / name) for name in REPLICA_SEED_42_SHA256} == REPLICA_SEED_42_SHA256


def test_replica_seed_42_float_path_dependent_bytes(replica):
    for name, accepted in REPLICA_SEED_42_FLOAT_SHA256.items():
        assert sha256(replica / name) in accepted, name


# sha256 of json.dumps(document, sort_keys=True), the threshold values taken out.
REPLICA_SEED_42_DOCUMENT_SHA256 = {
    "metrics.json": "f8119f3a9ce8680698f33cc75225633092d943259b58bc2bc2b8fff4c5597375",
    "report.json": "95a3f4571dd961344b025052dc3d98840e708e20ab7de3bf36c810b65dc596d3",
}


def without_thresholds(metrics: dict) -> dict:
    """The metrics document less the threshold trace's statistics, which hold floats
    of the float-path-dependent series."""
    del metrics["threshold"]
    for entry in metrics["per_phase"]:
        del entry["threshold_min"], entry["threshold_max"]
    return metrics


def test_replica_seed_42_float_path_independent_documents(replica):
    metrics = json.loads((replica / "metrics.json").read_text())
    report = json.loads((replica / "report.json").read_text())
    documents = {"metrics.json": without_thresholds(metrics), "report.json": report}
    without_thresholds(report["metrics"])
    digests = {
        name: hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
        for name, document in documents.items()
    }
    assert digests == REPLICA_SEED_42_DOCUMENT_SHA256


DENSE_BINS = list(range(56, 256))
DENSE_SCENARIO = {
    "seed": 3,
    "frame_size": 512,
    "sample_rate_hz": 8000.0,
    "bins": DENSE_BINS,
    "warmup_frames": 67,
    "magnitude_jitter": 0.1,
    "phases": [
        {"name": "low_noise", "frames": 150, "events": 5, "level": 40.0},
        {"name": "transition", "frames": 100, "events": 1, "ramp": {"start": 40.0, "end": 200.0}},
        {"name": "high_noise", "frames": 150, "events": 3, "level": 200.0},
    ],
    "events": {"target_bins": DENSE_BINS, "amplitude_ratio": 6.0, "duration_frames": 1, "min_gap_frames": 2},
}
DENSE_PIPELINE = {
    "frame_size": 512,
    "sample_rate_hz": 8000.0,
    "bins": DENSE_BINS,
    "fast_window": 3,
    "slow_window": 64,
    "threshold": 1.5,
    "warmup_frames": 67,
}


def test_dense_bins_float_path_dependent_bytes(tmp_path):
    """generate, detect (proposed, median) and eval of a 400-frame dense_bins-shaped run."""
    (tmp_path / "scenario.json").write_text(json.dumps(DENSE_SCENARIO))
    (tmp_path / "pipeline.json").write_text(json.dumps(DENSE_PIPELINE))
    gen, det, ev = tmp_path / "gen", tmp_path / "detect", tmp_path / "eval"
    assert main(["generate", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(gen)]) == 0
    assert main([
        "detect", "--frames", str(gen / "frames.bin"), "--config", str(tmp_path / "pipeline.json"),
        "--out-dir", str(det),
    ]) == 0
    assert main([
        "eval", "--events", str(det / "events.csv"), "--truth", str(gen / "truth.csv"),
        "--scenario", str(gen / "scenario.json"), "--series", str(det / "series.csv"),
        "--out-dir", str(ev),
    ]) == 0
    digests = {"series.csv": sha256(det / "series.csv"), "events.csv": sha256(det / "events.csv"),
               "metrics.json": sha256(ev / "metrics.json")}
    for name, accepted in DENSE_FLOAT_SHA256.items():
        assert digests[name] in accepted, name


WIDE_BINS = [37, 101, 173, 241]
WIDE_SCENARIO = {
    "seed": 3,
    "frame_size": 2048,
    "sample_rate_hz": 16000.0,
    "bins": WIDE_BINS,
    "warmup_frames": 67,
    "magnitude_jitter": 0.1,
    "phases": [
        {"name": "low_noise", "frames": 124, "events": 4, "level": 40.0},
        {"name": "transition", "frames": 88, "events": 1, "ramp": {"start": 40.0, "end": 200.0}},
        {"name": "high_noise", "frames": 88, "events": 3, "level": 200.0},
    ],
    "events": {"target_bins": WIDE_BINS, "amplitude_ratio": 6.0, "duration_frames": 1, "min_gap_frames": 2},
}
WIDE_PIPELINE = {
    "frame_size": 2048,
    "sample_rate_hz": 16000.0,
    "bins": WIDE_BINS,
    "fast_window": 3,
    "slow_window": 64,
    "threshold": 1.5,
    "warmup_frames": 67,
}
WIDE_DETECTORS = {
    "proposed": ["--detector", "proposed"],
    "fixed": ["--detector", "fixed", "--calib-frames", "100"],
    "decimated": ["--detector", "decimated"],
}


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """generate, then detect and eval with each detector, of a 300-frame wide_frames-shaped
    run (N = 2048, so 128-frame chunks); {relative path: sha256} of every file written."""
    work = tmp_path_factory.mktemp("wide")
    (work / "scenario.json").write_text(json.dumps(WIDE_SCENARIO))
    (work / "pipeline.json").write_text(json.dumps(WIDE_PIPELINE))
    gen = work / "gen"
    assert main(["generate", "--config", str(work / "scenario.json"), "--out-dir", str(gen)]) == 0
    for name, args in WIDE_DETECTORS.items():
        det, ev = work / name, work / f"{name}_eval"
        assert main([
            "detect", "--frames", str(gen / "frames.bin"), "--config", str(work / "pipeline.json"),
            *args, "--out-dir", str(det),
        ]) == 0
        series = ["--series", str(det / "series.csv")] if name == "proposed" else []
        assert main([
            "eval", "--events", str(det / "events.csv"), "--truth", str(gen / "truth.csv"),
            "--scenario", str(gen / "scenario.json"), *series, "--out-dir", str(ev),
        ]) == 0
    return {str(path.relative_to(work)): sha256(path) for path in work.glob("*/*")}



# Files whose bytes are the same on both float paths: one digest each.
WIDE_SHA256 = {
    "gen/frames.bin": "8aea9f7013300defe3f91ca186eff03ad3a3d40e1638cbd40413d2ff21d6ab98",
    "gen/truth.csv": "e28918c3577f8e412894949f03066f849dab630163f8d854eb60bc771cabb1f0",
    "gen/scenario.json": "355c13a3b223add5a6ff9a107d5f3771fad15769b0c79c2d20569ee04fc2cf12",
    "proposed/pipeline.json": "ef79e15b6f2e0458f11b231660657bec8d74babf9a67caaf86913f6ddb64454c",
    "proposed_eval/confusion.csv": "163f0bb9e7c2fa9cbbdabe2fb779f1b0b6a9b8c4e4e35d9477a71330b21ffa77",
    "proposed_eval/per_phase.csv": "9b79ad58cdfb23ae5a614c38a56b6360cc234bc5cdb0e48c0d714a5ad0988314",
    "fixed/pipeline.json": "ef79e15b6f2e0458f11b231660657bec8d74babf9a67caaf86913f6ddb64454c",
    "fixed_eval/confusion.csv": "b9d2491a95b5cfcb20f8f407b2256f5a5c3ac4d3086250f85fa3499b22df8181",
    "fixed_eval/per_phase.csv": "eabbe1630857148e52be0fb18f435faa74f0cfca898fae7cade1e3c2dfa1a5c2",
    "fixed_eval/metrics.json": "ada18552e77739008c3239f7c1b897cbc984b1741c7b9be137e6f9d1470a3675",
    "decimated/events.csv": "d77c01ff3ef9c750d9f389cae0f43f6eb07d7e1af79a6e1854b925848ea681e3",
    "decimated/pipeline.json": "ef79e15b6f2e0458f11b231660657bec8d74babf9a67caaf86913f6ddb64454c",
    "decimated_eval/confusion.csv": "9354f9dd322f4e19fa4183200b436d081629c982970faad123b422bf3e7f3339",
    "decimated_eval/per_phase.csv": "5b13d11f319e52bc9e3fd1891f0305889c02165c507251d715994df3454052a2",
    "decimated_eval/metrics.json": "4512076c501a163682b6894734946f0662c223bc366c9cb1d34f9dfd3ed0faaa",
}

# Per float-path-dependent file, its accepted digests: numpy's default path, the baseline loops.
WIDE_FLOAT_SHA256 = {
    "proposed/series.csv": {
        "0ce83d2a4bbeda0a7209f223579289f9c59c66af8214564f84f89b3a68b89325",
        "21486daaa1d4a045169fdb47e1fe282cca514ac3576821d7ded02458ee8e4659",
    },
    "proposed/events.csv": {
        "50214e1640e4939b0927b183c69598060acc8ddaebac6d7ed1928cf0f2f1b41d",
        "10d7bc6cdf0faefcf64bfdd012557fbc93352fb026a7b8619b4f7617042d0c38",
    },
    "proposed_eval/metrics.json": {
        "a2723dfa0cc0452cb0147229d9cc0793cef9f40dc5b8a25fe9895b6e9a6e91bf",
        "ece80a130e18763863d2fd52d01ec6eba97bbb22a80911c2a2c5d956fdc865d0",
    },
    "fixed/events.csv": {
        "84558027b2dd986c75c68c28b2cca8676a5f2cdf40ddb3190bff674fb1f3bb40",
        "d32e5f6ceca41a3ed064d6fde9fbf1e3559e8826e07b6cf1f161ecc33b4f08a0",
    },
}


def test_wide_frames_every_file_is_pinned(wide):
    assert sorted(wide) == sorted([*WIDE_SHA256, *WIDE_FLOAT_SHA256])


def test_wide_frames_float_path_independent_bytes(wide):
    assert {name: wide[name] for name in WIDE_SHA256} == WIDE_SHA256


def test_wide_frames_float_path_dependent_bytes(wide):
    for name, accepted in WIDE_FLOAT_SHA256.items():
        assert wide[name] in accepted, name
