"""The bytes of canonical artifacts, pinned as SHA-256 digests.

Six seed-42 replica files read the same on numpy's FMA loops and on its
baseline loops (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL"), and
have one digest each. series.csv, events.csv, metrics.json and report.json
hold complex-multiply and abs results whose last bits differ between the two
paths, so each has a set of accepted digests, one per float path; the same
holds for a short dense_bins-shaped run (N = 512, bins 56-255), whose
transform runs 8 full stages. A digest changes only with an intended byte
change, named with its cause.
"""

import hashlib
import json

import pytest

from spectrig.cli import main

REPLICA_SEED_42_SHA256 = {
    "frames.bin": "47f63e2dc72a4502f749ad52b64c75744025f2bb7418ef6e9cdd55680355c159",
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
        "665e1c0a664898cbf8572e05c03ae3f912956a6f9da404be27f4d2587b0eeae4",
        "f860efeba6e1f6af7169f2d4333c7280a31942ae35f9694c1c81898ea8483347",
    },
    "events.csv": {
        "81b64c68bda0a06e49ecc703e0bacd24b16d8ff6f7cdabc1021403c27acb940e",
        "879c52930ab07021bb383bafe5fb81512893bba207be03a371d6e707ecab1882",
    },
    "metrics.json": {
        "b00f52a002055473d8e4cbbb74a405bfb9737c07554fbfc337246f1f919cc588",
        "f2488c7dd9962ceba4e7c0e9159d70fb7b5b840c1e367fd0e11d15095fe1aef5",
    },
    "report.json": {
        "903b0eb2add65c21015afbb21dd58b11b7ddcfdf9e2179d5cae51094facf86d2",
        "6e2ac060d8064db921aece863f12f0523da3c1f54668e1c53d3719d5713bfece",
    },
}

DENSE_FLOAT_SHA256 = {
    "series.csv": {
        "e1d84d73c867cb849df8e6b1044c857fb8a0ce6cbf524fb1cf95a39d3ac2cef9",
        "fd6dc337cad8b2e6c84923e2bc28cec20e46350be5de9d01feb1853911436059",
    },
    "events.csv": {
        "328df43de1871bcc2c84a905854a3fc1b0d398c731407e2b099c4d1b82c5955d",
        "e256cc0aa8dabae1864b38b74a54572474a6b9fabd5c2cd3c44aa58bae71bec5",
    },
    "metrics.json": {
        "6b537eb463b249cab4b3ce09ac1cdeff5ab24549ac4b7b5fe18063c81d6e4fd4",
        "db945e56c1d4a2f1a7f5dd00b3fa2930a9d93ddf99674f439a3b4ad04a0a3bf8",
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
    "report.json": "8c611c82ae8fd6096bd282208a22c0ff63a7cc94c8a62cd33d167457ebe163f9",
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
