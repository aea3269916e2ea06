"""The bytes of the seed-42 replica's artifacts that do not depend on numpy's float path.

These six files read the same on numpy's FMA loops and on its baseline loops
(NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL"). series.csv, events.csv,
metrics.json and report.json hold complex-multiply and abs results whose last
bits differ between the two paths, so their bytes are not pinned here; the
metrics document, alone and inside report.json, is pinned without its threshold
values. A digest changes only with an intended byte change, named with its cause.
"""

import hashlib
import json

from spectrig.cli import main

REPLICA_SEED_42_SHA256 = {
    "frames.bin": "47f63e2dc72a4502f749ad52b64c75744025f2bb7418ef6e9cdd55680355c159",
    "truth.csv": "3c622fdb88eceaf999da2be79979f706f3baeca817a152dc3c986e4201ea8ff3",
    "scenario.json": "85351a6a1ad0613a2d84dc8f35a0e08b010c1c71a4191d8704b988b96e8fc728",
    "pipeline.json": "883d3570d4567f8e02f81f6affa8af09f130a475256a8c615bdc400334ea29da",
    "confusion.csv": "1fe5e6e478702f2fe22158c5f141a5b4d733125723df1b1a2a8c0b3d01858bff",
    "per_phase.csv": "227c794867722dcb80b6a1e05da8dbf127f3b37a56347a7c4d48fbfcfd4500f6",
}


def test_replica_seed_42_float_path_independent_bytes(tmp_path):
    assert main(["replica", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in REPLICA_SEED_42_SHA256
    }
    assert digests == REPLICA_SEED_42_SHA256


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


def test_replica_seed_42_float_path_independent_documents(tmp_path):
    assert main(["replica", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    documents = {"metrics.json": without_thresholds(metrics), "report.json": report}
    without_thresholds(report["metrics"])
    digests = {
        name: hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
        for name, document in documents.items()
    }
    assert digests == REPLICA_SEED_42_DOCUMENT_SHA256
