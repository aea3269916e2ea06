"""The bytes of canonical artifacts, pinned as SHA-256 digests.

Six seed-42 replica files read the same on numpy's FMA loops and on its
baseline loops (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL"), and
have one digest each. series.csv, events.csv, metrics.json and report.json
hold complex-multiply and abs results whose last bits differ between the two
paths, so each has a set of accepted digests, one per float path. Every file
of the seed-42 replica is pinned with each floor tracker, median and EMA; so
is every file of a short dense_bins-shaped run (N = 512, bins 56-255, 8 full
transform stages) and of a short wide_frames-shaped run (N = 2048, bins
37-241, every stage pruned, generation crossing the 128-frame chunk edge),
each through the proposed, fixed and decimated detectors, the dense run's
proposed detector with both trackers. Each demo's stdout is pinned too; it
reads the same on both float paths. A digest changes only with an intended
byte change, named with its cause.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectrig
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
        "18019d0a3010695d7f50b2d76a191acd4a7074af1b3b41516f23d5f3a262fe94",
        "9cecbd555c0feb75eb92d30bc5ba0755398f1e29cced9f75095b998424201cbd",
    },
    "events.csv": {
        "05d52a00e84c796346912dda4b1b98955a4840371b03b10e2169231014d4ad35",
        "2271909f19cd991abe387e7da00ebcddb4874972a26434fd2080e95b6dbdde28",
    },
    "metrics.json": {
        "303f32356e5e8b3ba634508a4ffa20b98adeb7fc94b3d3afb5b59359bdca8a56",
        "349870985adb9e088d3d65c2512e405abd234ca9f9dc68eb6572d6a7494fbd9a",
    },
    "report.json": {
        "d6596aba816e490d94c2f7896260e13e2d2efa4023512c31bf114855be67895f",
        "9a53fdcdade8961fc664ddd1b9b782f1500b0d0bde53387645af88b22fcc93c9",
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


def document_digests(out) -> dict:
    """sha256 of a replica's metrics.json and report.json documents, thresholds taken out."""
    metrics = json.loads((out / "metrics.json").read_text())
    report = json.loads((out / "report.json").read_text())
    documents = {"metrics.json": without_thresholds(metrics), "report.json": report}
    without_thresholds(report["metrics"])
    return {
        name: hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
        for name, document in documents.items()
    }


def test_replica_seed_42_float_path_independent_documents(replica):
    assert document_digests(replica) == REPLICA_SEED_42_DOCUMENT_SHA256


# replica --seed 42 --tracker ema: the EMA floor's files, pinned as the median's are.
REPLICA_EMA_SEED_42_SHA256 = {
    "confusion.csv": "1fe5e6e478702f2fe22158c5f141a5b4d733125723df1b1a2a8c0b3d01858bff",
    "frames.bin": "ce94c940a39dc4ea2d8f9f13a9877984cdfe71136caf846f44a8241b3fec45af",
    "per_phase.csv": "227c794867722dcb80b6a1e05da8dbf127f3b37a56347a7c4d48fbfcfd4500f6",
    "pipeline.json": "8bd138c2ac79eb7fff59362e31e85d294ccf0c9b55b9dade8a3213da5aa896df",
    "scenario.json": "85351a6a1ad0613a2d84dc8f35a0e08b010c1c71a4191d8704b988b96e8fc728",
    "truth.csv": "3c622fdb88eceaf999da2be79979f706f3baeca817a152dc3c986e4201ea8ff3",
}

REPLICA_EMA_SEED_42_FLOAT_SHA256 = {
    "events.csv": {
        "abd9e268aeee49cce7c3697ba2321f22a017278b20655c5b39a17be5aae7fc6e",
        "b0cdf01fa584a07bc1377a91fd4fe318647e798a7d973262ece7c56c4a66a0a6",
    },
    "metrics.json": {
        "801c9df5b2f5ca10caac4576ec5bc04eaf460ca3276656a6fb8b69f3d81b69b7",
        "c939d0597e8c505f19b02a93ffd44d612c94b0cdc34f59853b29eb3c6e802049",
    },
    "report.json": {
        "01a82c75dc6401f14ff09fa699d8225e67fa62ec3a48e33d4da88a003800019c",
        "3255c57218b1c29a9669d81db50279b8f5e30d5b5cbc331d9ea64ff181e012ad",
    },
    "series.csv": {
        "495e90098eb5b4e7e1b28c41e871253a17618a7a3e454f4d5a7935b42189194b",
        "e9e16cf82f50a767a2487df8209208ab3c8875562fc9c571bc871867c52d35ce",
    },
}

REPLICA_EMA_SEED_42_DOCUMENT_SHA256 = {
    "metrics.json": "f8119f3a9ce8680698f33cc75225633092d943259b58bc2bc2b8fff4c5597375",
    "report.json": "81abae27732e31400a46a6347a321ed7501936eef4fa612099194ac6d7462672",
}


@pytest.fixture(scope="module")
def replica_ema(tmp_path_factory):
    out = tmp_path_factory.mktemp("replica_ema")
    assert main(["replica", "--seed", "42", "--tracker", "ema", "--out-dir", str(out)]) == 0
    return out


def test_replica_ema_seed_42_every_file_is_pinned(replica_ema):
    names = sorted(path.name for path in replica_ema.iterdir())
    assert names == sorted([*REPLICA_EMA_SEED_42_SHA256, *REPLICA_EMA_SEED_42_FLOAT_SHA256])


def test_replica_ema_seed_42_float_path_independent_bytes(replica_ema):
    digests = {name: sha256(replica_ema / name) for name in REPLICA_EMA_SEED_42_SHA256}
    assert digests == REPLICA_EMA_SEED_42_SHA256


def test_replica_ema_seed_42_float_path_dependent_bytes(replica_ema):
    for name, accepted in REPLICA_EMA_SEED_42_FLOAT_SHA256.items():
        assert sha256(replica_ema / name) in accepted, name


def test_replica_ema_seed_42_float_path_independent_documents(replica_ema):
    assert document_digests(replica_ema) == REPLICA_EMA_SEED_42_DOCUMENT_SHA256


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


DENSE_DETECTORS = {
    "median": ["--detector", "proposed"],
    "ema": ["--detector", "proposed", "--tracker", "ema"],
    "fixed": ["--detector", "fixed", "--calib-frames", "100"],
    "decimated": ["--detector", "decimated"],
}


def run_detectors(work, scenario, pipeline, detectors) -> dict:
    """generate, then detect and eval with each detector (the proposed ones' eval with their
    series); {relative path: sha256} of every file written under ``work``."""
    (work / "scenario.json").write_text(json.dumps(scenario))
    (work / "pipeline.json").write_text(json.dumps(pipeline))
    gen = work / "gen"
    assert main(["generate", "--config", str(work / "scenario.json"), "--out-dir", str(gen)]) == 0
    for name, args in detectors.items():
        det, ev = work / name, work / f"{name}_eval"
        assert main([
            "detect", "--frames", str(gen / "frames.bin"), "--config", str(work / "pipeline.json"),
            *args, "--out-dir", str(det),
        ]) == 0
        series = ["--series", str(det / "series.csv")] if "proposed" in args else []
        assert main([
            "eval", "--events", str(det / "events.csv"), "--truth", str(gen / "truth.csv"),
            "--scenario", str(gen / "scenario.json"), *series, "--out-dir", str(ev),
        ]) == 0
    return {str(path.relative_to(work)): sha256(path) for path in work.glob("*/*")}


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    """A 400-frame dense_bins-shaped run through the median, EMA, fixed and decimated detectors."""
    return run_detectors(tmp_path_factory.mktemp("dense"), DENSE_SCENARIO, DENSE_PIPELINE, DENSE_DETECTORS)


# Files whose bytes are the same on both float paths: one digest each.
DENSE_SHA256 = {
    "decimated/events.csv": "06cc48e1aa754b0a16a6b55b16102b49573488638d514faeae0b0eb60868aea4",
    "decimated/pipeline.json": "b94858e5135d3a792dec406335b09e3c96fd06742e6437648ffe346af87f4d20",
    "decimated_eval/confusion.csv": "8bc8792d3ab5541ee38829581dd7262e9cb547c65c8414391378d44c428f4a08",
    "decimated_eval/metrics.json": "d9bb83469d9bf29a473f0c3078e0aa9187fdb5ad6548dba56e6172c1224e0dbc",
    "decimated_eval/per_phase.csv": "9b2c0d8fbb7f33b6836835008e2b6d6bdbe0268cefada22a8a2075dbf8430ace",
    "ema/pipeline.json": "30870701eec085916424bc2fa65cb941e041332e317e8df8c3e780f45f778246",
    "ema_eval/confusion.csv": "63e82019d77d3927ba2c3acc34377c2510f79423330d28226694bf9eab61a4e7",
    "ema_eval/per_phase.csv": "cda28cc05160e190be44a087bc8501e849e098ac3c797ac6459efd6aff1b5b2d",
    "fixed/pipeline.json": "b94858e5135d3a792dec406335b09e3c96fd06742e6437648ffe346af87f4d20",
    "fixed_eval/confusion.csv": "1361d728b20da0ccaa10630a26d85be8acb8e417c2d2777a1a70b3293c14d367",
    "fixed_eval/metrics.json": "6eedb694cf6e1cdeed564dd1ccd8902b25b78635e6d1f03b00910bd715e9aae3",
    "fixed_eval/per_phase.csv": "f4fa6d3459cd7a9b1c340327c49b9ce0b570dc611f6b3ea19c56f402cf140d5e",
    "gen/frames.bin": "00ea7a7bee15208fd29cf6a112204fe79dd9ee614f247206aada3b2d38694ac5",
    "gen/scenario.json": "dae69db7d50e4ed9ec694da1b50dd4fee1ab71596f1f186f000a2d652b22dbed",
    "gen/truth.csv": "3073ed841134afe7c6b3fa7efafd4ea420224b42e2a4b5aecc197c86e350e425",
    "median/pipeline.json": "b94858e5135d3a792dec406335b09e3c96fd06742e6437648ffe346af87f4d20",
    "median_eval/confusion.csv": "7d8132f8132b293f9a3463f561d76100ccd45ccc718bf0338673053d28b3796e",
    "median_eval/per_phase.csv": "b544bc7e7d20de2f27edfc76a8e948596e99608538a30a2d122e0256d293b870",
}

# Per float-path-dependent file, its accepted digests: numpy's default path, the baseline loops.
DENSE_FLOAT_SHA256 = {
    "ema/events.csv": {
        "87657706d4e1643dd726a3adc986316c4aa437bc106581cf2e72823a1b170246",
        "7aafa78b708545eb904e35b280dc2a2adcdf43c7db3fba0319fff4e18e070dd3",
    },
    "ema/series.csv": {
        "c1746140eb00afb351a186cf09470c49e57029cf77af17fd9b5a481cceaca734",
        "44e0f3cab28b334c12d161213257878d8e3d38cd3b950d7bbd865181a3425398",
    },
    "ema_eval/metrics.json": {
        "cc49cb5af4ddc6a3a4685a6d355545d2552efc20734a1aa48aa86b36a5cb7348",
        "acee35eba3b7d6b38c3f0f0f1c3d5361549f53645e0fb1fe6899386469208c3a",
    },
    "fixed/events.csv": {
        "4c9f0f8fb3a9ddd1128507ecb990c445727183d6e200848f5c5005229ca1734f",
        "8203f3f9ecf5136e13879a2fa509f56be0440d255a3fe6dce80c17f05136185d",
    },
    "median/events.csv": {
        "752a59db26957ef87b14c27be9d73dd058950218f37508ed64c3597c03bf9981",
        "252abdde61dbbf7c46fb268307815a0e9a6a2b2fc5918cf3a1b303585f1b4153",
    },
    "median/series.csv": {
        "4fb7391f0044e128be9038bd50264867770e0e5a2e6f312d0b0e09b59b456435",
        "f6a0c48e0e97b7a3a5ff1710ed9a9da731771ef8b54be99f7b7359c0df669d70",
    },
    "median_eval/metrics.json": {
        "62f5f6f4fddbf6efe69d6a9443489325ddb44b9a3394cd80160540089a2acc39",
        "1fd621009ecb45b57b750e6432a4736c7ff18f1f999240b73bb50b617c16be58",
    },
}

def test_dense_bins_every_file_is_pinned(dense):
    assert sorted(dense) == sorted([*DENSE_SHA256, *DENSE_FLOAT_SHA256])


def test_dense_bins_float_path_independent_bytes(dense):
    assert {name: dense[name] for name in DENSE_SHA256} == DENSE_SHA256


def test_dense_bins_float_path_dependent_bytes(dense):
    for name, accepted in DENSE_FLOAT_SHA256.items():
        assert dense[name] in accepted, name


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
    """A 300-frame wide_frames-shaped run (N = 2048, so 128-frame chunks) through each detector."""
    return run_detectors(tmp_path_factory.mktemp("wide"), WIDE_SCENARIO, WIDE_PIPELINE, WIDE_DETECTORS)


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
        "399835aa89bb6b14fdbfed7a6186f8d52d5af3a2213f69e01f50e7c7d8ebde33",
        "a60c2c280c58c84110470abc6966c8aba761f7b1759dbcf23a98192c1bb71644",
    },
    "proposed/events.csv": {
        "2eb42491e490664b5818f0ce5ee0c9b48cf02573055483c13a953521963c8413",
        "9b4a3d6cfec5993e276f37a608050ee2df6ad0251de80b0605ee04769e64e707",
    },
    "proposed_eval/metrics.json": {
        "1baa63aed8d912323296117ab0580c843f45f44203123d04800baa118884b149",
        "bd264bbcf33407898fae3e62bab418de413a4d6ac07443061ced3a6f83b273a2",
    },
    "fixed/events.csv": {
        "8e68b4194130f976cf4e05f6c86c2293053b4e770b26b7f35c4da88a3aa8d93a",
        "46cea4a2226b221a556880145b7d0eaf47bb51dae857c596903fdc85a4a98041",
    },
}


def test_wide_frames_every_file_is_pinned(wide):
    assert sorted(wide) == sorted([*WIDE_SHA256, *WIDE_FLOAT_SHA256])


def test_wide_frames_float_path_independent_bytes(wide):
    assert {name: wide[name] for name in WIDE_SHA256} == WIDE_SHA256


def test_wide_frames_float_path_dependent_bytes(wide):
    for name, accepted in WIDE_FLOAT_SHA256.items():
        assert wide[name] in accepted, name


DEMOS = Path(__file__).resolve().parents[1] / "demos"

# Each demo's stdout, one digest for both float paths.
DEMO_STDOUT_SHA256 = {
    "01_spectral_features.py": "299c2580794246e5bb3f5c4526a15b439247783123713a6a3bc812fa51a3f5cc",
    "02_noise_floor_tracking.py": "41b3ca271c5fb5fe46aed81e2e138e4a2d05a47b1b75742221bedf57cbb4046c",
    "03_trigger_payloads.py": "f9b36916505d5e3adf5fe08b19aa982f9763d7d868c682242f8959c0a776b184",
    "04_replica_experiment.py": "47e411d601b4514e78c3c208edc7e79489946657bfb41b0686c49aa08805f853",
    "05_baseline_comparison.py": "c5f41319c61da42110cf8473bfe290841ea1644a5bdc62b7e406e49f694000fa",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout(demo):
    """The demo as a script, on the spectrig package these tests import."""
    source = str(Path(spectrig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
