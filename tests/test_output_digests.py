"""Every output byte of a set of small runs matches digests recorded earlier.

Each case runs one ``stlmc`` command in process on a small config and
hashes with SHA-256 every file it writes and its stdout. A change that
moves a last bit of a sample, an estimate, a trace line or a report fails
here. A change that alters outputs on purpose updates ``DIGESTS`` in the
same commit and names each changed file in CHANGES.md.

Every target here has D <= 3 sigma, so the oracles' panel grid is the
sigma-wide one. numpy may move a last bit between versions, so the
failure message names the numpy the digests were recorded with and the
one running.
"""
import hashlib
import json

import numpy as np
import pytest

from stlmc.cli import main

# numpy the digests were recorded with
NUMPY_VERSION = "2.4.6"

CHEAP = {"weights": [0.5, 0.5], "means": [[-1.5], [1.5]], "sigma2": 1.0}
PERTURBED_DESK = {"weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "sigma2": 1.0,
                  "perturbation": {"amplitude": 0.2, "scale": 1.0}}
FOUR = {"weights": [0.25] * 4, "sigma2": 1.0,
        "means": [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]]}
# eight modes at +-2 on the first four axes of R^10; its last stages run one
# engine call wide enough for the helper thread
WIDE = {"weights": [0.125] * 8, "sigma2": 1.0,
        "means": [[2.0 * s if j == k else 0.0 for j in range(10)]
                  for k in range(4) for s in (-1.0, 1.0)]}
RUN = {"eta": 0.1, "T": 0.5, "t": 40, "m": 10, "seed": 7}

# case name: (command-line arguments, target section, run section overrides)
CASES = {
    "sample-cheap-w1": (["sample", "--trace", "--workers", "1"], CHEAP, {}),
    "sample-cheap-w2": (["sample", "--trace", "--workers", "2"], CHEAP, {}),
    "sample-perturbed-w1": (["sample", "--trace", "--workers", "1"], PERTURBED_DESK,
                            {"t": 80}),
    "sample-perturbed-w2": (["sample", "--trace", "--workers", "2"], PERTURBED_DESK,
                            {"t": 80}),
    "sample-four": (["sample", "--bins", "20"], FOUR, {"t": 100, "c2": 2.0}),
    # a d = 2 trace whose chain reaches the top in its third round
    "sample-four-trace": (["sample", "--trace", "--bins", "20"], FOUR, {"t": 36, "c2": 2.0}),
    "sample-uniform": (["sample", "--trace", "--proposal-mode", "uniform"], CHEAP, {}),
    "sample-wide": (["sample", "--n-samples", "100"], WIDE, {"c2": 4.0}),
    "estimate-z": (["estimate-z"], CHEAP, {}),
    "compare": (["compare", "--n-samples", "20"], CHEAP, {}),
    "analyze": (["analyze", "--cells", "20"], FOUR, {}),
    "verify-diagnostics": (["verify", "--suite", "diagnostics"], None, None),
    "verify-estimator": (["verify", "--suite", "estimator"], None, None),
}

DIGESTS = {
    "analyze": {
        "analyze.txt": "9c7e231b8c272b09a24448802b6ab8e3828bde9a55fe52fbd94124a3fca068ed",
        "stdout": "9c7e231b8c272b09a24448802b6ab8e3828bde9a55fe52fbd94124a3fca068ed",
    },
    "compare": {
        "compare.txt": "f9ff91e52c2ca316f12faf5cdf26e6595682aa59c8aa0513f0bb8a9df4949673",
        "stdout": "f9ff91e52c2ca316f12faf5cdf26e6595682aa59c8aa0513f0bb8a9df4949673",
    },
    "estimate-z": {
        "estimate_z.txt": "a4e7d94508f6f423feab6ff644117a1e640f89a1eff3c839916ebca073ce6cdf",
        "estimates.json": "7bef6a24daea0089af02436394b6d80bc2de9fa8d145f12d991381c2481d11fc",
        "stdout": "a4e7d94508f6f423feab6ff644117a1e640f89a1eff3c839916ebca073ce6cdf",
    },
    "sample-cheap-w1": {
        "estimates.json": "7bef6a24daea0089af02436394b6d80bc2de9fa8d145f12d991381c2481d11fc",
        "samples.csv": "77b9a98ba454c71cbadef0aad70b4a254dd5bd2f70629f107814a32768fe676d",
        "stdout": "bae52365115ea6b6e38535f04e7da4265d25143acdb88495ab4ed5effedd0e5e",
        "summary.txt": "bae52365115ea6b6e38535f04e7da4265d25143acdb88495ab4ed5effedd0e5e",
        "trace.csv": "0a172dae3c4bf2f206cb679ec1eb155b052a2eef6dc7080f4489fcb1e12744ad",
    },
    "sample-cheap-w2": {
        "estimates.json": "7bef6a24daea0089af02436394b6d80bc2de9fa8d145f12d991381c2481d11fc",
        "samples.csv": "77b9a98ba454c71cbadef0aad70b4a254dd5bd2f70629f107814a32768fe676d",
        "stdout": "0bd1f9454af3683b39a2380e8895c344d3d37ea044250f92046b15f5d29c2382",
        "summary.txt": "0bd1f9454af3683b39a2380e8895c344d3d37ea044250f92046b15f5d29c2382",
        "trace.csv": "0a172dae3c4bf2f206cb679ec1eb155b052a2eef6dc7080f4489fcb1e12744ad",
    },
    "sample-four": {
        "estimates.json": "26b1f1c29d32ba14c45d980931069fb867b8ac3cf5e0a2b2bd20ffa9ca9078ec",
        "samples.csv": "096ac6ace94c09c865e6c493e3c7a05abe8e59ecb1293d68f97063f46cbebcfc",
        "stdout": "469658c74fb1002336add12c5ddd83e2d62bdc65ea3984b3976a20507d313e34",
        "summary.txt": "469658c74fb1002336add12c5ddd83e2d62bdc65ea3984b3976a20507d313e34",
    },
    "sample-four-trace": {
        "estimates.json": "0b4c93095a714ee0eeea8941ba23a468031106d759cac6a7d4b0857383478e45",
        "samples.csv": "a60e9478436ade6a2745405231259755c8b9501bcb8413e7e7a9408b34cd6c64",
        "stdout": "0216606ee1accdcb34ebd17fdc6fec4cec85ee918b5ade7ba6ff534982741415",
        "summary.txt": "0216606ee1accdcb34ebd17fdc6fec4cec85ee918b5ade7ba6ff534982741415",
        "trace.csv": "4bedc23cd3250128f3f76c21e4caeff6d4387e496cef8f3a494774dcb9d7c771",
    },
    "sample-perturbed-w1": {
        "estimates.json": "fbcc711ff1f3c53eda319af9117d119c56859f6ab66f0f5c3a38246aa3e2df16",
        "samples.csv": "c225c1d106e1705e2e0c7f68367125f96f5a1c1569b64246960110f5923bdaa3",
        "stdout": "a9e624be97a8985e8922c92b7b7f0416b0d1e2c17eac96f4fc9b9229f8a6987a",
        "summary.txt": "a9e624be97a8985e8922c92b7b7f0416b0d1e2c17eac96f4fc9b9229f8a6987a",
        "trace.csv": "782de5e0c30dddb6be25aa21f751f2e1edcbf31840de805a57835573d8144da7",
    },
    "sample-perturbed-w2": {
        "estimates.json": "fbcc711ff1f3c53eda319af9117d119c56859f6ab66f0f5c3a38246aa3e2df16",
        "samples.csv": "c225c1d106e1705e2e0c7f68367125f96f5a1c1569b64246960110f5923bdaa3",
        "stdout": "81a61a165edfc621beea4772a62d5fdb55bc01f65f7e8cf14744823ab7772648",
        "summary.txt": "81a61a165edfc621beea4772a62d5fdb55bc01f65f7e8cf14744823ab7772648",
        "trace.csv": "782de5e0c30dddb6be25aa21f751f2e1edcbf31840de805a57835573d8144da7",
    },
    "sample-uniform": {
        "estimates.json": "ad6a24c579e4045cad268d4319198ed852c69370d256e4db49c1a762c7488ee9",
        "samples.csv": "c0725ddfe78b7906f190e59a83189d3c8b55df38a33ab4e6b5f85d191398a2fc",
        "stdout": "16073606e8496441bfbe81292fb0ebf9208d37c0ec8a862179022a4543d5267a",
        "summary.txt": "16073606e8496441bfbe81292fb0ebf9208d37c0ec8a862179022a4543d5267a",
        "trace.csv": "9afeef14d99be374e1eb7f0e927f9da248bc94ccedd06d10893e622360fe2741",
    },
    "sample-wide": {
        "estimates.json": "bef1e402bc6fbf552756f708b12c6bc1bda14ee7df38c9421587a099406f18d3",
        "samples.csv": "bd292317f623826ee7b1afb73054f1a29e6395441563b7942ca1517c68884fbf",
        "stdout": "ac410370c7757815ce2fe41bd9be2334f5a863e1a98a730b1382cd67cfc720c8",
        "summary.txt": "ac410370c7757815ce2fe41bd9be2334f5a863e1a98a730b1382cd67cfc720c8",
    },
    "verify-diagnostics": {
        "stdout": "f5eed8bd6568420fa4706c27856d02aa813a28b219656548c940f3da9ac1b537",
    },
    "verify-estimator": {
        "stdout": "cc0b2312206820917f712d8a60329abe283b20586c8e859b52dc4201bd790f74",
    },
}


def _digests(tmp_path, capsys, argv, target, run):
    """SHA-256 of every file the command writes, and of its stdout."""
    out = tmp_path / "out"
    if target is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"target": target, "run": dict(RUN, **run),
                                   "n_samples": 50}))
        argv = argv + ["--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    files = {"stdout": capsys.readouterr().out.encode()}
    if out.exists():
        files.update((path.name, path.read_bytes()) for path in out.iterdir())
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(tmp_path, capsys, case):
    got = _digests(tmp_path, capsys, *CASES[case])
    assert got == DIGESTS[case], (
        f"{case}: output bytes differ from the digests recorded with numpy "
        f"{NUMPY_VERSION}; this run uses numpy {np.__version__}")
