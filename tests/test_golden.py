"""Golden bytes: the sha256 of every file the CLI writes for the bundled
fig2, baseline and retarget scenarios (CSV and JSON, plus reports.csv for
baseline) and for the entropy curve at its defaults.

Criterion 9 only compares two runs of the same code; these digests pin the
output of an earlier commit, so a refactor that changes any output byte
fails here.  When a change is meant to alter an output, record the new
digests and say in CHANGES.md why they moved.
"""

import hashlib

import pytest

from blocktime.cli import main

# name: (argv without --outdir, {file name: sha256})
GOLDEN = {
    "fig2-csv": (
        ["simulate", "--config", "fig2"],
        {
            "blocks.csv": "e87625650aeec30e19e61365b4282607b8d419b90fbf9634f9fb0734d29aeee8",
            "difficulty.csv": "a1b5238176f568ed8d9938937365fae4a8bdf9fad4b0600e8b24a2f022e9874e",
            "forks.csv": "145faf69100a1162491fb3f7fdca720dcb5a3050beb9302e7742a79ee05fa321",
            "tip_changes.csv": "68f65efdf00a75a21569e65e0313fae5edf3dcb2695b6ea5f63da2c749f8288b",
        },
    ),
    "fig2-json": (
        ["simulate", "--config", "fig2", "--format", "json"],
        {
            "blocks.json": "a643536b95bcaa27554483fd858dba0b1b2a2202e0542f4c8cd7dc8b94eb6c2a",
            "difficulty.json": "20590ab7eb4a192791587008d6303ede1c45487044f0ea8cd1ebabf4b4cf0c31",
            "forks.json": "717fa25664828a82b7932ff0261959a8c8ab14e934264123a402faf118e6c8ea",
            "tip_changes.json": "d683b5fca24dcf6d49b4a065940e97cb3d1705fec6aa6977e65b5ecb984c3ae7",
        },
    ),
    "baseline-csv": (
        ["simulate", "--config", "baseline", "--reports"],
        {
            "blocks.csv": "db3010723e4dc07b0672d3ac16ebfae73af7f812747473fc5b24b7e994195d64",
            "difficulty.csv": "a1b5238176f568ed8d9938937365fae4a8bdf9fad4b0600e8b24a2f022e9874e",
            "forks.csv": "852fb5ff4758ce0f68e738611ebd7756b9bc5786e5bfd0ebe029a6d7608661b2",
            "reports.csv": "51ecd988bfddc79c1a2981a2e5c5d682071915e64a1a7060ba92972667180ed8",
            "tip_changes.csv": "84107ec7e3c1cd912e30c7b9a010135faf6a0ce174dc19717bc858ab0e85ae1f",
        },
    ),
    "baseline-json": (
        ["simulate", "--config", "baseline", "--format", "json"],
        {
            "blocks.json": "63ac6ec277701f013c2fd70dcb474b1104c63f0261fadda3d3b2fc3b6108ff42",
            "difficulty.json": "20590ab7eb4a192791587008d6303ede1c45487044f0ea8cd1ebabf4b4cf0c31",
            "forks.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            "tip_changes.json": "184f26c7da5ce6febe08d390465212b23fd39cdfdf9ee59feac383a32bcff069",
        },
    ),
    "retarget-csv": (
        ["simulate", "--config", "retarget"],
        {
            "blocks.csv": "48a24e971cd86891f1ef8447dba1d4d1b88962fff2928d72b4dbf2eb5a3c88a4",
            "difficulty.csv": "25ffdbcd61558a252bcae8fc3287af3407f5abbc97b76473404761106d7ac7e2",
            "forks.csv": "852fb5ff4758ce0f68e738611ebd7756b9bc5786e5bfd0ebe029a6d7608661b2",
            "tip_changes.csv": "a73907c544726a097095eeb211702d0e5dd11c350cc4598f6a064201442f6ee1",
        },
    ),
    "retarget-json": (
        ["simulate", "--config", "retarget", "--format", "json"],
        {
            "blocks.json": "fdb6bdaeb08e41e791f2f88463984f9a28ec85ba34c73c13631b41bf14a87c2d",
            "difficulty.json": "af2a8e0ba39a588d921d4e754d1296b661f0984e341ece03f2d1a6e43be1e2bd",
            "forks.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            "tip_changes.json": "190e5ec15c01e60daa14e5335dd69a11f4c2e8053658173f0456c8dea19078a4",
        },
    ),
    "entropy-csv": (
        ["entropy"],
        {
            "entropy.csv": "85c952b789892ebf5fe1abcb7edd7df372f52a91a21a2c082f178f77e2793fa4",
        },
    ),
    "entropy-json": (
        ["entropy", "--format", "json"],
        {
            "entropy.json": "fc872ccc823be824dad00a21da4b9e8cc41874f52c399a808f63e44855a4bd8e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(name, tmp_path, capsys):
    argv, digests = GOLDEN[name]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests
