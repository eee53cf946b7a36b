"""Golden outputs that hold the program's training and perplexity bytes
across changes.

``tests/golden/golden.npz`` holds the trained weights of the command-line
walkthrough model at ``--grad-clip`` 15 and 0.5: ``bicap synth --attrs 8
--n 60 --seed 7``, then ``bicap train`` of the full variant with s = u = 8,
max-ent hash size 512, 2 epochs and seed 7. It also records the numpy
version and BLAS that wrote them. ``tests/test_golden.py`` retrains both
and recomputes each split's perplexity of the benchmark's pinned fixture
(``perfbench/fixture/``, read only), which it compares with the fixture's
``reference_ppl``.

Values compare byte for byte when numpy and BLAS match the recorded ones,
and within ``RTOL`` relative otherwise. Run from the repository root:

    python3 tools/golden.py           # compare, print each mismatch
    python3 tools/golden.py --write   # rewrite tests/golden/golden.npz

A change that moves a golden number rewrites the file and says which
numbers moved and by how much.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bicap import cli, metrics, model  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden", "golden.npz")
CLIPS = {"clip15": 15.0, "clip0.5": 0.5}
SPLITS = ("train", "valid", "test", "all")
RTOL = 1e-9


def toolchain():
    """The numpy version and the BLAS (name, version and, for OpenBLAS,
    the kernel core it picked on this CPU) that numbers are computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_char_p
                info["blas_core"] = fn().decode()
                break
    return info


def walkthrough_weights(grad_clip):
    """{block name: array} of the walkthrough model trained at ``grad_clip``,
    through ``cli.main`` in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        data, ckpt = os.path.join(tmp, "data.jsonl"), os.path.join(tmp, "model.ckpt")
        for argv in (["synth", "--attrs", "8", "--n", "60", "--seed", "7", "--out", data],
                     ["train", "--data", data, "--variant", "full", "--s-dim", "8",
                      "--u-dim", "8", "--maxent-hash-size", "512", "--epochs", "2",
                      "--seed", "7", "--grad-clip", str(grad_clip), "--out", ckpt]):
            if cli.main(argv) != 0:
                raise RuntimeError(f"bicap {' '.join(argv)} failed")
        params, _, _ = model.load_checkpoint(ckpt)
    return {name: arr.copy() for name, arr in params.named_blocks()}


def fixture_perplexity():
    """(recomputed, reference) perplexity of the pinned fixture, per split,
    as ``perfbench/make_fixture.py`` computes its ``reference_ppl``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_common", os.path.join(ROOT, "perfbench", "common.py"))
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    dataset = common.bundle_dataset()
    params, meta = common.load_fixture(dataset)
    pairs = {split: dataset.caption_pairs(split) for split in SPLITS[:-1]}
    pairs["all"] = common.all_caption_pairs(dataset)
    ppl = {split: metrics.perplexity_of_pairs(params, dataset.vocab, pairs[split])
           for split in SPLITS}
    return ppl, meta["reference_ppl"]


def mismatch(name, got, want, exact):
    """A message naming ``name`` if ``got`` differs from ``want``: in any
    byte when ``exact``, else by more than ``RTOL`` of the largest |want|;
    None if they match."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape}, golden {want.shape}"
    diff = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    if (got.tobytes() != want.tobytes()) if exact else not diff <= RTOL * scale:
        return (f"{name}: differs from the golden value by up to {diff:.3g} "
                f"({diff / scale if scale else diff:.3g} relative; "
                f"{'byte-equal' if exact else f'{RTOL:g} relative'} required)")
    return None


def read_golden(path=GOLDEN):
    """(toolchain, {"clip15/W_ws": array, ...}) of a golden file."""
    with np.load(path) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return json.loads(str(arrays.pop("toolchain"))), arrays


def check(path=GOLDEN):
    """Every mismatch between this tree's outputs and the golden file, as
    messages; empty when all match."""
    recorded, arrays = read_golden(path)
    exact = recorded == toolchain()
    problems = []
    for tag, clip in CLIPS.items():
        for name, arr in walkthrough_weights(clip).items():
            problems.append(mismatch(f"{tag} block {name}", arr, arrays[f"{tag}/{name}"], exact))
    ppl, reference = fixture_perplexity()
    for split in SPLITS:
        problems.append(mismatch(f"fixture perplexity of split {split}", ppl[split],
                                 reference[split], exact))
    return [p for p in problems if p is not None]


def write(path=GOLDEN):
    arrays = {f"{tag}/{name}": arr for tag, clip in CLIPS.items()
              for name, arr in walkthrough_weights(clip).items()}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, toolchain=np.array(json.dumps(toolchain(), sort_keys=True)),
                        **arrays)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN}")
    args = parser.parse_args(argv)
    if args.write:
        write()
        print(f"wrote {GOLDEN}")
        return 0
    problems = check()
    for line in problems:
        print(line)
    print("golden outputs match" if not problems else f"{len(problems)} golden mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
