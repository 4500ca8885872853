"""Rebuild tdtd_h32.model, the fixed model the generate stage samples from.

    env OPENBLAS_NUM_THREADS=1 python3 benchmark/models/build_generate_model.py

Run from the root of a checkout.  It trains an h=e=32 tdtd model for four
epochs on 400 PCFG trees of 15 nonterminals (seeds 11, 12 and 13) and copies
the final checkpoint here.  The generate stage keeps this file instead of
training in set-up so that what it samples does not depend on the training
code under test.
"""
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tdtd import cli

    grammar = "src/tdtd/data/toy_grammar.pcfg"
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "benchmark")) as tmp:
        train, dev, run = (os.path.join(tmp, n) for n in ("train.txt", "dev.txt", "run"))
        steps = [
            ["gen-data", "--grammar", grammar, "--nodes", "15", "--count", "400",
             "--seed", "11", "--out", train],
            ["gen-data", "--grammar", grammar, "--nodes", "15", "--count", "40",
             "--seed", "12", "--out", dev],
            ["train", "--model", "tdtd", "--data", train, "--dev-data", dev, "--out", run,
             "--epochs", "4", "--hidden-size", "32", "--embed-size", "32", "--seed", "13"],
        ]
        for argv in steps:
            if cli.run(argv) != 0:
                return 1
        shutil.copyfile(os.path.join(run, "final.ckpt"),
                        os.path.join(ROOT, "benchmark", "models", "tdtd_h32.model"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
