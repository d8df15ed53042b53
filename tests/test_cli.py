import argparse
import errno
import gzip
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from alphaloss import __version__, cli, landscape
from alphaloss.calibration import calibration_workspace
from alphaloss.cli import build_parser, main, manifest_path_for, replay
from alphaloss.logreg import MAX_EPOCHS
from conftest import damaged_gzip, forbid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The checkout's own sources, for child processes: an import error there also
# exits 1, so a child that cannot import the package must not pass as a result.
SRC = os.path.join(ROOT, "src")


def run_child(*argv):
    """Run a fresh Python on argv from the checkout root, importing the checkout's sources."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# One small run per command.  A row's flags come after these, so a flag a row
# names overrides the one here.  No test opens "unread": each that gets that far
# forbids the corpus loader or names a real --mnist-dir after it.
BASE = {
    "train": ["train", "--alpha", "2", "--lr", "0.5", "--epochs", "1", "--mnist-dir", "unread"],
    "sweep": ["sweep", "--alphas", "2", "--lr-grid", "0.5", "--epochs", "1",
              "--mnist-dir", "unread"],
    "calibration": ["calibration", "--alphas", "2", "--eta-grid", "0.7", "--f-range", "5",
                    "--grid-step", "0.01"],
    "landscape": ["landscape", "--ns", "40", "--trials", "1", "--holdout-n", "500",
                  "--epochs", "5"],
    "losscurves": ["losscurves", "--steps", "3"],
}

# Every flag the CLI refuses, with a fragment of the one error line it prints.
# The refusals that need some work first (a damaged corpus, an uncovered
# calibration optimum, a law whose draws overflow) are tested with their commands,
# and so are the two caps tested on both sides: losscurves rows and --epochs.
REFUSALS = [
    ("losscurves", ["--z-min=-1e308", "--z-max=1e308"], "--z-min -1e+308 and --z-max 1e+308 must"),
    ("losscurves", ["--z-min=-inf"], "--z-min -inf and --z-max 10 must be finite"),
    ("losscurves", ["--z-max=inf"], "--z-min -10 and --z-max inf must be finite"),
    ("losscurves", ["--z-max=nan"], "--z-min -10 and --z-max nan must be finite"),
    ("losscurves", ["--steps", "1"], "steps must be at least 2"),
    ("losscurves", ["--steps", "0"], "steps must be at least 2"),
    ("calibration", ["--f-range", "50", "--grid-step", "1e-12"], "= 5e+13 needs a grid above"),
    ("calibration", ["--f-range", "1e308", "--grid-step", "1e305"],
     "grid_step must lie in (0, 1.0], got 1e+305"),
    # the first once wrote a false "not calibrated" row, the second never ended
    ("calibration", ["--eta-grid", "0.3", "--f-range", "1e6", "--grid-step", "1e3"],
     "grid_step must lie in (0, 1.0], got 1000.0"),
    ("calibration", ["--alphas", "1", "--eta-grid", "0.3", "--f-range", "1e40", "--grid-step",
                     "1e37"], "grid_step must lie in (0, 1.0], got 1e+37"),
    # an infinite step once ran on a 3-point grid, an infinite or NaN range blamed the cap
    ("calibration", ["--f-range", "nan"], "f_range must be finite and positive, got nan"),
    ("calibration", ["--f-range", "inf"], "f_range must be finite and positive, got inf"),
    ("calibration", ["--grid-step", "nan"], "grid_step must lie in (0, 1.0], got nan"),
    ("calibration", ["--grid-step", "inf"], "grid_step must lie in (0, 1.0], got inf"),
    ("calibration", ["--eta-grid", "0.5"], "every eta is 0.5, which is excluded"),
    # refused before the warning that 0.5 is skipped, so stderr is one line
    ("calibration", ["--eta-grid", "0.3,0.5", "--grid-step", "nan"],
     "grid_step must lie in (0, 1.0], got nan"),
    ("train", ["--mnist-dir", ""], "no MNIST directory: pass --mnist-dir or set"),
    *((command, [flag, text], f"empty list {text!r}")
      for command, flag in [("sweep", "--alphas"), ("sweep", "--lr-grid"),
                            ("calibration", "--alphas"), ("calibration", "--eta-grid"),
                            ("landscape", "--alphas"), ("landscape", "--ns"),
                            ("losscurves", "--alphas")]
      for text in ["", ","]),
    ("sweep", ["--alphas", "2,2.0"], "duplicate entry 2 in list '2,2.0'"),
    ("sweep", ["--lr-grid", "1,1.0"], "duplicate entry 1.0 in list '1,1.0'"),
    ("calibration", ["--alphas", "inf,Infinity"], "duplicate entry inf in list 'inf,Infinity'"),
    ("calibration", ["--eta-grid", "0.3,0.30"], "duplicate entry 0.3 in list '0.3,0.30'"),
    ("landscape", ["--alphas", "2,2"], "duplicate entry 2 in list '2,2'"),
    ("landscape", ["--ns", "40,40"], "duplicate entry 40 in list '40,40'"),
    ("losscurves", ["--alphas", "1,1.5,1"], "duplicate entry 1 in list '1,1.5,1'"),
    ("landscape", ["--holdout-n", str(10**13)], "holdout_n 10000000000000 x dim 5 is"),
    ("landscape", ["--ns", "100,30000000"], "n 30000000 x dim 5 is 150000000 floats, above"),
    ("landscape", ["--ns", "100", "--dim", "200", "--holdout-n", "600000"],
     "holdout_n 600000 x dim 200 is 120000000 floats, above the 100000000 allowed"),
    ("landscape", ["--dim", "10000000", "--holdout-n", "100"], "holdout_n 100 x dim 10000000 is"),
    ("landscape", ["--dim", "1000000000000"], "holdout_n 500 x dim 1000000000000 is"),
    ("landscape", ["--dim", "0"], "dim must be at least 1"),
    ("landscape", ["--dim", "10001"],
     "dim 10001 needs a 10001 x 10001 Hessian, 100020001 floats, above the 100000000 allowed"),
    *(("landscape", ["--alphas", "1,2", "--ns", ns, "--trials", "3", "--holdout-n", "1000"],
       "n must be at least 2") for ns in ["100,1", "100,-5"]),
    # a rate that is not finite is a bad flag, exit 1, not a training divergence, exit 2
    ("train", ["--lr", "inf"], "learning_rate must be finite and nonnegative, got inf"),
    ("sweep", ["--lr-grid", "1,inf"], "learning_rate must be finite and nonnegative, got inf"),
    ("landscape", ["--lr", "inf"], "learning_rate must be finite and nonnegative, got inf"),
    *((command, ["--seed", seed], f"seed must fit in 64 unsigned bits, got {seed}")
      for command in ["train", "sweep", "landscape"] for seed in ["-1", str(2**64)]),
    ("landscape", ["--radius", "inf", "--noise", "inf"], "noise_scale must be finite"),
    ("landscape", ["--radius", "inf", "--mean-norm", "inf"], "mean_norm must be finite"),
]


def assert_refused(tmp_path, capfd, monkeypatch, command, flags, message):
    """The run exits 1 with one error line holding message, before any work, writing nothing."""
    monkeypatch.delenv("ALPHALOSS_MNIST_DIR", raising=False)
    # every way into the work fails, naming itself: the corpus, a sample, a model or a grid
    for target, name in [(cli, "load_mnist_dir"), (cli, "train"),
                         (landscape, "generate_symmetric_dataset"), (landscape, "train"),
                         (np, "linspace"), (np, "zeros")]:
        forbid(monkeypatch, target, name, f"{target.__name__}.{name} was called")
    assert main(BASE[command] + flags + ["--out", str(tmp_path / "out.csv")]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err
    assert os.listdir(tmp_path) == []


def assert_reaches(tmp_path, monkeypatch, command, flags, target, name):
    """The run gets past its flags to target.name, the entry point into its work."""
    forbid(monkeypatch, target, name, "the run reached its work")
    with pytest.raises(AssertionError, match="the run reached its work"):
        main(BASE[command] + flags + ["--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("command, flags, message",
                         [pytest.param(*row, id="-".join([row[0], *row[1]])) for row in REFUSALS])
def test_refused_before_any_work(tmp_path, capfd, monkeypatch, command, flags, message):
    assert_refused(tmp_path, capfd, monkeypatch, command, flags, message)


class TestEpochsCap:
    """--epochs at logreg.MAX_EPOCHS reaches the corpus or the sample; one above is refused."""

    WORK = {"train": (cli, "load_mnist_dir"), "sweep": (cli, "load_mnist_dir"),
            "landscape": (landscape, "generate_symmetric_dataset")}

    @pytest.mark.parametrize("command", ["train", "sweep", "landscape"])
    def test_above_cap_exits_one_before_any_work(self, tmp_path, capfd, monkeypatch, command):
        assert_refused(tmp_path, capfd, monkeypatch, command, ["--epochs", str(MAX_EPOCHS + 1)],
                       f"epochs must be at most {MAX_EPOCHS}, got")

    @pytest.mark.parametrize("command", ["train", "sweep", "landscape"])
    def test_at_cap_reaches_the_work(self, tmp_path, monkeypatch, command):
        assert_reaches(tmp_path, monkeypatch, command, ["--epochs", str(MAX_EPOCHS)],
                       *self.WORK[command])


class TestLossCurves:
    def test_end_to_end(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        code = main(
            ["losscurves", "--alphas", "1,2,inf", "--z-min", "-10", "--z-max", "10",
             "--steps", "21", "--out", out]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "z", "loss", "d1", "d2"]
        assert len(rows) == 3 * 21
        by_key = {(r[0], r[1]): r for r in rows}
        inf_zero = by_key[("inf", "0")]
        assert float(inf_zero[2]) == 0.5
        log_zero = by_key[("1", "0")]
        assert float(log_zero[2]) == pytest.approx(math.log(2), abs=1e-15)
        assert float(log_zero[3]) == -0.5
        # losses are negligible at a large positive margin for every alpha
        for key, row in by_key.items():
            if key[1] == "10":
                assert float(row[2]) < 0.01

    def test_seventeen_significant_digits(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        main(["losscurves", "--alphas", "2", "--z-min", "-1", "--z-max", "1",
              "--steps", "3", "--out", out])
        _, rows = read_csv(out)
        for row in rows:
            for text in row[1:]:
                assert text == "%.17g" % float(text)

    def test_manifest_and_replay_reproduce_bytes(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        main(["losscurves", "--alphas", "1,1.5,inf", "--out", out])
        first = open(out, "rb").read()
        manifest_file = manifest_path_for(out)
        manifest = json.load(open(manifest_file))
        assert manifest["command"] == "losscurves"
        assert manifest["version"]
        assert manifest["outputs"] == [out]
        assert main(["losscurves"] + sum((["--" + k, str(v)] for k, v in manifest["flags"].items()), [])) == 0
        assert open(out, "rb").read() == first
        assert replay(manifest_file) == 0
        assert open(out, "rb").read() == first

    def test_replay_of_a_value_starting_with_a_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["losscurves", "--steps", "3", "--out=-c.csv"]) == 0
        first = open("-c.csv", "rb").read()
        assert replay("-c.csv.manifest.json") == 0
        assert open("-c.csv", "rb").read() == first

    # each side of the 10^6-row cap
    @pytest.mark.parametrize(
        "alphas, steps", [("2", 10**6 + 1), ("1,2,inf", 333_334), ("1,1.5,2,inf", 10**9)]
    )
    def test_rows_above_cap_exit_one_before_allocating(self, tmp_path, capfd, monkeypatch,
                                                        alphas, steps):
        assert_refused(tmp_path, capfd, monkeypatch, "losscurves",
                       ["--alphas", alphas, "--steps", str(steps)],
                       f"{steps} steps x {len(alphas.split(','))} alphas is above 10^6 rows")

    def test_rows_at_cap_reach_the_grid(self, tmp_path, monkeypatch):
        assert_reaches(tmp_path, monkeypatch, "losscurves", ["--alphas", "2", "--steps", str(10**6)],
                       np, "linspace")


class TestCalibrationCommand:
    def test_rows_and_warning(self, tmp_path, capsys):
        out = str(tmp_path / "cal.csv")
        code = main(
            ["calibration", "--alphas", "1,2,inf", "--eta-grid", "0.25,0.3,0.5",
             "--grid-step", "0.001", "--out", out]
        )
        assert code == 0
        assert "skipping eta=0.5" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert header == [
            "alpha", "eta", "unconstrained_min", "constrained_min", "gap",
            "argmin", "closed_form_argmin", "min_cond_risk_closed_form",
        ]
        assert len(rows) == 6  # eta = 0.5 skipped for each alpha
        by_key = {(r[0], r[1]): r for r in rows}
        inf_row = by_key[("inf", "0.29999999999999999")]
        assert float(inf_row[7]) == pytest.approx(0.3, abs=1e-12)
        log_row = by_key[("1", "0.25")]
        assert float(log_row[7]) == pytest.approx(0.562335, abs=1e-6)
        for row in rows:
            assert float(row[4]) > 0.0

    def test_excluded_eta_warned_once(self, tmp_path, capsys):
        out = str(tmp_path / "cal.csv")
        assert main(["calibration", "--alphas", "1,2,inf", "--eta-grid", "0.3,0.5",
                     "--out", out]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "skipping eta=0.5" in lines[0]
        assert sha256_of(out) == "4bccdc2dbf502e0493e855d802d35e655aedf3eb883fdd48310d6001561d18af"

    def test_replay_identical(self, tmp_path):
        out = str(tmp_path / "cal.csv")
        main(["calibration", "--alphas", "1.5", "--eta-grid", "0.2,0.7", "--out", out])
        first = open(out, "rb").read()
        assert replay(manifest_path_for(out)) == 0
        assert open(out, "rb").read() == first
        # versions before 0.3.2 recorded seed 0 for calibration; such a manifest still replays
        with open(manifest_path_for(out), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest.update(seed=0, version="0.3.1")
        with open(manifest_path_for(out), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert replay(manifest_path_for(out)) == 0
        assert open(out, "rb").read() == first

    def test_replay_names_both_versions_when_they_differ(self, tmp_path, capsys):
        out = str(tmp_path / "cal.csv")
        assert main(["calibration", "--alphas", "2", "--eta-grid", "0.7", "--out", out]) == 0
        capsys.readouterr()
        assert replay(manifest_path_for(out)) == 0
        assert capsys.readouterr().err == ""
        with open(manifest_path_for(out), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["version"] = "0.3.1"
        with open(manifest_path_for(out), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert replay(manifest_path_for(out)) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "0.3.1" in lines[0] and __version__ in lines[0]

    def test_uncovered_optimum_names_its_cell(self, tmp_path, capsys):
        # the optimal classifier at (4, 0.9) is about 8.79, outside [-5, 5]
        code = main(["calibration", "--alphas", "1,4", "--eta-grid", "0.3,0.9", "--f-range", "5",
                     "--out", str(tmp_path / "cal.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: alpha=4, eta=0.9: f_range=5.0 does not cover the optimal classifier 8.7889\n"
        )
        assert os.listdir(tmp_path) == []


class TestUsageErrors:
    """Bad flags exit 1: exit code 2 is reserved for training divergence."""

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "curves.csv")
        assert main(["losscurves", "--bogus", "1", "--out", out]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_malformed_int_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "curves.csv")
        assert main(["losscurves", "--steps", "abc", "--out", out]) == 1
        assert "invalid int value" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["losscurves", "--help"]) == 0
        assert "--steps" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(BASE))
    def test_every_option_has_help(self, command, capsys):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        assert sorted(subparsers.choices) == sorted(BASE)
        actions = subparsers.choices[command]._actions
        for action in actions:
            assert action.help and action.help.strip(), action.option_strings
            if action.default not in (None, argparse.SUPPRESS):
                assert "%(default)s" in action.help, action.option_strings
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for action in actions:
            assert action.option_strings[-1] in text

    def test_fresh_process_exit_status(self, tmp_path):
        proc = run_child("-m", "alphaloss.cli", "losscurves", "--bogus", "1",
                         "--out", str(tmp_path / "curves.csv"))
        assert proc.returncode == 1, proc.stderr
        assert "unrecognized arguments: --bogus" in proc.stderr


def conflicted_mnist_dir(tmp_path, corpus):
    """The corpus with every digit-1 image a copy of a digit-7 image, as IDX files.

    The task is inseparable, so a huge step at alpha = 1 sends some
    misclassified margin to -inf and training diverges.
    """
    from alphaloss.mnist import dump_idx_images, dump_idx_labels

    images, labels, test_images, test_labels = corpus
    conflicted = images.copy()
    ones = np.flatnonzero(labels == 1)
    sevens = np.flatnonzero(labels == 7)
    conflicted[ones] = conflicted[sevens[np.arange(ones.size) % sevens.size]]
    bad_dir = tmp_path / "conflicted"
    bad_dir.mkdir()
    (bad_dir / "train-images-idx3-ubyte").write_bytes(dump_idx_images(conflicted))
    (bad_dir / "train-labels-idx1-ubyte").write_bytes(dump_idx_labels(labels))
    (bad_dir / "t10k-images-idx3-ubyte").write_bytes(dump_idx_images(test_images))
    (bad_dir / "t10k-labels-idx1-ubyte").write_bytes(dump_idx_labels(test_labels))
    return str(bad_dir)


class TestTrainCommand:
    def test_end_to_end_deterministic(self, tmp_path, synthetic_mnist_dir):
        out = str(tmp_path / "train.csv")
        argv = ["train", "--alpha", "2", "--lr", "0.5", "--epochs", "3", "--seed", "7",
                "--mnist-dir", synthetic_mnist_dir, "--out", out]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "lr", "epochs", "seed", "train_acc", "val_acc",
                          "test_acc", "final_risk"]
        assert len(rows) == 1
        first = open(out, "rb").read()
        assert main(argv) == 0
        assert open(out, "rb").read() == first
        row = rows[0]
        assert 0.0 <= float(row[4]) <= 1.0
        assert float(row[7]) > 0.0

    def test_zero_lr_reports_init_accuracy(self, tmp_path, synthetic_mnist_dir):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        base = ["train", "--alpha", "1", "--lr", "0", "--epochs", "1", "--seed", "11",
                "--mnist-dir", synthetic_mnist_dir]
        assert main(base + ["--out", out_a]) == 0
        assert main(base + ["--out", out_b]) == 0
        _, rows_a = read_csv(out_a)
        _, rows_b = read_csv(out_b)
        assert rows_a[0][4:] == rows_b[0][4:]

    def test_env_var_supplies_directory(self, tmp_path, synthetic_mnist_dir, monkeypatch):
        monkeypatch.setenv("ALPHALOSS_MNIST_DIR", synthetic_mnist_dir)
        out = str(tmp_path / "train.csv")
        assert main(["train", "--alpha", "inf", "--lr", "0.1", "--epochs", "1",
                     "--out", out]) == 0

    def test_corrupt_data_exits_one(self, tmp_path, capsys):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (bad_dir / name).write_bytes(b"\x00" * 20)
        out = str(tmp_path / "train.csv")
        assert main(["train", "--alpha", "2", "--lr", "1", "--mnist-dir", str(bad_dir),
                     "--out", out]) == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_exits_one(self, tmp_path, synthetic_mnist_dir, capsys, damage):
        bad_dir = tmp_path / "bad"
        shutil.copytree(synthetic_mnist_dir, bad_dir)
        labels = bad_dir / "train-labels-idx1-ubyte.gz"
        labels.write_bytes(damaged_gzip(gzip.decompress(labels.read_bytes()), damage))
        out = str(tmp_path / "train.csv")
        assert main(["train", "--alpha", "2", "--lr", "1", "--mnist-dir", str(bad_dir),
                     "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels}: corrupt or truncated gzip")
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    def test_divergence_exits_two(self, tmp_path, synthetic_full_corpus, capsys):
        out = str(tmp_path / "train.csv")
        code = main(["train", "--alpha", "1", "--lr", "1e306", "--epochs", "3",
                     "--mnist-dir", conflicted_mnist_dir(tmp_path, synthetic_full_corpus),
                     "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha=1, lr=1e+306: ") and "epoch" in err


class TestSweepCommand:
    def test_degenerate_sweep_matches_train(self, tmp_path, synthetic_mnist_dir):
        sweep_out = str(tmp_path / "sweep.csv")
        train_out = str(tmp_path / "train.csv")
        common = ["--epochs", "2", "--seed", "5", "--mnist-dir", synthetic_mnist_dir]
        assert main(["sweep", "--alphas", "2", "--lr-grid", "0.7",
                     "--out", sweep_out] + common) == 0
        assert main(["train", "--alpha", "2", "--lr", "0.7",
                     "--out", train_out] + common) == 0
        sweep_header, sweep_rows = read_csv(sweep_out)
        _, train_rows = read_csv(train_out)
        assert sweep_header == ["alpha", "best_lr", "val_acc", "test_acc"]
        assert sweep_rows[0][1] == "0.69999999999999996"
        assert sweep_rows[0][2] == train_rows[0][5]  # val_acc
        assert sweep_rows[0][3] == train_rows[0][6]  # test_acc

    def test_selects_best_validation_lr(self, tmp_path, synthetic_mnist_dir):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--alphas", "1,2", "--lr-grid", "0.0,0.5",
                     "--epochs", "2", "--seed", "5",
                     "--mnist-dir", synthetic_mnist_dir, "--out", out]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        # a real gradient step beats the frozen random initialization here
        assert all(row[1] == "0.5" for row in rows)

    def test_divergence_exits_two_naming_the_model(self, tmp_path, synthetic_full_corpus, capsys):
        # alpha = 2 has a bounded loss and survives the huge step; alpha = 1 does not
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--alphas", "2,1", "--lr-grid", "1,1e306", "--epochs", "5",
                     "--mnist-dir", conflicted_mnist_dir(tmp_path, synthetic_full_corpus),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha=1, lr=1e+306: ") and "epoch" in err
        assert not out.exists()

    def test_manifest_records_seed_runs(self, tmp_path, synthetic_mnist_dir):
        out_a = str(tmp_path / "s1.csv")
        out_b = str(tmp_path / "s2.csv")
        for seed, out in ((1, out_a), (2, out_b)):
            assert main(["sweep", "--alphas", "1.5", "--lr-grid", "0.3", "--epochs", "1",
                         "--seed", str(seed), "--mnist-dir", synthetic_mnist_dir,
                         "--out", out]) == 0
        man_a = json.load(open(manifest_path_for(out_a)))
        man_b = json.load(open(manifest_path_for(out_b)))
        assert man_a["seed"] == 1 and man_b["seed"] == 2
        assert man_a["flags"]["seed"] != man_b["flags"]["seed"]


class TestLandscapeCommand:
    def test_small_run_and_replay(self, tmp_path):
        out = str(tmp_path / "land.csv")
        argv = ["landscape", "--alphas", "1,2", "--ns", "60,120", "--trials", "2",
                "--dim", "3", "--holdout-n", "2000", "--epochs", "40", "--seed", "3",
                "--out", out]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "n", "trial", "gap", "hoeffding_eps", "zero_one_test_risk"]
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            if row[0] == "1":
                assert row[4] == ""  # no concentration width at the log-loss endpoint
            else:
                assert float(row[4]) > 0.0
        summary = str(tmp_path / "land_summary.csv")
        sum_header, sum_rows = read_csv(summary)
        assert sum_header == ["alpha", "n", "median_gap", "loglog_slope", "diverged"]
        assert len(sum_rows) == 4
        manifest = json.load(open(manifest_path_for(out)))
        assert manifest["outputs"] == [out, summary]
        first = open(out, "rb").read()
        first_summary = open(summary, "rb").read()
        assert replay(manifest_path_for(out)) == 0
        assert open(out, "rb").read() == first
        assert open(summary, "rb").read() == first_summary

    def test_dim_65_is_solved_without_a_warning(self, tmp_path, capsys):
        # every model is certified, so stderr names none; below n = d the Hessian
        # is singular and a model inside the ball is left to gradient steps
        argv = ["landscape", "--dim", "65", "--ns", "80,160", "--trials", "2",
                "--holdout-n", "500", "--radius", "10", "--noise", "0.05", "--epochs", "30"]
        assert main(argv + ["--out", str(tmp_path / "land.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_unconverged_trials_are_named_on_stderr(self, tmp_path, monkeypatch, capsys):
        argv = ["landscape", "--alphas", "1,2", "--ns", "40,80", "--trials", "2",
                "--holdout-n", "500"]
        assert main(argv + ["--out", str(tmp_path / "solved.csv")]) == 0
        assert capsys.readouterr().err == ""
        real_solve = landscape.solve_on_ball

        def capped(alpha, model, data, radius, max_steps):
            return real_solve(alpha, model, data, radius, 0)

        monkeypatch.setattr(landscape, "solve_on_ball", capped)
        out = tmp_path / "land.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: no KKT point certified at alpha={alpha}, n={n}, trial={trial};"
            " the trial keeps its iterate of least residual"
            for alpha in (1.0, 2.0) for n in (40, 80) for trial in (0, 1)
        ]
        # each trial keeps its row, and neither CSV gains a column
        header, rows = read_csv(out)
        assert header == ["alpha", "n", "trial", "gap", "hoeffding_eps", "zero_one_test_risk"]
        assert len(rows) == 8
        header, rows = read_csv(tmp_path / "land_summary.csv")
        assert header == ["alpha", "n", "median_gap", "loglog_slope", "diverged"]
        assert [row[4] for row in rows] == ["0"] * 4

    def test_fresh_process_reproduces_bytes(self, tmp_path):
        out = str(tmp_path / "land.csv")
        argv = ["landscape", "--alphas", "2", "--ns", "40,80", "--trials", "2",
                "--holdout-n", "500", "--epochs", "20", "--seed", "9", "--out", out]
        assert main(argv) == 0
        first = open(out, "rb").read()
        proc = run_child("-m", "alphaloss.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert open(out, "rb").read() == first


class TestBenchmarkTracing:
    @staticmethod
    def spans(tmp_path, *argv):
        """The spans of one CLI run traced by the benchmark's child."""
        spans_path = tmp_path / "spans.json"
        proc = run_child("perfbench/child.py", "trace", str(spans_path), "--", *argv)
        assert proc.returncode == 0, proc.stderr
        return json.loads(spans_path.read_text())

    def test_traced_child_runs_landscape(self, tmp_path):
        """The benchmark's tracer wraps module attributes by name; all must resolve."""
        spans = self.spans(tmp_path, "landscape", "--alphas", "2", "--ns", "100,200", "--trials",
                           "1", "--holdout-n", "1000", "--epochs", "5",
                           "--out", str(tmp_path / "gaps.csv"))
        assert sum(1 for span in spans if span[0] == "logreg.train") == 2

    def test_traced_child_runs_settled_landscape(self, tmp_path):
        """Each model makes one train call, its warm start, which counts n x its epochs of
        work; the solve that follows it makes none."""
        spans = self.spans(tmp_path, "landscape", "--alphas", "1,inf", "--ns", "100,200",
                           "--trials", "2", "--holdout-n", "1000", "--epochs", "300",
                           "--out", str(tmp_path / "gaps.csv"))
        trains = [span for span in spans if span[0] == "logreg.train"]
        warm = landscape.WARM_START_EPOCHS
        assert sorted(span[4] for span in trains) == [100 * warm] * 4 + [200 * warm] * 4
        assert all(span[5] is None for span in trains)
        assert sum(1 for span in spans if span[0] == "landscape.generate") == 9

    def test_traced_child_runs_sweep(self, tmp_path, synthetic_mnist_dir):
        """A traced sweep loads and builds the task once and trains |alpha| x |lr| models."""
        spans = self.spans(tmp_path, "sweep", "--alphas", "1,2", "--lr-grid", "1,2", "--epochs",
                           "1", "--mnist-dir", synthetic_mnist_dir,
                           "--out", str(tmp_path / "sweep.csv"))
        names = [span[0] for span in spans]
        assert names.count("mnist.load") == 1
        assert names.count("mnist.task_build") == 1
        assert names.count("logreg.train") == 4

    def test_traced_child_runs_calibration(self, tmp_path):
        """Each traced check makes two grid margin_losses calls: the benchmark counts them."""
        spans = self.spans(tmp_path, "calibration", "--alphas", "1,inf,2", "--eta-grid", "0.3,0.7",
                           "--grid-step", "0.01", "--out", str(tmp_path / "cal.csv"))
        checks = [i for i, span in enumerate(spans) if span[0] == "calibration.check"]
        # alpha = 1, inf and 2 read the two tails the workspace built once
        assert len(checks) == 6
        # one call per side of f = 0, both holding the middle point
        covered = calibration_workspace(50.0, 0.01).grid.size + 1
        for index in checks:
            calls = [span for span in spans if span[3] == index and span[0] == "losses.margin_losses"]
            assert len(calls) == 2
            assert sum(span[4] for span in calls) == covered


def sha256_of(path):
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestPinnedBytes:
    """Default-flag outputs of the BLAS-free commands, pinned across refactors.

    Measured on numpy 2.4.6, x86-64 with AVX-512; a different libm or SIMD
    path may legitimately move the last bits.
    """

    def test_losscurves_defaults(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        assert main(["losscurves", "--out", out]) == 0
        assert sha256_of(out) == "86f661a4842ddbbd78f38b04aecb1e39a4b8667db76102486cc755bae3162024"

    def test_calibration_defaults(self, tmp_path):
        out = str(tmp_path / "cal.csv")
        assert main(["calibration", "--out", out]) == 0
        assert sha256_of(out) == "c90c98167fa0741beccdfe4f517963957c7f6395bdcc2e91839384b5082c8ca5"

    def test_calibration_near_half_and_tails(self, tmp_path):
        out = str(tmp_path / "cal.csv")
        assert main(["calibration", "--alphas", "1.2,5,inf",
                     "--eta-grid", "0.01,0.49,0.51,0.99", "--out", out]) == 0
        assert sha256_of(out) == "4f84e98677e016b6accc5b6ee17b6eb3a2ad1548371bad75007c70ae7e32b81d"


# The --seed each BASE run is given, None for a command that takes none, and
# the flags its manifest records besides --seed, --mnist-dir and --out.
MANIFEST_FLAGS = {
    "train": (7, {"alpha": "2", "lr": 0.5, "epochs": 1}),
    "sweep": (3, {"alphas": "2", "lr-grid": "0.5", "epochs": 1}),
    "calibration": (None, {"alphas": "2", "eta-grid": "0.7", "f-range": 5.0, "grid-step": 0.01}),
    "landscape": (5, {"alphas": "2", "ns": "40", "trials": 1, "dim": 5, "radius": 1.0,
                      "mean-norm": 0.8, "noise": 0.14, "holdout-n": 500, "lr": 1.0, "epochs": 5}),
    "losscurves": (None, {"alphas": "1,1.5,2,inf", "z-min": -10.0, "z-max": 10.0, "steps": 3}),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_FLAGS))
def test_manifest_records_every_flag_typed(tmp_path, synthetic_mnist_dir, command):
    """The manifest records every flag of the subcommand, typed as parsed, and
    the parsed --seed as its seed, null for a command that takes none."""
    seed, flags = MANIFEST_FLAGS[command]
    out = str(tmp_path / "out.csv")
    argv = BASE[command] + ["--out", out]
    expected = dict(flags, out=out)
    if seed is not None:
        argv += ["--seed", str(seed)]
        expected["seed"] = seed
    if "--mnist-dir" in argv:
        argv += ["--mnist-dir", synthetic_mnist_dir]
        expected["mnist-dir"] = synthetic_mnist_dir
    assert main(argv) == 0
    with open(manifest_path_for(out), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == seed

    def typed(named):
        return {key: (value, type(value)) for key, value in named.items()}

    assert typed(manifest["flags"]) == typed(expected)


class TestReplayMnistCommands:
    def test_train_replays_with_env_dir_unset(self, tmp_path, synthetic_mnist_dir, monkeypatch):
        monkeypatch.setenv("ALPHALOSS_MNIST_DIR", synthetic_mnist_dir)
        out = str(tmp_path / "train.csv")
        assert main(["train", "--alpha", "1.5", "--lr", "0.4", "--epochs", "2", "--seed", "3",
                     "--out", out]) == 0
        first = open(out, "rb").read()
        monkeypatch.delenv("ALPHALOSS_MNIST_DIR")
        assert replay(manifest_path_for(out)) == 0
        assert open(out, "rb").read() == first

    def test_sweep_replays(self, tmp_path, synthetic_mnist_dir):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--alphas", "1,inf", "--lr-grid", "0.2,0.6", "--epochs", "2",
                     "--seed", "4", "--mnist-dir", synthetic_mnist_dir, "--out", out]) == 0
        first = open(out, "rb").read()
        assert replay(manifest_path_for(out)) == 0
        assert open(out, "rb").read() == first


class TestProjectionOverflow:
    def test_overflowing_iterates_diverge_silently(self, tmp_path, capfd):
        out = tmp_path / "gaps.csv"
        argv = ["landscape", "--alphas", "2", "--ns", "100,1000", "--trials", "2",
                "--lr", "1e308", "--radius", "10", "--mean-norm", "8", "--noise", "1",
                "--holdout-n", "1000", "--out", str(out)]
        assert main(argv) == 0
        # no numpy warning: the only lines name the diverged trials
        assert capfd.readouterr().err == "".join(
            f"warning: training diverged at alpha=2.0, n={n}, trial={trial};"
            " the trial is left out of the gaps and counted in diverged\n"
            for n in (100, 1000) for trial in (0, 1)
        )
        _, rows = read_csv(tmp_path / "gaps_summary.csv")
        assert [row[4] for row in rows] == ["4", "4"]


class TestUndefinedSlope:
    def test_zero_median_gap_leaves_slope_empty(self, tmp_path):
        import warnings

        out = str(tmp_path / "land.csv")
        argv = ["landscape", "--alphas", "inf", "--ns", "100,200", "--trials", "1",
                "--holdout-n", "1000", "--epochs", "5", "--noise", "0", "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        summary = str(tmp_path / "land_summary.csv")
        text = open(summary, encoding="utf-8").read()
        assert "nan" not in text
        _, rows = read_csv(summary)
        assert [row[2] for row in rows] == ["0", "0"]
        assert [row[3] for row in rows] == ["", ""]


class TestAtomicWrites:
    """A failed write leaves no partial output and no temp file behind."""

    ARGS = ["calibration", "--alphas", "2", "--eta-grid", "0.7", "--f-range", "5",
            "--grid-step", "0.01"]

    @staticmethod
    def fail_on_write(monkeypatch, which):
        """Make the ``which``-th file the CLI writes (0-based) fail halfway through."""
        from alphaloss import cli

        opened = []

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            opened.append(path)
            return HalfWriter(fh) if len(opened) - 1 == which else fh

        monkeypatch.setattr(cli, "open", failing_open, raising=False)

    def run(self, out):
        return main(self.ARGS + ["--out", str(out)])

    def test_success_leaves_only_outputs(self, tmp_path):
        out = tmp_path / "cal.csv"
        assert self.run(out) == 0
        assert sorted(os.listdir(tmp_path)) == ["cal.csv", "cal.csv.manifest.json"]

    def test_failed_csv_write_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        self.fail_on_write(monkeypatch, 0)
        assert self.run(tmp_path / "cal.csv") == 1
        assert "No space left" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_failed_csv_write_keeps_previous_output(self, tmp_path, monkeypatch):
        out = tmp_path / "cal.csv"
        assert self.run(out) == 0
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        self.fail_on_write(monkeypatch, 0)
        assert self.run(out) == 1
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "cal.csv"
        assert self.run(out) == 0
        csv_bytes = out.read_bytes()
        os.remove(manifest_path_for(str(out)))
        self.fail_on_write(monkeypatch, 1)
        assert self.run(out) == 1
        assert os.listdir(tmp_path) == ["cal.csv"]
        assert out.read_bytes() == csv_bytes

    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", refuse)
        assert self.run(tmp_path / "cal.csv") == 1
        assert os.listdir(tmp_path) == []


class TestOneOutputStep:
    """A re-run whose write fails leaves every file of the earlier run as it was."""

    LANDSCAPE = ["landscape", "--alphas", "2", "--ns", "40,80", "--holdout-n", "500",
                 "--epochs", "5"]
    CALIBRATION = ["calibration", "--alphas", "2", "--f-range", "5", "--grid-step", "0.01"]

    @staticmethod
    def snapshot(folder):
        return {name: (folder / name).read_bytes() for name in os.listdir(folder)}

    def check(self, tmp_path, monkeypatch, first, second, which):
        out = str(tmp_path / "out.csv")
        assert main(first + ["--out", out]) == 0
        before = self.snapshot(tmp_path)
        if which == "replace":
            def refuse(src, dst):
                raise OSError(errno.EXDEV, "Invalid cross-device link")

            monkeypatch.setattr(os, "replace", refuse)
        else:
            TestAtomicWrites.fail_on_write(monkeypatch, which)
        assert main(second + ["--out", out]) == 1
        # equal name sets also mean no temp file was left behind
        assert self.snapshot(tmp_path) == before
        monkeypatch.undo()
        assert main(second + ["--out", out]) == 0
        after = self.snapshot(tmp_path)
        assert all(after[name] != before[name] for name in before)

    @pytest.mark.parametrize("which", [0, 1, 2, "replace"])
    def test_landscape(self, tmp_path, monkeypatch, which):
        """Files 0, 1 and 2 are the trial CSV, the summary and the manifest."""
        self.check(tmp_path, monkeypatch, self.LANDSCAPE + ["--trials", "1"],
                   self.LANDSCAPE + ["--trials", "2"], which)

    @pytest.mark.parametrize("target", ["out.csv", "out_summary.csv", "out.csv.manifest.json"])
    def test_directory_at_a_target(self, tmp_path, capsys, target):
        out = str(tmp_path / "out.csv")
        assert main(self.LANDSCAPE + ["--trials", "1", "--out", out]) == 0
        (tmp_path / target).unlink()
        (tmp_path / target).mkdir()
        before = self.snapshot_tree(tmp_path)
        assert main(self.LANDSCAPE + ["--trials", "2", "--out", out]) == 1
        assert "is a directory" in capsys.readouterr().err
        assert self.snapshot_tree(tmp_path) == before

    def test_empty_out(self, tmp_path, monkeypatch, capsys):
        # '' resolves to the working directory, whose temp file would land in its parent
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert main(["losscurves", "--out", ""]) == 1
        assert "--out" in capsys.readouterr().err
        assert [path.name for path in tmp_path.rglob("*")] == ["sub"]

    @staticmethod
    def snapshot_tree(folder):
        return {name: (folder / name).is_dir() or (folder / name).read_bytes()
                for name in os.listdir(folder)}

    @pytest.mark.parametrize("which", [0, 1, "replace"])
    def test_calibration(self, tmp_path, monkeypatch, which):
        self.check(tmp_path, monkeypatch, self.CALIBRATION + ["--eta-grid", "0.7"],
                   self.CALIBRATION + ["--eta-grid", "0.3,0.7"], which)


class TestCommandsReturnTables:
    """A subcommand computes its tables and writes nothing; ``main`` writes them."""

    @pytest.mark.parametrize("command", sorted(BASE))
    def test_tables_and_no_file(self, tmp_path, monkeypatch, synthetic_mnist_dir, command):
        monkeypatch.chdir(tmp_path)
        argv = BASE[command] + ["--out", "out.csv"]
        if command in ("train", "sweep"):
            argv += ["--mnist-dir", synthetic_mnist_dir]
        args = build_parser().parse_args(argv)
        tables = args.func(args)
        expected = ["out.csv", "out_summary.csv"] if command == "landscape" else ["out.csv"]
        assert list(tables) == expected
        for header, rows in tables.values():
            assert header[0] == "alpha"
            assert rows and all(len(row) == len(header) for row in rows)
        assert os.listdir(tmp_path) == []


class TestLandscapeRowOrder:
    """Both landscape CSVs list the alphas in --alphas order, each with n increasing."""

    ARGV = ["landscape", "--ns", "200,100", "--trials", "1", "--holdout-n", "1000",
            "--epochs", "5"]

    def test_trials_and_summary_follow_the_alphas_flag(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(self.ARGV + ["--alphas", "inf,1", "--out", str(out)]) == 0
        cells = [["inf", "100"], ["inf", "200"], ["1", "100"], ["1", "200"]]
        _, trial_rows = read_csv(out)
        _, summary_rows = read_csv(tmp_path / "g_summary.csv")
        assert [row[:2] for row in trial_rows] == cells
        assert [row[:2] for row in summary_rows] == cells
        # each trial row keeps its values whatever the order of the flag
        increasing = tmp_path / "h.csv"
        assert main(self.ARGV + ["--alphas", "1,inf", "--out", str(increasing)]) == 0
        _, rows = read_csv(increasing)
        assert sorted(rows) == sorted(trial_rows)


class TestLandscapeSummaryCells:
    """The summary has one row per requested (alpha, n), even when every trial diverged."""

    # 30 epochs leave every solve the steps it needs to certify its point, so
    # stderr names only the diverged trials
    ARGV = ["landscape", "--alphas", "1.5,2", "--ns", "80,40,120", "--trials", "2",
            "--holdout-n", "500", "--epochs", "30"]

    def run(self, tmp_path, monkeypatch, diverges):
        from alphaloss import landscape
        from alphaloss.logreg import TrainingDiverged

        real_train = landscape.train

        def train(cfg, data):
            if diverges(cfg.alpha.value, data.n):
                raise TrainingDiverged(1)
            return real_train(cfg, data)

        monkeypatch.setattr(landscape, "train", train)
        out = tmp_path / "land.csv"
        assert main(self.ARGV + ["--out", str(out)]) == 0
        _, trial_rows = read_csv(out)
        _, rows = read_csv(tmp_path / "land_summary.csv")
        assert [row[:2] for row in rows] == [
            [alpha, n] for alpha in ("1.5", "2") for n in ("40", "80", "120")
        ]
        return trial_rows, rows

    def test_one_diverged_cell_keeps_its_row(self, tmp_path, monkeypatch):
        from alphaloss.landscape import log_log_slope

        trial_rows, rows = self.run(tmp_path, monkeypatch, lambda a, n: a == 2.0 and n == 80)
        assert not [row for row in trial_rows if row[:2] == ["2", "80"]]
        assert [row[2] == "" for row in rows] == [False] * 4 + [True, False]
        assert [row[4] for row in rows] == ["0"] * 3 + ["2"] * 3
        # the slope is fitted over the cells that have a median
        slope = log_log_slope([40, 120], [float(rows[3][2]), float(rows[5][2])])
        assert {row[3] for row in rows[3:]} == {"%.17g" % slope}

    def test_every_cell_of_one_alpha_diverged(self, tmp_path, monkeypatch):
        _, clean = self.run(tmp_path, monkeypatch, lambda a, n: False)
        trial_rows, rows = self.run(tmp_path, monkeypatch, lambda a, n: a == 2.0)
        assert {row[0] for row in trial_rows} == {"1.5"}
        assert [row[2:] for row in rows[3:]] == [["", "", "6"]] * 3
        assert rows[:3] == clean[:3]

    def test_diverged_trials_are_named_on_stderr(self, tmp_path, monkeypatch, capsys):
        self.run(tmp_path, monkeypatch, lambda a, n: a == 2.0 and n == 80)
        assert capsys.readouterr().err.splitlines() == [
            f"warning: training diverged at alpha=2.0, n=80, trial={trial};"
            " the trial is left out of the gaps and counted in diverged"
            for trial in (0, 1)
        ]

    def test_naming_diverged_trials_leaves_the_files_as_they_were(self, tmp_path, monkeypatch,
                                                                  capsys):
        # with every trial diverged no model is trained, so the bytes do not
        # depend on the BLAS build: these are the files written before the names
        self.run(tmp_path, monkeypatch, lambda a, n: True)
        assert len(capsys.readouterr().err.splitlines()) == 12
        with open(tmp_path / "land.csv", "rb") as fh:
            assert fh.read() == b"alpha,n,trial,gap,hoeffding_eps,zero_one_test_risk\n"
        with open(tmp_path / "land_summary.csv", "rb") as fh:
            assert fh.read() == b"alpha,n,median_gap,loglog_slope,diverged\n" + b"".join(
                b"%s,%d,,,6\n" % (alpha, n) for alpha in (b"1.5", b"2") for n in (40, 80, 120)
            )


class TestNonFiniteLaw:
    """A law whose draws overflow is a bad flag: exit 1, no warning, no file."""

    ARGV = ["landscape", "--radius", "inf", "--ns", "40", "--trials", "2", "--holdout-n", "500",
            "--epochs", "5"]

    def test_exits_one_without_warning(self, tmp_path, capfd):
        flags = ["--mean-norm", "1e308", "--noise", "1e308"]
        assert main(self.ARGV + flags + ["--out", str(tmp_path / "gaps.csv")]) == 1
        err = capfd.readouterr().err
        # one line: no numpy warning and no diverged trial
        assert err.startswith("error: features must be finite") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_overflowing_row_norms_still_run(self, tmp_path):
        out = tmp_path / "gaps.csv"
        assert main(self.ARGV + ["--mean-norm", "1e200", "--out", str(out)]) == 0
        assert out.exists()

