import argparse
import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from asrel import cli, pipeline
from asrel.core import write_core_file
from asrel.errors import ParseError
from asrel.synth import GenConfig, generate, sample_paths, write_paths_file


def write(path, text):
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rel_table(out_dir):
    return {
        (int(r["low"]), int(r["high"])): (r["rel"], r["method"])
        for r in read_rows(out_dir / "classifications.csv")
    }


# The files an infer run writes, in sorted order.
OUTPUT_FILES = (
    "classifications.csv",
    "histogram.csv",
    "ingest_report.json",
    "manifest.json",
    "metrics.csv",
)


@pytest.fixture
def uphill_corpus(tmp_path):
    paths = write(tmp_path / "paths.txt", "1 2 3 4 5 6 7\n")
    core = write(tmp_path / "core.txt", "v 4\nv 5\ne 4 5\n")
    return paths, core


class TestInfer:
    def test_single_path_over_core_edge(self, tmp_path, uphill_corpus, capsys):
        paths, core = uphill_corpus
        out = tmp_path / "run"
        code = cli.main(
            ["infer", "--paths-bgp", paths, "--core", core, "--out", str(out)]
        )
        assert code == 0
        rels = rel_table(out)
        assert rels[(1, 2)] == ("c2p", "deterministic-p1")
        assert rels[(3, 4)] == ("c2p", "deterministic-p1")
        assert rels[(4, 5)] == ("p2p", "deterministic-p1")
        assert rels[(5, 6)] == ("p2c", "deterministic-p1")
        assert rels[(6, 7)] == ("p2c", "deterministic-p1")
        assert "classified" in capsys.readouterr().out

    def test_all_output_files_written(self, tmp_path, uphill_corpus):
        paths, core = uphill_corpus
        out = tmp_path / "run"
        cli.main(["infer", "--paths-bgp", paths, "--core", core, "--out", str(out)])
        for name in OUTPUT_FILES:
            assert (out / name).exists(), name

    def test_manifest_reflects_arguments(self, tmp_path, uphill_corpus):
        paths, core = uphill_corpus
        out = tmp_path / "run"
        cli.main(
            [
                "infer", "--paths-bgp", paths, "--core", core,
                "--threshold", "0.9", "--out", str(out),
            ]
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threshold"] == 0.9
        assert manifest["paths_bgp"] == [paths]
        assert manifest["command"] == "infer"

    def test_ingest_report_contents(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2 3 2 5\n1 2 3\n")
        core = write(tmp_path / "c.txt", "v 2\n")
        out = tmp_path / "run"
        cli.main(["infer", "--paths-bgp", paths, "--core", core, "--out", str(out)])
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["paths_read"] == 2
        assert report["paths_truncated_loop"] == 1
        assert "paths_dropped_loop" not in report

    def test_byte_identical_across_runs(self, tmp_path, uphill_corpus):
        paths, core = uphill_corpus
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cli.main(
                ["infer", "--paths-bgp", paths, "--core", core, "--out", str(out)]
            )
        for name in ("classifications.csv", "metrics.csv", "histogram.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reference_agreement_in_metrics(self, tmp_path, uphill_corpus):
        paths, core = uphill_corpus
        ref = write(
            tmp_path / "ref.txt",
            "2|1|-1\n3|2|-1\n4|3|-1\n4|5|0\n5|6|-1\n6|7|-1\n",
        )
        out = tmp_path / "run"
        cli.main(
            [
                "infer", "--paths-bgp", paths, "--core", core,
                "--reference", ref, "--out", str(out),
            ]
        )
        row = read_rows(out / "metrics.csv")[0]
        assert float(row["pct_match_reference_overall"]) == 100.0
        assert float(row["pct_match_reference_both"]) == 100.0

    def test_sibling_records_appended(self, tmp_path, uphill_corpus):
        paths, core = uphill_corpus
        siblings = write(tmp_path / "sib.txt", "100 200\n")
        out = tmp_path / "run"
        cli.main(
            [
                "infer", "--paths-bgp", paths, "--core", core,
                "--siblings", siblings, "--out", str(out),
            ]
        )
        rels = rel_table(out)
        assert rels[(100, 200)] == ("s2s", "sibling-db")

    def infer_with_siblings(self, tmp_path, core_flags, text):
        # With 1 and 2 siblings, the paths cross the merged edge (1, 3)
        # once up to 3 and once down from 1.
        paths = write(tmp_path / "p.txt", "2 3 4\n5 2 3\n1 3 6\n")
        siblings = write(tmp_path / "s.txt", "1 2\n")
        core = write(tmp_path / "c.txt", text)
        out = tmp_path / "run"
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, "--siblings", siblings,
                *core_flags, core, "--out", str(out),
            ]
        )
        return code, out

    @pytest.mark.parametrize(
        "core_flags, text, method",
        [
            (["--core"], "v 2\nv 3\ne 2 3\n", "deterministic-p1"),
            (
                ["--core-method", "external", "--peer-edges"], "2|3|0\n",
                "core-preassigned",
            ),
        ],
        ids=["core", "peers"],
    )
    def test_core_files_read_through_the_sibling_merge(
        self, tmp_path, core_flags, text, method
    ):
        # The core edge 2-3 is the merged edge (1, 3), so both of its ASes
        # stay in the core and it is a peering.
        code, out = self.infer_with_siblings(tmp_path, core_flags, text)
        assert code == 0
        assert rel_table(out)[(1, 3)] == ("p2p", method)

    def test_core_labels_conflicting_after_the_merge(self, tmp_path, capsys):
        # "e 2 3 c2p" and "e 1 3 p2c" label the merged edge (1, 3) both ways.
        code, _ = self.infer_with_siblings(
            tmp_path, ["--core"], "e 2 3 c2p\ne 1 3 p2c\n"
        )
        assert code == 1
        assert "c.txt:2" in capsys.readouterr().err


class TestRunCutShort:
    def test_closed_stdout_is_exit_one_without_traceback(self, tmp_path, uphill_corpus):
        # A reader that exits before the summary line, as in ``| head -0``.
        paths, core = uphill_corpus
        out = tmp_path / "run"
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "asrel.cli", "infer", "--paths-bgp", paths,
                 "--core", core, "--out", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr
        assert sorted(os.listdir(out)) == list(OUTPUT_FILES)

    def test_closed_stdout_in_process(self, tmp_path, uphill_corpus):
        paths, core = uphill_corpus
        out = tmp_path / "run"
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout, contextlib.redirect_stdout(stdout):
            code = cli.main(
                ["infer", "--paths-bgp", paths, "--core", core, "--out", str(out)]
            )
        assert code == 1
        assert sorted(os.listdir(out)) == list(OUTPUT_FILES)

    def test_ctrl_c_is_exit_130(self, tmp_path, uphill_corpus, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_infer", interrupted)
        paths, core = uphill_corpus
        code = cli.main(
            ["infer", "--paths-bgp", paths, "--core", core, "--out", str(tmp_path / "o")]
        )
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"


class TestHashSeed:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Agent ids are strings: with several agents, anything that reads a
        # set of them in hash order would differ between the two seeds.
        config = GenConfig(tier_sizes=(4, 12, 40), paths=800, seed=7)
        sampled = sample_paths(generate(config), config)
        assert len({p.agent for p in sampled}) >= 3
        paths = tmp_path / "paths.txt"
        with open(paths, "w") as fh:
            write_paths_file(sampled, fh)
        pairs = {tuple(sorted(p.hops[:2])) for p in sampled[:3]}
        siblings = write(
            tmp_path / "sib.txt", "".join(f"{a} {b}\n" for a, b in sorted(pairs))
        )
        src = Path(__file__).resolve().parent.parent / "src"
        commands = {
            "infer": (
                ["infer", "--core-method", "clique", "--tiebreak", "kshell"],
                ("classifications.csv", "metrics.csv", "histogram.csv",
                 "ingest_report.json"),
            ),
            "corruption": (
                ["experiment", "corruption", "--core-method", "clique",
                 "--fractions", "0,0.5", "--corruption-seeds", "2"],
                ("experiment.csv",),
            ),
        }
        seeds = ("0", "12345")
        for seed in seeds:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(src), env.get("PYTHONPATH")) if p
            )
            for name, (args, files) in commands.items():
                out = tmp_path / f"{name}-{seed}"
                done = subprocess.run(
                    [sys.executable, "-m", "asrel.cli", *args,
                     "--paths-trace", str(paths), "--siblings", siblings,
                     "--out", str(out)],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                assert done.returncode == 0, done.stderr
        for name, (_, files) in commands.items():
            for file in files:
                first, second = (
                    (tmp_path / f"{name}-{seed}" / file).read_bytes() for seed in seeds
                )
                assert first == second, (name, file)


class TestInferErrors:
    def test_missing_file_is_input_error(self, tmp_path):
        code = cli.main(
            [
                "infer", "--paths-bgp", str(tmp_path / "absent.txt"),
                "--core-method", "clique", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            (["infer"], ["--core-method", "clique", "--threshold", "2"], "threshold must be"),
            (["infer"], ["--core-method", "clique", "--max-core-hops", "0"], "max_core_hops"),
            (["infer"], [], "one of --core or --core-method is required"),
            (["build-core"], [], "one of --core or --core-method is required"),
            (
                ["experiment", "window-stability"],
                ["--paths-bgp-b", "absent-b.txt"],
                "one of --core or --core-method is required",
            ),
            (["experiment", "core-sweep"], ["--sweep-sizes", ","], "--sweep-sizes ',' names no size"),
            (
                ["experiment", "corruption"],
                ["--core-method", "clique", "--fractions", "2"],
                "fractions must lie in [0, 1]",
            ),
            (
                ["experiment", "corruption"],
                ["--core-method", "clique", "--corruption-seeds", "0"],
                "--corruption-seeds must be >= 1",
            ),
        ],
        ids=[
            "threshold", "max-core-hops", "infer-no-core", "build-core-no-core",
            "window-no-core", "sweep-sizes", "fractions", "corruption-seeds",
        ],
    )
    def test_bad_flag_reported_before_missing_corpus(
        self, tmp_path, capsys, command, flags, message
    ):
        # Flags are checked before any input file is opened.
        absent = str(tmp_path / "absent.txt")
        code = cli.main(
            [*command, "--paths-bgp", absent, *flags, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "cannot read" not in err

    def test_empty_corpus_is_input_error(self, tmp_path, capsys):
        paths = write(tmp_path / "empty.txt", "")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths,
                "--core-method", "clique", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "no usable paths" in capsys.readouterr().err

    def test_malformed_line_diagnostic_names_file_and_line(self, tmp_path, capsys):
        paths = write(tmp_path / "bad.txt", "1 2 3\nbanana\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths,
                "--core-method", "clique", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "bad.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--paths-bgp", "--siblings"])
    def test_non_utf8_file_is_input_error(self, tmp_path, capsys, flag):
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2 3\n\xff 4\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, flag, str(bad),
                "--core-method", "clique", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "bad.txt" in capsys.readouterr().err

    def infer_bgp(self, tmp_path, *files):
        return cli.main(
            [
                "infer", "--paths-bgp", *files,
                "--core-method", "clique", "--out", str(tmp_path / "o"),
            ]
        )

    def test_malformed_line_first_seen_in_second_file(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "1 2 3\n4 5\n")
        b = write(tmp_path / "b.txt", "4 5\n1 2 3\nbanana\n")
        assert self.infer_bgp(tmp_path, a, b) == 1
        assert "b.txt:3:" in capsys.readouterr().err

    def test_line_malformed_in_both_files_reported_in_first(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "1 2 3\n4 5\nbanana\n")
        b = write(tmp_path / "b.txt", "banana\n")
        assert self.infer_bgp(tmp_path, a, b) == 1
        err = capsys.readouterr().err
        assert "a.txt:3:" in err
        assert "b.txt" not in err

    def test_missing_file_reported_before_malformed_line(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "banana\n")
        absent = str(tmp_path / "absent.txt")
        assert self.infer_bgp(tmp_path, a, absent) == 1
        err = capsys.readouterr().err
        assert f"cannot read {absent}" in err
        assert "a.txt" not in err

    def test_missing_file_is_parse_error_naming_it(self, tmp_path):
        absent = str(tmp_path / "absent.txt")
        with pytest.raises(ParseError) as err:
            with cli._reading(absent):
                pass
        assert str(err.value) == f"cannot read {absent}: {os.strerror(errno.ENOENT)}"
        assert err.value.source == absent
        assert err.value.line == 0

    def test_non_utf8_deep_in_second_file(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "1 2 3\n")
        bad = tmp_path / "bad.txt"
        valid = "".join(f"{i} {i + 1} {i + 2}\n" for i in range(1, 1001))
        bad.write_bytes(valid.encode() + b"7 \xff 8\n")
        assert self.infer_bgp(tmp_path, a, str(bad)) == 1
        err = capsys.readouterr().err
        assert f"cannot read {bad}: not UTF-8 text" in err

    def test_grown_core_on_too_small_graph(self, tmp_path, capsys):
        # Three ASes cannot hold a grown core of the minimum size, whatever
        # size is asked for.
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, "--core-method", "grow",
                "--core-size", "4", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: a grown core needs at least 4 vertices; the graph has only 3\n"

    @pytest.mark.parametrize(
        "flag, text, line",
        [
            ("--paths-bgp", "1 2 3 weight=99999999999999999999\n", 1),
            ("--paths-bgp", "1 2 3 weight=5000000000000000000\n" * 2, 1),
            # Two lines that only normalize to one path: no line holds the sum.
            (
                "--paths-bgp",
                "1 2 3 weight=5000000000000000000\n1 2 2 3 weight=5000000000000000000\n",
                None,
            ),
            # Only agent a reports (3, 9); cutting it leaves a second 1 2 3 of
            # a, whose merged weight is checked like any other.
            (
                "--paths-trace",
                "a|1 2 3 9 weight=5000000000000000000\n"
                "a|1 2 3 weight=5000000000000000000\nb|1 2 3\n",
                None,
            ),
        ],
        ids=["one-line", "repeated-line", "merged-paths", "split-segment"],
    )
    def test_weight_over_bound_is_input_error(self, tmp_path, capsys, flag, text, line):
        paths = write(tmp_path / "p.txt", text)
        code = cli.main(
            ["infer", flag, paths, "--core-method", "clique", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        where = "path 1 2 3" if line is None else f"{paths}:{line}"
        assert lines == [f"error: {where}: weight exceeds {2**63 - 1}"]

    @pytest.mark.parametrize(
        "flag, text",
        [("--paths-trace", "a|1 2 3\n|1 2\n"), ("--paths-bgp", "1 2 3\nweight=3\n")],
        ids=["empty-agent", "weight-only"],
    )
    def test_path_line_without_agent_or_hops(self, tmp_path, capsys, flag, text):
        bad = write(tmp_path / "bad.txt", text)
        code = cli.main(
            ["infer", flag, bad, "--core-method", "clique", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "bad.txt:2" in capsys.readouterr().err

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        write(tmp_path / "o", "")
        assert self.infer_bgp(tmp_path, paths) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_largest_weight_runs(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2 3 weight=9223372036854775807\n")
        assert self.infer_bgp(tmp_path, paths) == 0

    def test_bad_threshold_is_configuration_error(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, "--core-method", "clique",
                "--threshold", "0.4", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_core_source_required(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        code = cli.main(
            ["infer", "--paths-bgp", paths, "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_core_file_and_method_conflict(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        core = write(tmp_path / "c.txt", "v 2\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, "--core", core,
                "--core-method", "clique", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_unusable_external_core_is_exit_three(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        peers = write(tmp_path / "peers.txt", "700 701\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, "--core-method", "external",
                "--peer-edges", peers, "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("v -5", 1), ("v 99999999999999999999", 1), ("v 777", 3),
            ("e 1 2 s2s", 1), ("e 1 2 unclassified", 1), ("x 1", 1),
        ],
    )
    def test_unusable_core_file(self, tmp_path, capsys, line, expected):
        # Out-of-range ASNs and labels a core edge cannot carry are input
        # errors; a core that names no AS of the observed graph is
        # infeasible, as for an external peer list.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n4 5\n")
        core = write(tmp_path / "c.txt", line + "\n")
        code = cli.main(
            ["infer", "--paths-bgp", paths, "--core", core, "--out", str(tmp_path / "o")]
        )
        assert code == expected
        if expected == 1:
            assert "c.txt:1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--reference", "1|2|0\n{a}|{b}|0\n"),
            ("--peer-edges", "2 3\n{a} {b}\n"),
            ("--peer-edges", "2|3|0\n{a}|{b}|-1\n"),
        ],
        ids=["reference", "peers", "peers-dump"],
    )
    @pytest.mark.parametrize(
        "a, b", [("0", "2"), ("-4", "3"), ("99999999999999999999", "2")]
    )
    def test_out_of_range_asn(self, tmp_path, capsys, flag, text, a, b):
        # Line 1 is valid, so only the range check on line 2 can fail.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        bad = write(tmp_path / "bad.txt", text.format(a=a, b=b))
        method = "external" if flag == "--peer-edges" else "clique"
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, "--core-method", method,
                flag, bad, "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "bad.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize("siblings", [[], ["--siblings"]], ids=["alone", "siblings"])
    def test_reference_code_checked_with_or_without_siblings(
        self, tmp_path, capsys, siblings
    ):
        # The record names the siblings 1 and 2; its code is read before
        # the pair collapses, so --siblings does not hide a bad code.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        if siblings:
            siblings.append(write(tmp_path / "s.txt", "1 2\n"))
        ref = write(tmp_path / "ref.txt", "1|2|7\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, *siblings, "--core-method", "clique",
                "--reference", ref, "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "ref.txt:1: not a relationship code: '7'" in capsys.readouterr().err

    def test_peer_code_outside_the_rule_is_input_error(self, tmp_path, capsys):
        # Among valid peer and relationship lines, a code other than -1, 0
        # and 1 is an error, not a skipped line.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        peers = write(tmp_path / "peers.txt", "2|3|0\n3|4|7\n1|2|-1\n2 3\n")
        code = cli.main(
            [
                "infer", "--paths-bgp", paths, "--core-method", "external",
                "--peer-edges", peers, "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "peers.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--reference", "1|2|0\n3|3|0\n"),
            ("--core", "e 2 3 c2p\ne 3 2 c2p\n"),
            ("--siblings", "5 6\n7 7\n"),
            ("--peer-edges", "2 3\n3|3|0\n"),
        ],
        ids=["reference-self-pair", "core-conflict", "sibling-self-pair", "peer-self-pair"],
    )
    def test_one_pair_rule(self, tmp_path, capsys, flag, text):
        # Line 1 is valid; line 2 names one AS twice or contradicts line 1.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        bad = write(tmp_path / "bad.txt", text)
        core = (
            [] if flag == "--core"
            else ["--core-method", "external" if flag == "--peer-edges" else "clique"]
        )
        code = cli.main(
            ["infer", "--paths-bgp", paths, *core, flag, bad, "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "bad.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--paths-bgp", "1 2 3\n{n} 2 3\n"),
            ("--paths-bgp", "1 2 3\n1 2 weight={n}\n"),
            ("--siblings", "5 6\n{n} 6\n"),
            ("--core", "v 2\nv {n}\n"),
            ("--reference", "1|2|0\n{n}|2|0\n"),
            ("--reference", "1|2|0\n1|3|{n}\n"),
            ("--peer-edges", "2 3\n1|3|{n}\n"),
        ],
        ids=["path", "weight", "sibling", "core", "reference", "reference-code",
             "peer-code"],
    )
    @pytest.mark.parametrize(
        "n", ["1_0", "+7", "\u0663", "4\u00b2", "+0", "\u0661", " -1"]
    )
    def test_numbers_are_ascii_digits(self, tmp_path, capsys, flag, text, n):
        # int() reads each of these tokens as a number; an input file may not.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        bad = write(tmp_path / "bad.txt", text.format(n=n))
        files = [bad] if flag == "--paths-bgp" else [paths, flag, bad]
        core = (
            [] if flag == "--core"
            else ["--core-method", "external" if flag == "--peer-edges" else "clique"]
        )
        code = cli.main(["infer", "--paths-bgp", *files, *core, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad.txt:2" in capsys.readouterr().err

    def test_unknown_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["infer", "--core-method", "oracle", "--out", "x"])
        assert err.value.code == 2


# The flags each subcommand reads, as documented in README "CLI".
CORPUS = {"--paths-bgp", "--paths-trace"}
CORE = {"--core", "--core-method", "--core-size", "--grow-strategy", "--peer-edges"}
INFERENCE = {"--threshold", "--max-core-hops", "--tiebreak"}
FLAG_SETS = {
    "infer": CORPUS | CORE | INFERENCE | {"--siblings", "--reference", "--out"},
    "build-core": CORPUS | CORE | {"--siblings", "--out"},
    "core-sweep": CORPUS | INFERENCE
    | {"--siblings", "--grow-strategy", "--reference", "--sweep-sizes", "--out"},
    "corruption": CORPUS | CORE | INFERENCE
    | {"--siblings", "--reference", "--seed", "--fractions", "--corruption-seeds", "--out"},
    "window-stability": CORPUS | CORE | INFERENCE
    | {"--paths-bgp-b", "--paths-trace-b", "--siblings", "--out"},
}
ALL_FLAGS = set().union(*FLAG_SETS.values())
SIZE_NEEDS_GROW = "--core-size needs --core-method grow"
PEERS_NEED_EXTERNAL = "--peer-edges needs --core-method external"


def command(kind):
    return [kind] if kind in ("infer", "build-core") else ["experiment", kind]


def leaf_parsers(parser):
    """(name, parser) of every subcommand that takes no further subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = list(leaf_parsers(sub))
                yield from nested or [(name, sub)]


class TestFlagSets:
    def test_each_subcommand_takes_the_flags_it_reads(self):
        accepted = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, sub in leaf_parsers(cli.build_parser())
        }
        assert accepted == FLAG_SETS
        assert sum(map(len, accepted.values())) == 62

    @pytest.mark.parametrize(
        "kind, flag",
        [(kind, flag) for kind in FLAG_SETS for flag in sorted(ALL_FLAGS - FLAG_SETS[kind])],
    )
    def test_flag_not_read_is_exit_two(self, tmp_path, capsys, kind, flag):
        with pytest.raises(SystemExit) as err:
            cli.main([*command(kind), flag, "1", "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["infer", "core-sweep", "corruption", "window-stability"])
    def test_removed_anchor_flag_is_exit_two(self, tmp_path, capsys, kind):
        # Phase 2 anchors on the threshold alone; the flag that chose a rule
        # is gone, so even its old default is refused.
        with pytest.raises(SystemExit) as err:
            cli.main([*command(kind), "--phase2-anchor", "threshold", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "unrecognized arguments: --phase2-anchor threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["infer", "build-core", "corruption"])
    def test_manifest_holds_only_read_flags(self, tmp_path, uphill_corpus, kind):
        paths, core = uphill_corpus
        out = tmp_path / "run"
        argv = [*command(kind), "--paths-bgp", paths, "--core", core, "--out", str(out)]
        assert cli.main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        dests = {flag[2:].replace("-", "_") for flag in FLAG_SETS[kind]}
        kinds = {"kind"} if kind == "corruption" else set()
        assert set(manifest) == dests | {"command"} | kinds

    @pytest.mark.parametrize("kind", ["infer", "build-core", "corruption", "window-stability"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--core-method", "clique", "--core-size", "4"], SIZE_NEEDS_GROW),
            (["--core-size", "4"], SIZE_NEEDS_GROW),
            (["--core-method", "kcore", "--peer-edges"], PEERS_NEED_EXTERNAL),
            (["--peer-edges"], PEERS_NEED_EXTERNAL),
            (["--core-method", "external"], "--core-method external needs --peer-edges"),
        ],
        ids=["size-clique", "size-file", "peers-kcore", "peers-file", "external-no-peers"],
    )
    def test_core_flag_the_source_ignores_is_exit_two(
        self, tmp_path, capsys, uphill_corpus, kind, flags, message
    ):
        paths, core = uphill_corpus
        argv = [*command(kind), "--paths-bgp", paths, *flags]
        if flags[-1] == "--peer-edges":
            argv.append(write(tmp_path / "peers.txt", "4 5\n"))
        if "--core-method" not in flags:
            argv += ["--core", core]
        if kind == "window-stability":
            argv += ["--paths-bgp-b", paths]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestBuildCore:
    def test_kcore_on_k4_with_pendant(self, tmp_path, capsys):
        paths = write(tmp_path / "p.txt", "2 1 3\n2 3 4\n2 4 1\n5 1 2\n")
        out = tmp_path / "core"
        code = cli.main(
            [
                "build-core", "--paths-bgp", paths,
                "--core-method", "kcore", "--out", str(out),
            ]
        )
        assert code == 0
        assert "vertices=4 edges=6" in capsys.readouterr().out
        content = (out / "core.txt").read_text()
        assert content.startswith("v 1\nv 2\nv 3\nv 4\n")

    def test_clique_on_triangle(self, tmp_path, capsys):
        paths = write(tmp_path / "p.txt", "1 2 3\n3 1 2\n")
        code = cli.main(
            [
                "build-core", "--paths-bgp", paths,
                "--core-method", "clique", "--out", str(tmp_path / "core"),
            ]
        )
        assert code == 0
        assert "vertices=3 edges=3 density=1.0000" in capsys.readouterr().out

    def test_external_keeps_larger_component(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2\n8 9 10\n")
        peers = write(tmp_path / "peers.txt", "1 2\n8 9\n9 10\n")
        out = tmp_path / "core"
        code = cli.main(
            [
                "build-core", "--paths-bgp", paths, "--core-method", "external",
                "--peer-edges", peers, "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "core.txt").read_text().splitlines()
        assert "v 8" in lines and "v 1" not in lines
        assert "e 8 9 p2p" in lines

    def test_grow_requires_size(self, tmp_path):
        paths = write(tmp_path / "p.txt", "1 2 3\n")
        code = cli.main(
            [
                "build-core", "--paths-bgp", paths,
                "--core-method", "grow", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2


class TestExperiment:
    def synth_files(self, tmp_path, seed_b=None):
        config = GenConfig(tier_sizes=(4, 8, 20), paths=600, seed=3)
        truth = generate(config)
        paths_a = tmp_path / "a.txt"
        with open(paths_a, "w") as fh:
            write_paths_file(sample_paths(truth, config), fh)
        core = tmp_path / "core.txt"
        with open(core, "w") as fh:
            write_core_file(truth.true_core(), fh)
        if seed_b is None:
            return str(paths_a), str(core)
        paths_b = tmp_path / "b.txt"
        with open(paths_b, "w") as fh:
            write_paths_file(sample_paths(truth, config, seed=seed_b), fh)
        return str(paths_a), str(core), str(paths_b)

    def test_corruption_grid_row_count(self, tmp_path):
        paths, core = self.synth_files(tmp_path)
        out = tmp_path / "exp"
        code = cli.main(
            [
                "experiment", "corruption", "--paths-trace", paths,
                "--core", core, "--fractions", "0,0.5,1.0",
                "--corruption-seeds", "2", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out / "experiment.csv")
        assert len(rows) == 6
        assert rows[0]["fraction"] == "0.0"

    def test_corruption_with_unobserved_core_vertex(self, tmp_path):
        # A core file may name an AS no path contains; it has no edges.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        core = write(tmp_path / "c.txt", "v 1\nv 2\nv 7\n")
        code = cli.main(
            [
                "experiment", "corruption", "--paths-bgp", paths,
                "--core", core, "--fractions", "0",
                "--corruption-seeds", "1", "--out", str(tmp_path / "exp"),
            ]
        )
        assert code == 0

    def test_sweep_sizes_range_syntax(self, tmp_path):
        paths, core = self.synth_files(tmp_path)
        out = tmp_path / "exp"
        code = cli.main(
            [
                "experiment", "core-sweep", "--paths-trace", paths,
                "--sweep-sizes", "4:8:2", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out / "experiment.csv")
        assert [r["size"] for r in rows] == ["4", "6", "8"]

    def test_sweep_sizes_list_syntax(self, tmp_path):
        paths, core = self.synth_files(tmp_path)
        out = tmp_path / "exp"
        code = cli.main(
            [
                "experiment", "core-sweep", "--paths-trace", paths,
                "--sweep-sizes", "4,6", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(read_rows(out / "experiment.csv")) == 2

    def test_sweep_needs_sizes(self, tmp_path):
        paths, core = self.synth_files(tmp_path)
        for sizes in ([], ["--sweep-sizes", ","]):
            code = cli.main(
                [
                    "experiment", "core-sweep", "--paths-trace", paths,
                    *sizes, "--out", str(tmp_path / "exp"),
                ]
            )
            assert code == 2

    @pytest.mark.parametrize(
        "spec", ["1:2:3:4", "a:5", "5:4", "4,x", "4:8:0", "4:", "4:8:x"]
    )
    def test_malformed_sweep_sizes(self, tmp_path, capsys, spec):
        paths = write(tmp_path / "p.txt", "1 2 3 4 5 6\n")
        code = cli.main(
            [
                "experiment", "core-sweep", "--paths-bgp", paths,
                "--sweep-sizes", spec, "--out", str(tmp_path / "exp"),
            ]
        )
        assert code == 2
        assert f"bad --sweep-sizes {spec!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["4:500", "4:1000000000000", "4,5,500"])
    def test_sweep_sizes_checked_before_any_cell(
        self, tmp_path, monkeypatch, capsys, spec
    ):
        # Six ASes: every size above 6 is out of range, and the sweep must
        # say so before it runs a cell or builds the whole range.
        paths = write(tmp_path / "p.txt", "1 2 3 4 5 6\n2 4 6\n")
        cells = []
        real = pipeline.run_inference
        monkeypatch.setattr(
            pipeline, "run_inference", lambda *args: cells.append(1) or real(*args)
        )
        out = tmp_path / "exp"
        code = cli.main(
            [
                "experiment", "core-sweep", "--paths-bgp", paths,
                "--sweep-sizes", spec, "--out", str(out),
            ]
        )
        assert code == 2
        assert cells == []
        assert not (out / "experiment.csv").exists()
        assert "between 4 and 6, got " in capsys.readouterr().err

    def test_window_stability_zero_noise_is_one(self, tmp_path):
        paths_a, core, paths_b = self.synth_files(tmp_path, seed_b=77)
        out = tmp_path / "exp"
        code = cli.main(
            [
                "experiment", "window-stability",
                "--paths-trace", paths_a, "--paths-trace-b", paths_b,
                "--core", core, "--out", str(out),
            ]
        )
        assert code == 0
        row = read_rows(out / "experiment.csv")[0]
        assert float(row["stability"]) == 1.0
        assert int(row["shared_edges"]) > 0

    def test_window_stability_skips_sibling_pairs(self, tmp_path):
        # Both windows declare the same two sibling pairs; they are not edges.
        paths_a = write(tmp_path / "a.txt", "1 2 3\n2 3 4\n3 4 5\n1 3 5\n")
        paths_b = write(tmp_path / "b.txt", "1 2 3\n2 3 4\n3 4 5\n2 4 5\n")
        siblings = write(tmp_path / "sib.txt", "1 10\n2 20\n")
        out = tmp_path / "exp"
        code = cli.main(
            [
                "experiment", "window-stability", "--paths-bgp", paths_a,
                "--paths-bgp-b", paths_b, "--siblings", siblings,
                "--core-method", "clique", "--out", str(out),
            ]
        )
        assert code == 0
        row = read_rows(out / "experiment.csv")[0]
        assert int(row["shared_edges"]) <= min(int(row["edges_a"]), int(row["edges_b"]))

    def test_window_stability_needs_second_corpus(self, tmp_path):
        paths, core = self.synth_files(tmp_path)
        code = cli.main(
            [
                "experiment", "window-stability", "--paths-trace", paths,
                "--core", core, "--out", str(tmp_path / "exp"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--fractions", "x"], "bad --fractions 'x'"),
            (["--corruption-seeds", "0"], "--corruption-seeds must be >= 1"),
        ],
        ids=["fractions", "seeds"],
    )
    def test_bad_corruption_grid(self, tmp_path, capsys, flags, message):
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        core = write(tmp_path / "c.txt", "v 2\nv 3\n")
        code = cli.main(
            [
                "experiment", "corruption", "--paths-bgp", paths, "--core", core,
                *flags, "--out", str(tmp_path / "exp"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_corruption_seeds_reach_the_sweep_as_a_range(self, tmp_path, monkeypatch):
        # A seed count far beyond memory costs nothing before the first
        # cell: the sweep gets the seeds as a range. The stub runs no cell.
        paths = write(tmp_path / "p.txt", "1 2 3\n2 3 4\n")
        core = write(tmp_path / "c.txt", "v 2\nv 3\n")
        calls = []

        def sweep(graph, corpus, core, fractions, seeds, *configs):
            calls.append(seeds)
            return []

        monkeypatch.setattr(cli, "corruption_sweep", sweep)
        code = cli.main(
            [
                "experiment", "corruption", "--paths-bgp", paths, "--core", core,
                "--fractions", "0.5", "--seed", "7",
                "--corruption-seeds", str(10**12), "--out", str(tmp_path / "exp"),
            ]
        )
        assert code == 0
        assert calls == [range(7, 7 + 10**12)]

    def test_bad_fraction_is_configuration_error(self, tmp_path):
        paths, core = self.synth_files(tmp_path)
        code = cli.main(
            [
                "experiment", "corruption", "--paths-trace", paths,
                "--core", core, "--fractions", "0,1.5",
                "--out", str(tmp_path / "exp"),
            ]
        )
        assert code == 2


# The fuzz below writes files of well-formed records over a few ASes, so
# that most runs reach the engine, and now and then puts one malformed
# line among them: a token no format accepts, a pair naming one AS twice,
# or a line of the wrong shape.
asns = st.sampled_from(["1", "2", "3", "4", "5", "6", "7", "8"])
bad_asns = st.sampled_from(["0", "-3", "x", "1.5", "{1,2}", "4294967296", "9" * 20])
junk_lines = st.sampled_from(
    ["", "# comment", "|", "1|2", "1|2|z", "1|2|7", "a b c d", "1 1", "2|2|0",
     "1 2 weight=0", "x|1 2"]
)


def joined(*parts, sep=" "):
    """Tokens drawn from parts, the empty ones left out, joined by sep."""
    return st.tuples(*parts).map(lambda tokens: sep.join(t for t in tokens if t))


def pairs(tokens, sep=" "):
    return st.lists(tokens, min_size=2, max_size=2, unique=True).map(sep.join)


def fuzz_file(record, min_size=0):
    """Records drawn from record(asns), and one time in four a malformed
    line at a drawn place among them."""

    def text(records, malformed, line, at):
        if malformed:
            records.insert(at, line)
        return "".join(f"{r}\n" for r in records)

    return st.builds(
        text,
        st.lists(record(asns), min_size=min_size, max_size=6),
        st.sampled_from([False, False, False, True]),
        record(bad_asns) | junk_lines,
        st.integers(0, 6),
    )


def path_file(prefix):
    return fuzz_file(
        lambda tokens: joined(
            prefix,
            st.lists(tokens, min_size=2, max_size=6).map(" ".join),
            # A weight over 2**63 - 1, and one whose line, repeated or
            # merged with one that normalizes to the same path, sums over it.
            st.sampled_from(
                ["", "", "", "", "weight=2", "weight=2",
                 "weight=99999999999999999999", "weight=5000000000000000000"]
            ),
        ),
        min_size=1,
    )


codes = st.sampled_from(["-1", "0", "1"])
fuzz_files = {
    "--paths-bgp": path_file(st.just("")),
    "--paths-trace": path_file(st.sampled_from(["a|", "b|", "c|"])),
    "--paths-bgp-b": path_file(st.just("")),
    "--siblings": fuzz_file(pairs),
    "--core": fuzz_file(
        lambda tokens: joined(st.just("v"), tokens)
        | joined(
            st.sampled_from(["e", "e", "e", "q"]),
            pairs(tokens),
            st.sampled_from(["", "", "c2p", "p2c", "p2p", "s2s"]),
        ),
        min_size=1,
    ),
    "--peer-edges": fuzz_file(
        lambda tokens: joined(pairs(tokens, "|"), codes | st.just("2"), sep="|")
        | pairs(tokens)
    ),
    "--reference": fuzz_file(lambda tokens: joined(pairs(tokens, "|"), codes, sep="|")),
}


def flags(**values):
    """One value, or no flag, per option; underscores become dashes."""
    options = [
        st.sampled_from([None, None, None, *choices]).map(
            lambda v, name=name: [] if v is None else ["--" + name.replace("_", "-"), v]
        )
        for name, choices in values.items()
    ]
    return st.tuples(*options).map(lambda args: [arg for pair in args for arg in pair])


# Flag values drawn per flag group; each kind draws only the groups it
# reads, since any other flag is an argparse error.
group_flags = {
    "core": flags(grow_strategy=["degree", "kshell"]),
    "grow": flags(grow_strategy=["degree", "kshell"]),
    "inference": flags(
        threshold=["0.51", "0.7", "1.0", "0.4", "1.5"],
        max_core_hops=["1", "2", "4", "0"],
        tiebreak=["degree", "kshell"],
    ),
    "sweep": flags(sweep_sizes=["4", "4:6", "4:6:2", "3:2", "4:6:0", ",", "a"]),
    "corruption": flags(
        seed=["0", "7"],
        fractions=["0", "0,0.5", "1", "2", "x", ""],
        corruption_seeds=["0", "1", "2"],
    ),
}
KIND_GROUPS = {
    "infer": ["core", "inference", "--reference"],
    "build-core": ["core"],
    "core-sweep": ["grow", "inference", "--reference", "sweep"],
    "corruption": ["core", "inference", "--reference", "corruption"],
    "window-stability": ["--paths-bgp-b", "core", "inference"],
}
core_sources = st.sampled_from(
    [["--core"]] * 3
    + [["--core-method", method] for method in cli.CORE_METHODS]
    + [["--core", "--core-method", "clique"], []]
)


@st.composite
def cli_runs(draw):
    """An argument list, and the contents of each file flag it adds."""
    kind = draw(st.sampled_from(sorted(KIND_GROUPS)))
    groups = KIND_GROUPS[kind]
    argv = [kind] if kind in ("infer", "build-core") else ["experiment", kind]
    for group in groups:
        if group in group_flags:
            argv += draw(group_flags[group])
    required = ["--paths-bgp", *[g for g in groups if g == "--paths-bgp-b"]]
    optional = ["--paths-trace", "--siblings", *[g for g in groups if g == "--reference"]]
    if "core" in groups:
        # --core-size and --peer-edges are drawn mostly for the core
        # method that reads them; for any other source they are exit 2.
        core = draw(core_sources)
        grow = "grow" in core
        argv += draw(flags(core_size=["4", "4", "5", "2", "100"] if grow else ["4"]))
        if "external" in core or draw(st.integers(0, 3)) == 0:
            optional.append("--peer-edges")
        if "--core" in core:
            required.append("--core")
        argv += [arg for arg in core if arg != "--core"]
    files = {name: draw(fuzz_files[name]) for name in required}
    for name in optional:
        files[name] = draw(st.none() | fuzz_files[name])
    return argv, files


class TestFuzz:
    @given(cli_runs())
    @settings(max_examples=150, deadline=None)
    def test_every_run_exits_cleanly(self, run):
        # Every input ends in exit 0, 1, 2 or 3; a failure is one "error:"
        # line on stderr, never a traceback.
        argv, files = run
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [*argv, "--out", os.path.join(tmp, "out")]
            for name, text in files.items():
                if text is not None:
                    path = os.path.join(tmp, name[2:])
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    argv += [name, path]
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        lines = stderr.getvalue().splitlines()
        if code:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert lines == []
