"""Self-tests of the benchmark, on a tiny grid.

    python3 perfbench/selftest.py

Every workload runs once untraced and once traced at 16 x (4+4); each metric
declared in BENCHMARK.json must be printed exactly once with its unit, and
the output check must pass.  Then the checker must flag a run whose final
snapshot head was perturbed.
"""

from __future__ import annotations

import json
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402


def bench_run(workload: str, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


class TestMetricsPrinted(unittest.TestCase):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_output(self, stdout: str, section: str):
        last = stdout.strip().splitlines()[-1]
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.declared[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for name, unit in want.items():
            # once in the JSON result, once as a "name = value unit" line
            self.assertEqual(last.count(f'"{name}": {{'), 1, name)
            lines = [l for l in stdout.splitlines()
                     if re.search(rf" {re.escape(name)} = \S+ {re.escape(unit)}$", l)]
            self.assertEqual(len(lines), 1, name)
            self.assertTrue(isinstance(result["metrics"][name]["value"], (int, float)))

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = bench_run(workload, 0)
                self.check_output(plain, "end_to_end")
                self.assertRegex(plain, rf"{workload} failed_frac = 0 fraction")
                self.check_output(bench_run(workload, 1), "per_layer")

    def test_declared_workloads_exist(self):
        self.assertEqual({w["name"] for w in self.declared["workloads"]},
                         set(run.WORKLOADS))


class TestChecker(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
        self.cfg = run.make_config("reference", 3, tiny=True)
        self.code = self.muskat_run(self.cfg)
        self.out = self.dir / "out"

    def muskat_run(self, cfg: dict) -> int:
        from muskat import cli_io

        (self.dir / "config.json").write_text(json.dumps(cfg))
        return cli_io.main(["run", str(self.dir / "config.json")])

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_clean_run_passes(self):
        self.assertEqual(check.check_run(self.out, self.cfg, self.code), ([], 2))

    def test_other_step_count_passes(self):
        # the check must not depend on today's dt rule: a quarter of the
        # step size takes more steps and is still correct
        cfg = dict(self.cfg, dt_safety=self.cfg["dt_safety"] / 4)
        code = self.muskat_run(cfg)
        problems, steps = check.check_run(self.out, cfg, code)
        self.assertEqual(problems, [])
        self.assertGreater(steps, 2)

    def test_missing_last_row_is_flagged(self):
        path = self.out / "timeseries.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        problems, steps = check.check_run(self.out, self.cfg, self.code)
        self.assertTrue(any("not t_end" in p for p in problems), problems)
        self.assertIsNone(steps)

    def test_perturbed_head_is_flagged(self):
        path = self.out / "snapshot_final.mskt"
        data = bytearray(path.read_bytes())
        off = 28 + 16 * self.cfg["n1"]  # first value of p_plus, after h and f
        (value,) = struct.unpack_from("<d", data, off)
        struct.pack_into("<d", data, off, value + 1e-6)
        path.write_bytes(bytes(data))
        problems, _ = check.check_run(self.out, self.cfg, self.code)
        self.assertTrue(any("head" in p for p in problems), problems)

    def test_exit_code_and_truncation_are_flagged(self):
        path = self.out / "snapshot_final.mskt"
        path.write_bytes(path.read_bytes()[:-8])
        problems, _ = check.check_run(self.out, self.cfg, 3)
        self.assertIn("exit code 3", problems)
        self.assertTrue(any("bytes, expected" in p for p in problems), problems)


if __name__ == "__main__":
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    unittest.main()
