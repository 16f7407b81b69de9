"""Self-tests of the benchmark.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for name in inputs.WORKLOADS:
            first, second = inputs.generate(name, 11), inputs.generate(name, 11)
            self.assertEqual(first, second, name)

    def test_different_seeds_give_different_inputs(self):
        for name in inputs.WORKLOADS:
            self.assertNotEqual(inputs.generate(name, 11), inputs.generate(name, 12), name)

    def test_no_operation_repeats_across_draws(self):
        for name in inputs.WORKLOADS:
            seen = [inputs.make_op(name, 11, workload.WARM_UP_DRAW, 0)]
            for index in range(4):
                ops = inputs.generate(name, 11, index)
                self.assertFalse(set(ops) & set(seen), (name, index))
                seen += ops

    def test_seed_and_pass_do_not_change_the_structure(self):
        def shape(op):
            scheme = getattr(op, "scheme", None)
            sizes = (scheme.n, scheme.m, scheme.total_transmission < 1) if scheme else ()
            grid = len(op.grid) if isinstance(op, inputs.EntangleOp) else None
            return (op.command, sizes, getattr(op, "steps", None), grid)

        for name in inputs.WORKLOADS:
            first = [shape(op) for op in inputs.generate(name, 1)]
            for seed, index in ((2, 0), (1, 3), (2, 5)):
                self.assertEqual([shape(op) for op in inputs.generate(name, seed, index)], first, name)

    def test_cli_small_bounds(self):
        ops = inputs.generate("cli-small", 5)
        schemes = [op.scheme for op in ops if op.command != "oracle-check"]
        self.assertEqual(len(ops), 150)
        self.assertTrue(all(s.n <= 8 and s.n_detected <= 5 and s.m <= 3 for s in schemes))
        self.assertTrue(all(0 < t <= 1 for s in schemes for t in s.transmission))
        seeds = [op.seed for op in ops if op.command == "oracle-check"]
        self.assertEqual(len(set(seeds)), 10)


def _program_output(op) -> str:
    """The CSV pisim writes for ``op``."""
    import pisim.cli

    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "s.txt", Path(tmp) / "o.csv"
        scenario.write_text(op.scenario())
        argv = [op.command, "--scenario", str(scenario), "--out", str(out)]
        if op.command == "oracle-check":
            argv += ["--seed", str(op.seed)]
        if pisim.cli.main(argv) != 0:
            raise AssertionError(f"pisim failed on {op}")
        return out.read_text()


def _perturbed(text: str, row: int, column: int) -> str:
    lines = [line.split(",") for line in text.splitlines()]
    lines[row][column] = repr(float(lines[row][column]) + 1e-5)
    return "\n".join(",".join(cells) for cells in lines) + "\n"


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        small = inputs.generate("cli-small", 3)
        cls.run_op = next(op for op in small if op.command == "run" and op.scheme.n_detected == 3 and op.scheme.m == 2)
        cls.sweep_op = next(op for op in small if op.command == "sweep" and op.scheme.total_transmission < 1)
        cls.oracle_op = next(op for op in small if op.command == "oracle-check")
        cls.entangle_ops = [op for op in inputs.generate("cli-entangle", 3) if op.scheme.m <= 2]
        cls.outputs = {
            op: _program_output(op) for op in [cls.run_op, cls.sweep_op, cls.oracle_op] + cls.entangle_ops
        }

    def test_program_output_passes(self):
        for op, text in self.outputs.items():
            self.assertEqual(checks.check_csv(text, op), [], op.command)

    def test_one_perturbed_cell_is_rejected(self):
        for op in (self.run_op, self.sweep_op) + tuple(self.entangle_ops[:2]):
            text = self.outputs[op]
            for row, line in enumerate(text.splitlines()[1:], start=1):
                for column, cell in enumerate(line.split(",")):
                    if not cell or (op.command == "run" and column == 0):
                        continue  # blank tangle cells and outcome labels hold no number
                    with self.subTest(op=op.command, row=row, column=column):
                        self.assertNotEqual(checks.check_csv(_perturbed(text, row, column), op), [])

    def test_missing_row_and_failed_oracle_are_rejected(self):
        text = self.outputs[self.run_op]
        self.assertNotEqual(checks.check_csv("\n".join(text.splitlines()[:-1]) + "\n", self.run_op), [])
        oracle = self.outputs[self.oracle_op].replace(",pass", ",fail", 1)
        self.assertNotEqual(checks.check_csv(oracle, self.oracle_op), [])

    def test_density_values(self):
        op = inputs.generate("lib-density", 3)[0]
        fid = (1 + op.scheme.total_transmission) / 2
        self.assertEqual(checks.check_density(fid, 1e-8, op), [])
        self.assertNotEqual(checks.check_density(fid + 1e-8, 0.0, op), [])
        self.assertNotEqual(checks.check_density(fid, 1e-5, op), [])


class SpansTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        tree = [
            spans.Span(0, None, "op", "root", 0.0, 10.0),
            spans.Span(1, 0, "op", "a", 1.0, 4.0),
            spans.Span(2, 1, "op", "a.child", 2.0, 3.0),
            spans.Span(3, 0, "op", "b", 5.0, 9.0),
            spans.Span(4, 3, "op", "b.child", 5.0, 6.5),
            spans.Span(5, 3, "op", "b.child", 6.5, 9.0),
        ]
        self.assertEqual(spans.self_times(tree), {0: 3.0, 1: 2.0, 2: 1.0, 3: 0.0, 4: 1.5, 5: 2.5})
        totals = spans.layer_totals(tree)
        self.assertEqual(totals["b.child"], {"calls": 2, "self_s": 4.0, "failed": 0})

    def test_install_records_nested_spans_and_restores(self):
        import pisim
        import pisim.cli

        original = pisim.analysis.run_scheme
        recorder = spans.Recorder()
        restore = spans.install(recorder, pisim)
        try:
            cfg = pisim.SchemeConfig(3, 1, transmission=(0.5,))  # no phase cancels a term
            pisim.analysis.sweep_pattern(cfg, "phi0", [k * 0.7 for k in range(9)])
        finally:
            restore()
        self.assertIs(pisim.analysis.run_scheme, original)
        by_id = {s.span_id: s for s in recorder.spans}
        splitters = [s for s in recorder.spans if s.name == "interferometer.apply_beam_splitter"]
        self.assertEqual(len(splitters), 9 * 2)
        self.assertTrue(all(by_id[s.parent].name == "interferometer.run_scheme" for s in splitters))
        self.assertEqual(recorder.counts["interferometer.terms_out"], 9 * 8)


class SpeedTest(unittest.TestCase):
    def test_times_are_scaled_to_the_reference_speed(self):
        reference = workload.PROBE_REFERENCE_S
        self.assertAlmostEqual(workload.at_reference_speed(0.2, reference, reference), 0.2)
        # a host at half speed: the probe and the operation both take twice as long
        self.assertAlmostEqual(workload.at_reference_speed(0.4, 2 * reference, 2 * reference), 0.2)
        self.assertAlmostEqual(workload.at_reference_speed(0.3, reference, 2 * reference), 0.2)

    def test_stretches_between_probes_are_scaled_by_their_probes(self):
        reference = workload.PROBE_REFERENCE_S
        probes = [(0.0, reference), (2.0, 2.0 + 2 * reference), (5.0, 5.0 + 3 * reference)]
        # 1 s at the reference speed before the middle probe; 3 s at 2.5 x after it
        expected = (2.0 - reference) / 1.5 + (5.0 - 2.0 - 2 * reference) / 2.5
        self.assertAlmostEqual(workload.scaled_time(reference, 5.0, probes), expected)
        self.assertAlmostEqual(workload.scaled_time(0.5, 1.0, probes), 0.5 / 1.5)

    def test_timed_run_probes_during_a_long_run(self):
        class Runner:
            def run(self, op):
                start = time.perf_counter()
                while time.perf_counter() - start < 3.5 * workload.PROBE_INTERVAL_S:
                    pass
                return (start, time.perf_counter()), [f"bad {op}"]

        probes = []
        original = workload.probe
        workload.probe = lambda: probes.append(original()) or probes[-1]
        try:
            latency, problems = workload.timed_run(Runner(), "op")
        finally:
            workload.probe = original
        self.assertGreaterEqual(len(probes), 2 + 3)
        self.assertGreater(latency, 0)
        self.assertEqual(problems, ["bad op"])


class ReportTest(unittest.TestCase):
    def test_tail_percentile_leaves_ten_samples_beyond(self):
        for count, expected in ((15, 100.0), (29, 100.0), (40, 75.0), (99, 75.0), (100, 90.0), (3000, 99.0)):
            latencies = [float(k) for k in range(count)]
            percentile, value = run.tail(latencies)
            self.assertEqual(percentile, expected, count)
            self.assertGreaterEqual(sum(v > value for v in latencies), 10 if percentile < 100 else 0)

    def test_benchmark_json_matches_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], workload.LAYER_METRICS)
        summary = {
            "latencies": [0.01] * 30,
            "environment": {"runs_per_slot": {"min": 3, "median": 4, "max": 9}},
            "attempted": 31,
            "failures": [],
            "peak_rss_kb": 1024,
        }
        metrics, _ = run.end_to_end(summary, [0.1])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, {k: v["unit"] for k, v in metrics.items()})


if __name__ == "__main__":
    unittest.main()
