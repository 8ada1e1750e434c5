package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnapshot writes a minimal bench.sh snapshot with one benchmark
// entry, in the same one-entry-per-line shape the script itself emits.
func writeSnapshot(t *testing.T, dir, name string, nsOp string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	body := "{\n  \"benchmarks\": [\n" +
		"    {\"name\": \"BenchmarkGradient\", \"ns_op\": " + nsOp + ", \"b_op\": 0, \"allocs_op\": 3}\n" +
		"  ],\n  \"cpu\": \"test\",\n  \"goos\": \"linux\",\n  \"goarch\": \"amd64\"\n}\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCompare(t *testing.T, now, prev string) (string, int) {
	t.Helper()
	cmd := exec.Command("sh", "scripts/bench.sh", "compare", now, prev)
	cmd.Env = append(os.Environ(), "BENCH_FAIL_THRESHOLD=20")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("bench.sh compare: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestBenchCompareGate drives the regression gate in scripts/bench.sh
// through its behaviors: a clean run passes, a past-threshold slowdown
// fails, a zero/missing prior ns/op is reported as informational without
// gating (dividing by it would be meaningless, and a zero prior almost
// always means a truncated snapshot), and a run of several passes is
// gated on each benchmark's median, so one cold pass does not trip it.
func TestBenchCompareGate(t *testing.T) {
	if _, err := os.Stat("scripts/bench.sh"); err != nil {
		t.Skip("scripts/bench.sh not present")
	}
	dir := t.TempDir()

	now := writeSnapshot(t, dir, "now.json", "110")

	t.Run("within threshold passes", func(t *testing.T) {
		prev := writeSnapshot(t, dir, "prev-ok.json", "100")
		out, code := runCompare(t, now, prev)
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "OK: no benchmark regressed") {
			t.Fatalf("missing OK line:\n%s", out)
		}
	})

	t.Run("regression fails", func(t *testing.T) {
		prev := writeSnapshot(t, dir, "prev-fast.json", "50")
		out, code := runCompare(t, now, prev)
		if code == 0 {
			t.Fatalf("exit 0, want nonzero\n%s", out)
		}
		if !strings.Contains(out, "REGRESSION") {
			t.Fatalf("missing REGRESSION flag:\n%s", out)
		}
	})

	t.Run("median of passes gates", func(t *testing.T) {
		prev := writeSnapshot(t, dir, "prev-median.json", "100")
		// Three passes, the first one cold: 3x the others. Its median
		// (105) is within 20% of the prior; the cold pass alone is not.
		raw := filepath.Join(dir, "raw.txt")
		body := "goos: linux\ngoarch: amd64\ncpu: test\n" +
			"BenchmarkGradient-2   \t     100\t       300 ns/op\t       8 B/op\t       3 allocs/op\n" +
			"BenchmarkEvaluate/M4-2\t    1000\t        40 ns/op\t       0 B/op\t       0 allocs/op\n" +
			"BenchmarkGradient-2   \t     100\t       100 ns/op\t       0 B/op\t       3 allocs/op\n" +
			"BenchmarkEvaluate/M4-2\t    1000\t        30 ns/op\t       0 B/op\t       0 allocs/op\n" +
			"BenchmarkGradient-2   \t     100\t       105 ns/op\t       0 B/op\t       3 allocs/op\n"
		if err := os.WriteFile(raw, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		merged := filepath.Join(dir, "median.json")
		if out, err := exec.Command("sh", "scripts/bench.sh", "summarize", raw, merged).CombinedOutput(); err != nil {
			t.Fatalf("bench.sh summarize: %v\n%s", err, out)
		}
		blob, err := os.ReadFile(merged)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`{"name": "BenchmarkGradient", "ns_op": 105, "b_op": 0, "allocs_op": 3}`,
			`{"name": "BenchmarkEvaluate/M4", "ns_op": 35, "b_op": 0, "allocs_op": 0}`,
		} {
			if !strings.Contains(string(blob), want) {
				t.Fatalf("summary lacks %s:\n%s", want, blob)
			}
		}
		if strings.Index(string(blob), "BenchmarkGradient") > strings.Index(string(blob), "BenchmarkEvaluate") {
			t.Fatalf("summary reorders benchmarks:\n%s", blob)
		}
		if out, code := runCompare(t, merged, prev); code != 0 {
			t.Fatalf("median gate: exit %d, want 0\n%s", code, out)
		}
		cold := writeSnapshot(t, dir, "cold.json", "300")
		if out, code := runCompare(t, cold, prev); code == 0 {
			t.Fatalf("cold pass alone: exit 0, want nonzero\n%s", out)
		}
	})

	t.Run("zero prior is informational", func(t *testing.T) {
		prev := writeSnapshot(t, dir, "prev-zero.json", "0")
		out, code := runCompare(t, now, prev)
		if code != 0 {
			t.Fatalf("exit %d, want 0 (zero prior must not gate)\n%s", code, out)
		}
		if !strings.Contains(out, "informational") {
			t.Fatalf("missing informational flag:\n%s", out)
		}
	})
}
