package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineJSON = `{
  "bench": "locateall-default",
  "wall_seconds": 0.354,
  "allocs_per_op": 100000,
  "estimate_error_m": {"n": 75, "mean_m": 2.017, "p50_m": 1.550, "p90_m": 4.319, "worst_m": 9.164}
}`

// A run matching the baseline (slightly better on every axis).
const goodJSON = `{
  "bench": "locateall-default",
  "trials": 25,
  "located": 75,
  "wall_seconds": 0.300,
  "allocs_per_op": 90000,
  "estimate_error_m": {"n": 75, "mean_m": 2.017, "p50_m": 1.550, "p90_m": 4.319, "worst_m": 9.164}
}`

// A deliberately regressed run: wall +40 %, allocs +3x, p90 +30 %.
const regressedJSON = `{
  "bench": "locateall-default",
  "trials": 25,
  "located": 75,
  "wall_seconds": 0.500,
  "allocs_per_op": 300000,
  "estimate_error_m": {"n": 75, "mean_m": 2.6, "p50_m": 1.9, "p90_m": 5.6, "worst_m": 11.0}
}`

// TestGatePassesGoodRun pins the zero exit code for a run within
// tolerance of the baseline.
func TestGatePassesGoodRun(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineJSON)
	good := writeFile(t, dir, "good.json", goodJSON)
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", base, "-compare", good}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for a good run; stderr: %s", code, errb.String())
	}
}

// TestGateFailsRegressedRun pins the acceptance criterion: a
// deliberately regressed report exits nonzero and names every violated
// axis.
func TestGateFailsRegressedRun(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineJSON)
	bad := writeFile(t, dir, "bad.json", regressedJSON)
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-compare", bad}, &out, &errb)
	if code == 0 {
		t.Fatalf("exit 0 for a regressed run; stdout: %s", out.String())
	}
	for _, axis := range []string{"wall_seconds", "allocs_per_op", "estimate_error_m.mean_m", "estimate_error_m.p90_m"} {
		if !bytes.Contains(errb.Bytes(), []byte(axis)) {
			t.Errorf("stderr does not name violated axis %q:\n%s", axis, errb.String())
		}
	}
}

// TestGateMissingBaseline pins the error path: an absent or invalid
// baseline is a failure, never a silent pass.
func TestGateMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	good := writeFile(t, dir, "good.json", goodJSON)
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", filepath.Join(dir, "nope.json"), "-compare", good}, &out, &errb); code == 0 {
		t.Fatal("exit 0 with a missing baseline")
	}
}

// TestGateLooseTolerance verifies the tolerance flags reach the gate: a
// wall regression inside a widened tolerance passes.
func TestGateLooseTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineJSON)
	slow := writeFile(t, dir, "slow.json", `{
	  "bench": "locateall-default",
	  "located": 75,
	  "wall_seconds": 0.48,
	  "allocs_per_op": 100000,
	  "estimate_error_m": {"n": 75, "mean_m": 2.017, "p50_m": 1.550, "p90_m": 4.319, "worst_m": 9.164}
	}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", base, "-compare", slow}, &out, &errb); code == 0 {
		t.Fatal("exit 0 for +36% wall at default 10% tolerance")
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, "-compare", slow, "-wall-tol", "0.5"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with -wall-tol 0.5; stderr: %s", code, errb.String())
	}
}

// TestGateDefaultBaseline: with no -baseline, the gate reads
// BENCH_pr4.json — the committed baseline `make benchgate` gates
// against — from the working directory.
func TestGateDefaultBaseline(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "BENCH_pr4.json", baselineJSON)
	good := writeFile(t, dir, "good.json", goodJSON)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var out, errb bytes.Buffer
	if code := run([]string{"-compare", good}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with the default baseline; stderr: %s", code, errb.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("BENCH_pr4.json")) {
		t.Errorf("PASS line does not name BENCH_pr4.json: %s", out.String())
	}
}
