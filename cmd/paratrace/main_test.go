package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownWorkloadExits2 pins that an unknown workload is a usage
// error, not a panic: exit code 2, the error on stderr, and no output file
// left behind, on the streamed and the in-memory paths alike.
func TestUnknownWorkloadExits2(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.prv")
	for _, args := range [][]string{
		{"-workload", "bogus", "-o", out},
		{"-workload", "bogus", "-ascii"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), `unknown workload "bogus"`) {
			t.Fatalf("%v: stderr %q does not name the workload", args, stderr.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%v: output file left behind (stat: %v)", args, err)
		}
	}
}

// TestStreamedTraceMatchesStdout pins that the streamed .prv written to a
// file is byte-identical to the in-memory export printed to stdout.
func TestStreamedTraceMatchesStdout(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.prv")
	args := []string{"-workload", "metbench", "-mode", "uniform"}
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-o", out), &stdout, &stderr); code != 0 {
		t.Fatalf("streamed run: exit %d (stderr %q)", code, stderr.String())
	}
	streamed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("stdout run: exit %d (stderr %q)", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "#Paraver") || !bytes.Equal(streamed, stdout.Bytes()) {
		t.Fatalf("streamed .prv (%d bytes) differs from the stdout export (%d bytes)",
			len(streamed), stdout.Len())
	}
}
